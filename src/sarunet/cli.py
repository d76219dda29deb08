"""Command-line interface: synthesize data, train, evaluate, predict, explain.

Exit codes are a stable contract: 0 success, 2 usage error, 3 data or
configuration error, 4 numeric failure. ``main`` has one handler, which
picks the code by the error's class: a ``UsageError`` exits 2, a
``NumericError`` 4, and every other package error and an ``OSError`` 3. An
input file of the wrong format (another magic) exits 2; a truncated or
corrupt container or checkpoint (checkpoint training metadata that does
not parse or is out of its key's range included, named by key), a
malformed config file line or value, and an OS error on a path (a missing
file, a directory given as a file, an output path that cannot be made or
written) exit 3. Configuration precedence is flags > config file
(``key=value`` lines, ``#`` comments) > built-in defaults. A config key is
an option name, with ``-`` or ``_``; ``force`` is one. A key that no
command takes exits 3 naming it; a key that only another command takes is
ignored unparsed, so one file can serve ``train`` and ``evaluate``. Every
artifact-producing command writes one JSON manifest (config snapshot, seed,
sha256 hashes of input files, output paths, wall-clock timings); its
``config`` record holds every option except the paths and ``--force``, plus
values the run derived. Unless given ``--force``, a command exits 3 and
writes nothing when one of its outputs, its manifest included, already
exists; it checks before it trains, scores, predicts or explains. Manifest
timing fields and the ``seconds`` history column are the only outputs that
vary between identical reruns. A command hashes its input files (sha256 of
each whole file) on one worker thread while it reads and computes, and
joins that thread before it writes its first output or returns, error or
not.

A cloud setup's targets are the next six frames, so ``--lead-minutes`` with
``--cloud`` exits 2 in ``train`` and in a persistence-only ``evaluate``, as
it does against a cloud checkpoint.

``train`` and ``evaluate`` build rain-gated windows over the whole series
and split the window list chronologically by anchor (70/15/15); the
normalization scale comes from the frames the train windows read. Boundary
rule: windows on either side of a split boundary may share frames, and no
purge gap is applied. Their manifests record it under ``splits``: the
windows per split and the frames shared by each pair of splits.

``predict`` writes precipitation as clamped non-negative values in raw
units; for binary (cloud) checkpoints it writes binary masks, each pixel 1
where the prediction is >= 0.5 (the evaluation rule), else 0. When a
checkpoint's model predicts a value that is not finite, ``evaluate``,
``predict`` and ``explain`` exit 4 and write nothing. A checkpoint whose
training metadata contradicts its model's input or output channels exits 3.

BLAS threads are capped with the standard variables (``OPENBLAS_NUM_THREADS``,
``OMP_NUM_THREADS``, ``MKL_NUM_THREADS``) set before the process starts; numpy
has read them by the time this module loads. The model stack (``blocks``,
``model``, ``train``, ``metrics``, ``gradcam``) is imported inside the
commands that use it, so ``synth`` starts without it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import threading
import time
from pathlib import Path

import numpy as np

from . import __version__, data
from .errors import ConfigurationError, DataError, NumericError, SarunetError, UsageError

PRECIP_INPUT_FRAMES = (6, 12, 18)
PRECIP_LEAD_MINUTES = (30, 60, 90, 120, 180)
CLOUD_INPUT_FRAMES = 4
CLOUD_LEAD_COUNT = 6

_EXIT_USAGE = 2
_EXIT_DATA = 3
_EXIT_NUMERIC = 4


def _sha256(path: Path) -> str:
    """Hex sha256 of the whole file."""
    with open(path, "rb") as f:
        return hashlib.file_digest(f, "sha256").hexdigest()


class _Digests:
    """``_sha256`` of each input path, on one worker thread that runs while
    the ``with`` block does the command's own work. Leaving the block joins
    the thread on every path, so an error of the command's own wins over the
    worker's and no thread outlives the command. ``collect()``, called after
    the block and before the first output is written (``--force`` may
    overwrite an input), returns ``{str(path): digest}`` or raises the error
    the worker met."""

    def __init__(self, *paths: Path):
        self._paths = paths
        self._digests: dict[str, str] = {}
        self._error: Exception | None = None
        self._thread = threading.Thread(target=self._run, name="sarunet-sha256")

    def _run(self) -> None:
        try:
            for path in self._paths:
                self._digests[str(path)] = _sha256(path)
        except Exception as e:      # raised on the command's thread by collect()
            self._error = e

    def __enter__(self) -> "_Digests":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._thread.join()

    def collect(self) -> dict[str, str]:
        self._thread.join()
        if self._error is not None:
            raise self._error
        return self._digests


def _parse_config_file(path: Path) -> dict[str, str]:
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise ConfigurationError(f"config file {path}: not UTF-8 text ({e})") from None
    values = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, val = line.partition("=")
        if not sep:
            raise ConfigurationError(f"config file {path}: malformed line {raw!r} "
                                     "(expected key=value)")
        values[key.strip().replace("-", "_")] = val.strip()
    return values


_BOOLS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def _from_text(kind, raw: str):
    """A config-file value as an option of type ``kind``; KeyError or
    ValueError when it is not one."""
    if kind is bool:
        return _BOOLS[raw.lower()]
    if isinstance(kind, tuple):
        if raw not in kind:
            raise ValueError(raw)
        return raw
    return kind(raw)


def _config_values(path: Path, command: str) -> dict:
    """``command``'s option values from the --config file at ``path``. A key
    no command takes, or a value that does not convert, is a
    ConfigurationError; a key that only another command takes is skipped
    unparsed."""
    kinds = {name: kind for name, kind, _, _ in _options(command)}
    known = {name for other in _COMMANDS for name, *_ in _options(other)}
    values = {}
    for key, raw in _parse_config_file(path).items():
        if key not in known:
            raise ConfigurationError(f"config file {path}: unknown key {key!r} "
                                     f"(= {raw!r}); no command takes it")
        if key in kinds:
            try:
                values[key] = _from_text(kinds[key], raw)
            except (KeyError, ValueError):
                raise ConfigurationError(f"config file {path}: invalid value {raw!r} "
                                         f"for key {key!r}") from None
    return values


def _resolve_options(args: argparse.Namespace) -> None:
    """Fill each option the flags left unset (None) from the --config file,
    else from its table default."""
    values = _config_values(Path(args.config), args.command) if args.config else {}
    for name, _, default, _ in _options(args.command):
        if getattr(args, name) is None:
            setattr(args, name, values.get(name, default))


def _require(args, names) -> None:
    missing = [n for n in names if getattr(args, n, None) is None]
    if missing:
        flags = ", ".join("--" + n.replace("_", "-") for n in missing)
        raise UsageError(f"missing required option(s): {flags}")


def _check_threshold(threshold: float) -> None:
    if not (math.isfinite(threshold) and threshold >= 0.0):
        raise UsageError(f"--threshold must be a finite rain rate >= 0 mm/h, got {threshold}")


def _refuse_overwrite(paths, force: bool) -> None:
    existing = [str(p) for p in paths if p.exists()]
    if existing and not force:
        raise DataError("refusing to overwrite existing output(s) "
                        f"{existing}; pass --force to replace them")


def _write_manifest(path: Path, args, inputs: dict, outputs: list, started: float,
                    splits=None, **derived) -> None:
    """The command's manifest. Its ``config`` record holds every option but
    the paths and --force, plus the ``derived`` values the run worked out."""
    config = {name: getattr(args, name)
              for name, kind, _, _ in _COMMANDS[args.command][2] if kind is not Path}
    manifest = {
        "command": args.command,
        "config": {**config, **derived},
        "inputs_sha256": inputs,
        "outputs": [str(o) for o in outputs],
        "seconds": round(time.time() - started, 3),
        "tool_version": __version__,
    }
    if splits is not None:
        manifest["splits"] = splits
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


# -- shared pipeline helpers -----------------------------------------------------

def _window_spec(in_frames: int, lead_minutes, cloud: bool, interval: int):
    if interval < 1:
        # NWDS files may hold interval 0 (Grad-CAM heatmaps), never a series to window
        raise DataError(f"the series' frame interval must be >= 1 minute, got {interval}")
    if cloud:
        if in_frames != CLOUD_INPUT_FRAMES:
            raise ConfigurationError(
                f"cloud setups use --in-frames {CLOUD_INPUT_FRAMES} "
                f"(got {in_frames}); outputs are the next {CLOUD_LEAD_COUNT} frames")
        return data.WindowSpec(CLOUD_INPUT_FRAMES, tuple(range(1, CLOUD_LEAD_COUNT + 1)))
    if in_frames not in PRECIP_INPUT_FRAMES or lead_minutes not in PRECIP_LEAD_MINUTES:
        grid = ", ".join(f"{i}in/{m}min" for i in PRECIP_INPUT_FRAMES
                         for m in PRECIP_LEAD_MINUTES)
        raise ConfigurationError(
            f"invalid precipitation setup --in-frames {in_frames} "
            f"--lead-minutes {lead_minutes}; valid grid: {grid}")
    if lead_minutes % interval != 0:
        raise ConfigurationError(
            f"lead of {lead_minutes} min is not a whole number of "
            f"{interval}-min frames")
    return data.WindowSpec(in_frames, (lead_minutes // interval,))


def _window_setup(args, series):
    """Window spec and rain-gate fraction of the --in-frames, --lead-minutes,
    --cloud and --select-fraction setup over ``series``. A cloud setup sets
    an unset ``args.in_frames`` to 4 and has no gate by default;
    precipitation sets an unset ``args.select_fraction`` to 0.5. The
    manifest then records the values used. A cloud setup's targets are the
    next six frames, so ``--lead-minutes`` with ``--cloud`` is a
    UsageError."""
    if args.cloud and args.in_frames is None:
        args.in_frames = CLOUD_INPUT_FRAMES
    if not args.cloud and args.select_fraction is None:
        args.select_fraction = 0.5
    if args.cloud and args.lead_minutes is not None:
        raise UsageError(f"--lead-minutes {args.lead_minutes} does not apply to --cloud, "
                         f"whose targets are the next {CLOUD_LEAD_COUNT} frames")
    _require(args, ["in_frames"] if args.cloud else ["in_frames", "lead_minutes"])
    spec = _window_spec(args.in_frames, args.lead_minutes, args.cloud,
                        series.interval_minutes)
    return spec, args.select_fraction


def _checkpoint_setup(args, spec, fraction, interval: int) -> None:
    """Fill each unset --in-frames, --lead-minutes, --cloud and
    --select-fraction (None; --cloud: false) with the setup the checkpoint
    was trained on, so the manifest records the setup scored. A set option
    that disagrees is a UsageError naming it and both values."""
    cloud = len(spec.target_offsets) == CLOUD_LEAD_COUNT   # precipitation has one lead
    trained = {"in_frames": spec.input_frames,
               "lead_minutes": None if cloud else spec.target_offsets[0] * interval,
               "cloud": cloud, "select_fraction": fraction}
    clashes = []
    for name, value in trained.items():
        given = getattr(args, name)
        if given is None or given is False:
            setattr(args, name, value)
        elif given != value:
            clashes.append(f"--{name.replace('_', '-')} {given} (checkpoint: {value})")
    if clashes:
        raise UsageError("setup option(s) disagree with the checkpoint: " + ", ".join(clashes))


_SPLIT_NAMES = ("train", "val", "test")


def _gated_windows(series, spec, fraction):
    """The windows over ``series`` whose targets pass the rain gate of
    ``fraction`` (None: no gate), and the phrase error messages give the
    gate."""
    if fraction is None:
        return data.make_windows(series, spec), ""
    return (data.make_windows(series, spec, data.select_rainy(series, fraction)),
            f" passing the rain gate (select fraction {fraction})")


def _window_frames(windows) -> set[int]:
    return {i for inputs, targets in windows for i in inputs + targets}


def _assemble(series, spec, select_fraction, scale=None, need=()):
    """Rain-gated windows over the whole series, split chronologically by
    anchor into train/val/test (``split_bounds`` ratios), with one scale.

    Boundary rule: windows on either side of a split boundary may share
    frames; nothing is purged (a purge gap of one window span would empty
    the val split of short series). ``_split_summary`` records the sharing.
    The scale, unless given, is ``normalization_scale`` over the frames the
    train windows read. Each split named in ``need`` must hold a window,
    else ``DataError``; a derived scale needs ``train``.
    """
    windows, gate = _gated_windows(series, spec, select_fraction)
    parts = [windows[lo:hi] for lo, hi in data.split_bounds(len(windows))]
    if scale is None:
        need = ("train",) + tuple(need)
    for name, part in zip(_SPLIT_NAMES, parts):
        if name in need and not part:
            span = spec.input_frames + max(spec.target_offsets)
            raise DataError(
                f"{name} split holds no windows: the {len(series)}-frame series "
                f"gives {len(windows)} window(s){gate}, and one window spans "
                f"{span} frames")
    if scale is None:
        read = sorted(_window_frames(parts[0]))
        scale = data.normalization_scale(data.FrameSeries(
            series.frames[read], series.interval_minutes, series.unit))
    return [data.WindowDataset(series, part, scale) for part in parts], scale


def _split_summary(datasets) -> dict:
    """Deterministic manifest record: windows per split, and frames read by
    windows of both splits in each pair (train|test is non-zero only when
    the val split is shorter than one window span)."""
    frames = [_window_frames(ds.windows) for ds in datasets]
    pairs = ((0, 1), (1, 2), (0, 2))
    return {
        "windows": {n: len(ds) for n, ds in zip(_SPLIT_NAMES, datasets)},
        "shared_frames": {f"{_SPLIT_NAMES[a]}|{_SPLIT_NAMES[b]}":
                          len(frames[a] & frames[b]) for a, b in pairs},
    }


def _model_display_name(variant: str) -> str:
    return "sar-unet" if variant == "sar" else "smaat-config"


def _checkpoint_extras(spec, series, scale, select_fraction) -> dict:
    return {
        "input_frames": str(spec.input_frames),
        "target_offsets": ",".join(str(o) for o in spec.target_offsets),
        "interval_minutes": str(series.interval_minutes),
        "unit": series.unit,
        "norm_scale": repr(float(scale)),
        "select_fraction": "" if select_fraction is None else repr(select_fraction),
    }


# Each training metadata key a checkpoint must hold: its parser (ValueError
# when the text is not such a value), the rule the value keeps (None: any)
# and that rule as error messages give it.
_TRAINED_META = (
    ("input_frames", int, lambda v: v >= 1, "an integer >= 1"),
    ("target_offsets", lambda s: tuple(int(o) for o in s.split(",")),
     lambda v: min(v) >= 1, "comma-separated integers >= 1"),
    ("norm_scale", float, lambda v: 0.0 < v < math.inf, "a finite number > 0"),
    ("select_fraction", lambda s: float(s) if s else None,
     lambda v: v is None or 0.0 <= v <= 1.0, "empty or a number in [0, 1]"),
    ("interval_minutes", int, lambda v: v >= 1, "an integer >= 1"),
    ("unit", str, None, "text"),
)


def _load_trained(ckpt: Path, series):
    """(model, spec, scale, fraction): the checkpoint's model and the window
    spec, normalization scale and rain-gate fraction it was trained with,
    checked against the model and ``series``. A missing metadata key is a
    UsageError; a value that does not parse or breaks its key's rule in
    :data:`_TRAINED_META` is a DataError naming the checkpoint and the key,
    as is metadata that contradicts the model's channels; a series of
    another interval or unit is a ConfigurationError."""
    from .model import load_checkpoint
    model, meta = load_checkpoint(ckpt)
    values = []
    for key, parse, rule, wanted in _TRAINED_META:
        if key not in meta:
            raise UsageError(f"checkpoint {ckpt} is missing training metadata key {key!r}")
        try:
            value = parse(meta[key])
            valid = rule is None or rule(value)
        except ValueError:
            valid = False
        if not valid:
            raise DataError(f"checkpoint {ckpt}: training metadata {key}={meta[key]!r} "
                            f"is not {wanted}")
        values.append(value)
    input_frames, offsets, scale, fraction, interval, unit = values
    spec = data.WindowSpec(input_frames, offsets)
    trained = (spec.input_frames, len(spec.target_offsets))
    built = (model.config.in_channels, model.config.out_channels)
    if trained != built:
        raise DataError(
            f"checkpoint training metadata ({trained[0]} input frame(s), {trained[1]} "
            f"target offset(s)) contradicts its model ({built[0]} input channel(s), "
            f"{built[1]} output channel(s))")
    diffs = []
    if interval != series.interval_minutes:
        diffs.append(f"interval_minutes: checkpoint {interval} "
                     f"vs data {series.interval_minutes}")
    if unit != series.unit:
        diffs.append(f"unit: checkpoint {unit} vs data {series.unit}")
    if diffs:
        raise ConfigurationError("checkpoint/data mismatch:\n  " + "\n  ".join(diffs))
    return model, spec, scale, fraction


# -- commands --------------------------------------------------------------------

def cmd_synth(args) -> int:
    started = time.time()
    _require(args, ["out"])
    out = args.out
    manifest_path = out.with_suffix(out.suffix + ".manifest.json")
    _refuse_overwrite([out, manifest_path], args.force)
    try:
        wind = tuple(float(p) for p in args.wind.split(","))
    except ValueError:
        wind = ()
    if len(wind) != 2 or not np.isfinite(wind).all():
        raise UsageError(f"--wind needs two finite numbers DX,DY (px/frame), got {args.wind!r}")
    series = data.synth_generate(seed=args.seed, n_frames=args.frames,
                                 height=args.size, width=args.size,
                                 n_blobs=args.blobs, wind=wind, growth=args.growth,
                                 jitter=args.jitter,
                                 interval_minutes=args.interval)
    if args.binary:
        thresh = float(np.median(series.frames[series.frames > 0])) \
            if (series.frames > 0).any() else 1.0
        series = data.FrameSeries((series.frames >= thresh).astype("float32"),
                                  args.interval, "binary")
    out.parent.mkdir(parents=True, exist_ok=True)
    data.save_nwds(out, series)
    _write_manifest(manifest_path, args, {}, [out], started)
    print(f"wrote {out} ({args.frames} frames, {args.size}x{args.size})")
    return 0


def cmd_train(args) -> int:
    from .blocks import param_count
    from .model import ModelConfig, build, plain_unet_param_count, save_checkpoint
    from .train import TrainConfig, fit
    started = time.time()
    _require(args, ["data", "out_dir"])
    data_path, out_dir = args.data, args.out_dir
    with _Digests(data_path) as digests:
        series = data.load_nwds(data_path)
        spec, fraction = _window_setup(args, series)
        artifacts = [out_dir / "model.ckpt", out_dir / "history.csv",
                     out_dir / "best.ckpt", out_dir / "last.ckpt",
                     out_dir / "manifest.json"]
        _refuse_overwrite(artifacts, args.force)
        datasets, scale = _assemble(series, spec, fraction, need=("train", "val"))
        train_ds, val_ds, _test_ds = datasets
        out_ch = len(spec.target_offsets)
        config = ModelConfig(in_channels=spec.input_frames, out_channels=out_ch,
                             base_channels=args.base_channels, variant=args.variant,
                             cbam_reduction=args.cbam_reduction)
        model = build(config, seed=args.seed)
    inputs = digests.collect()
    tc = TrainConfig(max_epochs=args.max_epochs, batch_size=args.batch_size,
                     seed=args.seed, early_stop_patience=args.early_stop_patience)
    result = fit(model, train_ds, val_ds, tc, out_dir=out_dir)
    extras = _checkpoint_extras(spec, series, scale, fraction)
    save_checkpoint(out_dir / "model.ckpt", model, extras)
    _write_manifest(out_dir / "manifest.json", args, inputs, artifacts[:4], started,
                    splits=_split_summary(datasets), norm_scale=scale,
                    best_epoch=result.best_epoch, best_val_mse=result.best_val_loss,
                    params=param_count(model),
                    plain_unet_params=plain_unet_param_count(
                        config.in_channels, config.out_channels, config.base_channels))
    print(f"trained {_model_display_name(args.variant)}: best epoch "
          f"{result.best_epoch}, val MSE {result.best_val_loss:.6g}")
    print(f"wrote {out_dir / 'model.ckpt'}")
    return 0


def cmd_evaluate(args) -> int:
    from .metrics import (EvalSetup, evaluate_setup, render_report_table,
                          write_per_lead_csv, write_report_csv)
    started = time.time()
    _require(args, ["data", "out_dir"])
    _check_threshold(args.threshold)
    ckpt, data_path, out_dir = args.checkpoint, args.data, args.out_dir
    with _Digests(data_path, *([] if ckpt is None else [ckpt])) as digests:
        series = data.load_nwds(data_path)
        model = None
        if ckpt is not None:
            model, spec, scale, fraction = _load_trained(ckpt, series)
            _checkpoint_setup(args, spec, fraction, series.interval_minutes)
        else:
            if args.baseline != "persistence":
                raise UsageError("evaluation without --checkpoint needs "
                                 "--baseline persistence")
            spec, fraction = _window_setup(args, series)
            scale = None

        artifacts = [out_dir / "report.csv", out_dir / "report.txt",
                     out_dir / "per_lead.csv", out_dir / "manifest.json"]
        _refuse_overwrite(artifacts, args.force)
        datasets, scale = _assemble(series, spec, fraction, scale=scale,
                                    need=("test",))
        test_ds = datasets[2]
        leads = tuple(o * series.interval_minutes for o in spec.target_offsets)
        input_minutes = spec.input_frames * series.interval_minutes

        def setup_for(name):
            return EvalSetup(model_name=name, input_minutes=input_minutes,
                             lead_minutes=leads, unit=series.unit, scale=scale,
                             interval_minutes=series.interval_minutes,
                             threshold_mm_per_h=args.threshold)

        reports = []
        if model is not None:
            reports.append(evaluate_setup(
                model, test_ds, setup_for(_model_display_name(model.config.variant)),
                batch_size=args.batch_size))
        if args.baseline == "persistence":       # scored last, listed first
            reports.insert(0, evaluate_setup("persistence", test_ds,
                                             setup_for("persistence"),
                                             batch_size=args.batch_size))
    inputs = digests.collect()
    out_dir.mkdir(parents=True, exist_ok=True)
    write_report_csv(out_dir / "report.csv", reports)
    write_per_lead_csv(out_dir / "per_lead.csv", reports)
    table = render_report_table(reports)
    (out_dir / "report.txt").write_text(table, encoding="utf-8")
    _write_manifest(out_dir / "manifest.json", args, inputs, artifacts[:3], started,
                    splits=_split_summary(datasets), norm_scale=scale)
    sys.stdout.write(table)
    return 0


def _load_window(ckpt: Path, data_path: Path, index: int, flag: str):
    """(model, series, x, scale) for window ``index`` of the checkpoint's
    rain-gated windows over the series; ``x`` is the normalized
    ``[1, input_frames, H, W]`` input. An index outside the window list is a
    usage error naming ``flag``; an empty window list is a DataError."""
    series = data.load_nwds(data_path)
    model, spec, scale, fraction = _load_trained(ckpt, series)
    windows, gate = _gated_windows(series, spec, fraction)
    if not windows:
        raise DataError(f"the {len(series)}-frame series gives no window{gate}")
    if not 0 <= index < len(windows):
        raise UsageError(f"{flag} {index} outside [0, {len(windows)})")
    x = data.WindowDataset(series, [windows[index]], scale).batch([0]).inputs
    return model, series, x, scale


def cmd_predict(args) -> int:
    from .metrics import binarize
    from .model import check_prediction
    started = time.time()
    _require(args, ["checkpoint", "data", "out"])
    ckpt, data_path, out = args.checkpoint, args.data, args.out
    manifest_path = out.with_suffix(out.suffix + ".manifest.json")
    _refuse_overwrite([out, manifest_path], args.force)
    with _Digests(ckpt, data_path) as digests:
        model, series, x, scale = _load_window(ckpt, data_path, args.window_index,
                                               "--window-index")
        pred = check_prediction(model.forward(x)[0])
        if series.unit == "binary":
            frames = binarize(pred.data[0], series.unit)
        else:
            frames = np.maximum(pred.data[0], 0.0) * np.float32(scale)  # clamp: rain >= 0
    inputs = digests.collect()
    out.parent.mkdir(parents=True, exist_ok=True)
    data.save_nwds(out, data.FrameSeries(frames, series.interval_minutes, series.unit))
    _write_manifest(manifest_path, args, inputs, [out], started)
    print(f"wrote {out} ({frames.shape[0]} predicted frame(s))")
    return 0


def cmd_explain(args) -> int:
    from .gradcam import explain_suite, save_heatmap_nwds, suite_grid, write_ppm
    started = time.time()
    _require(args, ["checkpoint", "data", "out_dir"])
    _check_threshold(args.threshold)
    ckpt, data_path, out_dir = args.checkpoint, args.data, args.out_dir
    with _Digests(ckpt, data_path) as digests:
        model, series, x, scale = _load_window(ckpt, data_path, args.input_window,
                                               "--input-window")
        if args.targets == "all":
            grid = suite_grid(model)
            layers = list(grid)
        else:
            grid = {}
            layers = [n.strip() for n in args.targets.split(",") if n.strip()]
            if not layers:
                raise UsageError("--targets needs 'all' or a comma-separated name list")
        # the file names follow from the layer names: refuse before the pass
        index_path = out_dir / "index.csv"
        files = [out_dir / (n.replace(".", "_") + ext) for n in layers
                 for ext in (".nwds", ".ppm")]
        _refuse_overwrite(files + [index_path, out_dir / "manifest.json"], args.force)
        maps = explain_suite(model, x, layers, unit=series.unit, scale=scale,
                             interval_minutes=series.interval_minutes,
                             threshold_mm_per_h=args.threshold)
    inputs = digests.collect()
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(index_path, "w", encoding="utf-8") as f:
        f.write("target,section,row,col,file,raw_max\n")
        outputs = [index_path]
        for hm in maps:
            stem = hm.layer.replace(".", "_")
            nwds_path = out_dir / f"{stem}.nwds"
            ppm_path = out_dir / f"{stem}.ppm"
            save_heatmap_nwds(nwds_path, hm)
            write_ppm(ppm_path, hm)
            outputs += [nwds_path, ppm_path]
            section, row, col = grid.get(hm.layer, ("custom", -1, -1))
            f.write(f"{hm.layer},{section},{row},{col},"
                    f"{nwds_path.name},{hm.raw_max!r}\n")
    _write_manifest(out_dir / "manifest.json", args, inputs, outputs, started)
    print(f"wrote {len(maps)} heatmap(s) to {out_dir}")
    return 0


# -- options ---------------------------------------------------------------------

# One declaration per option: (name, type, default, help). A bool type is an
# on/off flag, a tuple lists the allowed values, and a Path type marks a path,
# which manifests record by hash instead of under "config". ``build_parser``
# adds --config and _FORCE to every command.
_SETUP = (
    ("in_frames", int, None, "input frames: 6, 12 or 18 (cloud: 4)"),
    ("lead_minutes", int, None, "precipitation lead: 30, 60, 90, 120 or 180"),
    ("cloud", bool, False, "binary cloud setup: 4 input frames, the next 6 as targets"),
    ("select_fraction", float, None, "rain-gate fraction (default 0.5; cloud: no gate)"),
)
_FORCE = ("force", bool, False, "overwrite existing outputs")
_COMMANDS = {
    "synth": (cmd_synth, "generate a synthetic NWDS dataset", (
        ("seed", int, 0, None),
        ("frames", int, 200, None),
        ("size", int, 96, "square frame side, >= 32"),
        ("blobs", int, 3, None),
        ("wind", str, "1,0", "DX,DY in px/frame"),
        ("growth", float, 1.0, None),
        ("jitter", float, 0.0, "per-frame displacement noise"),
        ("interval", int, 5, "minutes between frames"),
        ("binary", bool, False, "threshold to a binary cloud-style dataset"),
        ("out", Path, None, None))),
    "train": (cmd_train, "train a model on an NWDS dataset", (
        ("data", Path, None, None),
        ("variant", ("sar", "smaat"), "sar", None),
        *_SETUP,
        ("base_channels", int, 4, None),
        ("cbam_reduction", int, 4, None),
        ("seed", int, 0, None),
        ("max_epochs", int, 200, None),
        ("batch_size", int, 6, None),
        ("early_stop_patience", int, 15, None),
        ("out_dir", Path, None, None))),
    "evaluate": (cmd_evaluate, "evaluate a checkpoint and/or persistence", (
        ("checkpoint", Path, None, None),
        ("data", Path, None, None),
        ("baseline", ("persistence",), None, None),
        ("threshold", float, 0.5, "binarization threshold, mm/h"),
        ("batch_size", int, 6, None),
        *_SETUP,
        ("out_dir", Path, None, None))),
    "predict": (cmd_predict, "write model predictions for one window", (
        ("checkpoint", Path, None, None),
        ("data", Path, None, None),
        ("window_index", int, 0, None),
        ("out", Path, None, None))),
    "explain": (cmd_explain, "Grad-CAM heatmaps for a checkpoint", (
        ("checkpoint", Path, None, None),
        ("data", Path, None, None),
        ("input_window", int, 0, None),
        ("targets", str, "all", "'all' or comma-separated layer names"),
        ("threshold", float, 0.5, "binarization threshold, mm/h"),
        ("out_dir", Path, None, None))),
}


def _options(command: str):
    return _COMMANDS[command][2] + (_FORCE,)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sarunet",
        description="Nowcasting toolkit: synthetic data, training, evaluation, "
                    "prediction, and Grad-CAM heatmaps.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (func, text, _) in _COMMANDS.items():
        p = sub.add_parser(command, help=text)
        p.add_argument("--config", help="key=value config file (flags win)")
        for name, kind, _default, text in _options(command):
            flag = "--" + name.replace("_", "-")
            if kind is bool:  # unset stays None, so a config file can fill it
                p.add_argument(flag, dest=name, action="store_const", const=True, help=text)
            elif isinstance(kind, tuple):
                p.add_argument(flag, dest=name, choices=kind, help=text)
            else:
                p.add_argument(flag, dest=name, type=kind, help=text)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else int(e.code)
    try:
        _resolve_options(args)
        return args.func(args)
    except (SarunetError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        if isinstance(e, UsageError):
            return _EXIT_USAGE
        return _EXIT_NUMERIC if isinstance(e, NumericError) else _EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
