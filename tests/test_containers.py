"""Container bytes of SARv1 checkpoints, OPTv1 training checkpoints and NWDS
series, pinned by sha256 at fixed seeds; loaders and the CLI under truncation
and bit flips; the refusal of checkpoints in the format written while DSC
stages carried a pointwise bias."""

import dataclasses
import hashlib
import io
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sarunet import ops
from sarunet.cli import main
from sarunet.data import (FrameSeries, WindowDataset, WindowSpec, load_nwds,
                          make_windows, save_nwds, synth_generate)
from sarunet.errors import DataError, SarunetError
from sarunet.model import (_CKPT_MAGIC, ModelConfig, build, load_checkpoint,
                           read_checkpoint_section, save_checkpoint,
                           write_checkpoint_section)
from sarunet.tensor import make_result, read_section, write_section
from sarunet.train import (_OPT_MAGIC, TrainConfig, _read_opt_section,
                           _write_opt_section, fit)

from oracles import bilinear_double, bilinear_double_adjoint, conv_dense_im2col

GOLDEN_SHA256 = {
    "model.ckpt": "a3ea5a682e5c3a85f5763784cba26b297a52b854e64cdbcc0a085854dbb64c93",
    "last.ckpt": "ecc033e654015936ef11f5dc859537280e26a07887de2874b641f512420584db",
    "series.nwds": "b473582e1d387ecb835237d78ec80dab0d31ae1d3d93f216a2653c2b6d438a5b",
}

EXTRAS = {"input_frames": "2", "target_offsets": "1", "interval_minutes": "5",
          "unit": "raw", "norm_scale": "123.5", "select_fraction": "",
          "cloud": "False"}


CONFIG = ModelConfig(in_channels=2, out_channels=1, base_channels=4, cbam_reduction=4)


def tiny_series_and_splits():
    series = synth_generate(seed=3, n_frames=12, height=32, width=32)
    windows = make_windows(series, WindowSpec(2, (1,)))
    scale = float(series.frames.max())
    return (series, WindowDataset(series, windows[:6], scale),
            WindowDataset(series, windows[6:], scale))


def fit_tiny(out_dir, epochs=1, resume=False):
    _, train, val = tiny_series_and_splits()
    return fit(build(CONFIG, seed=4), train, val,
               TrainConfig(max_epochs=epochs, batch_size=3, seed=5),
               out_dir=out_dir, resume=resume)


def write_tiny_files(out_dir):
    """A fixed-seed checkpoint with training metadata, the ``last.ckpt`` of
    one training epoch from the same model, and a 3-frame series."""
    series, _, _ = tiny_series_and_splits()
    save_nwds(out_dir / "series.nwds",
              FrameSeries(series.frames[:3], series.interval_minutes, series.unit))
    save_checkpoint(out_dir / "model.ckpt", build(CONFIG, seed=4), EXTRAS)
    fit_tiny(out_dir / "fit")
    (out_dir / "last.ckpt").write_bytes((out_dir / "fit" / "last.ckpt").read_bytes())
    return {name: out_dir / name for name in GOLDEN_SHA256}


@pytest.fixture(scope="module")
def tiny_files(tmp_path_factory):
    return write_tiny_files(tmp_path_factory.mktemp("containers"))


@pytest.mark.parametrize("name", sorted(GOLDEN_SHA256))
def test_golden_bytes(tiny_files, name):
    digest = hashlib.sha256(tiny_files[name].read_bytes()).hexdigest()
    assert digest == GOLDEN_SHA256[name]


def test_last_ckpt_codec_round_trip(tiny_files):
    """Reading the SARv1 and OPTv1 sections of ``last.ckpt`` and writing
    them back gives the same bytes, whatever arithmetic produced them."""
    raw = tiny_files["last.ckpt"].read_bytes()
    f = io.BytesIO(raw)
    model, extra = read_checkpoint_section(f)
    state, rng = _read_opt_section(f)
    assert f.tell() == len(raw)
    out = io.BytesIO()
    write_checkpoint_section(out, model, extra or None)
    _write_opt_section(out, state, rng)
    assert out.getvalue() == raw


def last_ckpt_sections(path):
    with open(path, "rb") as f:
        return [read_section(f, magic, str(path)) for magic in (_CKPT_MAGIC, _OPT_MAGIC)]


def test_last_ckpt_moves_by_rounding_only(tiny_files, tmp_path, monkeypatch):
    """With CBAM's 7x7 conv and every depthwise conv sent through the im2col
    reference kernel and every bilinear upsample through the float64 loop
    oracles, the one-epoch ``last.ckpt`` agrees with the shipped one in
    every tensor and in ``best_val_loss`` to 1e-3: the kernels differ from
    those references in rounding only, and no trainable tensor steps on
    rounding noise."""
    calls = []

    def dense_by_im2col(x, weight, bias):
        calls.append("dense")
        out, grads = conv_dense_im2col(x.data, weight.data)
        return ops._record_conv(out, x, weight, bias, lambda gout: ops._conv_grads(
            gout, *grads(gout), bias is not None, True))

    def depthwise_as_dense(x, weight, bias):
        """The im2col kernel over the block-diagonal ``[c, c, 3, 3]`` weight;
        the depthwise weight's gradient is that weight's diagonal."""
        calls.append("depthwise")
        c = weight.shape[0]
        diag = np.arange(c)
        full = np.zeros((c, c, 3, 3), dtype=weight.dtype)
        full[diag, diag] = weight.data[:, 0]
        out, grads = conv_dense_im2col(x.data, full)

        def backward_fn(gout):
            dx, dfull = grads(gout)
            return ops._conv_grads(gout, dx, dfull[diag, diag][:, None], bias is not None, True)
        return ops._record_conv(out, x, weight, bias, backward_fn)

    def upsample_by_oracle(x):
        calls.append("upsample")
        return make_result(bilinear_double(x.data).astype(x.dtype), "upsample_bilinear2", (x,),
                           lambda g: [bilinear_double_adjoint(g).astype(g.dtype)])

    monkeypatch.setattr(ops, "_conv_dense", dense_by_im2col)
    monkeypatch.setattr(ops, "_conv_depthwise3", depthwise_as_dense)
    monkeypatch.setattr(ops, "upsample_bilinear2", upsample_by_oracle)
    reference = write_tiny_files(tmp_path)["last.ckpt"]
    assert set(calls) == {"dense", "depthwise", "upsample"}
    shipped = last_ckpt_sections(tiny_files["last.ckpt"])
    for (meta, tensors), (ref_meta, ref_tensors) in zip(shipped, last_ckpt_sections(reference)):
        assert meta.keys() == ref_meta.keys() and tensors.keys() == ref_tensors.keys()
        assert {k: v for k, v in meta.items() if k != "best_val_loss"} == \
            {k: v for k, v in ref_meta.items() if k != "best_val_loss"}
        if "best_val_loss" in meta:
            loss, ref_loss = float(meta["best_val_loss"]), float(ref_meta["best_val_loss"])
            assert abs(loss - ref_loss) <= 1e-3 * abs(ref_loss)
        for name, arr in tensors.items():
            ref = ref_tensors[name]
            assert arr.shape == ref.shape, name
            assert np.abs(arr - ref).max() <= 1e-3 * np.abs(ref).max(), name


def legacy_arrays(model, rng):
    """``model``'s checkpoint records as written while every DSC stage had a
    pointwise bias: a random bias ``b`` after each pointwise weight, and the
    running mean of the batch norm it fed stored as ``running_mean + b``.
    That checkpoint computes what ``model`` computes in eval mode."""
    arrays, shift = [], {}
    for name, p in model.named_parameters():
        arrays.append((name, p.data))
        if name.endswith(".pointwise"):
            b = rng.normal(size=(1, p.shape[0], 1, 1)).astype(p.dtype)
            arrays.append((name + "_bias", b))
            shift[name.replace(".dsc", ".bn").replace(".pointwise", ".running_mean")] = b.ravel()
    arrays += [(name, (buf + shift.get(name, 0)).reshape(1, -1, 1, 1))
               for name, buf in model.named_buffers()]
    assert len(shift) == 18
    return arrays


def write_legacy_checkpoint(f, model):
    meta = {k: str(v) for k, v in dataclasses.asdict(model.config).items()}
    meta.update(depth="4", shortcut_bn="False")
    write_section(f, _CKPT_MAGIC, meta, legacy_arrays(model, np.random.default_rng(6)))


def test_misshapen_tensor_is_data_error(tiny_files):
    (meta, params), _ = last_ckpt_sections(tiny_files["last.ckpt"])
    params["out.weight"] = params["out.weight"].reshape(1, 1, 1, 4)
    f = io.BytesIO()
    write_section(f, _CKPT_MAGIC, meta, list(params.items()))
    f.seek(0)
    with pytest.raises(DataError, match=r"'out.weight' has shape \(1, 1, 1, 4\)"):
        read_checkpoint_section(f)


def mismatched_last_ckpt(path, case):
    """Rewrite ``last.ckpt`` so its Adam moments no longer match the model;
    returns the name of the first offending tensor. The ``legacy`` case
    writes both sections in the pointwise-bias layout, whose first bias
    tensor the SARv1 reader refuses before any moment is checked."""
    model, _ = load_checkpoint(path)
    (meta, params), (opt_meta, moments) = last_ckpt_sections(path)
    moments = list(moments.items())
    if case == "orphan":
        bad = "m.enc0.block.orphan"
        moments.insert(1, (bad, np.zeros((1, 4, 1, 1), np.float32)))
    elif case == "wrong_shape":
        bad = "v.out.bias"
        moments = [(n, np.zeros((1, 3, 1, 1), np.float32) if n == bad else a)
                   for n, a in moments]
    else:                                           # written before the bias removal
        bad = "enc0.block.dsc1.pointwise_bias"
        moments = [(f"{kind}.{name}", np.zeros_like(a))
                   for kind in "mv" for name, a in legacy_arrays(model, np.random.default_rng(6))
                   if not name.endswith(("running_mean", "running_var"))]
    with open(path, "wb") as f:
        if case == "legacy":
            write_legacy_checkpoint(f, model)
        else:
            write_section(f, _CKPT_MAGIC, meta, list(params.items()))
        write_section(f, _OPT_MAGIC, opt_meta, moments)
    return bad


@pytest.mark.parametrize("case", ["orphan", "wrong_shape", "legacy"])
def test_resume_refuses_mismatched_moments(tiny_files, tmp_path, case):
    last = tmp_path / "last.ckpt"
    last.write_bytes(tiny_files["last.ckpt"].read_bytes())
    bad = mismatched_last_ckpt(last, case)
    with pytest.raises(DataError, match=re.escape(f"'{bad}'")):
        fit_tiny(tmp_path, epochs=2, resume=True)


@pytest.mark.parametrize("name,value", [("m.enc2.block.dsc1.depthwise", np.nan),
                                        ("v.out.weight", np.inf),
                                        ("v.enc1.cbam.mlp_w1", -1.0)])
def test_resume_refuses_bad_moment_values(tiny_files, tmp_path, name, value):
    """A non-finite Adam moment entry, or a negative second moment, stops the
    resume with a ``DataError`` naming the tensor."""
    (meta, params), (opt_meta, moments) = last_ckpt_sections(tiny_files["last.ckpt"])
    moments[name].flat[0] = value
    with open(tmp_path / "last.ckpt", "wb") as f:
        write_section(f, _CKPT_MAGIC, meta, list(params.items()))
        write_section(f, _OPT_MAGIC, opt_meta, list(moments.items()))
    with pytest.raises(DataError, match=re.escape(f"'{name}'")):
        fit_tiny(tmp_path, epochs=2, resume=True)


def load(name, path):
    """Read a container the way its consumer does."""
    if name == "series.nwds":
        return load_nwds(path)
    if name == "model.ckpt":
        return load_checkpoint(path)
    with open(path, "rb") as f:
        read_checkpoint_section(f, str(path))
        return _read_opt_section(f)


def mutated(tiny_files, name, raw):
    path = tiny_files[name].with_name("mutated_" + name)
    path.write_bytes(raw)
    return path


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_truncated_container_is_data_error(tiny_files, data):
    name = data.draw(st.sampled_from(sorted(GOLDEN_SHA256)))
    raw = tiny_files[name].read_bytes()
    cut = data.draw(st.integers(0, len(raw) - 1))
    with pytest.raises(DataError):
        load(name, mutated(tiny_files, name, raw[:cut]))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_bit_flip_loads_or_raises_typed_error(tiny_files, data):
    name = data.draw(st.sampled_from(sorted(GOLDEN_SHA256)))
    raw = bytearray(tiny_files[name].read_bytes())
    bit = data.draw(st.integers(0, 8 * len(raw) - 1))
    raw[bit // 8] ^= 1 << (bit % 8)
    try:
        load(name, mutated(tiny_files, name, bytes(raw)))
    except SarunetError:
        pass


def run_on(tiny_files, command, truncated, cut):
    """Exit code of ``predict`` or ``evaluate`` with one input cut short."""
    paths = dict(tiny_files)
    paths[truncated] = mutated(tiny_files, truncated,
                               tiny_files[truncated].read_bytes()[:cut])
    out = tiny_files["series.nwds"].parent / f"{command}_out"
    args = ["--checkpoint", paths["model.ckpt"], "--data", paths["series.nwds"],
            "--force"]
    args += ["--out", out] if command == "predict" else ["--out-dir", out]
    return main([command] + [str(a) for a in args])


@pytest.mark.parametrize("command,truncated,cut", [
    ("predict", "model.ckpt", 12), ("evaluate", "series.nwds", 10),
    ("predict", "model.ckpt", 0), ("evaluate", "model.ckpt", 3)])
def test_cli_short_input_exits_3(tiny_files, command, truncated, cut):
    assert run_on(tiny_files, command, truncated, cut) == 3


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_cli_truncated_input_exits_3(tiny_files, data):
    command = data.draw(st.sampled_from(["predict", "evaluate"]))
    truncated = data.draw(st.sampled_from(["model.ckpt", "series.nwds"]))
    cut = data.draw(st.integers(0, tiny_files[truncated].stat().st_size - 1))
    assert run_on(tiny_files, command, truncated, cut) == 3
