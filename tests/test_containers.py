"""Container bytes of SARv1 checkpoints, OPTv1 training checkpoints and NWDS
series, pinned by sha256 at fixed seeds; loaders and the CLI under truncation
and bit flips."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sarunet.cli import main
from sarunet.data import (FrameSeries, WindowDataset, WindowSpec, load_nwds,
                          make_windows, save_nwds, synth_generate)
from sarunet.errors import DataError, SarunetError
from sarunet.model import (ModelConfig, build, load_checkpoint,
                           read_checkpoint_section, save_checkpoint)
from sarunet.train import TrainConfig, _read_opt_section, fit

GOLDEN_SHA256 = {
    "model.ckpt": "3ce1c5457b9a71aea588e548c7b305ca7253ed1c1f42431673e50fc92f5a712f",
    "last.ckpt": "3e9015224f9c03feda468ebd089a28585cb3e5a0c82003a45124f88f6f80f8ea",
    "series.nwds": "b473582e1d387ecb835237d78ec80dab0d31ae1d3d93f216a2653c2b6d438a5b",
}

EXTRAS = {"input_frames": "2", "target_offsets": "1", "interval_minutes": "5",
          "unit": "raw", "norm_scale": "123.5", "select_fraction": "",
          "cloud": "False"}


def write_tiny_files(out_dir):
    """A fixed-seed checkpoint with training metadata, the ``last.ckpt`` of
    one training epoch from the same model, and a 3-frame series."""
    series = synth_generate(seed=3, n_frames=12, height=32, width=32)
    save_nwds(out_dir / "series.nwds",
              FrameSeries(series.frames[:3], series.interval_minutes, series.unit))
    config = ModelConfig(in_channels=2, out_channels=1, base_channels=4,
                         cbam_reduction=4)
    save_checkpoint(out_dir / "model.ckpt", build(config, seed=4), EXTRAS)
    windows = make_windows(series, WindowSpec(2, (1,)))
    scale = float(series.frames.max())
    fit(build(config, seed=4), WindowDataset(series, windows[:6], scale),
        WindowDataset(series, windows[6:], scale),
        TrainConfig(max_epochs=1, batch_size=3, seed=5), out_dir=out_dir / "fit")
    (out_dir / "last.ckpt").write_bytes((out_dir / "fit" / "last.ckpt").read_bytes())
    return {name: out_dir / name for name in GOLDEN_SHA256}


@pytest.fixture(scope="module")
def tiny_files(tmp_path_factory):
    return write_tiny_files(tmp_path_factory.mktemp("containers"))


@pytest.mark.parametrize("name", sorted(GOLDEN_SHA256))
def test_golden_bytes(tiny_files, name):
    digest = hashlib.sha256(tiny_files[name].read_bytes()).hexdigest()
    assert digest == GOLDEN_SHA256[name]


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
