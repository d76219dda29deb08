"""Container bytes of SARv1 checkpoints, OPTv1 training checkpoints and NWDS
series, pinned by sha256 at fixed seeds; loaders and the CLI under truncation
and bit flips."""

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
from sarunet.tensor import read_section
from sarunet.train import (_OPT_MAGIC, TrainConfig, _read_opt_section,
                           _write_opt_section, fit)

GOLDEN_SHA256 = {
    "model.ckpt": "3ce1c5457b9a71aea588e548c7b305ca7253ed1c1f42431673e50fc92f5a712f",
    "last.ckpt": "2ac916d44acdfe3aed6b0b74348b62d83c66b9d4c5c532a93f63bc0d1367517f",
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


# A bias added just before a training-mode batch norm has a gradient of
# exactly zero (the norm subtracts the batch mean), so what the backward
# computes for it is rounding noise, and Adam turns any change in that noise
# into a step of +-lr. Such biases, their Adam moments, the running means
# they shift and the validation loss read through those running means differ
# between two summation orders by far more than rounding.
NOISE_DRIVEN = re.compile(r"(\.dsc\d\.pointwise_bias|\.running_mean)$")


def test_last_ckpt_moves_by_rounding_only(tiny_files, tmp_path, monkeypatch):
    """With every depthwise conv sent through the general im2col path, the
    one-epoch ``last.ckpt`` agrees with the shipped one in every tensor whose
    gradient is not rounding noise: the two depthwise kernels differ in
    summation order only."""
    calls = []

    def depthwise_as_im2col(x, weight, bias):
        calls.append(x.shape)
        _, c, h, w = x.shape
        return ops._conv_im2col(x, weight, bias, 1, 1, c, h, w)

    monkeypatch.setattr(ops, "_conv_depthwise3", depthwise_as_im2col)
    reference = write_tiny_files(tmp_path)["last.ckpt"]
    assert calls
    shipped = last_ckpt_sections(tiny_files["last.ckpt"])
    compared = 0
    for (meta, tensors), (ref_meta, ref_tensors) in zip(shipped, last_ckpt_sections(reference)):
        assert meta.keys() == ref_meta.keys() and tensors.keys() == ref_tensors.keys()
        assert {k: v for k, v in meta.items() if k != "best_val_loss"} == \
            {k: v for k, v in ref_meta.items() if k != "best_val_loss"}
        for name, arr in tensors.items():
            ref = ref_tensors[name]
            assert arr.shape == ref.shape and np.isfinite(arr).all(), name
            if not NOISE_DRIVEN.search(name):
                assert np.abs(arr - ref).max() <= 1e-3 * np.abs(ref).max(), name
                compared += 1
    assert compared > 0.8 * sum(len(t) for _, t in shipped)


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
