"""Container bytes of SARv1 checkpoints, OPTv1 training checkpoints and NWDS
series, and the report and heatmap files of ``evaluate`` and ``explain``,
pinned by sha256 at fixed seeds; loaders and the CLI under truncation
and bit flips; the refusal of checkpoints in the format written while DSC
stages carried a pointwise bias."""

import csv
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

# evaluate --baseline persistence and explain --threshold 0 of the tiny
# model.ckpt over series.nwds, by output path; manifests are left out
# (they hold times). Kept apart from GOLDEN_SHA256, whose names the
# truncation and bit-flip tests load.
PIPELINE_SHA256 = {
    "evaluate/per_lead.csv":
        "be155f57f94b1e1278b0df0af88ee02449b3aeaa5594238e3a8a030a1f88f36e",
    "evaluate/report.csv":
        "9f9b8d2661a6924cecf0d881509658f2a2a402ae37e277ea7cba283dcd52ffa1",
    "evaluate/report.txt":
        "c8621398f1a7b63cc31dd381e82c22c950719537f865c0298b64a9345bb16ddc",
    "explain/dec0_block.nwds":
        "3ab402a1e5f98151fbedbd81a4b19a12c615e168052b90c3ba7fd0b62e8a09e7",
    "explain/dec0_block.ppm":
        "5ca5f282ff9a6fd2934e37ce41c1696c0d3ebdc5c09d05d5b07af5d95bf4a868",
    "explain/dec0_block_dsc_path.nwds":
        "6c5efb7d098ecb1d4fe6928041d9701082f04e32ee0abfee72354e494a6d37db",
    "explain/dec0_block_dsc_path.ppm":
        "5b6156e297e37360a9e23e88a3cc3d0627cee31894b534d2dd689eab9adf2ae8",
    "explain/dec0_block_shortcut.nwds":
        "ef656910974ba9d5c344b6db0a50127ec39a65fd67bde2c7220836e2416f0e77",
    "explain/dec0_block_shortcut.ppm":
        "719fe3383edc8e38484aebda0aeee1aee4ed723f309e49dc0eb970494cf62cd6",
    "explain/dec1_block.nwds":
        "d13b9617ed4c1520dcfa568446d852361f5f11a8820b8a7fffcc53723cf81745",
    "explain/dec1_block.ppm":
        "af5e36f7f59e644fd82db0d8e6dc47c7ce9540dfd21995cada25bcf6044828d9",
    "explain/dec1_block_dsc_path.nwds":
        "8a2d80a0ca5133e5c51dca7c102bb68edbacfe3bb0fc35428bd188c38d4d7b5e",
    "explain/dec1_block_dsc_path.ppm":
        "2d5b058a5c31e6148d43027e8723c6100418db23b5feb1ead05649312f79b61d",
    "explain/dec1_block_shortcut.nwds":
        "6af70bf39988c15d18d17036d71c2cd21f755fec8bc845124429142d6c15d203",
    "explain/dec1_block_shortcut.ppm":
        "35660aa896581dd2a9bb8fa28343657dc9a5024d049c7c22bb92e445d5fa8889",
    "explain/dec2_block.nwds":
        "d283adfe8889bb98db1c54eb1ec5436dd76a919c0051847d8a300b677e3eb6ca",
    "explain/dec2_block.ppm":
        "a2a7544ff15a2286bc1c52ac08d05b7b73a7823e34d06f872fa52880d5a8ba52",
    "explain/dec2_block_dsc_path.nwds":
        "a8398590a4ae1c878eae6c44ed1e3cab1bc2292076738476b4b2852471ba22b2",
    "explain/dec2_block_dsc_path.ppm":
        "7ddbb41dfe71dba5cfff256365c6fe41d96ee3d2aa3d6771dd5050c5f6d167f0",
    "explain/dec2_block_shortcut.nwds":
        "ea5bd19bda3fa9650517663aad0c922b155fc6870f64ae507dc245db753a424b",
    "explain/dec2_block_shortcut.ppm":
        "577f17e217bb5f32823dc476c37cb8f5e22cd39e99c79014ca7e42dab2580e67",
    "explain/dec3_block.nwds":
        "82744c6fe0d2c37cc2e8c471cb81a98142570267501ac95c1ba514427bc2dd24",
    "explain/dec3_block.ppm":
        "e744236101ab2f082b8444bd871083f89372d90f3643d0cd8a1a07022e3d6308",
    "explain/dec3_block_dsc_path.nwds":
        "68c32acb965f22788ba4061b0f6df59e884dc3e1da4152b0e6c1ef5701fd4406",
    "explain/dec3_block_dsc_path.ppm":
        "db66106a176ff557847c99b11ab5a104c2cec94e47aeae44cf9edbb016656c56",
    "explain/dec3_block_shortcut.nwds":
        "3ae569c5d026e8a7f8bdf77c9fe79d075349604eed50c24b12d726843c86019f",
    "explain/dec3_block_shortcut.ppm":
        "dc1cf25ffc0c8d0a3e01f401e8b6013e4c8a8bb7749058a16b46e229dd971b64",
    "explain/enc0_block.nwds":
        "c9ec8d823bfb8c1cb6c62bb61326f22195bcb3b74565305640324de7cce03691",
    "explain/enc0_block.ppm":
        "7bfe7f82bf6d41d81e76193e8514a9c3a86233d0fe2f03f1522c2db6611ce116",
    "explain/enc0_block_dsc_path.nwds":
        "c5adf482762d32429803f0b82d6ccf7225107134fd7d303b4aa7ea530ccfbb17",
    "explain/enc0_block_dsc_path.ppm":
        "5731c212b970f29a8285db91fc7aed5b19af03567faf33d3c2a3e374c9ba1c88",
    "explain/enc0_block_shortcut.nwds":
        "9c55a12a643fd5f925044fb66e0d29c9628619867244d777e86f63feb12d3183",
    "explain/enc0_block_shortcut.ppm":
        "03b0d38823ebd38c55e43028a0d03277eaaccee1be76510f23143c5fd22228df",
    "explain/enc0_cbam.nwds":
        "4f0c547aa353e06ffc1e8d9ef912806f6010bfde23c4c0273cfccccfea74aeb5",
    "explain/enc0_cbam.ppm":
        "3cd30b197a0c812eac70d38989cc55c69006a61acc24f006a1efeb26271cf259",
    "explain/enc1_block.nwds":
        "ddd43a96eb62dfe66e905db66a3a6bf45e00c00d28d36a570a9601b1eb49bdbd",
    "explain/enc1_block.ppm":
        "d9d1334471ad01be2865f442ba0b024ad3fde74dd19d1233fd8946c47c2cdc10",
    "explain/enc1_block_dsc_path.nwds":
        "7b61efdaa7708587152a6da2564a235806891c47e7f273a66e19bd6f32728242",
    "explain/enc1_block_dsc_path.ppm":
        "94b535cfd3d459bda7cf37ffc261a8e4eb97bc5c29d78ce3d318bfab9a5130fd",
    "explain/enc1_block_shortcut.nwds":
        "37446a51fd10a45c582a86211f41357bfa9446354fcda238fb43b61b6944b53b",
    "explain/enc1_block_shortcut.ppm":
        "2bd96498a66dc96550c7586a2c2df9bae0a964b9fc6ca6c370bd8e8ceeda9576",
    "explain/enc1_cbam.nwds":
        "53f77e04ff1c022e26ea8c9203932e558465e1897c0b5e25e1f110bd35ebd033",
    "explain/enc1_cbam.ppm":
        "0a17de1c46f144e0aac127dfdd795f1a4638ffb2bb29f9eb3b4c8a2c692f1eba",
    "explain/enc2_block.nwds":
        "352aa1cdbf893094ab22a685710d554c295bc7b31e1122b34c024bd6da6ed94c",
    "explain/enc2_block.ppm":
        "c7382a5a12705ca6ce67fb4abd9aa7f263b217a11ce3630a75fab1836c833bc3",
    "explain/enc2_block_dsc_path.nwds":
        "d2467f8685fe9974b3aff9a9333764d321a0d1f7519acf902173a8dbf076ea6a",
    "explain/enc2_block_dsc_path.ppm":
        "026358be6940c84e90285caaffc55c6d2373f3b8aa7aaeb6a567afd15bc8bf10",
    "explain/enc2_block_shortcut.nwds":
        "35e836332d5bb935efc96010c52b55d86d59c9a45996b5b84a61e77472a6ffb9",
    "explain/enc2_block_shortcut.ppm":
        "9a2b7c1c455de5bb54e02f209cfc8d2fd6ab7c430a2342ad2011665298bc6b51",
    "explain/enc2_cbam.nwds":
        "197ae776f0d3b60dc47c6d0d7d7105d2285adf3183461744b07662d57d4b7c6a",
    "explain/enc2_cbam.ppm":
        "f6186ed187d02df42bed0edad3fdb89be5779f4bd84ffddddc4bb9c09e1d5c40",
    "explain/enc3_block.nwds":
        "fe1f2ba209983356163bb35a978593321759655cc905c120068fb6eed565fbad",
    "explain/enc3_block.ppm":
        "91383bce2b72b2f0c7b661fd3ddfe469b5bfc1a1e6e192ab63e3fc85df953a57",
    "explain/enc3_block_dsc_path.nwds":
        "92c51ef512308222f99f2b26e1ce9ce38292c259b9b531db837dfd5dd6c6f386",
    "explain/enc3_block_dsc_path.ppm":
        "e594e7874faf68b3f62b4553488d8b95d01bd347e10d0e4566314c4c0dbe8fbd",
    "explain/enc3_block_shortcut.nwds":
        "9d41fed7368e7ed6260f1897470761b1f9c23bc046567d9f6f5e90370ba58911",
    "explain/enc3_block_shortcut.ppm":
        "82546050598d5f5539b71c3796413eac5c13288bdf3b629c0f774592028a4e32",
    "explain/enc3_cbam.nwds":
        "aa9adac3a2c94d6bb4ae149af7cec10221cf15b9fc0851b69dd649ec97f2ea63",
    "explain/enc3_cbam.ppm":
        "7798366548f1a49f75dfd5f8ea63a490c7a3da29ba391782c26c34afd32ee775",
    "explain/enc4_block.nwds":
        "cf470bcb059eef5b3470a4b3b0636ad485eb0ea84b7b26fb5fec11e0e720832e",
    "explain/enc4_block.ppm":
        "eeb1c513f0d8a5442763a380be67ed6817ea19ccb72b7fdfb2348664e7b52055",
    "explain/enc4_block_dsc_path.nwds":
        "c87504ed60857d772062a8dca4ecb9dbb90e051e47a32a2e47bd7be6148af1d9",
    "explain/enc4_block_dsc_path.ppm":
        "e333690baefd76e735ef8dfc92468cc8c3d5576d1c8ef010326641e5419d5226",
    "explain/enc4_block_shortcut.nwds":
        "d8e994d87f5e2a0e89463406a979221af9d35daccf631b75db3ab3027a562c36",
    "explain/enc4_block_shortcut.ppm":
        "9905e311043753641ac98d1d28777cc7ef82a8006861d0a10547bbc9dd8f1a64",
    "explain/enc4_cbam.nwds":
        "f91e9f3b77a41eae69b931c561d67d4085451bd9283deac16bef57d04be71f59",
    "explain/enc4_cbam.ppm":
        "127678918d496ed88aff845e06d48714f080aa3a0c609c8174866fed65cadf61",
    "explain/index.csv":
        "2f04cfaa7b7ca5ce8a5a022d30f1a3087d23a8a0f3a3919041456e26616633e0",
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


@pytest.fixture(scope="module")
def pipeline_dir(tiny_files):
    out = tiny_files["model.ckpt"].parent / "pipeline"
    common = ["--checkpoint", str(tiny_files["model.ckpt"]),
              "--data", str(tiny_files["series.nwds"])]
    assert main(["evaluate", *common, "--baseline", "persistence",
                 "--out-dir", str(out / "evaluate")]) == 0
    assert main(["explain", *common, "--threshold", "0", "--out-dir", str(out / "explain")]) == 0
    return out


def test_pipeline_writes_exactly_the_pinned_files(pipeline_dir):
    written = {f"{d}/{p.name}" for d in ("evaluate", "explain")
               for p in (pipeline_dir / d).iterdir() if p.name != "manifest.json"}
    assert written == set(PIPELINE_SHA256)


@pytest.mark.parametrize("name", sorted(PIPELINE_SHA256))
def test_pipeline_golden_bytes(pipeline_dir, name):
    digest = hashlib.sha256((pipeline_dir / name).read_bytes()).hexdigest()
    assert digest == PIPELINE_SHA256[name]


def test_pipeline_heatmaps_are_not_all_zero(pipeline_dir):
    """The pinned maps carry signal: an all-zero suite would pin nothing
    about the Grad-CAM arithmetic."""
    with open(pipeline_dir / "explain" / "index.csv", encoding="utf-8") as f:
        raw_max = [float(row["raw_max"]) for row in csv.DictReader(f)]
    assert len(raw_max) == 32 and max(raw_max) > 0


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

    def dense_by_im2col(x, weight):
        calls.append("dense")
        out, grads = conv_dense_im2col(x.data, weight.data)
        return make_result(out, "conv2d", (x, weight), lambda gout: list(grads(gout)))

    def depthwise_as_dense(x, weight):
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
            return [dx, dfull[diag, diag][:, None]]
        return make_result(out, "conv2d", (x, weight), backward_fn)

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
