"""End-to-end command-line behavior: artifacts, exit codes, determinism."""

import hashlib
import json
import shutil
import struct
import threading
import time

import numpy as np
import pytest

from sarunet.cli import main
from sarunet.data import FrameSeries, load_nwds, save_nwds
from sarunet.tensor import write_t4


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def synth_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "train.nwds"
    code = run("synth", "--seed", 7, "--frames", 60, "--size", 32,
               "--wind", "1,0", "--out", path)
    assert code == 0
    return path


@pytest.fixture(scope="module")
def trained_dir(tmp_path_factory, synth_file):
    out = tmp_path_factory.mktemp("run") / "train_out"
    code = run("train", "--data", synth_file, "--variant", "sar",
               "--in-frames", 6, "--lead-minutes", 30,
               "--base-channels", 4, "--cbam-reduction", 4,
               "--seed", 1, "--max-epochs", 2, "--batch-size", 4,
               "--out-dir", out)
    assert code == 0
    return out


class TestSynth:
    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.nwds", tmp_path / "b.nwds"
        for p in (a, b):
            assert run("synth", "--seed", 5, "--frames", 10, "--size", 32,
                       "--out", p) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_missing_out_is_usage_error(self):
        assert run("synth", "--seed", 1) == 2

    def test_too_small_size_is_validation_error(self, tmp_path, capsys):
        code = run("synth", "--size", 16, "--frames", 5,
                   "--out", tmp_path / "x.nwds")
        assert code == 2  # UsageError carries the bound
        assert "32" in capsys.readouterr().err

    @pytest.mark.parametrize("wind", ["a,b", "1", "1,2,3", "nan,0"])
    def test_bad_wind_is_usage_error(self, tmp_path, capsys, wind):
        code = run("synth", "--frames", 5, "--size", 32, "--wind", wind,
                   "--out", tmp_path / "x.nwds")
        assert code == 2
        assert repr(wind) in capsys.readouterr().err

    def test_interval_below_one_is_usage_error(self, tmp_path):
        for interval in (0, -5):
            assert run("synth", "--frames", 5, "--size", 32, "--interval", interval,
                       "--out", tmp_path / "x.nwds") == 2
        assert not (tmp_path / "x.nwds").exists()

    @pytest.mark.parametrize("flag,value", [("--growth", "-1"), ("--growth", "0"),
                                            ("--growth", "nan"), ("--jitter", "-3"),
                                            ("--jitter", "inf")])
    def test_bad_growth_or_jitter_is_usage_error(self, tmp_path, capsys, flag, value):
        code = run("synth", "--frames", 5, "--size", 32, flag, value,
                   "--out", tmp_path / "x.nwds")
        assert code == 2
        assert flag[2:] in capsys.readouterr().err
        assert not (tmp_path / "x.nwds").exists()

    def test_zero_interval_series_is_data_error(self, tmp_path):
        p = tmp_path / "zero.nwds"
        save_nwds(p, FrameSeries(np.ones((60, 32, 32), np.float32), 0, "raw"))
        setup = ["--data", p, "--in-frames", 6, "--lead-minutes", 30]
        assert run("train", *setup, "--out-dir", tmp_path / "train") == 3
        assert run("evaluate", *setup, "--baseline", "persistence",
                   "--out-dir", tmp_path / "eval") == 3

    def test_refuses_overwrite_without_force(self, tmp_path):
        p = tmp_path / "x.nwds"
        assert run("synth", "--frames", 5, "--size", 32, "--out", p) == 0
        assert run("synth", "--frames", 5, "--size", 32, "--out", p) == 3
        assert run("synth", "--frames", 5, "--size", 32, "--out", p,
                   "--force") == 0

    def test_refuses_to_overwrite_its_manifest(self, tmp_path):
        p = tmp_path / "x.nwds"
        manifest = tmp_path / "x.nwds.manifest.json"
        manifest.write_bytes(b"keep")
        assert run("synth", "--frames", 5, "--size", 32, "--out", p) == 3
        assert manifest.read_bytes() == b"keep" and not p.exists()

    def test_force_in_config_file_overwrites(self, tmp_path):
        p, cfg = tmp_path / "x.nwds", tmp_path / "force.cfg"
        cfg.write_text("force=true\n")
        assert run("synth", "--frames", 5, "--size", 32, "--out", p) == 0
        first = p.read_bytes()
        assert run("synth", "--seed", 1, "--frames", 5, "--size", 32, "--out", p,
                   "--config", cfg) == 0
        assert p.read_bytes() != first

    def test_manifest_written(self, tmp_path):
        p = tmp_path / "m.nwds"
        assert run("synth", "--frames", 5, "--size", 32, "--out", p) == 0
        manifest = json.loads((tmp_path / "m.nwds.manifest.json").read_text())
        assert manifest["command"] == "synth"
        assert manifest["outputs"] == [str(p)]

    def test_binary_flag(self, tmp_path):
        p = tmp_path / "cloud.nwds"
        assert run("synth", "--frames", 8, "--size", 32, "--binary",
                   "--interval", 15, "--out", p) == 0
        s = load_nwds(p)
        assert s.unit == "binary"
        assert s.interval_minutes == 15
        assert set(np.unique(s.frames)) <= {0.0, 1.0}


class TestTrain:
    def test_artifacts_exist(self, trained_dir):
        assert (trained_dir / "model.ckpt").exists()
        assert (trained_dir / "history.csv").exists()
        assert (trained_dir / "manifest.json").exists()
        header = (trained_dir / "history.csv").read_text().splitlines()[0]
        assert header == "epoch,train_mse,val_mse,lr,seconds"

    def test_manifest_lists_every_output(self, trained_dir):
        outputs = json.loads((trained_dir / "manifest.json").read_text())["outputs"]
        assert sorted(o.rpartition("/")[2] for o in outputs) == sorted(
            p.name for p in trained_dir.iterdir() if p.name != "manifest.json")

    @pytest.mark.parametrize("name", ["best.ckpt", "last.ckpt"])
    def test_refuses_to_overwrite_a_fit_checkpoint(self, synth_file, tmp_path, name):
        """``fit`` writes best.ckpt and last.ckpt into the output directory,
        so either one already there stops the run unless --force is given."""
        out = tmp_path / "run"
        out.mkdir()
        (out / name).write_bytes(b"keep")
        assert run("train", "--data", synth_file, "--in-frames", 6, "--lead-minutes", 30,
                   "--base-channels", 4, "--cbam-reduction", 4, "--max-epochs", 1,
                   "--out-dir", out) == 3
        assert [p.name for p in out.iterdir()] == [name]
        assert (out / name).read_bytes() == b"keep"

    def test_manifest_records_parameter_counts(self, trained_dir):
        """The paper's "small" claim shows in every run: SAR-UNet against a
        plain UNet at the same widths."""
        from sarunet.blocks import param_count
        from sarunet.model import load_checkpoint, plain_unet_param_count
        config = json.loads((trained_dir / "manifest.json").read_text())["config"]
        model, _ = load_checkpoint(trained_dir / "model.ckpt")
        mc = model.config
        assert config["params"] == param_count(model)
        assert config["plain_unet_params"] == plain_unet_param_count(
            mc.in_channels, mc.out_channels, mc.base_channels)
        assert config["params"] < config["plain_unet_params"]

    def test_grid_validation_enumerates_valid_combos(self, synth_file, tmp_path,
                                                     capsys):
        code = run("train", "--data", synth_file, "--in-frames", 7,
                   "--lead-minutes", 30, "--out-dir", tmp_path / "x")
        assert code == 3
        err = capsys.readouterr().err
        assert "6in/30min" in err and "18in/180min" in err

    def test_full_precipitation_grid_is_expressible(self):
        from sarunet.cli import (PRECIP_INPUT_FRAMES, PRECIP_LEAD_MINUTES,
                                 _window_spec)
        combos = [(i, m) for i in PRECIP_INPUT_FRAMES for m in PRECIP_LEAD_MINUTES]
        assert len(combos) == 15
        for in_frames, lead in combos:
            spec = _window_spec(in_frames, lead, cloud=False, interval=5)
            assert spec.input_frames == in_frames
            assert spec.target_offsets == (lead // 5,)

    def test_cloud_forces_six_outputs(self, tmp_path):
        cloud = tmp_path / "cloud.nwds"
        assert run("synth", "--frames", 40, "--size", 32, "--binary",
                   "--interval", 15, "--out", cloud) == 0
        out = tmp_path / "cloud_run"
        code = run("train", "--data", cloud, "--cloud", "--in-frames", 4,
                   "--base-channels", 4, "--cbam-reduction", 4,
                   "--max-epochs", 1, "--batch-size", 4, "--out-dir", out)
        assert code == 0
        from sarunet.model import load_checkpoint
        model, meta = load_checkpoint(out / "model.ckpt")
        assert model.config.out_channels == 6
        assert "cloud" not in meta          # the six target offsets say it

    def test_config_file_precedence(self, synth_file, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("in-frames=6\nlead-minutes=30\nbase-channels=4\n"
                       "cbam-reduction=4\nmax-epochs=1\nbatch-size=4\n")
        out = tmp_path / "cfg_run"
        code = run("train", "--data", synth_file, "--config", cfg,
                   "--out-dir", out)
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["max_epochs"] == 1
        # a flag beats the config file
        out2 = tmp_path / "cfg_run2"
        code = run("train", "--data", synth_file, "--config", cfg,
                   "--max-epochs", 2, "--out-dir", out2)
        assert code == 0
        manifest2 = json.loads((out2 / "manifest.json").read_text())
        assert manifest2["config"]["max_epochs"] == 2

    @pytest.mark.parametrize("line,key", [
        ("max-epochs", "max-epochs"), ("max-epochs=abc", "max_epochs"),
        ("cloud=maybe", "cloud"), ("max-epoch=1", "max_epoch"),
        ("variant=foo", "variant")])
    def test_bad_config_line_is_configuration_error(self, synth_file, tmp_path,
                                                    capsys, line, key):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"in-frames=6\n{line}\n")
        code = run("train", "--data", synth_file, "--config", cfg,
                   "--lead-minutes", 30, "--out-dir", tmp_path / "x")
        assert code == 3
        err = capsys.readouterr().err
        assert str(cfg) in err and key in err
        assert line.partition("=")[2] in err

    def test_other_commands_config_keys_are_ignored(self, synth_file, tmp_path):
        cfg = tmp_path / "shared.cfg"
        cfg.write_text("in-frames=6\nlead-minutes=30\nmax-epochs=1\nbatch-size=4\n"
                       "threshold=abc\n")
        assert run("train", "--data", synth_file, "--config", cfg,
                   "--out-dir", tmp_path / "x") == 0


class TestSplitRule:
    """Rain-gated windows are built over the whole series, then split
    chronologically by anchor; the scale comes from train-window frames."""

    @staticmethod
    def assemble(series):
        from sarunet.cli import _assemble, _window_spec
        spec = _window_spec(6, 30, cloud=False, interval=series.interval_minutes)
        datasets, scale = _assemble(series, spec, 0.5)
        return spec, [ds.windows for ds in datasets], scale

    def test_splits_partition_gated_windows_by_anchor(self, synth_file):
        from sarunet.data import make_windows, select_rainy
        series = load_nwds(synth_file)
        spec, parts, _ = self.assemble(series)
        assert all(parts)
        anchors = [[inp[-1] for inp, _ in part] for part in parts]
        assert max(anchors[0]) < min(anchors[1])
        assert max(anchors[1]) < min(anchors[2])
        assert not set(anchors[0]) & set(anchors[1])
        assert not set(anchors[1]) & set(anchors[2])
        gated = make_windows(series, spec, select_rainy(series, 0.5))
        assert parts[0] + parts[1] + parts[2] == gated

    def test_scale_from_frames_train_windows_read(self, synth_file):
        series = load_nwds(synth_file)
        _, parts, scale = self.assemble(series)
        frames = [{i for inp, tgt in part for i in inp + tgt} for part in parts]
        assert scale == float(series.frames[sorted(frames[0])].max())
        held_out = sorted((frames[1] | frames[2]) - frames[0])
        assert held_out
        series.frames[held_out] *= 10.0
        assert series.frames[held_out].max() > scale
        assert self.assemble(series)[2] == scale

    def test_manifests_record_splits(self, synth_file, trained_dir, tmp_path):
        from sarunet.data import split_bounds
        splits = json.loads((trained_dir / "manifest.json").read_text())["splits"]
        _, parts, _ = self.assemble(load_nwds(synth_file))
        n = sum(len(p) for p in parts)
        assert [splits["windows"][k] for k in ("train", "val", "test")] == \
            [hi - lo for lo, hi in split_bounds(n)]
        frames = [{i for inp, tgt in part for i in inp + tgt} for part in parts]
        assert splits["shared_frames"] == {
            "train|val": len(frames[0] & frames[1]),
            "val|test": len(frames[1] & frames[2]),
            "train|test": len(frames[0] & frames[2])}
        out = tmp_path / "eval"
        assert run("evaluate", "--checkpoint", trained_dir / "model.ckpt",
                   "--data", synth_file, "--out-dir", out) == 0
        assert json.loads((out / "manifest.json").read_text())["splits"] == splits

    def test_empty_split_error_names_window_counts(self, tmp_path, capsys):
        short = tmp_path / "short.nwds"
        assert run("synth", "--seed", 7, "--frames", 12, "--size", 32,
                   "--out", short) == 0
        code = run("train", "--data", short, "--in-frames", 6,
                   "--lead-minutes", 30, "--max-epochs", 1,
                   "--out-dir", tmp_path / "x")
        assert code == 3
        err = capsys.readouterr().err
        assert "window(s)" in err and "spans 12 frames" in err


class TestEvaluate:
    def test_model_plus_persistence_rows(self, synth_file, trained_dir, tmp_path):
        out = tmp_path / "eval"
        code = run("evaluate", "--checkpoint", trained_dir / "model.ckpt",
                   "--data", synth_file, "--baseline", "persistence",
                   "--out-dir", out)
        assert code == 0
        lines = (out / "report.csv").read_text().splitlines()
        assert lines[0] == "model,mse,precision,recall,accuracy,f1"
        models = [ln.split(",")[0] for ln in lines[1:]]
        assert models == ["persistence", "sar-unet"]
        assert (out / "report.txt").exists()
        assert (out / "per_lead.csv").exists()

    def test_persistence_only_needs_no_checkpoint(self, synth_file, tmp_path):
        out = tmp_path / "eval_p"
        code = run("evaluate", "--data", synth_file, "--baseline", "persistence",
                   "--in-frames", 6, "--lead-minutes", 30, "--out-dir", out)
        assert code == 0
        lines = (out / "report.csv").read_text().splitlines()
        assert [ln.split(",")[0] for ln in lines[1:]] == ["persistence"]

    def test_persistence_manifest_records_setup(self, synth_file, tmp_path):
        out = tmp_path / "eval_p"
        assert run("evaluate", "--data", synth_file, "--baseline", "persistence",
                   "--in-frames", 6, "--lead-minutes", 30, "--out-dir", out) == 0
        config = json.loads((out / "manifest.json").read_text())["config"]
        assert sorted(config) == ["baseline", "batch_size", "cloud", "in_frames",
                                  "lead_minutes", "norm_scale", "select_fraction",
                                  "threshold"]
        assert (config["in_frames"], config["lead_minutes"]) == (6, 30)

    def test_rerun_identical_csv_bytes(self, synth_file, trained_dir, tmp_path):
        outs = []
        for name in ("e1", "e2"):
            out = tmp_path / name
            assert run("evaluate", "--checkpoint", trained_dir / "model.ckpt",
                       "--data", synth_file, "--baseline", "persistence",
                       "--out-dir", out) == 0
            outs.append((out / "report.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_incompatible_data_prints_diff(self, trained_dir, tmp_path, capsys):
        other = tmp_path / "other.nwds"
        assert run("synth", "--frames", 20, "--size", 32, "--interval", 15,
                   "--out", other) == 0
        code = run("evaluate", "--checkpoint", trained_dir / "model.ckpt",
                   "--data", other, "--out-dir", tmp_path / "bad")
        assert code == 3
        assert "interval_minutes" in capsys.readouterr().err

    @pytest.mark.parametrize("setup,named", [
        (["--in-frames", 18], ["--in-frames 18 (checkpoint: 6)"]),
        (["--lead-minutes", 180, "--cloud"],
         ["--lead-minutes 180 (checkpoint: 30)", "--cloud True (checkpoint: False)"]),
        (["--select-fraction", 0.0], ["--select-fraction 0.0 (checkpoint: 0.5)"]),
        (["--config", "in-frames=12\n"], ["--in-frames 12 (checkpoint: 6)"])])
    def test_setup_disagreeing_with_checkpoint_exits_2(self, synth_file, trained_dir,
                                                       tmp_path, capsys, setup, named):
        if setup[0] == "--config":
            (tmp_path / "run.cfg").write_text(setup[1])
            setup = ["--config", tmp_path / "run.cfg"]
        out = tmp_path / "eval"
        code = run("evaluate", "--checkpoint", trained_dir / "model.ckpt",
                   "--data", synth_file, *setup, "--out-dir", out)
        assert code == 2
        err = capsys.readouterr().err
        assert all(text in err for text in named), err
        assert not out.exists()

    def test_checkpoint_setup_fills_unset_options(self, synth_file, trained_dir, tmp_path):
        """The manifest records the setup the checkpoint was scored on; a
        config file shared with ``train`` and flags that agree change no
        output byte."""
        cfg = tmp_path / "shared.cfg"
        cfg.write_text("in-frames=6\nlead-minutes=30\nmax-epochs=1\nbatch-size=4\n")
        runs = {"bare": [], "flags": ["--in-frames", 6, "--lead-minutes", 30,
                                      "--select-fraction", 0.5],
                "config": ["--config", cfg]}
        for name, setup in runs.items():
            assert run("evaluate", "--checkpoint", trained_dir / "model.ckpt",
                       "--data", synth_file, *setup, "--out-dir", tmp_path / name) == 0
            config = json.loads((tmp_path / name / "manifest.json").read_text())["config"]
            assert {k: config[k] for k in ("in_frames", "lead_minutes", "cloud",
                                           "select_fraction")} == \
                {"in_frames": 6, "lead_minutes": 30, "cloud": False, "select_fraction": 0.5}
        for report in ("report.csv", "per_lead.csv", "report.txt"):
            assert len({(tmp_path / name / report).read_bytes() for name in runs}) == 1

    def test_cloud_checkpoint_setup_has_no_lead(self, tmp_path):
        cloud = tmp_path / "cloud.nwds"
        assert run("synth", "--frames", 40, "--size", 32, "--binary",
                   "--interval", 15, "--out", cloud) == 0
        assert run("train", "--data", cloud, "--cloud", "--base-channels", 4,
                   "--cbam-reduction", 4, "--max-epochs", 1, "--batch-size", 4,
                   "--out-dir", tmp_path / "run") == 0
        assert run("evaluate", "--checkpoint", tmp_path / "run" / "model.ckpt",
                   "--data", cloud, "--out-dir", tmp_path / "eval") == 0
        config = json.loads((tmp_path / "eval" / "manifest.json").read_text())["config"]
        assert (config["in_frames"], config["lead_minutes"], config["cloud"],
                config["select_fraction"]) == (4, None, True, None)

    def test_manifests_record_the_default_gate(self, synth_file, trained_dir, tmp_path):
        """A precipitation run without --select-fraction gates at 0.5, and
        its manifest says so."""
        train_config = json.loads((trained_dir / "manifest.json").read_text())["config"]
        assert train_config["select_fraction"] == 0.5
        out = tmp_path / "eval_p"
        assert run("evaluate", "--data", synth_file, "--baseline", "persistence",
                   "--in-frames", 6, "--lead-minutes", 30, "--out-dir", out) == 0
        assert json.loads((out / "manifest.json").read_text())["config"][
            "select_fraction"] == 0.5


    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_batch_size_below_one_is_usage_error(self, synth_file, tmp_path, capsys,
                                                 batch_size):
        out = tmp_path / "eval_bs"
        code = run("evaluate", "--data", synth_file, "--baseline", "persistence",
                   "--in-frames", 6, "--lead-minutes", 30,
                   "--batch-size", batch_size, "--out-dir", out)
        assert code == 2
        assert "batch size must be >= 1" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("threshold", ["nan", "inf", "-0.5"])
@pytest.mark.parametrize("command", ["evaluate", "explain"])
def test_bad_threshold_is_usage_error(synth_file, trained_dir, tmp_path, capsys,
                                      command, threshold):
    out = tmp_path / "out"
    code = run(command, "--checkpoint", trained_dir / "model.ckpt", "--data", synth_file,
               "--threshold", threshold, "--out-dir", out)
    assert code == 2
    assert "--threshold must be a finite rain rate >= 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["0", "-5", "nan", "inf"])
@pytest.mark.parametrize("command,out_flag", [
    ("evaluate", "--out-dir"), ("predict", "--out"), ("explain", "--out-dir")])
def test_bad_checkpoint_norm_scale_is_data_error(synth_file, trained_dir, tmp_path, capsys,
                                                 command, out_flag, value):
    from sarunet.model import load_checkpoint, save_checkpoint
    model, meta = load_checkpoint(trained_dir / "model.ckpt")
    ckpt = tmp_path / "scaled.ckpt"
    save_checkpoint(ckpt, model, {**meta, "norm_scale": value})
    out = tmp_path / "out"
    code = run(command, "--checkpoint", ckpt, "--data", synth_file, out_flag, out)
    assert code == 3
    assert "norm_scale" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("name,value", [("enc2.block.dsc1.depthwise", np.nan),
                                        ("enc1.block.bn1.running_var", -1.0),
                                        ("enc1.block.bn2.running_mean", np.inf)])
@pytest.mark.parametrize("command,out_flag", [
    ("evaluate", "--out-dir"), ("predict", "--out"), ("explain", "--out-dir")])
def test_bad_checkpoint_value_is_data_error(synth_file, trained_dir, tmp_path, capsys,
                                            command, out_flag, name, value):
    """A non-finite tensor entry or a negative running variance stops the
    load with exit 3 naming the tensor, before any report is written."""
    from sarunet.model import load_checkpoint, save_checkpoint
    model, meta = load_checkpoint(trained_dir / "model.ckpt")
    arrays = {n: p.data for n, p in model.named_parameters()}
    arrays.update(model.named_buffers())
    arrays[name].flat[0] = value
    ckpt = tmp_path / "bad.ckpt"
    save_checkpoint(ckpt, model, meta)
    out = tmp_path / "out"
    code = run(command, "--checkpoint", ckpt, "--data", synth_file, out_flag, out)
    assert code == 3
    assert repr(name) in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key,value,named", [
    ("input_frames", "12", ["12 input frame(s), 1 target offset(s)",
                            "6 input channel(s), 1 output channel(s)"]),
    ("target_offsets", "6,7", ["6 input frame(s), 2 target offset(s)",
                               "6 input channel(s), 1 output channel(s)"])])
@pytest.mark.parametrize("command,out_flag", [
    ("evaluate", "--out-dir"), ("predict", "--out"), ("explain", "--out-dir")])
def test_checkpoint_setup_contradicting_its_model_is_data_error(
        synth_file, trained_dir, tmp_path, capsys, command, out_flag, key, value, named):
    """Training metadata whose input frames or target count differ from the
    model's channels exits 3 naming both shapes, before anything is
    written."""
    from sarunet.model import load_checkpoint, save_checkpoint
    model, meta = load_checkpoint(trained_dir / "model.ckpt")
    ckpt = tmp_path / "contradicting.ckpt"
    save_checkpoint(ckpt, model, {**meta, key: value})
    out = tmp_path / "out"
    code = run(command, "--checkpoint", ckpt, "--data", synth_file, out_flag, out)
    err = capsys.readouterr().err
    assert code == 3
    assert all(text in err for text in named), err
    assert not out.exists()


def test_checkpoint_with_a_cloud_key_loads_and_evaluates(synth_file, trained_dir, tmp_path):
    """Checkpoints written while training recorded a ``cloud`` key still
    carry it; nothing reads it, so they load and score as the same
    checkpoint without it does."""
    from sarunet.model import load_checkpoint, save_checkpoint
    model, meta = load_checkpoint(trained_dir / "model.ckpt")
    assert "cloud" not in meta
    ckpt = tmp_path / "with_cloud.ckpt"
    save_checkpoint(ckpt, model, {**meta, "cloud": "False"})
    for name, path in (("with_key", ckpt), ("without", trained_dir / "model.ckpt")):
        assert run("evaluate", "--checkpoint", path, "--data", synth_file,
                   "--out-dir", tmp_path / name) == 0
    for report in ("report.csv", "per_lead.csv", "report.txt"):
        assert (tmp_path / "with_key" / report).read_bytes() == \
            (tmp_path / "without" / report).read_bytes()


def test_checkpoint_with_pointwise_biases_is_data_error(synth_file, trained_dir, tmp_path,
                                                        capsys):
    """A checkpoint in the layout whose DSC stages carried a pointwise bias
    is refused with exit 3 naming the bias tensors, not read."""
    from sarunet.model import load_checkpoint
    from test_containers import write_legacy_checkpoint
    model, _ = load_checkpoint(trained_dir / "model.ckpt")
    ckpt = tmp_path / "old.ckpt"
    with open(ckpt, "wb") as f:
        write_legacy_checkpoint(f, model)
    out = tmp_path / "pred.nwds"
    code = run("predict", "--checkpoint", ckpt, "--data", synth_file, "--out", out)
    err = capsys.readouterr().err
    assert code == 3
    assert "unknown tensors" in err and "'enc0.block.dsc1.pointwise_bias'" in err
    assert not out.exists()


@pytest.mark.parametrize("case", ["data_is_dir", "config_is_dir", "out_under_file"])
def test_os_error_on_a_path_is_data_error(synth_file, tmp_path, capsys, case):
    """An OS error other than a missing file (a directory given as a file, an
    output directory that cannot be made) exits 3 with a message, not a
    traceback."""
    blocker = tmp_path / "file"
    blocker.write_text("")
    argv = {
        "data_is_dir": ("train", "--data", tmp_path, "--out-dir", tmp_path / "out"),
        "config_is_dir": ("evaluate", "--config", tmp_path, "--data", synth_file,
                          "--baseline", "persistence", "--out-dir", tmp_path / "out"),
        "out_under_file": ("synth", "--frames", 20, "--size", 32,
                           "--out", blocker / "x.nwds"),
    }[case]
    assert run(*argv) == 3
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command,args", [
    ("evaluate", ("--baseline", "persistence", "--in-frames", 6, "--lead-minutes", 30,
                  "--out-dir")),
    ("train", ("--in-frames", 6, "--lead-minutes", 30, "--base-channels", 4,
               "--cbam-reduction", 4, "--max-epochs", 1, "--out-dir"))])
def test_infinite_frame_value_is_data_error(synth_file, tmp_path, capsys, command, args):
    """One +inf pixel in an NWDS file stops the load with exit 3, before a
    scale, a report or a checkpoint is made from it."""
    series = load_nwds(synth_file)
    series.frames[20, 5, 7] = np.inf
    data = tmp_path / "inf.nwds"
    save_nwds(data, series)
    out = tmp_path / "out"
    code = run(command, "--data", data, *args, out)
    assert code == 3
    assert "+inf" in capsys.readouterr().err
    assert not out.exists()


def test_frames_without_pixels_are_data_error(tmp_path, capsys):
    """An NWDS container of 64x0 frames stops ``train`` with exit 3 naming
    the frame shape, before the rain gate divides by a zero pixel count."""
    data = tmp_path / "no_pixels.nwds"
    with open(data, "wb") as f:
        f.write(b"NWDS" + struct.pack("<IBQ", 5, 0, 40))     # 5 min, raw, 40 frames
        for _ in range(40):
            write_t4(f, np.zeros((1, 1, 64, 0), np.float32))
    out = tmp_path / "out"
    assert run("train", "--data", data, "--in-frames", 6, "--lead-minutes", 30,
               "--out-dir", out) == 3
    assert "(40, 64, 0)" in capsys.readouterr().err
    assert not out.exists()


@pytest.fixture(scope="module")
def cloud_run(tmp_path_factory):
    """(data, checkpoint) of a one-epoch binary cloud run."""
    root = tmp_path_factory.mktemp("cloud")
    data = root / "cloud.nwds"
    assert run("synth", "--frames", 40, "--size", 32, "--binary", "--interval", 15,
               "--out", data) == 0
    assert run("train", "--data", data, "--cloud", "--base-channels", 4,
               "--cbam-reduction", 4, "--max-epochs", 1, "--batch-size", 4,
               "--out-dir", root / "run") == 0
    return data, root / "run" / "model.ckpt"


@pytest.mark.parametrize("setup", ["precip", "cloud"])
def test_reports_do_not_depend_on_batch_size(request, tmp_path, setup):
    """Evaluate writes the same report bytes for any batch size, up to one
    batch that holds the whole test split (``SquaredErrorSum``)."""
    if setup == "cloud":
        data, ckpt = request.getfixturevalue("cloud_run")
    else:
        data = request.getfixturevalue("synth_file")
        ckpt = request.getfixturevalue("trained_dir") / "model.ckpt"
    reports = {}
    for batch_size in (1, 4, 1000):
        out = tmp_path / f"batch{batch_size}"
        assert run("evaluate", "--checkpoint", ckpt, "--data", data,
                   "--baseline", "persistence", "--batch-size", batch_size,
                   "--out-dir", out) == 0
        reports[batch_size] = [(out / name).read_bytes()
                               for name in ("report.csv", "per_lead.csv", "report.txt")]
    test_windows = json.loads((out / "manifest.json").read_text())["splits"]["windows"]["test"]
    assert 4 < test_windows <= 1000
    assert reports[1] == reports[4] == reports[1000]


@pytest.mark.parametrize("command,out_flag,setup", [
    ("evaluate", "--out-dir", "precip"), ("explain", "--out-dir", "precip"),
    ("predict", "--out", "cloud")])
def test_non_finite_prediction_is_numeric_error(request, tmp_path, capsys,
                                                command, out_flag, setup):
    """A finite checkpoint whose weights overflow the forward pass exits 4,
    with nothing written: no ``inf`` MSE in a report, no ``nan`` raw_max in
    an index, and no cloud mask binarized from non-finite values. The
    ``dec0`` shortcut bias of 3e38 puts every channel into the output conv
    at about 3e38 or above (the other path adds a ReLU output), whatever
    the activations, so the output weights of 3e38 overflow."""
    from sarunet.model import load_checkpoint, save_checkpoint
    if setup == "cloud":
        data, ckpt = request.getfixturevalue("cloud_run")
    else:
        data = request.getfixturevalue("synth_file")
        ckpt = request.getfixturevalue("trained_dir") / "model.ckpt"
    model, meta = load_checkpoint(ckpt)
    params = dict(model.named_parameters())
    params["dec0.block.shortcut.bias"].data[...] = 3e38
    params["out.weight"].data[...] = 3e38
    huge = tmp_path / "huge.ckpt"
    save_checkpoint(huge, model, meta)
    out = tmp_path / "out"
    with np.errstate(over="ignore", invalid="ignore"):
        code = run(command, "--checkpoint", huge, "--data", data, out_flag, out)
    assert code == 4
    assert "prediction is not finite" in capsys.readouterr().err
    assert not out.exists()


def sha256_of(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("case", ["train", "evaluate", "evaluate_checkpoint", "predict",
                                  "explain"])
def test_manifest_records_the_sha256_of_every_input(synth_file, trained_dir, tmp_path,
                                                    case):
    ckpt = trained_dir / "model.ckpt"
    out = tmp_path / "out"
    argv, manifest, inputs = {
        "train": ((), trained_dir / "manifest.json", [synth_file]),
        "evaluate": (("evaluate", "--data", synth_file, "--baseline", "persistence",
                      "--in-frames", 6, "--lead-minutes", 30, "--out-dir", out),
                     out / "manifest.json", [synth_file]),
        "evaluate_checkpoint": (("evaluate", "--checkpoint", ckpt, "--data", synth_file,
                                 "--out-dir", out), out / "manifest.json", [synth_file, ckpt]),
        "predict": (("predict", "--checkpoint", ckpt, "--data", synth_file, "--out", out),
                    tmp_path / "out.manifest.json", [ckpt, synth_file]),
        "explain": (("explain", "--checkpoint", ckpt, "--data", synth_file,
                     "--targets", "enc0.block", "--out-dir", out),
                    out / "manifest.json", [ckpt, synth_file]),
    }[case]
    if argv:
        assert run(*argv) == 0
    assert json.loads(manifest.read_text())["inputs_sha256"] == \
        {str(p): sha256_of(p) for p in inputs}


def test_predict_over_its_own_input_records_the_input_as_read(synth_file, trained_dir,
                                                              tmp_path):
    """The digests are collected before the first output is written, so an
    input that ``--force`` overwrites is recorded as the command read it."""
    data = tmp_path / "series.nwds"
    shutil.copy(synth_file, data)
    digest = sha256_of(data)
    assert run("predict", "--checkpoint", trained_dir / "model.ckpt", "--data", data,
               "--out", data, "--force") == 0
    assert load_nwds(data).frames.shape == (1, 32, 32)
    manifest = json.loads((tmp_path / "series.nwds.manifest.json").read_text())
    assert manifest["inputs_sha256"][str(data)] == digest


@pytest.mark.parametrize("command,bad,out_flag", [
    ("predict", "missing data", "--out"), ("predict", "both missing", "--out"),
    ("explain", "data is a directory", "--out-dir"),
    ("explain", "checkpoint is a directory", "--out-dir")])
def test_bad_input_path_exits_3_and_leaves_no_thread(synth_file, trained_dir, tmp_path,
                                                     capsys, monkeypatch, command, bad,
                                                     out_flag):
    """The command's own error on an input path is the one reported, even
    where the hashing worker failed first on another path (both missing:
    the worker hashes the checkpoint first, the command reads the data
    first), and the worker, slowed here so that it is still running when
    the command fails, is joined before ``main`` returns."""
    from sarunet import cli
    sha256 = cli._sha256

    def slow_sha256(path):
        time.sleep(0.05)
        return sha256(path)

    monkeypatch.setattr(cli, "_sha256", slow_sha256)
    missing, directory = tmp_path / "missing", tmp_path / "dir"
    directory.mkdir()
    ckpt, data, named, errno = {
        "missing data": (trained_dir / "model.ckpt", missing, missing,
                         "[Errno 2] No such file or directory"),
        "both missing": (tmp_path / "missing.ckpt", missing, missing,
                         "[Errno 2] No such file or directory"),
        "data is a directory": (trained_dir / "model.ckpt", directory, directory,
                                "[Errno 21] Is a directory"),
        "checkpoint is a directory": (directory, synth_file, directory,
                                      "[Errno 21] Is a directory"),
    }[bad]
    before = threading.enumerate()
    code = run(command, "--checkpoint", ckpt, "--data", data, out_flag, tmp_path / "out")
    assert threading.enumerate() == before
    assert code == 3
    assert capsys.readouterr().err == f"error: {errno}: {str(named)!r}\n"
    assert not (tmp_path / "out").exists()


class TestPredict:
    def test_prediction_roundtrip(self, synth_file, trained_dir, tmp_path):
        out = tmp_path / "pred.nwds"
        code = run("predict", "--checkpoint", trained_dir / "model.ckpt",
                   "--data", synth_file, "--window-index", 0, "--out", out)
        assert code == 0
        series = load_nwds(out)
        assert series.frames.shape == (1, 32, 32)
        assert series.frames.min() >= 0.0

    def test_refuses_to_overwrite_its_manifest(self, synth_file, trained_dir, tmp_path):
        out = tmp_path / "p.nwds"
        manifest = tmp_path / "p.nwds.manifest.json"
        manifest.write_bytes(b"keep")
        code = run("predict", "--checkpoint", trained_dir / "model.ckpt",
                   "--data", synth_file, "--out", out)
        assert code == 3
        assert manifest.read_bytes() == b"keep" and not out.exists()
        assert run("predict", "--checkpoint", trained_dir / "model.ckpt",
                   "--data", synth_file, "--out", out, "--force") == 0
        assert json.loads(manifest.read_text())["command"] == "predict"

    def test_cloud_prediction_is_binary_mask(self, tmp_path):
        cloud = tmp_path / "cloud.nwds"
        assert run("synth", "--frames", 40, "--size", 32, "--binary",
                   "--interval", 15, "--out", cloud) == 0
        assert run("train", "--data", cloud, "--cloud", "--base-channels", 4,
                   "--cbam-reduction", 4, "--max-epochs", 1, "--batch-size", 4,
                   "--out-dir", tmp_path / "run") == 0
        out = tmp_path / "pred.nwds"
        assert run("predict", "--checkpoint", tmp_path / "run" / "model.ckpt",
                   "--data", cloud, "--out", out) == 0
        series = load_nwds(out)
        assert series.unit == "binary"
        assert series.frames.shape == (6, 32, 32)
        assert set(np.unique(series.frames)) <= {0.0, 1.0}


class TestExplain:
    def test_single_target(self, synth_file, trained_dir, tmp_path):
        out = tmp_path / "ex1"
        code = run("explain", "--checkpoint", trained_dir / "model.ckpt",
                   "--data", synth_file, "--targets", "enc0.block",
                   "--out-dir", out)
        assert code == 0
        assert (out / "enc0_block.nwds").exists()
        assert (out / "enc0_block.ppm").exists()
        index = (out / "index.csv").read_text().splitlines()
        assert len(index) == 2

    def test_all_targets_grid(self, synth_file, trained_dir, tmp_path):
        out = tmp_path / "ex_all"
        code = run("explain", "--checkpoint", trained_dir / "model.ckpt",
                   "--data", synth_file, "--targets", "all", "--out-dir", out)
        assert code == 0
        nwds_files = sorted(out.glob("*.nwds"))
        assert len(nwds_files) == 32
        rows = (out / "index.csv").read_text().splitlines()[1:]
        assert len(rows) == 32
        enc0 = [r for r in rows if r.startswith("enc0.")]
        cols = {r.split(",")[0]: int(r.split(",")[3]) for r in enc0}
        assert cols == {"enc0.block": 0, "enc0.block.dsc_path": 1,
                        "enc0.block.shortcut": 2, "enc0.cbam": 3}
        dec_rows = {r.split(",")[0]: int(r.split(",")[2])
                    for r in rows if r.startswith("dec")}
        assert dec_rows["dec3.block"] == 0
        assert dec_rows["dec0.block"] == 3

    def test_sub_path_alone_gives_the_suite_map(self, synth_file, trained_dir, tmp_path):
        """A sub-path's gradient is its block's, so asked for alone it gives
        the map bytes and ``raw_max`` of the full suite."""
        ckpt = trained_dir / "model.ckpt"
        for targets, out in (("all", "ex_suite"), ("enc1.block.dsc_path", "ex_sub")):
            assert run("explain", "--checkpoint", ckpt, "--data", synth_file,
                       "--targets", targets, "--out-dir", tmp_path / out) == 0
        for ext in (".nwds", ".ppm"):
            name = "enc1_block_dsc_path" + ext
            assert (tmp_path / "ex_sub" / name).read_bytes() == \
                (tmp_path / "ex_suite" / name).read_bytes()
        rows = {}
        for out in ("ex_suite", "ex_sub"):
            for line in (tmp_path / out / "index.csv").read_text().splitlines()[1:]:
                if line.startswith("enc1.block.dsc_path,"):
                    rows[out] = line.rsplit(",", 1)[1]
        assert rows["ex_sub"] == rows["ex_suite"] and float(rows["ex_sub"]) > 0.0

    @pytest.mark.parametrize("existing", ["manifest.json", "enc0_block.ppm"])
    def test_refuses_to_overwrite_before_grad_cam(self, synth_file, trained_dir, tmp_path,
                                                  monkeypatch, existing):
        """An existing output, the manifest of another command in the same
        directory included, stops the run before the Grad-CAM pass."""
        import sarunet.gradcam

        def no_pass(*args, **kwargs):
            raise AssertionError("explain_suite ran")
        monkeypatch.setattr(sarunet.gradcam, "explain_suite", no_pass)
        out = tmp_path / "ex"
        out.mkdir()
        (out / existing).write_bytes(b"keep")
        code = run("explain", "--checkpoint", trained_dir / "model.ckpt",
                   "--data", synth_file, "--targets", "enc0.block,enc1.cbam",
                   "--out-dir", out)
        assert code == 3
        assert [p.name for p in out.iterdir()] == [existing]
        assert (out / existing).read_bytes() == b"keep"

    def test_repeated_target_is_usage_error(self, synth_file, trained_dir, tmp_path,
                                            capsys):
        out = tmp_path / "ex_twice"
        code = run("explain", "--checkpoint", trained_dir / "model.ckpt",
                   "--data", synth_file, "--targets", "enc0.block,enc1.cbam,enc0.block",
                   "--out-dir", out)
        assert code == 2
        assert "['enc0.block']" in capsys.readouterr().err
        assert not out.exists()

    def test_smaat_subpath_target_is_clear_error(self, synth_file, tmp_path,
                                                 capsys):
        out = tmp_path / "smaat_run"
        assert run("train", "--data", synth_file, "--variant", "smaat",
                   "--in-frames", 6, "--lead-minutes", 30,
                   "--base-channels", 4, "--cbam-reduction", 4,
                   "--max-epochs", 1, "--batch-size", 4,
                   "--out-dir", out) == 0
        code = run("explain", "--checkpoint", out / "model.ckpt",
                   "--data", synth_file, "--targets", "enc0.block.shortcut",
                   "--out-dir", tmp_path / "ex_smaat")
        assert code == 2
        assert "enc0.block" in capsys.readouterr().err


@pytest.mark.parametrize("target", ["enc0.pool_in", "dec0.reduce", "out"])
def test_untraceable_target_exits_2(synth_file, trained_dir, tmp_path, capsys, target):
    out = tmp_path / "ex"
    code = run("explain", "--checkpoint", trained_dir / "model.ckpt",
               "--data", synth_file, "--targets", target, "--out-dir", out)
    assert code == 2
    assert repr(target) in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("index", [-1, 1000])
@pytest.mark.parametrize("command,flag,out_flag", [
    ("predict", "--window-index", "--out"), ("explain", "--input-window", "--out-dir")])
def test_window_outside_gated_windows_exits_2(synth_file, trained_dir, tmp_path, capsys,
                                              command, flag, out_flag, index):
    code = run(command, "--checkpoint", trained_dir / "model.ckpt", "--data", synth_file,
               flag, index, out_flag, tmp_path / "out")
    assert code == 2
    assert f"{flag} {index} outside [0, " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command,out_flag", [("predict", "--out"), ("explain", "--out-dir")])
def test_no_window_passing_the_rain_gate_is_data_error(trained_dir, tmp_path, capsys,
                                                       command, out_flag):
    dry = tmp_path / "dry.nwds"
    save_nwds(dry, FrameSeries(np.zeros((30, 32, 32), np.float32), 5, "raw"))
    out = tmp_path / "out"
    code = run(command, "--checkpoint", trained_dir / "model.ckpt", "--data", dry,
               out_flag, out)
    assert code == 3
    assert "gives no window passing the rain gate" in capsys.readouterr().err
    assert not out.exists()


def test_config_keys_are_the_parser_flags(tmp_path):
    """Each command's config keys are exactly its flags (bar --config), and a
    config value converts as the flag's text does."""
    from sarunet.cli import _config_values, build_parser
    parser = build_parser()
    commands = parser._subparsers._group_actions[0].choices
    actions = {name: {a.dest: a for a in p._actions
                      if a.option_strings and a.dest not in ("help", "config")}
               for name, p in commands.items()}

    def text(a):
        if a.choices:
            return a.choices[0]
        return {None: "true", int: "1", float: "0.5"}.get(a.type, "x")

    texts = {dest: text(a) for acts in actions.values() for dest, a in acts.items()}
    cfg = tmp_path / "all.cfg"
    cfg.write_text("".join(f"{k.replace('_', '-')}={v}\n" for k, v in texts.items()))
    for name, acts in actions.items():
        values = _config_values(cfg, name)
        assert set(values) == set(acts)
        for dest, a in acts.items():
            argv = [name, a.option_strings[0]] + ([] if a.const else [texts[dest]])
            assert values[dest] == getattr(parser.parse_args(argv), dest)
