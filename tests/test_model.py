"""Topology, routing, determinism, and checkpoint behavior of the assembled
network."""

import tracemalloc
import types
import weakref

import numpy as np
import pytest

from sarunet import Tape, Tensor4, ops, tensor
from sarunet.blocks import param_count
from sarunet.errors import ConfigurationError, DimensionError, UsageError
from sarunet.model import (ModelConfig, build, gradient_layer, load_checkpoint,
                           persistence_forward, plain_unet_param_count,
                           save_checkpoint)
from sarunet.train import mse_loss

from oracles import finite_diff


def tiny_config(variant="sar", in_ch=2, out_ch=1, base=4, reduction=4):
    return ModelConfig(in_channels=in_ch, out_channels=out_ch, base_channels=base,
                       variant=variant, cbam_reduction=reduction)


def rand_input(shape, seed=0, dtype=np.float32):
    return tensor(np.random.default_rng(seed).normal(size=shape).astype(dtype))


class TestTopology:
    def test_encoder_ladder_base64_from_parameter_shapes(self):
        m = build(ModelConfig(in_channels=12, out_channels=1, base_channels=64), seed=0)
        shapes = {n: t.shape for n, t in m.named_parameters()}
        enc_out = [shapes[f"enc{d}.block.dsc2.pointwise"][0] for d in range(5)]
        assert enc_out == [64, 128, 256, 512, 1024]
        dec_out = [shapes[f"dec{d}.block.dsc2.pointwise"][0] for d in (3, 2, 1, 0)]
        assert dec_out == [512, 256, 128, 64]
        assert m.config.encoder_channels()[-1] == 1024

    def test_smaat_ladder(self):
        m = build(ModelConfig(in_channels=12, out_channels=1, base_channels=64,
                              variant="smaat"), seed=0)
        shapes = {n: t.shape for n, t in m.named_parameters()}
        enc_out = [shapes[f"enc{d}.block.dsc2.pointwise"][0] for d in range(5)]
        assert enc_out == [64, 128, 256, 512, 512]
        assert m.config.encoder_channels()[-1] == 512
        assert not any(n.endswith(".reduce.weight") for n in shapes)
        assert not any(".shortcut." in n for n in shapes)

    def test_param_ordering_sar_smaat_plain(self):
        sar = build(ModelConfig(12, 1, 64), seed=0)
        smaat = build(ModelConfig(12, 1, 64, variant="smaat"), seed=0)
        assert param_count(sar) > param_count(smaat)
        plain = plain_unet_param_count(12, 1, 64)
        assert param_count(sar) < plain
        assert param_count(smaat) < plain

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            build(ModelConfig(2, 1, 4, variant="nope", cbam_reduction=4), seed=0)
        with pytest.raises(ConfigurationError):
            build(ModelConfig(2, 1, 4, cbam_reduction=3), seed=0)  # 3 does not divide 4


class TestForward:
    def test_paper_scale_shapes(self):
        m = build(ModelConfig(in_channels=12, out_channels=1, base_channels=4,
                              cbam_reduction=4), seed=1)
        y, _ = m.forward(tensor(np.zeros((6, 12, 288, 288), np.float32)))
        assert y.shape == (6, 1, 288, 288)

    def test_cloud_config_shapes(self):
        m = build(ModelConfig(in_channels=4, out_channels=6, base_channels=4,
                              cbam_reduction=4), seed=1)
        y, _ = m.forward(tensor(np.zeros((2, 4, 256, 256), np.float32)))
        assert y.shape == (2, 6, 256, 256)

    def test_zero_input_finite_output(self):
        m = build(tiny_config(), seed=2)
        y, _ = m.forward(tensor(np.zeros((1, 2, 16, 16), np.float32)))
        assert np.isfinite(y.data).all()
        assert y.shape == (1, 1, 16, 16)

    def test_input_validation(self):
        m = build(tiny_config(), seed=3)
        with pytest.raises(DimensionError):
            m.forward(tensor(np.zeros((1, 3, 16, 16), np.float32)))
        with pytest.raises(DimensionError):
            m.forward(tensor(np.zeros((1, 2, 24, 24), np.float32)))

    def test_unknown_trace_name_lists_valid(self):
        m = build(tiny_config(), seed=4)
        with pytest.raises(UsageError) as err:
            m.forward(tensor(np.zeros((1, 2, 16, 16), np.float32)),
                      trace_request=["enc9.block"])
        assert "enc0.block" in str(err.value)

    def test_forward_determinism_across_builds(self):
        x = rand_input((2, 2, 16, 16), seed=5)
        ya, _ = build(tiny_config(), seed=6).forward(x)
        yb, _ = build(tiny_config(), seed=6).forward(x)
        assert ya.data.tobytes() == yb.data.tobytes()

    def test_seed_changes_parameters(self):
        a = build(tiny_config(), seed=1)
        b = build(tiny_config(), seed=2)
        names = dict(a.named_parameters())
        diffs = [not np.array_equal(t.data, names[n].data)
                 for n, t in b.named_parameters() if t.data.size > 2]
        assert any(diffs)


def pooled_and_traced(monkeypatch, m, x, wanted):
    """The inputs of every ``ops.max_pool2`` call in one forward pass, and
    that pass's traced activations."""
    pooled = []
    max_pool2 = ops.max_pool2

    def spy(t):
        pooled.append(t)
        return max_pool2(t)
    monkeypatch.setattr(ops, "max_pool2", spy)
    _, tr = m.forward(x, trace_request=wanted)
    return pooled, tr


class TestRouting:
    def test_sar_pools_the_cbam_output(self, monkeypatch):
        m = build(tiny_config("sar"), seed=7)
        x = rand_input((1, 2, 16, 16), seed=8)
        pooled, tr = pooled_and_traced(monkeypatch, m, x, ["enc0.cbam", "enc0.block"])
        assert len(pooled) == 4
        assert pooled[0] is tr.get("enc0.cbam")

    def test_smaat_pools_the_block_output(self, monkeypatch):
        m = build(tiny_config("smaat"), seed=7)
        x = rand_input((1, 2, 16, 16), seed=8)
        pooled, tr = pooled_and_traced(monkeypatch, m, x, ["enc0.cbam", "enc0.block"])
        assert len(pooled) == 4
        assert pooled[0] is tr.get("enc0.block")
        assert not np.array_equal(pooled[0].data, tr.get("enc0.cbam").data)

    def test_block_trace_is_sum_of_subpaths(self):
        m = build(tiny_config("sar"), seed=9)
        x = rand_input((1, 2, 16, 16), seed=10)
        _, tr = m.forward(x, trace_request=[
            "enc1.block", "enc1.block.dsc_path", "enc1.block.shortcut"])
        total = tr.get("enc1.block.dsc_path").data + tr.get("enc1.block.shortcut").data
        np.testing.assert_array_equal(tr.get("enc1.block").data, total)

    def test_gradient_flow_reaches_every_parameter(self):
        cfg = tiny_config()
        got_nonzero = None
        for seed in range(5):
            m = build(cfg, seed=seed)
            x = rand_input((2, 2, 16, 16), seed=100 + seed)
            target = rand_input((2, 1, 16, 16), seed=200 + seed)
            with Tape() as tape:
                y, _ = m.forward(x, train=True)
                loss = mse_loss(y, target)
            tape.backward(loss)
            flags = [np.any(p.grad != 0.0) for _, p in m.named_parameters()]
            got_nonzero = flags if got_nonzero is None else \
                [a or b for a, b in zip(got_nonzero, flags)]
        assert all(got_nonzero), "some parameter never received gradient over 5 seeds"


    @pytest.mark.parametrize("variant", ["sar", "smaat"])
    def test_one_step_gives_every_parameter_a_real_gradient(self, variant):
        # In float64 a gradient that is exactly zero in exact arithmetic, as
        # that of a bias just before a training-mode batch norm, comes out
        # near 1e-17 of the largest entry; real ones here stay above 1e-7.
        m = build(tiny_config(variant), seed=0, dtype=np.float64)
        rng = np.random.default_rng(1)
        x = tensor(rng.normal(size=(2, 2, 16, 16)), dtype=np.float64)
        target = tensor(rng.normal(size=(2, 1, 16, 16)), dtype=np.float64)
        with Tape() as tape:
            y, _ = m.forward(x, train=True)
            loss = mse_loss(y, target)
        tape.backward(loss)
        largest = {n: np.abs(p.grad).max() for n, p in m.named_parameters()}
        top = max(largest.values())
        assert [n for n, g in largest.items() if g <= 1e-12 * top] == []

    def test_whole_model_gradient_matches_finite_differences(self):
        """The training loss's gradient, through the whole float64 network
        in train mode, against central differences at two sampled entries of
        every parameter tensor. Every conv picks its kernel from its weight's
        shape, so this checks all three kernels in their places."""
        m = build(tiny_config("sar"), seed=0, dtype=np.float64)
        rng = np.random.default_rng(1)
        x = tensor(rng.normal(size=(2, 2, 32, 32)), dtype=np.float64)
        target = tensor(rng.normal(size=(2, 1, 32, 32)), dtype=np.float64)

        def loss():
            y, _ = m.forward(x, train=True)    # batch statistics: the running
            return mse_loss(y, target)          # buffers do not reach the loss

        with Tape() as tape:
            out = loss()
        tape.backward(out)
        for name, p in m.named_parameters():
            scale = np.abs(p.grad).max()
            assert scale > 0.0, name              # a dead path would check nothing
            picks = rng.choice(p.data.size, size=min(2, p.data.size), replace=False)
            idx = [np.unravel_index(i, p.shape) for i in picks]
            num = finite_diff(lambda: loss().item(), p.data, h=1e-6, indices=idx)
            rows = tuple(np.array(idx).T)
            # the loss's own float64 rounding puts ~1e-8 on each difference
            assert np.abs(p.grad[rows] - num[rows]).max() <= 1e-5 * scale, name


def recorded_step(m, x, target, trace_request=()):
    """Record one training step on a tape; the caller runs backward, which
    consumes it."""
    with Tape() as tape:
        y, trace = m.forward(x, train=True, trace_request=trace_request)
        loss = mse_loss(y, target)
    return tape, loss, trace


def _base(arr: np.ndarray) -> np.ndarray:
    while isinstance(arr.base, np.ndarray):
        arr = arr.base
    return arr


@pytest.fixture
def recorded(monkeypatch):
    """Spy on ``Tape.record``: the bytes of every recorded op output, and a
    weak reference to the base array behind each op input and output (the
    tape itself keeps none of them)."""
    seen = types.SimpleNamespace(output_bytes=0, arrays=[])
    real = Tape.record

    def record(tape, name, inputs, output, backward_fn):
        seen.output_bytes += output.data.nbytes
        seen.arrays += [weakref.ref(_base(t.data)) for t in (*inputs, output)]
        return real(tape, name, inputs, output, backward_fn)

    monkeypatch.setattr(Tape, "record", record)
    return seen


class TestTapeMemory:
    """The tape holds what a backward pass reads, and little else."""

    def test_only_parameters_and_traced_activations_hold_grad(self):
        m = build(tiny_config(), seed=0)
        wanted = ["enc0.block", "enc1.block.dsc_path", "enc2.cbam", "dec0.block.shortcut"]
        tape, loss, trace = recorded_step(m, rand_input((1, 2, 32, 32), seed=1),
                                          rand_input((1, 1, 32, 32), seed=2), wanted)
        records = list(tape.ops)
        tape.backward(loss)
        assert all(p.grad is not None for p in m.parameters())
        # a residual sub-path's gradient is its block's: the block holds it
        holders = {"enc0.block", "enc1.block", "enc2.cbam", "dec0.block"}
        assert {gradient_layer(n) for n in wanted} == holders
        assert set(trace) == set(wanted) | holders
        alive = [out for out in (rec.output() for rec in records) if out is not None]
        holding = {out.key for out in alive if out.grad is not None}
        assert holding == {trace[n].key for n in holders}
        assert all(np.any(trace[n].grad != 0.0) for n in holders)

    def test_training_step_peak_memory(self, recorded):
        """One taped step at the paper's 288x288 input peaks at a small multiple
        of its op outputs: without gradient buffers on every output, without
        closure copies of op inputs or outputs, with the outputs that no
        backward rule reads freed during the forward pass, with each rule's
        arrays freed as backward walks the tape, with what one matmul or
        a bit mask rebuilds not kept (the batch-norm input, the relu output,
        the pooled input), and with each output gradient freed once its rule
        has read it. Measured: 0.646x and 41.5 MiB (0.675x and 43.4 MiB while
        backward held each rule's gradient until the rule returned; 0.70x and
        45.3 MiB while batch norm kept its input, relu its output and max
        pooling its input and output; 1.18x while backward kept every
        closure until the tape was dropped, 1.46x while the tape held every
        op output)."""
        m = build(ModelConfig(in_channels=12, out_channels=6, base_channels=4,
                              cbam_reduction=4), seed=0)
        x = rand_input((1, 12, 288, 288), seed=3)
        target = rand_input((1, 6, 288, 288), seed=4)
        tracemalloc.start()
        try:
            tape, loss, _ = recorded_step(m, x, target)
            tape.backward(loss)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.66 * recorded.output_bytes
        assert peak <= 42.5 * 2 ** 20

    def test_backward_closures_keep_only_tape_arrays(self, recorded):
        """Backward closures capture their arrays directly, so a count of the
        closure cells sees them all, and hold almost nothing beyond the op
        inputs and outputs themselves: what they need they rebuild from
        those."""
        m = build(tiny_config(), seed=0)
        tape, _, _ = recorded_step(m, rand_input((1, 2, 64, 64), seed=5),
                                   rand_input((1, 1, 64, 64), seed=6))
        held = {id(a) for a in (ref() for ref in recorded.arrays) if a is not None}
        extra, codes = {}, {}
        for rec in tape.ops:
            for cell in rec.backward_fn.__closure__ or ():
                v = cell.cell_contents
                if isinstance(v, types.FunctionType):
                    inner = [c.cell_contents for c in v.__closure__ or ()]
                    assert not any(isinstance(a, (np.ndarray, Tensor4)) for a in inner), \
                        f"{rec.name} hides arrays in a nested closure"
                if isinstance(v, np.ndarray) and id(_base(v)) not in held:
                    kept = codes if v.dtype == np.uint8 else extra
                    kept[id(_base(v))] = _base(v).nbytes
        # what is left: relu's sign bits and max pooling's winner bytes, a
        # bit per relu output and a byte per pooled output, ...
        assert sum(codes.values()) <= 0.01 * recorded.output_bytes
        # ... and batch norm's per-channel statistics
        assert sum(extra.values()) <= 0.005 * recorded.output_bytes


def spy_outputs(monkeypatch, name):
    """Replace ``ops.<name>`` with a wrapper that keeps weak references to
    each output and to its array; returns the list they go into."""
    refs = []
    real = getattr(ops, name)

    def spy(*args, **kwargs):
        out = real(*args, **kwargs)
        refs.append((weakref.ref(out), weakref.ref(out.data)))
        return out

    monkeypatch.setattr(ops, name, spy)
    return refs


def alive(refs) -> int:
    return sum(ref() is not None for pair in refs for ref in pair)


class TestFreedEarly:
    """An op output that no backward rule reads is freed before backward
    runs, and the gradients do not change for it."""

    def test_batch_norm_outputs_in_a_training_step(self, monkeypatch):
        # the pointwise conv fused with batch norm: relu keeps only signs
        norms = spy_outputs(monkeypatch, "pointwise_batch_norm")
        m = build(tiny_config(), seed=0, dtype=np.float64)
        rng = np.random.default_rng(7)
        x = tensor(rng.normal(size=(2, 2, 32, 32)), dtype=np.float64)
        target = tensor(rng.normal(size=(2, 1, 32, 32)), dtype=np.float64)

        def loss():
            y, _ = m.forward(x, train=True)
            return mse_loss(y, target)

        with Tape() as tape:
            out = loss()
        assert len(norms) == 18 and alive(norms) == 0     # two per block, nine blocks
        tape.backward(out)
        params = dict(m.named_parameters())
        for name in ("enc0.block.bn1.gamma", "enc3.block.bn2.beta",
                     "dec1.block.dsc1.depthwise", "enc2.block.dsc2.pointwise"):
            p = params[name]
            idx = [(0, 0, 0, 0), tuple(d - 1 for d in p.shape)]
            num = finite_diff(lambda: loss().item(), p.data, h=1e-6, indices=idx)
            rows = tuple(np.array(idx).T)
            assert np.abs(p.grad[rows] - num[rows]).max() <= 1e-5 * np.abs(p.grad).max(), name

    @pytest.mark.parametrize("train", [True, False])
    def test_skip_freed_once_its_concat_has_copied_it(self, monkeypatch, train):
        """Level d's CBAM output is gone by the time dec d's block runs: the
        decoder takes each skip off its list for the concat."""
        m = build(tiny_config(), seed=0)
        passed = []
        real = ops.concat_channels

        def concat(a, b):
            passed.append(weakref.ref(a))
            return real(a, b)
        monkeypatch.setattr(ops, "concat_channels", concat)
        dead = {}
        for d, blk in enumerate(m.dec_blocks):
            def checked(*args, d=d, run=blk.forward):
                dead[d] = passed[-1]() is None          # the skip dec d's concat copied
                return run(*args)
            blk.forward = checked
        with Tape():
            m.forward(rand_input((1, 2, 32, 32), seed=3), train=train)
        assert dead == {0: True, 1: True, 2: True, 3: True}

    def test_closure_arrays_freed_as_backward_walks(self):
        """Backward pops each record before its rule runs, so by the time
        the first-recorded rule runs, the arrays held only by the
        last-recorded batch norm's closure are gone."""
        m = build(tiny_config(), seed=0, dtype=np.float64)
        rng = np.random.default_rng(8)
        x = tensor(rng.normal(size=(2, 2, 32, 32)), dtype=np.float64)
        target = tensor(rng.normal(size=(2, 1, 32, 32)), dtype=np.float64)

        def loss():
            y, _ = m.forward(x, train=True)
            return mse_loss(y, target)

        with Tape() as tape:
            out = loss()
        weights = {id(_base(p.data)) for p in m.parameters()}
        last_norm = [rec for rec in tape.ops if rec.name == "batch_norm"][-1]
        refs = [weakref.ref(c.cell_contents) for c in last_norm.backward_fn.__closure__
                if isinstance(c.cell_contents, np.ndarray)
                and id(_base(c.cell_contents)) not in weights]
        assert len(refs) == 3                      # its input, mean and 1/std
        del last_norm
        first = tape.ops[0]
        rule, ran = first.backward_fn, []

        def checked(gout):
            assert [ref() for ref in refs] == [None] * len(refs)
            ran.append(rule)
            return rule(gout)

        first.backward_fn = checked
        del first
        tape.backward(out)
        assert ran == [rule]
        params = dict(m.named_parameters())
        for name in ("enc0.block.dsc1.depthwise", "dec0.block.bn2.gamma",
                     "enc4.block.dsc1.pointwise", "out.weight"):
            p = params[name]
            idx = [(0, 0, 0, 0), tuple(d - 1 for d in p.shape)]
            num = finite_diff(lambda: loss().item(), p.data, h=1e-6, indices=idx)
            rows = tuple(np.array(idx).T)
            assert np.abs(p.grad[rows] - num[rows]).max() <= 1e-5 * np.abs(p.grad).max(), name

    def test_depthwise_outputs_in_an_explain_pass(self, monkeypatch):
        """With every weight frozen, no rule reads a depthwise output: the
        pointwise conv after it keeps its weight only."""
        from sarunet.gradcam import explain_suite, rain_score
        depthwise = spy_outputs(monkeypatch, "_conv_depthwise3")
        m = build(ModelConfig(in_channels=2, out_channels=1, base_channels=2,
                              cbam_reduction=2), seed=0, dtype=np.float64)
        x = tensor(np.random.default_rng(5).random((1, 2, 16, 16)) * 40.0, dtype=np.float64)
        seen = {}
        real_backward = Tape.backward

        def backward(tape, loss):
            seen["alive"], seen["made"] = alive(depthwise), len(depthwise)
            records = list(tape.ops)
            real_backward(tape, loss)
            (root,) = {t.key: t for rec in records for t in rec.leaves
                       if t is not None and t.requires_grad}.values()
            seen["grad"] = root.grad.copy()

        monkeypatch.setattr(Tape, "backward", backward)
        explain_suite(m, x, ["enc1.block"], unit="raw", threshold_mm_per_h=0.0)
        assert seen["made"] == 18 and seen["alive"] == 0     # two per block, nine blocks

        # the gradient root, enc1.block, against central differences of the
        # score with that block's output perturbed
        base = m.forward(x, trace_request=["enc1.block"])[1]["enc1.block"].data.copy()
        _, mask = rain_score(m.forward(x)[0], "raw", threshold_mm_per_h=0.0)

        def score():
            m.enc_blocks[1].forward = lambda *args: tensor(base, dtype=np.float64)
            try:
                return float((m.forward(x)[0].data * mask).sum())
            finally:
                del m.enc_blocks[1].forward

        idx = [(0, 0, 0, 0), (0, 1, 3, 4), (0, 3, 7, 7)]
        num = finite_diff(score, base, h=1e-4, indices=idx)
        rows = tuple(np.array(idx).T)
        grad = seen["grad"]
        assert np.abs(grad[rows] - num[rows]).max() <= 1e-6 * np.abs(grad).max()


class TestPersistence:
    def test_replicates_last_channel(self):
        x = rand_input((2, 12, 16, 16), seed=13)
        y = persistence_forward(x, 1)
        np.testing.assert_array_equal(y.data[:, 0], x.data[:, 11])

    def test_cloud_shape(self):
        x = rand_input((2, 4, 16, 16), seed=14)
        y = persistence_forward(x, 6)
        assert y.shape == (2, 6, 16, 16)
        for k in range(6):
            np.testing.assert_array_equal(y.data[:, k], x.data[:, 3])

    def test_frozen_series_gives_zero_mse(self):
        frame = np.random.default_rng(15).random((1, 1, 8, 8)).astype(np.float32)
        x = tensor(np.concatenate([frame] * 3, axis=1))
        target = tensor(frame)
        y = persistence_forward(x, 1)
        assert float(((y.data - target.data) ** 2).mean()) == 0.0


class TestCheckpoint:
    def test_roundtrip_bitwise(self, tmp_path):
        m = build(tiny_config(), seed=16)
        x = rand_input((2, 2, 16, 16), seed=17)
        # dirty the running stats so buffers carry real content; batch of 2
        # because the 16x16 bottleneck is 1x1 spatial and bn-train needs
        # n*h*w >= 2
        with Tape():
            m.forward(x, train=True)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, m, extra={"norm_scale": "800.0"})
        back, meta = load_checkpoint(path)
        assert meta["norm_scale"] == "800.0"
        orig = dict(m.named_parameters())
        for name, t in back.named_parameters():
            assert t.data.tobytes() == orig[name].data.tobytes(), name
        orig_buf = dict(m.named_buffers())
        for name, b in back.named_buffers():
            assert b.tobytes() == orig_buf[name].tobytes(), name
        y0, _ = m.forward(x)
        y1, _ = back.forward(x)
        assert y0.data.tobytes() == y1.data.tobytes()

    def test_loading_draws_no_weights(self, tmp_path, monkeypatch):
        """The checkpoint supplies every value, so the model it is read into
        draws no initial weights."""
        m = build(tiny_config(), seed=19)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, m)

        def no_draws(*args, **kwargs):
            raise AssertionError("a generator was made")
        monkeypatch.setattr(np.random, "default_rng", no_draws)
        back, _ = load_checkpoint(path)
        orig = dict(m.named_parameters())
        for name, t in back.named_parameters():
            assert t.data.tobytes() == orig[name].data.tobytes(), name

    def test_rejects_bad_magic(self, tmp_path):
        p = tmp_path / "junk.ckpt"
        p.write_bytes(b"NOTCKPT")
        with pytest.raises(UsageError):
            load_checkpoint(p)

    def test_extra_keys_cannot_shadow_config(self, tmp_path):
        m = build(tiny_config(), seed=18)
        with pytest.raises(UsageError):
            save_checkpoint(tmp_path / "x.ckpt", m, extra={"variant": "sar"})
