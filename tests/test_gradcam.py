"""Heatmap generation: score semantics, the activation-perturbation oracle,
suite layout, and rendering."""

import numpy as np
import pytest

from sarunet import Tape, tensor
from sarunet.data import load_nwds
from sarunet.errors import UsageError
from sarunet.gradcam import (color_table, explain_suite, rain_score, save_heatmap_nwds,
                             suite_grid, write_ppm)
from sarunet.model import ModelConfig, build, gradient_layer

from oracles import grad_rel_err

F64 = np.float64


def one_map(model, x, layer, **score_kw):
    """The heatmap of one layer."""
    return explain_suite(model, x, [layer], **score_kw)[0]


def tiny_model(base=2, in_ch=2, seed=0, dtype=np.float32):
    cfg = ModelConfig(in_channels=in_ch, out_channels=1, base_channels=base,
                      cbam_reduction=2)
    return build(cfg, seed=seed, dtype=dtype)


class TestRainScore:
    def test_below_threshold_gives_zero(self):
        pred = tensor(np.full((1, 1, 4, 4), 0.01, np.float32))
        score, mask = rain_score(pred, "raw", scale=1.0)
        assert mask.sum() == 0
        assert score.item() == 0.0

    def test_constant_above_threshold(self):
        pred = tensor(np.full((1, 1, 5, 5), 20.0, np.float32))  # 2.4 mm/h
        score, mask = rain_score(pred, "raw", scale=1.0)
        assert mask.sum() == 25
        assert score.item() == pytest.approx(20.0 * 25, rel=1e-6)

    def test_matches_masked_sum_oracle(self):
        rng = np.random.default_rng(0)
        vals = rng.random((1, 1, 8, 8)).astype(np.float32) * 12.0
        pred = tensor(vals)
        score, mask = rain_score(pred, "raw", scale=1.0)
        want = sum(float(v) for v, m in zip(vals.ravel(), mask.ravel()) if m)
        assert score.item() == pytest.approx(want, rel=1e-6)

    def test_multi_sample_rejected(self):
        with pytest.raises(UsageError):
            rain_score(tensor(np.ones((2, 1, 4, 4))), "raw")


class TestGradCam:
    def test_zero_gradient_target_yields_zero_map(self):
        m = tiny_model()
        x = tensor(np.zeros((1, 2, 16, 16), np.float32))
        hm = one_map(m, x, "enc0.block", unit="raw", threshold_mm_per_h=1e9)
        assert hm.raw_max == 0.0
        assert np.all(hm.values.data == 0.0)

    def test_single_channel_layer_is_rescaled_activation(self):
        # base 1 puts exactly one channel at encoder depth 0
        cfg = ModelConfig(in_channels=2, out_channels=1, base_channels=1,
                          cbam_reduction=1)
        m = build(cfg, seed=3)
        rng = np.random.default_rng(4)
        x = tensor(rng.random((1, 2, 16, 16)).astype(np.float32) * 30.0)
        with Tape() as tape:
            pred, trace = m.forward(x, train=False, trace_request=["enc0.block"])
            score, mask = rain_score(pred, "raw", threshold_mm_per_h=0.0)
        assert mask.sum() > 0
        tape.backward(score)
        act = trace.get("enc0.block")
        alpha = act.grad.mean()
        hm = one_map(m, x, "enc0.block", unit="raw", threshold_mm_per_h=0.0)
        if alpha > 0:
            ref = np.maximum(act.data[0, 0] * alpha, 0.0)
            np.testing.assert_allclose(hm.values.data[0, 0], ref / ref.max(),
                                       rtol=1e-5, atol=1e-6)
            assert np.unravel_index(hm.values.data[0, 0].argmax(),
                                    hm.values.data[0, 0].shape) == \
                np.unravel_index(act.data[0, 0].argmax(), act.data[0, 0].shape)

    def test_alpha_and_map_match_activation_perturbation_oracle(self):
        m = tiny_model(dtype=F64)
        rng = np.random.default_rng(5)
        x = tensor(rng.random((1, 2, 16, 16)) * 40.0, dtype=F64)
        layer = "enc1.block"  # 4 channels on an 8x8 grid at this input size

        m.zero_grad()
        with Tape() as tape:
            pred, trace = m.forward(x, train=False, trace_request=[layer])
            score, mask = rain_score(pred, "raw", threshold_mm_per_h=0.0)
        assert mask.sum() > 0
        tape.backward(score)
        act = trace.get(layer)
        alpha = act.grad.mean(axis=(2, 3))

        mask_fixed = mask.astype(np.float64)
        base = act.data.copy()

        def score_with(a_data):
            # the block's output is replaced by the perturbed activation
            m.enc_blocks[1].forward = lambda *args: tensor(a_data, dtype=F64)
            try:
                y, _ = m.forward(x, train=False)
            finally:
                del m.enc_blocks[1].forward
            return float((y.data * mask_fixed).sum())

        h = 1e-4
        fd_grad = np.zeros_like(base)
        for idx in np.ndindex(*base.shape):
            pert = base.copy()
            pert[idx] += h
            up = score_with(pert)
            pert[idx] -= 2 * h
            dn = score_with(pert)
            fd_grad[idx] = (up - dn) / (2 * h)
        alpha_fd = fd_grad.mean(axis=(2, 3))
        assert grad_rel_err(alpha, alpha_fd) <= 1e-3

        combined = (alpha[0][:, None, None] * base[0]).sum(axis=0)
        combined_fd = (alpha_fd[0][:, None, None] * base[0]).sum(axis=0)
        assert grad_rel_err(np.maximum(combined, 0), np.maximum(combined_fd, 0)) <= 1e-3

        hm = one_map(m, x, layer, unit="raw", threshold_mm_per_h=0.0)
        rect = np.maximum(combined, 0)
        if rect.max() > 0:
            assert hm.raw_max > 0

    def test_deterministic(self):
        m = tiny_model(seed=8)
        rng = np.random.default_rng(9)
        x = tensor(rng.random((1, 2, 16, 16)).astype(np.float32) * 25.0)
        t = "dec0.block"
        a = one_map(m, x, t, unit="raw", threshold_mm_per_h=0.0)
        b = one_map(m, x, t, unit="raw", threshold_mm_per_h=0.0)
        assert a.values.data.tobytes() == b.values.data.tobytes()

    def test_empty_target_list_gives_no_maps(self):
        m = tiny_model()
        x = tensor(np.ones((1, 2, 16, 16), np.float32))
        assert explain_suite(m, x, [], unit="raw", threshold_mm_per_h=0.0) == []

    def test_unknown_target_lists_valid(self):
        m = tiny_model()
        x = tensor(np.zeros((1, 2, 16, 16), np.float32))
        with pytest.raises(UsageError) as err:
            one_map(m, x, "enc0.pool_in", unit="raw")
        assert "enc0.block" in str(err.value)


class TestSuite:
    def test_grid_order_and_size(self):
        m = tiny_model()
        targets = list(suite_grid(m))
        assert len(targets) == 32
        assert targets[0] == "enc0.block"
        assert targets[3] == "enc0.cbam"
        assert targets[20] == "dec3.block"
        assert targets[-1] == "dec0.block.shortcut"

    def test_all_maps_finite_unit_interval(self):
        m = tiny_model(seed=10)
        rng = np.random.default_rng(11)
        x = tensor(rng.random((1, 2, 16, 16)).astype(np.float32) * 30.0)
        maps = explain_suite(m, x, list(suite_grid(m)), unit="raw", threshold_mm_per_h=0.0)
        assert len(maps) == 32
        for hm in maps:
            vals = hm.values.data
            assert vals.shape == (1, 1, 16, 16)
            assert np.isfinite(vals).all()
            assert vals.min() >= 0.0 and vals.max() <= 1.0

    def test_suite_matches_individual_calls(self):
        m = tiny_model(seed=12)
        rng = np.random.default_rng(13)
        x = tensor(rng.random((1, 2, 16, 16)).astype(np.float32) * 30.0)
        maps = explain_suite(m, x, list(suite_grid(m)), unit="raw", threshold_mm_per_h=0.0)
        for hm in (maps[0], maps[7], maps[25]):
            single = one_map(m, x, hm.layer, unit="raw", threshold_mm_per_h=0.0)
            assert single.values.data.tobytes() == hm.values.data.tobytes()

    def test_block_activation_is_sum_of_subpaths(self):
        m = tiny_model(seed=14)
        rng = np.random.default_rng(15)
        x = tensor(rng.random((1, 2, 16, 16)).astype(np.float32))
        _, tr = m.forward(x, trace_request=["enc2.block", "enc2.block.dsc_path",
                                            "enc2.block.shortcut"])
        np.testing.assert_array_equal(
            tr.get("enc2.block").data,
            tr.get("enc2.block.dsc_path").data + tr.get("enc2.block.shortcut").data)

    def test_smaat_variant_rejected(self):
        cfg = ModelConfig(in_channels=2, out_channels=1, base_channels=2,
                          cbam_reduction=2, variant="smaat")
        with pytest.raises(UsageError):
            suite_grid(build(cfg, seed=0))


class TestRendering:
    def test_color_table_shape_and_endpoints(self):
        table = color_table()
        assert table.shape == (256, 3)
        assert tuple(table[0]) == (0, 0, 128)
        assert tuple(table[255]) == (128, 0, 0)

    def test_ppm_layout(self, tmp_path):
        hm_vals = np.linspace(0, 1, 16, dtype=np.float32).reshape(1, 1, 4, 4)
        from sarunet.gradcam import Heatmap
        from sarunet.tensor import Tensor4
        heat = Heatmap(Tensor4(hm_vals), "enc0.block", 1.0)
        p = tmp_path / "map.ppm"
        write_ppm(p, heat)
        raw = p.read_bytes()
        assert raw.startswith(b"P6\n4 4\n255\n")
        assert len(raw) == len(b"P6\n4 4\n255\n") + 4 * 4 * 3

    def test_ppm_pixels_index_the_color_table(self, tmp_path):
        from sarunet.gradcam import Heatmap
        from sarunet.tensor import Tensor4
        vals = (np.arange(256, dtype=np.float32) / 255).reshape(1, 1, 16, 16)
        p = tmp_path / "ramp.ppm"
        write_ppm(p, Heatmap(Tensor4(vals), "enc0.block", 1.0))
        header = b"P6\n16 16\n255\n"
        assert p.read_bytes() == header + color_table().tobytes()

    def test_heatmap_nwds_roundtrip(self, tmp_path):
        from sarunet.gradcam import Heatmap
        from sarunet.tensor import Tensor4
        vals = np.random.default_rng(16).random((1, 1, 8, 8)).astype(np.float32)
        heat = Heatmap(Tensor4(vals), "enc0.cbam", 0.5)
        p = tmp_path / "map.nwds"
        save_heatmap_nwds(p, heat)
        back = load_nwds(p)
        assert back.unit == "norm"
        assert back.frames[0].tobytes() == vals[0, 0].tobytes()


def _explain_input(channels=2, size=32, seed=21):
    rng = np.random.default_rng(seed)
    return tensor(rng.random((1, channels, size, size)).astype(np.float32) * 30.0)


class TestExplainLeavesModelAlone:
    """Grad-CAM runs over frozen parameters: it reads only the traced
    activations' gradients and leaves the model as it found it."""

    def test_parameter_grads_and_flags_are_untouched(self):
        m = tiny_model(base=4, seed=20)
        params = m.parameters()
        for i, p in enumerate(params):
            p.grad.fill(7.25)
            p.requires_grad = i % 3 != 0           # a mix, to see each flag come back
        flags = [p.requires_grad for p in params]
        maps = explain_suite(m, _explain_input(), list(suite_grid(m)), unit="raw",
                             threshold_mm_per_h=0.0)
        assert any(hm.raw_max > 0 for hm in maps)
        assert [p.requires_grad for p in params] == flags
        for p in params:
            assert np.all(p.grad == np.float32(7.25))

    def test_flags_come_back_when_explain_raises(self):
        m = tiny_model(base=4, seed=20)
        with pytest.raises(UsageError):
            explain_suite(m, _explain_input(), list(suite_grid(m)), unit="furlongs")
        assert all(p.requires_grad for p in m.parameters())

    def test_activation_gradients_match_an_unfrozen_pass(self, monkeypatch):
        m = tiny_model(base=4, seed=22)
        x = _explain_input(seed=23)
        layers = list(suite_grid(m))
        with Tape() as tape:
            pred, ref = m.forward(x, train=False, trace_request=layers)
            score, mask = rain_score(pred, "raw", threshold_mm_per_h=0.0)
        assert mask.sum() > 0
        subpaths = [n for n in layers if gradient_layer(n) != n]
        assert len(subpaths) == 18 and all(ref[n].grad is None for n in subpaths)
        for n in subpaths:             # buffers of their own, to check the sharing
            ref[n].retain_grad()
        tape.backward(score)
        for n in subpaths:
            assert ref[n].grad.tobytes() == ref[gradient_layer(n)].grad.tobytes(), n

        traces = []
        forward = m.forward

        def traced_forward(*args, **kwargs):
            pred, trace = forward(*args, **kwargs)
            traces.append(trace)
            return pred, trace
        monkeypatch.setattr(m, "forward", traced_forward)
        explain_suite(m, x, layers, unit="raw", threshold_mm_per_h=0.0)
        (trace,) = traces
        for n in layers:
            held = gradient_layer(n)
            assert trace.get(held).grad.tobytes() == ref.get(held).grad.tobytes(), n
        assert all(trace[n].grad is None for n in subpaths)

    def test_tape_starts_at_the_first_traced_layer(self, monkeypatch):
        """The suite's tape records 169 ops, against 176 for a pass with
        trainable parameters: enc0's two DSC stages (a depthwise conv, the
        fused pointwise conv and batch norm, and a relu each) and its
        shortcut conv lie upstream of every target and are not recorded."""
        lengths = []
        backward = Tape.backward

        def counted(tape, loss):
            lengths.append(len(tape.ops))
            return backward(tape, loss)
        monkeypatch.setattr(Tape, "backward", counted)
        m = tiny_model(base=4, seed=24)
        x = _explain_input(seed=25)
        explain_suite(m, x, list(suite_grid(m)), unit="raw", threshold_mm_per_h=0.0)
        with Tape() as tape:
            pred, _ = m.forward(x, train=False, trace_request=list(suite_grid(m)))
            rain_score(pred, "raw", threshold_mm_per_h=0.0)
        assert lengths == [169]
        assert len(tape.ops) == 176

    def test_no_gradient_root_without_a_tape(self):
        m = tiny_model(base=4, seed=26)
        for p in m.parameters():
            p.requires_grad = False
        _, trace = m.forward(_explain_input(seed=27), trace_request=["enc1.block"])
        act = trace.get("enc1.block")
        assert not act.requires_grad and act.grad is None
