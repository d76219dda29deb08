"""Composite-layer semantics: DSC stages, residual blocks, CBAM, param counts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sarunet import Tape, ops, tensor
from sarunet.blocks import (BatchNorm2d, Cbam, DoubleDscBlock, DscLayer,
                            ResidualDscBlock, param_count)
from sarunet.errors import ConfigurationError, DimensionError

from oracles import cbam_reference, depthwise_separable_loops, finite_diff, grad_rel_err

F64 = np.float64


def _zero(t):
    t.data[...] = 0.0


class TestDscLayer:
    """A DSC stage up to its activation: depthwise, then the pointwise conv
    and its batch norm as one op."""

    def test_dirac_depthwise_identity_pointwise(self):
        rng = np.random.default_rng(0)
        layer = DscLayer(3, 3, rng)
        layer.depthwise.data[...] = 0.0
        layer.depthwise.data[:, 0, 1, 1] = 1.0
        layer.pointwise.data[...] = np.eye(3, dtype=np.float32).reshape(3, 3, 1, 1)
        x = tensor(rng.normal(size=(2, 3, 6, 6)).astype(np.float32))
        y = layer.forward(x, BatchNorm2d(3), train=False)     # running mean 0, variance 1
        np.testing.assert_allclose(y.data, x.data / np.sqrt(np.float32(1.0 + ops.BN_EPS)),
                                   rtol=1e-6)

    def test_matches_two_stage_loop_oracle(self):
        rng = np.random.default_rng(2)
        layer = DscLayer(3, 5, rng, dtype=F64)
        bn = BatchNorm2d(5, dtype=F64)
        bn.gamma.data[...] = rng.normal(size=(1, 5, 1, 1))
        bn.beta.data[...] = rng.normal(size=(1, 5, 1, 1))
        bn.running_mean[...] = rng.normal(size=5)
        bn.running_var[...] = rng.uniform(0.5, 2.0, size=5)
        x = rng.normal(size=(1, 3, 8, 8))
        y = layer.forward(tensor(x, dtype=F64), bn, train=False)
        per_channel = (None, slice(None), None, None)
        ref = depthwise_separable_loops(x, layer.depthwise.data, layer.pointwise.data, None)
        ref = (ref - bn.running_mean[per_channel]) / np.sqrt(
            bn.running_var[per_channel] + ops.BN_EPS) * bn.gamma.data + bn.beta.data
        assert np.abs(y.data - ref).max() / np.abs(ref).max() <= 1e-9

    def test_channel_mismatch(self):
        layer = DscLayer(3, 5, np.random.default_rng(3))
        with pytest.raises(DimensionError):
            layer.forward(tensor(np.zeros((1, 4, 4, 4))), BatchNorm2d(5), train=False)


class TestResidualDscBlock:
    def test_dead_main_path_identity_shortcut(self):
        rng = np.random.default_rng(4)
        blk = ResidualDscBlock(3, 3, rng)
        for stage in (blk.stack.dsc1, blk.stack.dsc2):
            _zero(stage.pointwise)
        blk.shortcut.weight.data[...] = np.eye(3, dtype=np.float32).reshape(3, 3, 1, 1)
        _zero(blk.shortcut.bias)
        x = tensor(rng.normal(size=(2, 3, 5, 5)).astype(np.float32))
        np.testing.assert_array_equal(blk.forward(x, train=False).data, x.data)

    def test_zero_shortcut_gives_pure_dsc_path(self):
        rng = np.random.default_rng(5)
        blk = ResidualDscBlock(2, 4, rng)
        _zero(blk.shortcut.weight)
        _zero(blk.shortcut.bias)
        x = tensor(rng.normal(size=(1, 2, 6, 6)).astype(np.float32))
        out = blk.forward(x, train=False)
        dsc = blk.stack.forward(x, train=False)
        np.testing.assert_array_equal(out.data, dsc.data)

    def test_output_is_exact_sum_of_paths(self):
        rng = np.random.default_rng(6)
        blk = ResidualDscBlock(2, 4, rng)
        x = tensor(rng.normal(size=(1, 2, 6, 6)).astype(np.float32))
        out = blk.forward(x, train=False)
        dsc = blk.stack.forward(x, train=False)
        short = blk.shortcut.forward(x)
        np.testing.assert_array_equal(out.data, dsc.data + short.data)

    def test_odd_spatial_dims_allowed(self):
        blk = ResidualDscBlock(2, 3, np.random.default_rng(7))
        y = blk.forward(tensor(np.zeros((1, 2, 5, 7), np.float32)), train=False)
        assert y.shape == (1, 3, 5, 7)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(8)
        blk = ResidualDscBlock(2, 3, rng, dtype=F64)
        x = tensor(rng.normal(size=(2, 2, 4, 4)), dtype=F64)

        def loss_value(train):
            out = blk.forward(x, train=train)
            return ops.sum_all(ops.mul(out, out))

        for train, tol in ((False, 1e-4), (True, 1e-3)):
            for _, p in blk.named_parameters():
                p.zero_grad()
            with Tape() as tape:
                loss = loss_value(train)
            tape.backward(loss)
            analytic, numeric = [], []
            for name, p in blk.named_parameters():
                analytic.append(p.grad.ravel().copy())
                numeric.append(finite_diff(lambda: loss_value(train).item(), p.data).ravel())
            err = grad_rel_err(np.concatenate(analytic), np.concatenate(numeric))
            assert err <= tol, f"train={train}: {err}"


class TestCbam:
    def test_reduction_must_divide(self):
        with pytest.raises(ConfigurationError):
            Cbam(6, 4, np.random.default_rng(9))

    def test_matches_descriptor_oracle(self):
        rng = np.random.default_rng(10)
        m = Cbam(8, 4, rng, dtype=F64)
        x = rng.normal(size=(1, 8, 4, 4))
        out = m.forward(tensor(x, dtype=F64))
        ref = cbam_reference(x, m.mlp_w1.data, m.mlp_w2.data, m.spatial.weight.data)
        np.testing.assert_allclose(out.data, ref, rtol=1e-9)

    def test_attention_strictly_shrinks_nonzero_pixels(self):
        rng = np.random.default_rng(11)
        m = Cbam(4, 2, rng, dtype=F64)
        x = rng.normal(size=(2, 4, 5, 5))
        out = m.forward(tensor(x, dtype=F64))
        nz = x != 0
        assert np.all(np.abs(out.data[nz]) < np.abs(x[nz]))

    def test_attention_factors_in_unit_interval(self):
        rng = np.random.default_rng(12)
        m = Cbam(8, 4, rng, dtype=F64)
        x = tensor(rng.normal(size=(1, 8, 6, 6)), dtype=F64)
        ca = m.channel_attention(x).data
        sa = m.spatial_attention(x).data
        assert np.all((ca > 0) & (ca < 1))
        assert np.all((sa > 0) & (sa < 1))

    def test_spatially_constant_input_descriptors(self):
        # Constant maps make the avg and max spatial descriptors coincide, so
        # the two perceptron paths agree; the spatial gate is constant away
        # from the zero-padded border of the 7x7 convolution.
        rng = np.random.default_rng(13)
        m = Cbam(4, 2, rng, dtype=F64)
        const = rng.normal(size=(1, 4, 1, 1))
        x = np.broadcast_to(const, (1, 4, 9, 9)).copy()
        ca = m.channel_attention(tensor(x, dtype=F64)).data
        avg = ops.global_pool(tensor(x, dtype=F64), "avg", "spatial")
        mx = ops.global_pool(tensor(x, dtype=F64), "max", "spatial")
        np.testing.assert_allclose(avg.data, mx.data, rtol=1e-12)
        two_path = 1.0 / (1.0 + np.exp(-2.0 * m._mlp(avg).data))
        np.testing.assert_allclose(ca, two_path, rtol=1e-12)
        sa = m.spatial_attention(tensor(x, dtype=F64)).data[0, 0]
        interior = sa[3:-3, 3:-3]
        assert np.ptp(interior) < 1e-12

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(14)
        m = Cbam(4, 2, rng, dtype=F64)
        x = tensor(rng.normal(size=(1, 4, 4, 4)), dtype=F64)

        def loss_value():
            out = m.forward(x)
            return ops.sum_all(ops.mul(out, out))

        with Tape() as tape:
            loss = loss_value()
        tape.backward(loss)
        for name, p in m.named_parameters():
            num = finite_diff(lambda: loss_value().item(), p.data)
            assert grad_rel_err(p.grad, num) <= 1e-4, name


class TestParamCount:
    def test_dsc_layer_arithmetic(self):
        assert param_count(DscLayer(3, 5, np.random.default_rng(15))) == 42

    def test_residual_block_enumeration_oracle(self):
        blk = ResidualDscBlock(2, 4, np.random.default_rng(16))
        # independent per-field enumeration
        expected = 0
        expected += 2 * 1 * 3 * 3 + 4 * 2 * 1 * 1          # dsc1
        expected += 4 + 4                                   # bn1 gamma/beta
        expected += 4 * 1 * 3 * 3 + 4 * 4 * 1 * 1          # dsc2
        expected += 4 + 4                                   # bn2
        expected += 4 * 2 * 1 * 1 + 4                       # shortcut conv + bias
        assert param_count(blk) == expected
        by_shape = sum(t.data.size for _, t in blk.named_parameters())
        assert by_shape == expected

    def test_running_stats_excluded(self):
        blk = ResidualDscBlock(2, 4, np.random.default_rng(17))
        buffers = dict(blk.named_buffers())
        assert len(buffers) == 4
        assert all("running" in k for k in buffers)

    def test_double_block_is_residual_minus_shortcut(self):
        rng = np.random.default_rng(18)
        res = ResidualDscBlock(3, 6, rng)
        plain = DoubleDscBlock(3, 6, np.random.default_rng(18))
        shortcut = 6 * 3 * 1 * 1 + 6
        assert param_count(res) - param_count(plain) == shortcut


@settings(max_examples=20, deadline=None)
@given(h=st.integers(4, 32), w=st.integers(4, 32),
       cin=st.integers(1, 4), cout=st.integers(1, 4))
def test_blocks_preserve_spatial_dims(h, w, cin, cout):
    rng = np.random.default_rng(19)
    x = tensor(np.zeros((1, cin, h, w), np.float32))
    res = ResidualDscBlock(cin, cout, rng).forward(x, train=False)
    assert res.shape == (1, cout, h, w)
    att = Cbam(cin, 1, rng).forward(x)
    assert att.shape == (1, cin, h, w)
