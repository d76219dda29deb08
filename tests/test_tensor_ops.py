"""Forward semantics of the tensor core, checked against independent oracles."""

import io
import itertools
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, note, settings
from hypothesis import strategies as st

from sarunet import Tape, Tensor4, ops, tensor
from sarunet.errors import ConfigurationError, DataError, DimensionError, UsageError
from sarunet.tensor import read_t4, write_t4

from oracles import (batch_norm_train_loops, bilinear_double, bilinear_double_adjoint,
                     conv2d_loops, depthwise_dw_padded, finite_diff, grad_rel_err,
                     max_pool2_windows, shifted_sum_planes)


def t(arr, **kw):
    return tensor(np.asarray(arr), **kw)


def bits(a):
    """The raw bits of a float array, so -0.0 and +0.0 compare unequal."""
    return a.view(np.dtype(f"u{a.itemsize}"))


class TestConv2d:
    def test_all_ones_3x3(self):
        x = t(np.ones((1, 1, 3, 3)))
        w = t(np.ones((1, 1, 3, 3)))
        y = ops.conv2d(x, w)
        assert y.data[0, 0, 1, 1] == 9.0
        for corner in [(0, 0), (0, 2), (2, 0), (2, 2)]:
            assert y.data[0, 0][corner] == 4.0

    def test_dirac_kernel_is_identity(self):
        rng = np.random.default_rng(1)
        x = t(rng.normal(size=(2, 3, 5, 5)))
        w = np.zeros((3, 3, 3, 3), dtype=np.float32)
        for c in range(3):
            w[c, c, 1, 1] = 1.0
        y = ops.conv2d(x, t(w))
        np.testing.assert_array_equal(y.data, x.data)

    def test_cbam_7x7_matches_loop_oracle(self):
        """CBAM's spatial conv: two maps in, one out, planes as small as
        the kernel's half-width, padded by 3 on every side."""
        rng = np.random.default_rng(2)
        for h, w in [(7, 7), (4, 6), (1, 1), (2, 9)]:
            x = rng.normal(size=(2, 2, h, w))
            k = rng.normal(size=(1, 2, 7, 7))
            y = ops.conv2d(t(x, dtype=np.float64), t(k, dtype=np.float64))
            ref = conv2d_loops(x, k, padding=3)
            np.testing.assert_allclose(y.data, ref, rtol=1e-12, atol=1e-12)

    def test_random_shapes_match_loop_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n, cin = int(rng.integers(1, 3)), int(rng.integers(1, 5))
            kind = rng.choice(["pointwise", "depthwise", "dense"])
            if kind == "depthwise":
                w, groups = rng.normal(size=(cin, 1, 3, 3)), cin
            else:
                k = 1 if kind == "pointwise" else int(rng.choice([3, 5, 7]))
                w, groups = rng.normal(size=(int(rng.integers(1, 4)), cin, k, k)), 1
            h = int(rng.integers(1, 9))
            x = rng.normal(size=(n, cin, h, h)).astype(np.float32)
            a = ops.conv2d(t(x), t(w.astype(np.float32)))
            b = conv2d_loops(x, w, padding=w.shape[2] // 2, groups=groups)
            err = np.abs(a.data - b).max() / max(np.abs(a.data).max(), 1e-12)
            assert err <= 1e-5

    def test_shape_errors(self):
        x = t(np.ones((1, 3, 4, 4)))
        for kernel in [(2, 3, 2, 2), (2, 3, 3, 5), (3, 1, 3, 1)]:   # even, not square
            with pytest.raises(ConfigurationError, match="square, odd kernel"):
                ops.conv2d(x, t(np.ones(kernel)))
        for weight in [(2, 2, 3, 3), (2, 1, 3, 3), (3, 1, 5, 5), (6, 1, 3, 3), (2, 4, 1, 1)]:
            with pytest.raises(DimensionError, match=re.escape(str(weight))):
                ops.conv2d(x, t(np.ones(weight)))
        with pytest.raises(DimensionError, match="bias"):
            ops.conv2d(x, t(np.ones((2, 3, 1, 1))), t(np.ones((1, 3, 1, 1))))

    @pytest.mark.parametrize("weight", [(3, 1, 3, 3), (2, 3, 3, 3), (1, 3, 7, 7)],
                             ids=["depthwise", "dense_3x3", "dense_7x7"])
    def test_bias_only_with_pointwise_weight(self, weight):
        """Only the pointwise kernel takes a bias; with a depthwise or dense
        weight a bias of the right shape is refused, naming the weight."""
        bias = t(np.ones((1, weight[0], 1, 1)))
        with pytest.raises(DimensionError, match=re.escape(str(weight))):
            ops.conv2d(t(np.ones((1, 3, 4, 4))), t(np.ones(weight)), bias)


@pytest.mark.parametrize("weight,cin,kernel", [
    ((4, 3, 1, 1), 3, "_conv_pointwise"),
    ((1, 1, 1, 1), 1, "_conv_pointwise"),
    ((3, 1, 3, 3), 3, "_conv_depthwise3"),
    ((1, 1, 3, 3), 1, "_conv_depthwise3"),    # depthwise is tested before dense
    ((3, 3, 3, 3), 3, "_conv_dense"),
    ((4, 1, 3, 3), 1, "_conv_dense"),         # one channel in, four out
    ((1, 2, 7, 7), 2, "_conv_dense"),
])
def test_weight_shape_picks_kernel(monkeypatch, weight, cin, kernel):
    ran = []
    for name in ("_conv_pointwise", "_conv_depthwise3", "_conv_dense"):
        monkeypatch.setattr(ops, name, lambda *a, name=name: ran.append(name))
    ops.conv2d(t(np.ones((1, cin, 5, 5))), t(np.ones(weight)))
    assert ran == [kernel]


# Planes for the specialised kernels: one sample and a batch, non-square, a
# single row and a single column.
KERNEL_SHAPES = [(1, 3, 5, 7), (3, 2, 6, 4), (3, 2, 1, 6), (1, 3, 5, 1)]


def kernel_case(kind, shape, with_bias, seed=0):
    """Float64 input, weight and optional bias (pointwise only) that take
    the ``kind`` kernel, and the loop oracle's keywords for the same conv."""
    rng = np.random.default_rng(seed)
    n, c, h, w = shape
    if kind == "pointwise":
        weight, oracle_kw = rng.normal(size=(4, c, 1, 1)), {}
    else:
        weight, oracle_kw = rng.normal(size=(c, 1, 3, 3)), {"padding": 1, "groups": c}
    bias = rng.normal(size=weight.shape[0]) if with_bias else None
    return rng.normal(size=shape), weight, bias, oracle_kw


@pytest.fixture
def no_dense_kernel(monkeypatch):
    """Fail any conv that takes the dense kernel."""
    def refuse(*args):
        raise AssertionError("conv2d took the dense kernel")
    monkeypatch.setattr(ops, "_conv_dense", refuse)


@pytest.mark.usefixtures("no_dense_kernel")
@pytest.mark.parametrize("kind", ["pointwise", "depthwise"])
class TestConvKernels:
    @pytest.mark.parametrize("shape", KERNEL_SHAPES)
    def test_matches_loop_oracle(self, kind, shape):
        x, w, _, oracle_kw = kernel_case(kind, shape, False)
        y = ops.conv2d(t(x, dtype=np.float64), t(w, dtype=np.float64))
        ref = conv2d_loops(x, w, **oracle_kw)
        np.testing.assert_allclose(y.data, ref, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("shape", KERNEL_SHAPES)
    def test_gradients_match_finite_differences(self, kind, shape):
        x, w, b, _ = kernel_case(kind, shape, kind == "pointwise", seed=1)
        params = [t(a, dtype=np.float64, requires_grad=True)
                  for a in (x, w) + ((b.reshape(1, -1, 1, 1),) if b is not None else ())]

        def loss():
            y = ops.conv2d(*params)
            return ops.sum_all(ops.mul(y, y))

        with Tape() as tape:
            out = loss()
        tape.backward(out)
        for p in params:
            num = finite_diff(lambda: loss().item(), p.data, h=1e-5)
            assert grad_rel_err(p.grad, num) <= 1e-7


@pytest.mark.parametrize("shape", KERNEL_SHAPES)
def test_pointwise_bias_matches_loop_oracle(shape):
    x, w, b, _ = kernel_case("pointwise", shape, True)
    y = ops.conv2d(t(x, dtype=np.float64), t(w, dtype=np.float64),
                   t(b.reshape(1, -1, 1, 1), dtype=np.float64))
    np.testing.assert_allclose(y.data, conv2d_loops(x, w, bias=b), rtol=1e-12, atol=1e-12)


@pytest.mark.usefixtures("no_dense_kernel")
def test_depthwise_forward_peak_memory():
    """A taped depthwise forward allocates a few copies of its input at
    most; an im2col patch matrix alone would take nine."""
    rng = np.random.default_rng(2)
    x = t(rng.normal(size=(2, 8, 64, 64)).astype(np.float32), requires_grad=True)
    w = t(rng.normal(size=(8, 1, 3, 3)).astype(np.float32), requires_grad=True)
    tracemalloc.start()
    try:
        with Tape():
            ops.conv2d(x, w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * x.data.nbytes


@pytest.mark.usefixtures("no_dense_kernel")
def test_depthwise_staged_forward_peak_memory():
    """Over several stages the forward holds the output, one stage of
    padded planes and its two sum buffers: no whole-array temporary beyond
    those."""
    rng = np.random.default_rng(4)
    x = t(rng.normal(size=(1, 16, 144, 144)).astype(np.float32), requires_grad=True)
    w = t(rng.normal(size=(16, 1, 3, 3)).astype(np.float32), requires_grad=True)
    tracemalloc.start()
    try:
        with Tape():
            ops.conv2d(x, w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * x.data.nbytes, f"peak {peak / x.data.nbytes:.2f}x the input bytes"


@pytest.mark.parametrize("part", ["forward", "frozen-weight-dx", "backward"])
def test_depthwise_staged_peak_memory(part):
    """Over several stages, the forward, a frozen weight's ``dx``
    (Grad-CAM's backward) and a training backward hold their output (``dx``;
    the weight gradient is 9 entries a channel), one stage of padded planes
    and its two sum buffers (``acc`` and ``term``, a stage's planes without
    their three padding rows), and the training backward two padded channel
    groups (two planes each): no whole-array padded copy, which alone would
    take more than the input's bytes."""
    rng = np.random.default_rng(5)
    x = t(rng.normal(size=(1, 24, 200, 200)).astype(np.float32), requires_grad=True)
    w = t(rng.normal(size=(24, 1, 3, 3)).astype(np.float32),
          requires_grad=part != "frozen-weight-dx")
    assert _stages(*x.shape) == (24, False)                   # a stage is one plane
    plane = 203 * 202                                         # padded
    assert ops._channel_groups(1, 24, plane) == [(c, c + 2) for c in range(0, 24, 2)]
    gout = rng.normal(size=x.shape).astype(np.float32)
    tracemalloc.start()
    try:
        with Tape() as tape:
            ops.conv2d(x, w)
        if part != "forward":
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            dx, dw = tape.ops[0].backward_fn(gout)
            assert dx.shape == x.shape and (dw is None) == (part == "frozen-weight-dx")
        else:
            base = 0
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    buffers = plane + 2 * 200 * 202               # a stage (one padded plane), acc and term
    if part == "backward":
        buffers += 2 * 2 * plane                  # the padded groups of gout and the input
    assert peak <= x.data.nbytes + 4 * buffers + 2 ** 16, \
        f"peak {peak / x.data.nbytes:.2f}x the input bytes"


def dense_loop_grads(x, w, gout):
    """``dx`` and ``dw`` of the dense "same" conv from the loop oracle: ``dx``
    correlates ``gout`` with the flipped weight, in and out channels
    swapped; ``dw`` correlates each input plane with each ``gout`` plane over
    the batch, at the lags ``-k//2 .. k//2``."""
    p = w.shape[2] // 2
    dx = conv2d_loops(gout, w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3), padding=p)
    dw = conv2d_loops(x.transpose(1, 0, 2, 3), gout.transpose(1, 0, 2, 3), padding=p)
    return dx, dw.transpose(1, 0, 2, 3)


class TestDenseKernel:
    """The dense kernel's spectra against the loop oracle in float64, and
    its memory against the input."""

    @pytest.mark.parametrize("k", [3, 5, 7])
    @pytest.mark.parametrize("shape", KERNEL_SHAPES)
    def test_matches_loop_oracle(self, k, shape):
        rng = np.random.default_rng(k)
        n, cin, h, w_in = shape
        x, w = rng.normal(size=shape), rng.normal(size=(3, cin, k, k))
        gout = rng.normal(size=(n, 3, h, w_in))
        params = [t(a, dtype=np.float64, requires_grad=True) for a in (x, w)]
        with Tape() as tape:
            y = ops.conv2d(*params)
        (rec,) = tape.ops
        grads = rec.backward_fn(gout)
        np.testing.assert_allclose(y.data, conv2d_loops(x, w, padding=k // 2),
                                   rtol=1e-12, atol=1e-12)
        assert len(grads) == 2
        for got, want in zip(grads, dense_loop_grads(x, w, gout)):
            assert got.shape == want.shape and got.dtype == np.float64
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-11)

    def test_zero_input_gives_exact_zeros(self):
        rng = np.random.default_rng(8)
        x = t(np.zeros((2, 2, 9, 12), np.float32), requires_grad=True)
        w = t(rng.normal(size=(1, 2, 7, 7)).astype(np.float32), requires_grad=True)
        with Tape() as tape:
            y = ops.conv2d(x, w)
        _, dw = tape.ops[0].backward_fn(rng.normal(size=y.shape).astype(np.float32))
        assert y.dtype == dw.dtype == np.float32
        assert not y.data.any() and not dw.any()

    def test_forward_and_backward_peak_memory(self):
        """CBAM's 7x7 at the CLI's 96x96, batch 6: forward and backward hold
        a few spectra of the input at most; a 49-fold patch matrix alone
        would take 49 times the input."""
        rng = np.random.default_rng(9)
        x = t(rng.normal(size=(6, 2, 96, 96)).astype(np.float32), requires_grad=True)
        w = t(rng.normal(size=(1, 2, 7, 7)).astype(np.float32), requires_grad=True)
        gout = rng.normal(size=(6, 1, 96, 96)).astype(np.float32)
        tracemalloc.start()
        try:
            with Tape() as tape:
                ops.conv2d(x, w)
            tape.ops[0].backward_fn(gout)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * x.data.nbytes, f"peak {peak / x.data.nbytes:.1f}x the input bytes"


def _stages(n, c, h, w):
    """(stages, partial stage) of the depthwise kernel's staged padding on
    ``[n, c, h, w]``, from its stage-size rule."""
    stage = max(1, min(n * c, ops._STAGE // ((h + 3) * (w + 2))))
    return -(-n * c // stage), n * c % stage != 0


def _padded_planes(a):
    """``a`` zero-padded as the oracle reads it: one column each side, one
    row on top and two below, each plane flattened."""
    n, c = a.shape[:2]
    return np.pad(a, ((0, 0), (0, 0), (1, 2), (1, 1))).reshape(n, c, -1)


def _assert_shifted_sum_bitwise(dtype, n, c, h, w, flipped, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, c, h, w)).astype(dtype)
    taps = rng.normal(size=(c, 9)).astype(dtype)
    if flipped:                                  # the backward's dx taps
        taps = taps[:, ::-1]
    got = ops._shifted_sum(a, taps)
    want = shifted_sum_planes(_padded_planes(a), taps, h, w)
    assert got.shape == want.shape == (n, c, h, w) and got.dtype == want.dtype
    assert got.flags.c_contiguous
    assert bits(got).tobytes() == bits(want).tobytes()


@settings(max_examples=60, deadline=None)
@given(dtype=st.sampled_from([np.float32, np.float64]), n=st.integers(1, 3),
       c=st.integers(1, 40), h=st.integers(1, 300), w=st.integers(1, 300),
       flipped=st.booleans(), seed=st.integers(0, 2**16))
def test_shifted_sum_matches_whole_plane_oracle_bitwise(dtype, n, c, h, w, flipped, seed):
    """Stage by stage, the depthwise kernel gives the bytes of nine
    whole-plane passes over the whole padded array."""
    assume(n * c * (h + 3) * (w + 2) <= 2**20)
    note(f"stages, partial stage: {_stages(n, c, h, w)}")
    _assert_shifted_sum_bitwise(dtype, n, c, h, w, flipped, seed)


@pytest.mark.parametrize("shape,stages", [
    ((3, 40, 20, 20), (1, False)),
    ((3, 37, 60, 20), (3, True)),
    ((1, 2, 300, 300), (2, False)),
    ((3, 5, 250, 150), (15, False)),
    ((1, 7, 288, 288), (7, False)),
    ((3, 7, 60, 60), (2, True)),
    ((6, 64, 40, 40), (11, True)),
    ((1, 64, 72, 72), (6, True)),
], ids=["one-stage", "stages-partial", "plane-stages", "plane-stages-batch", "stages-of-a-plane",
        "stages-batch", "stages-of-many-planes", "stages-72"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("flipped", [False, True], ids=["taps", "flipped"])
def test_shifted_sum_bitwise_over_several_stages(shape, stages, dtype, flipped):
    """Shapes split into one or several stages, some ending in a partial
    one, keep the whole-plane bytes."""
    assert _stages(*shape) == stages
    _assert_shifted_sum_bitwise(dtype, *shape, flipped, seed=sum(shape))


@pytest.mark.parametrize("shape,groups", [
    ((1, 1, 8, 8), [(0, 1)]),
    ((2, 5, 31, 31), [(0, 5)]),
    ((6, 4, 96, 96), [(0, 2), (2, 4)]),
    ((6, 3, 96, 96), [(0, 3)]),
    ((1, 5, 288, 288), [(0, 2), (2, 5)]),
    ((1, 32, 288, 288), [(c, c + 2) for c in range(0, 32, 2)]),
    ((2, 12, 144, 144), [(c, c + 2) for c in range(0, 12, 2)]),
    ((1, 23, 72, 72), [(0, 11), (11, 23)]),
], ids=["one-plane", "one-group", "batch-pairs", "batch-trailing-three",
        "trailing-three", "paper-dec0", "batch-paper-level1", "merged-trailing-group"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_depthwise_dw_bitwise_over_channel_groups(shape, groups, dtype):
    """Padded a channel group at a time, never a lone channel among
    several, the weight gradient keeps the bytes of the nine ``einsum``
    over the whole padded arrays."""
    n, c, h, w = shape
    assert ops._channel_groups(n, c, (h + 3) * (w + 2)) == groups
    rng = np.random.default_rng(sum(shape))
    gout, x = (rng.normal(size=shape).astype(dtype) for _ in range(2))
    got = ops._depthwise_dw(gout, x)
    want = depthwise_dw_padded(gout, x)
    assert got.shape == (c, 9) and got.dtype == dtype
    assert bits(got).tobytes() == bits(want).tobytes()


def _identity_bn(x, gamma, beta, rm, rv, train):
    """Batch norm alone: the fused op over a frozen identity 1x1 weight."""
    c = x.shape[1]
    eye = t(np.eye(c).reshape(c, c, 1, 1), dtype=x.dtype)
    return ops.pointwise_batch_norm(x, eye, gamma, beta, rm, rv, train=train)


class TestBatchNorm:
    """The pointwise conv fused with the batch norm after it."""

    def test_normalizes_batch(self):
        rng = np.random.default_rng(5)
        x = t(rng.normal(loc=3.0, scale=2.0, size=(4, 3, 6, 6)))
        gamma = t(np.ones((1, 3, 1, 1)))
        beta = t(np.zeros((1, 3, 1, 1)))
        rm, rv = np.zeros(3, np.float32), np.ones(3, np.float32)
        y = _identity_bn(x, gamma, beta, rm, rv, train=True)
        assert np.abs(y.data.mean(axis=(0, 2, 3))).max() < 1e-6
        assert np.abs(y.data.var(axis=(0, 2, 3)) - 1.0).max() < 1e-4

    def test_gamma_zero_gives_beta(self):
        rng = np.random.default_rng(6)
        x = t(rng.normal(size=(2, 2, 4, 4)), requires_grad=True)
        gamma = t(np.zeros((1, 2, 1, 1)))
        beta = t(np.full((1, 2, 1, 1), 0.25))
        rm, rv = np.zeros(2, np.float32), np.ones(2, np.float32)
        with Tape() as tape:
            y = _identity_bn(x, gamma, beta, rm, rv, train=True)
            loss = ops.sum_all(y)
        assert np.all(y.data == 0.25)
        tape.backward(loss)
        assert np.all(x.grad == 0.0)

    def test_running_stats_update_and_eval_mode(self):
        rng = np.random.default_rng(7)
        x = rng.normal(loc=1.5, size=(3, 2, 4, 4)).astype(np.float32)
        gamma = t(np.ones((1, 2, 1, 1)))
        beta = t(np.zeros((1, 2, 1, 1)))
        rm, rv = np.zeros(2, np.float32), np.ones(2, np.float32)
        _identity_bn(t(x), gamma, beta, rm, rv, train=True)
        np.testing.assert_allclose(rm, ops.BN_MOMENTUM * x.mean(axis=(0, 2, 3)), rtol=1e-5)
        y = _identity_bn(t(x), gamma, beta, rm, rv, train=False)
        expect = (x - rm[None, :, None, None]) / np.sqrt(rv[None, :, None, None] + ops.BN_EPS)
        np.testing.assert_allclose(y.data, expect, rtol=1e-5)

    @pytest.mark.parametrize("train", [True, False], ids=["train", "eval"])
    def test_matches_conv2d_and_the_loop_oracle_in_float64(self, train):
        """Output, running buffers and all four gradients of a float64 step
        agree, to 1e-12 of each array's largest entry, with ``conv2d``'s
        product normalized by the loop oracle (train mode) or by the
        running buffers (eval mode), the product's gradient taken back
        through the 1x1 weight."""
        rng = np.random.default_rng(8)
        f64 = dict(requires_grad=True, dtype=np.float64)
        x = t(rng.normal(loc=2.0, scale=3.0, size=(3, 5, 5, 6)), **f64)
        w = t(rng.normal(size=(4, 5, 1, 1)), **f64)
        gamma = t(rng.normal(size=(1, 4, 1, 1)), **f64)
        beta = t(rng.normal(size=(1, 4, 1, 1)), **f64)
        rm, rv = rng.normal(size=4), rng.uniform(0.5, 2.0, size=4)
        rm0, rv0 = rm.copy(), rv.copy()
        gout = rng.normal(size=(3, 4, 5, 6))
        with Tape() as tape:
            y = ops.pointwise_batch_norm(x, w, gamma, beta, rm, rv, train=train)
            loss = ops.sum_all(ops.mul(y, t(gout, dtype=np.float64)))
        tape.backward(loss)
        product = ops.conv2d(t(x.data, dtype=np.float64), t(w.data, dtype=np.float64)).data
        g, b = gamma.data.ravel(), beta.data.ravel()
        if train:
            out, mean, var, grads = batch_norm_train_loops(product, g, b, ops.BN_EPS)
            dproduct, dgamma, dbeta = grads(gout)
            m = ops.BN_MOMENTUM
            want_rm, want_rv = (1 - m) * rm0 + m * mean, (1 - m) * rv0 + m * var
        else:
            per_channel = (slice(None), None, None)
            istd = 1.0 / np.sqrt(rv0 + ops.BN_EPS)
            xhat = (product - rm0[per_channel]) * istd[per_channel]
            out = xhat * g[per_channel] + b[per_channel]
            dproduct = gout * (g * istd)[per_channel]
            dgamma, dbeta = (gout * xhat).sum(axis=(0, 2, 3)), gout.sum(axis=(0, 2, 3))
            want_rm, want_rv = rm0, rv0
        dx = np.einsum("oc,nohw->nchw", w.data[:, :, 0, 0], dproduct)
        dw = np.einsum("nohw,nchw->oc", dproduct, x.data).reshape(w.shape)
        for got, want in ((y.data, out), (rm, want_rm), (rv, want_rv), (x.grad, dx),
                          (w.grad, dw), (gamma.grad.ravel(), dgamma),
                          (beta.grad.ravel(), dbeta)):
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_channel_mismatch(self):
        x = t(np.ones((1, 3, 4, 4)))
        gamma, beta = t(np.ones((1, 2, 1, 1))), t(np.zeros((1, 2, 1, 1)))
        rm, rv = np.zeros(2, np.float32), np.ones(2, np.float32)
        with pytest.raises(DimensionError):
            _identity_bn(x, gamma, beta, rm, rv, train=True)
        with pytest.raises(DimensionError):            # a weight over 4 input channels
            ops.pointwise_batch_norm(x, t(np.ones((2, 4, 1, 1))), gamma, beta, rm, rv,
                                     train=True)


class TestElementwise:
    def test_relu(self):
        y = ops.relu(t(np.array([-1.0, 0.0, 2.0]).reshape(1, 1, 1, 3)))
        np.testing.assert_array_equal(y.data.ravel(), [0.0, 0.0, 2.0])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_relu_gradient_is_gout_times_the_sign(self, dtype):
        """The rule keeps one bit per entry, and its gradient is bitwise
        ``gout * (out > 0)``: exact zeros in ``x`` pass nothing, and a
        ``-0.0`` in ``gout`` keeps its sign where it passes."""
        rng = np.random.default_rng(11)
        xs = rng.normal(size=(2, 3, 5, 7)).astype(dtype)      # 210 entries, not whole bytes
        xs.flat[::5] = 0.0
        xs.flat[1::7] = -0.0
        gout = rng.normal(size=xs.shape).astype(dtype)
        gout.flat[::3] = -0.0
        gout.flat[2::11] = 0.0
        with Tape() as tape:
            out = ops.relu(t(xs, requires_grad=True, dtype=dtype))
        (rec,) = tape.ops
        kept = [c.cell_contents for c in rec.backward_fn.__closure__
                if isinstance(c.cell_contents, np.ndarray)]
        assert [(a.dtype, a.nbytes) for a in kept] == [(np.uint8, -(-xs.size // 8))]
        (dx,) = rec.backward_fn(gout)
        want = gout * (out.data > 0)
        assert dx.dtype == want.dtype and bits(dx).tobytes() == bits(want).tobytes()

    def test_sigmoid_at_zero(self):
        assert ops.sigmoid(t(np.zeros((1, 1, 1, 1)))).item() == 0.5

    @pytest.mark.parametrize("shape", [(1, 1, 1, 8), (2, 3, 5, 7), (6, 1, 64, 64)])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sigmoid_is_bitwise_the_split_over_sign(self, shape, dtype):
        """``exp(-|x|)`` and one ``where`` give the bytes of the split that
        evaluates ``1/(1+exp(-x))`` on ``x >= 0`` and ``exp(x)/(1+exp(x))``
        elsewhere, at +-0.0, 88 and -104 as well."""
        rng = np.random.default_rng(sum(shape))
        d = (rng.normal(size=shape) * 20.0).astype(dtype)
        d.flat[:6] = [0.0, -0.0, 88.0, -104.0, 1e-8, -1e-8]
        want = np.empty_like(d)
        pos = d >= 0
        want[pos] = 1.0 / (1.0 + np.exp(-d[pos]))
        ex = np.exp(d[~pos])
        want[~pos] = ex / (1.0 + ex)
        got = ops.sigmoid(t(d, dtype=dtype)).data
        assert got.dtype == want.dtype and bits(got).tobytes() == bits(want).tobytes()

    def test_concat_and_slice_roundtrip(self):
        rng = np.random.default_rng(8)
        a = t(rng.normal(size=(1, 3, 8, 8)).astype(np.float32))
        b = t(rng.normal(size=(1, 5, 8, 8)).astype(np.float32))
        cat = ops.concat_channels(a, b)
        assert cat.shape == (1, 8, 8, 8)
        np.testing.assert_array_equal(cat.data[:, :3], a.data)
        np.testing.assert_array_equal(cat.data[:, 3:], b.data)

    def test_mul_broadcast_shapes(self):
        rng = np.random.default_rng(9)
        x = t(rng.normal(size=(2, 3, 4, 4)).astype(np.float32))
        cfac = t(rng.normal(size=(2, 3, 1, 1)).astype(np.float32))
        sfac = t(rng.normal(size=(2, 1, 4, 4)).astype(np.float32))
        np.testing.assert_allclose(ops.mul(x, cfac).data, x.data * cfac.data)
        np.testing.assert_allclose(ops.mul(x, sfac).data, x.data * sfac.data)
        with pytest.raises(DimensionError):
            ops.mul(x, t(np.ones((2, 3, 4, 1), np.float32)))

    @pytest.mark.parametrize("shape", [(2, 3, 4, 1), (2, 3, 1, 4), (2, 1, 4, 1), (1, 3, 4, 4),
                                       (2, 3, 2, 2), (2, 1, 1, 1), (1, 1, 1, 1)])
    def test_mul_rejects_other_factor_shapes(self, shape):
        x = t(np.ones((2, 3, 4, 4), np.float32))
        with pytest.raises(DimensionError) as err:
            ops.mul(x, t(np.ones(shape, np.float32)))
        assert str(err.value) == (f"mul factor must be (2, 3, 4, 4), (2,3,1,1) or (2,1,4,4), "
                                  f"got {shape}")

    def test_mul_one_channel_by_its_own_shape_is_never_summed(self):
        """A one-channel input's per-pixel factor has the input's own shape;
        its product, and the factor's gradient, are the plain elementwise
        products bit for bit (a sum over the one channel would turn a
        ``-0.0`` into ``+0.0``)."""
        rng = np.random.default_rng(19)
        a_data = rng.normal(size=(2, 1, 4, 4)).astype(np.float32)
        a_data[0, 0, 0, :2] = -0.0, 0.0
        b_data = rng.normal(size=(2, 1, 4, 4)).astype(np.float32)
        gout = np.abs(rng.normal(size=(2, 1, 4, 4))).astype(np.float32)
        a, b = t(a_data, requires_grad=True), t(b_data, requires_grad=True)
        with Tape() as tape:
            out = ops.mul(a, b)
        assert bits(out.data).tobytes() == bits(a_data * b_data).tobytes()
        da, db = tape.ops[0].backward_fn(gout)
        assert bits(da).tobytes() == bits(gout * b_data).tobytes()
        assert bits(db).tobytes() == bits(gout * a_data).tobytes()
        assert np.signbit(db[0, 0, 0, 0])

    def test_add_shape_error(self):
        with pytest.raises(DimensionError):
            ops.add(t(np.ones((1, 1, 2, 2))), t(np.ones((1, 2, 2, 2))))


class TestPooling:
    def test_tiny_window(self):
        y = ops.max_pool2(t(np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2)))
        assert y.item() == 4.0

    def test_constant_image(self):
        x = t(np.full((1, 2, 6, 6), 1.25))
        y = ops.max_pool2(x)
        assert y.shape == (1, 2, 3, 3)
        assert np.all(y.data == 1.25)

    def test_matches_window_oracle_and_backward_routing(self):
        from sarunet import Tape
        rng = np.random.default_rng(10)
        x = t(rng.normal(size=(1, 1, 4, 4)).astype(np.float32), requires_grad=True)
        with Tape() as tape:
            y = ops.max_pool2(x)
            loss = ops.sum_all(y)
        np.testing.assert_array_equal(y.data, max_pool2_windows(x.data))
        tape.backward(loss)
        assert np.count_nonzero(x.grad) == 4
        assert x.grad.sum() == 4.0

    def test_tie_break_first_index(self):
        from sarunet import Tape
        x = t(np.zeros((1, 1, 2, 2)), requires_grad=True)
        with Tape() as tape:
            loss = ops.sum_all(ops.max_pool2(x))
        tape.backward(loss)
        np.testing.assert_array_equal(x.grad, [[[[1.0, 0.0], [0.0, 0.0]]]])

    def test_odd_dims_rejected(self):
        with pytest.raises(DimensionError):
            ops.max_pool2(t(np.ones((1, 1, 3, 4))))

    def test_backward_keeps_one_byte_per_window(self):
        x = t(np.random.default_rng(12).normal(size=(2, 3, 6, 8)), requires_grad=True)
        with Tape() as tape:
            ops.max_pool2(x)
        (rec,) = tape.ops
        kept = [c.cell_contents for c in rec.backward_fn.__closure__
                if isinstance(c.cell_contents, np.ndarray)]
        assert [(a.dtype, a.shape) for a in kept] == [(np.uint8, (2, 3, 3, 4))]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_every_tie_goes_to_the_first_tap(self, dtype):
        """All 256 windows over {-1, -0.0, +0.0, 1}: all-equal windows, every
        pair and triple of equal taps, and -0.0/+0.0 ties. The value carries
        the first maximal tap's bits; the backward hands that tap the
        gradient bit for bit, -0.0 included, and the other taps +0.0."""
        windows = list(itertools.product([-1.0, -0.0, 0.0, 1.0], repeat=4))
        x = np.empty((1, 1, 2, 2 * len(windows)), dtype=dtype)
        for k, win in enumerate(windows):
            x[0, 0, :, 2 * k:2 * k + 2] = np.reshape(win, (2, 2))
        rng = np.random.default_rng(9)
        gout = rng.normal(size=(1, 1, 1, len(windows))).astype(dtype)
        gout[..., ::3] = -0.0
        with Tape() as tape:
            y = ops.max_pool2(t(x, dtype=dtype, requires_grad=True))
        (dx,) = tape.ops[-1].backward_fn(gout)
        want = np.zeros_like(x)
        for k, win in enumerate(windows):
            first = win.index(max(win))
            want[0, 0, first // 2, 2 * k + first % 2] = gout[0, 0, 0, k]
            assert np.signbit(y.data[0, 0, 0, k]) == np.signbit(win[first]), win
        np.testing.assert_array_equal(bits(dx), bits(want))


def interpolation_matrix(h, w):
    """``[4hw, hw]`` float64 matrix of :func:`oracles.bilinear_double`: column
    ``k`` is the doubled image of basis pixel ``k``."""
    basis = np.eye(h * w).reshape(h * w, 1, h, w)
    return bilinear_double(basis).reshape(h * w, 4 * h * w).T


UPSAMPLE_PLANES = [(1, 1), (1, 5), (5, 1), (2, 3), (3, 4), (4, 4), (5, 7)]


class TestUpsample:
    def test_constant_preserved(self):
        x = t(np.full((2, 3, 4, 5), 0.7))
        y = ops.upsample_bilinear2(x)
        assert y.shape == (2, 3, 8, 10)
        np.testing.assert_allclose(y.data, 0.7, rtol=1e-6)

    def test_single_pixel(self):
        y = ops.upsample_bilinear2(t(np.full((1, 1, 1, 1), 3.5)))
        assert np.all(y.data == 3.5)

    def test_two_pixel_convention(self):
        y = ops.upsample_bilinear2(t(np.array([0.0, 1.0]).reshape(1, 1, 1, 2)))
        np.testing.assert_allclose(y.data[0, 0, 0], [0.0, 0.25, 0.75, 1.0], atol=1e-7)

    def test_matches_formula_oracle(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(2, 2, 3, 5))
        y = ops.upsample_bilinear2(t(x, dtype=np.float64))
        np.testing.assert_allclose(y.data, bilinear_double(x), rtol=1e-12)

    def test_pool_then_upsample_identity_on_constants(self):
        x = t(np.full((1, 1, 8, 8), 2.5))
        y = ops.upsample_bilinear2(ops.max_pool2(x))
        np.testing.assert_array_equal(y.data, x.data)

    def test_clamped_ends_keep_the_gather_sums(self):
        # the end outputs are x[0]*1 + x[1]*0 and x[-1]*1 + x[-1]*0: a -0.0
        # end survives next to a -0.0, not next to a positive value
        y = ops.upsample_bilinear2(t(np.array([-0.0, 1.0, -0.0]).reshape(1, 1, 1, 3)))
        for row in y.data[0, 0]:
            assert not np.signbit(row[0]) and np.signbit(row[-1])

    @pytest.mark.parametrize("plane", UPSAMPLE_PLANES)
    @pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-12), (np.float32, 1e-6)])
    def test_forward_and_backward_match_interpolation_matrix(self, plane, dtype, tol):
        """The backward is the transpose of the float64 interpolation matrix,
        as is the loop adjoint in the oracles."""
        h, w = plane
        rng = np.random.default_rng(14)
        x = rng.normal(size=(2, 3, h, w)).astype(dtype)
        g = rng.normal(size=(2, 3, 2 * h, 2 * w)).astype(dtype)
        m = interpolation_matrix(h, w)
        want_y = (x.reshape(6, h * w) @ m.T).reshape(g.shape)
        want_dx = (g.reshape(6, 4 * h * w) @ m).reshape(x.shape)
        np.testing.assert_allclose(bilinear_double_adjoint(g), want_dx, rtol=0, atol=1e-12)
        xt = t(x, dtype=dtype, requires_grad=True)
        with Tape() as tape:
            y = ops.upsample_bilinear2(xt)
            loss = ops.sum_all(ops.mul(y, t(g, dtype=dtype)))
        tape.backward(loss)
        assert grad_rel_err(y.data, want_y) <= tol
        assert grad_rel_err(xt.grad, want_dx) <= tol

    @pytest.mark.parametrize("plane", [(1, 1), (1, 4), (3, 1), (3, 4)])
    def test_gradient_matches_finite_differences(self, plane):
        rng = np.random.default_rng(15)
        x = t(rng.normal(size=(2, 2) + plane), dtype=np.float64, requires_grad=True)

        def loss():
            y = ops.upsample_bilinear2(x)
            return ops.sum_all(ops.mul(y, y))

        with Tape() as tape:
            out = loss()
        tape.backward(out)
        num = finite_diff(lambda: loss().item(), x.data, h=1e-5)
        assert grad_rel_err(x.grad, num) <= 1e-7


class TestGlobalPool:
    def test_avg_spatial_constant(self):
        x = t(np.full((1, 3, 4, 4), 0.3))
        y = ops.global_pool(x, "avg", "spatial")
        assert y.shape == (1, 3, 1, 1)
        np.testing.assert_allclose(y.data.ravel(), 0.3, rtol=1e-6)

    def test_max_channel_per_pixel(self):
        a = np.array([[1.0, 2.0], [3.0, 0.0]])
        x = t(np.stack([a, a[::-1]])[None])  # [1,2,2,2]
        y = ops.global_pool(x, "max", "channel")
        np.testing.assert_array_equal(y.data[0, 0], np.maximum(a, a[::-1]))

    def test_avg_equals_sum_over_16(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(2, 3, 4, 4)).astype(np.float32)
        y = ops.global_pool(t(x), "avg", "spatial")
        np.testing.assert_allclose(
            y.data.reshape(2, 3), x.reshape(2, 3, 16).sum(axis=-1) / 16, atol=1e-7)

    @pytest.mark.parametrize("axis", ["spatial", "channel"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_max_ties_go_to_the_first_index(self, axis, dtype):
        """Every arrangement of {-1, -0.0, +0.0, 1} over four entries, pooled
        over a 2x2 plane (row-major) or four channels: the value carries the
        first maximal entry's bits, and the gradient goes to it alone."""
        combos = np.array(list(itertools.product([-1.0, -0.0, 0.0, 1.0], repeat=4)))
        if axis == "spatial":
            x = combos.reshape(1, -1, 2, 2).astype(dtype)          # one plane per channel
            pooled = x.reshape(1, -1, 4)
        else:
            x = combos.T.reshape(1, 4, 16, 16).astype(dtype)       # one pixel per combo
            pooled = x.reshape(1, 4, 256).transpose(0, 2, 1)
        rng = np.random.default_rng(16)
        shape = (1, 256, 1, 1) if axis == "spatial" else (1, 1, 16, 16)
        gout = rng.normal(size=shape).astype(dtype)
        gout.reshape(-1)[::3] = -0.0
        with Tape() as tape:
            y = ops.global_pool(t(x, dtype=dtype, requires_grad=True), "max", axis)
        (dx,) = tape.ops[-1].backward_fn(gout)
        grad = dx.reshape(1, 256, 4) if axis == "spatial" else \
            dx.reshape(1, 4, 256).transpose(0, 2, 1)
        first = [list(row).index(row.max()) for row in pooled[0]]
        for k, i in enumerate(first):
            assert np.signbit(y.data.reshape(-1)[k]) == np.signbit(pooled[0, k, i])
            want = np.zeros(4, dtype=dtype)
            want[i] = gout.reshape(-1)[k]
            np.testing.assert_array_equal(bits(grad[0, k]), bits(want))


class TestSerialization:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_roundtrip_bitwise(self, dtype):
        rng = np.random.default_rng(13)
        arr = rng.normal(size=(2, 3, 4, 5)).astype(dtype)
        buf = io.BytesIO()
        write_t4(buf, arr)
        buf.seek(0)
        back = read_t4(buf)
        assert back.dtype == arr.dtype
        assert back.tobytes() == arr.tobytes()

    def test_header_layout(self):
        buf = io.BytesIO()
        write_t4(buf, np.zeros((1, 2, 3, 4), np.float32))
        raw = buf.getvalue()
        assert raw[:4] == b"T4v1"
        assert len(raw) == 4 + 32 + 1 + 24 * 4

    def test_bad_magic(self):
        with pytest.raises(UsageError):
            read_t4(io.BytesIO(b"XXXX" + b"\0" * 40))

    @pytest.mark.parametrize("cut,byte,value", [
        (None, 11, 0x80),          # n = 2^63 + 1: far beyond the stream
        (None, 36, 7),             # unknown dtype code
        (-1, None, None),          # payload one byte short
        (20, None, None),          # header cut short
        (2, None, None)])          # stream ends inside the magic
    def test_corrupt_record_is_data_error(self, cut, byte, value):
        buf = io.BytesIO()
        write_t4(buf, np.zeros((1, 2, 3, 4), np.float32))
        raw = bytearray(buf.getvalue())
        if byte is not None:
            raw[byte] = value
        with pytest.raises(DataError):
            read_t4(io.BytesIO(bytes(raw[:cut])))


class TestTensorInvariants:
    def test_rejects_nonfinite(self):
        with pytest.raises(DataError):
            tensor(np.array([np.nan]).reshape(1, 1, 1, 1))

    def test_rejects_wrong_rank(self):
        with pytest.raises(DimensionError):
            Tensor4(np.zeros((2, 2)))

    def test_rejects_non_array(self):
        with pytest.raises(UsageError, match=r"got list.*tensor\(\)"):
            Tensor4([[[[1.0]]]])

    @pytest.mark.parametrize("dtype", [np.int64, np.float16, np.bool_])
    def test_rejects_non_float_dtype(self, dtype):
        with pytest.raises(UsageError, match=rf"got {np.dtype(dtype)};.*tensor\(\)"):
            Tensor4(np.zeros((1, 1, 2, 2), dtype=dtype))

    def test_grad_buffer_only_when_required(self):
        a = tensor(np.zeros((1, 1, 1, 1)))
        b = tensor(np.zeros((1, 1, 1, 1)), requires_grad=True)
        assert a.grad is None
        assert b.grad is not None and b.grad.shape == b.data.shape
