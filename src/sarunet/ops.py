"""Differentiable operations over :class:`~sarunet.tensor.Tensor4`.

Every public function computes forward values eagerly and registers a
backward rule on the active tape. Conventions fixed here for bit-stable
tests: relu'(0) = 0; max-pool and global-max ties break to the first index
(row-major within a window or plane), in the value and in the gradient;
bilinear upsampling uses the corner-aligned-false mapping
``src = (dst + 0.5) / 2 - 0.5`` with clamping, which on a x2 grid has the
fixed weights 0.25 and 0.75.

A backward rule keeps exactly the arrays it reads, and the tape keeps no
op input or output (see :mod:`sarunet.tensor`), so an output that no rule
reads is freed once the forward code drops it. A rule captures arrays,
shapes as tuples, flags and scalar values, never a :class:`Tensor4` or a
class object, and copies nothing: it captures an op's input or output
array itself, and what one elementwise pass, one copy or one matmul can
rebuild, it rebuilds. What each rule keeps:

- the conv kernels: the input only for the weight gradient and the weight
  only for ``dx`` (see :func:`conv2d`);
- :func:`pointwise_batch_norm` (a DSC stage's pointwise conv and batch
  norm as one op): the conv's input and weight, each only when a gradient
  reads it, ``gamma`` only for the product's gradient, and the per-channel
  mean and inverse deviation; never the product or the normalized product,
  which the ``gamma`` gradient and a train-mode product gradient rebuild
  with the forward's matmul and normalization, so eval mode with frozen
  parameters keeps only the weight and ``gamma``;
- :func:`relu`: its output's signs, one bit per entry
  (``np.packbits(out > 0)``), and only when its input requires grad;
- :func:`sigmoid`: its output;
- :func:`max_pool2`: one byte per window naming the winning tap;
- :func:`global_pool` max: its input and the maximum, finding the winner
  again from ``x == out``; the mean and the reductions: shapes only;
- :func:`upsample_bilinear2`, :func:`add`, :func:`sub` and
  :func:`concat_channels`: nothing;
- :func:`mul` (equal shapes, and CBAM's per-channel and per-pixel gates):
  each factor only when the other needs a gradient.

Every rule captures its arrays directly, never through a nested function,
so a count of the closure cells sees them all.

A backward rule computes only the gradients something reads, as PyTorch's
``needs_input_grad`` does. The three conv kernels,
:func:`pointwise_batch_norm` and :func:`mul` read each input's
``requires_grad`` at forward time and keep the flags in the closure as
booleans. A ``None`` gradient means no gradient is needed: the rule
returns ``None`` in the slot of an input that needs none and skips that
input's work. So a frozen weight costs no weight gradient, and the
model input costs no ``dx``. The other rules compute every input gradient,
and :meth:`~sarunet.tensor.Tape.backward` drops the ones nothing needs.

:func:`conv2d` is stride-1 and always pads by ``k // 2`` (a "same"
convolution, the only kind the network runs); its docstring describes the
three kernels the weight's shape picks, and the bias rule.

:func:`pointwise_batch_norm` uses the fixed :data:`BN_EPS` and
:data:`BN_MOMENTUM`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .errors import ConfigurationError, DimensionError, UsageError
from .tensor import Tensor4, make_result

__all__ = [
    "conv2d", "pointwise_batch_norm", "relu", "sigmoid", "add", "sub", "mul", "concat_channels",
    "max_pool2", "upsample_bilinear2", "global_pool", "sum_all", "mean_all",
]


# batch norm's variance epsilon and running-statistics momentum
BN_EPS = 1e-5
BN_MOMENTUM = 0.1


def _same_dtype(*tensors: Tensor4) -> np.dtype:
    dt = tensors[0].dtype
    for t in tensors[1:]:
        if t.dtype != dt:
            raise UsageError(f"mixed dtypes {dt} vs {t.dtype}; build all tensors in one precision")
    return dt


# -- convolution -------------------------------------------------------------

def _needs(*tensors: Optional[Tensor4]) -> tuple[bool, ...]:
    """Each input's ``requires_grad`` as read at forward time; an absent
    bias needs nothing."""
    return tuple(t is not None and t.requires_grad for t in tensors)


def _fft_length(size: int) -> int:
    """The smallest 2*3*5-smooth length >= ``size``: pocketfft transforms
    those fastest (a factor of 17 or 19 costs up to twice the time)."""
    rest = size
    for f in (2, 3, 5):
        while rest % f == 0:
            rest //= f
    return size if rest == 1 else _fft_length(size + 1)


def _spectrum(a: np.ndarray, lengths: tuple) -> np.ndarray:
    """The float64 ``rfft2`` of ``a``'s planes zero-padded to ``lengths``."""
    return np.fft.rfft2(a.astype(np.float64), s=lengths)


def _conv_dense(x: Tensor4, weight: Tensor4) -> Tensor4:
    _, _, h, w_in = x.shape
    p = weight.shape[2] // 2                             # k = 2p + 1
    lengths = (_fft_length(h + 2 * p), _fft_length(w_in + 2 * p))
    crop = (Ellipsis, slice(p, p + h), slice(p, p + w_in))
    flipped = _spectrum(weight.data[:, :, ::-1, ::-1], lengths)
    out = np.fft.irfft2(np.einsum("ncij,ocij->noij", _spectrum(x.data, lengths), flipped),
                        s=lengths)[crop].astype(x.dtype)
    need_x, need_w = _needs(x, weight)
    dtype = x.dtype
    x_kept = x.data if need_w else None
    w_kept = weight.data if need_x else None

    def backward_fn(gout: np.ndarray):
        dx = dw = None
        g = _spectrum(gout, lengths) if need_x or need_w else None
        if need_x:
            dx = np.fft.irfft2(np.einsum("noij,ocij->ncij", g, _spectrum(w_kept, lengths)),
                               s=lengths)[crop].astype(dtype)
        if need_w:
            corr = np.fft.irfft2(np.einsum("noij,ncij->ocij", np.conjugate(g, out=g),
                                           _spectrum(x_kept, lengths)), s=lengths)
            rows, cols = (np.arange(-p, p + 1) % size for size in lengths)   # lags -p..p
            dw = corr[:, :, rows[:, None], cols].astype(dtype)
        return [dx, dw]

    return make_result(out, "conv2d", (x, weight), backward_fn)


def _pointwise(x3: np.ndarray, w2: np.ndarray, shape: tuple) -> np.ndarray:
    """The pointwise product ``w2 @ x3`` (``[cout, cin]`` over ``[n, cin,
    h*w]``) as a fresh ``shape`` array. A rule that recomputes it with this
    call gets the forward's bytes."""
    return np.matmul(w2, x3).reshape(shape)


def _pointwise_grads(gout: np.ndarray, x3: Optional[np.ndarray], w2: Optional[np.ndarray],
                     x_shape: tuple, w_shape: tuple, need_x: bool, need_w: bool) -> tuple:
    """``(dx, dw)`` of :func:`_pointwise` for the output gradient ``gout``,
    each ``None`` unless needed; ``dw`` reads ``x3`` and ``dx`` reads ``w2``."""
    n, cout = gout.shape[:2]
    go = gout.reshape(n, cout, -1)
    dx = dw = None
    if need_w:
        dw = np.matmul(go, x3.transpose(0, 2, 1)).sum(axis=0).reshape(w_shape)
    if need_x:
        dx = np.matmul(w2.T, go).reshape(x_shape)
    return dx, dw


def _conv_pointwise(x: Tensor4, weight: Tensor4, bias: Optional[Tensor4]) -> Tensor4:
    n, cin, h, w_in = x.shape
    cout = weight.shape[0]
    x3 = x.data.reshape(n, cin, h * w_in)              # a view: Tensor4 data is contiguous
    w2 = weight.data.reshape(cout, cin)
    need_x, need_w, need_b = _needs(x, weight, bias)
    x_shape, w_shape, has_b = x.shape, weight.shape, bias is not None
    x_kept = x3 if need_w else None
    w_kept = w2 if need_x else None

    def backward_fn(gout: np.ndarray):
        grads = list(_pointwise_grads(gout, x_kept, w_kept, x_shape, w_shape, need_x, need_w))
        if has_b:
            grads.append(gout.sum(axis=(0, 2, 3), keepdims=True) if need_b else None)
        return grads

    out = _pointwise(x3, w2, (n, cout, h, w_in))
    if has_b:
        out += bias.data                              # a fresh array
    return make_result(out, "conv2d", (x, weight, bias)[:2 + has_b], backward_fn)


# The depthwise kernel pads each ``[h, w]`` plane by one column each side,
# one row on top and two below, and flattens it to ``(h+3)*(w+2)`` entries.
# Tap ``(i, j)`` of a 3x3 window is then the contiguous slice at offset
# ``i*(w+2)+j``, of length ``h*(w+2)``; the second row below keeps the last
# tap's slice in bounds.
def _tap_offsets(w: int) -> list[int]:
    return [i * (w + 2) + j for i in range(3) for j in range(3)]


# elements in the depthwise kernel's staging buffer of padded planes, or one
# plane where a plane is larger. A 288x288 stage, ``acc`` and ``term`` then
# take about 1 MiB of float32, within a core's 2 MiB of L2 on a 2-core Xeon.
# There, at the plane sizes of a 288x288, base-16 model, stages of 32768
# ran up to 31% slower (at 144x144), 131072 moved by -12% to +14%, and
# 262144 ran up to 87% slower (at 288x288).
_STAGE = 65536


def _shifted_sum(a: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Per-channel 3x3 "same" correlation of ``a`` ``[n, c, h, w]`` with
    ``taps`` ``[c, 9]`` (row-major): ``[n, c, h, w]``.

    Its ``n*c`` planes are padded a stage at a time into one zero-bordered
    buffer of at most :data:`_STAGE` elements (one plane at least; see the
    layout above :func:`_tap_offsets`), each stage's interior overwriting
    the last and the border staying zero, so no padded copy of the whole of
    ``a`` is made. Each stage is summed whole: tap 0's products go into
    ``acc``, the other eight are each multiplied into ``term`` and added to
    ``acc``, and ``acc`` without its two padding columns is copied into the
    stage's output planes. The three buffers are allocated once per call.
    Each output entry sees the same nine products added in the same order
    as a pass over the whole padded array, so the result is bitwise that of
    one."""
    n, c, h, w = a.shape
    nc, size, length = n * c, (h + 3) * (w + 2), h * (w + 2)
    stage = max(1, min(nc, _STAGE // size))
    offsets = _tap_offsets(w)
    src = a.reshape(nc, h, w)
    taps = np.tile(taps, (n, 1))                      # plane k*c + i takes channel i's taps
    out = np.empty((nc, h, w), dtype=np.result_type(a, taps))
    staged = np.zeros((stage, h + 3, w + 2), dtype=a.dtype)
    flat = staged.reshape(stage, size)
    acc_buf = np.empty((stage, length), dtype=out.dtype)
    term_buf = np.empty_like(acc_buf)
    for s0 in range(0, nc, stage):
        s1 = min(nc, s0 + stage)
        k = s1 - s0
        staged[:k, 1:h + 1, 1:w + 1] = src[s0:s1]
        cols = taps[s0:s1, :, None]                   # cols[:, t] is tap t per plane
        acc, term = acc_buf[:k], term_buf[:k]
        np.multiply(flat[:k, :length], cols[:, 0], out=acc)
        for t in range(1, 9):
            off = offsets[t]
            np.multiply(flat[:k, off:off + length], cols[:, t], out=term)
            acc += term
        out[s0:s1] = acc.reshape(k, h, w + 2)[..., :w]
    return out.reshape(n, c, h, w)


def _channel_groups(n: int, c: int, size: int) -> list[tuple[int, int]]:
    """``(start, stop)`` channel bounds of :func:`_depthwise_dw`'s groups: as
    many channels as fill :data:`_STAGE` padded elements over the batch,
    but at least two, and a trailing lone channel joins the group before
    it. ``einsum`` sums a group of two or more planes as it sums them in
    the whole array, but a lone plane among several in another order."""
    k = min(c, max(2, _STAGE // (n * size)))
    starts = list(range(0, c, k))
    if len(starts) > 1 and c - starts[-1] == 1:
        starts.pop()
    return list(zip(starts, starts[1:] + [c]))


def _depthwise_dw(gout: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``[c, 9]`` weight gradient of the depthwise 3x3 correlation of ``x``
    given output gradient ``gout`` (both ``[n, c, h, w]``): tap ``t``'s
    entry is the sum over the batch and the plane of ``gout`` times ``x``
    shifted by that tap. Both are padded a channel group at a time
    (:func:`_channel_groups`) into two zero-bordered buffers per group
    size, each group's interior overwriting the last, so no padded copy of
    a whole array is made; the result is bitwise that of the nine
    ``einsum`` over the whole padded arrays."""
    n, c, h, w = gout.shape
    size, length = (h + 3) * (w + 2), h * (w + 2)
    offsets = _tap_offsets(w)
    centre = offsets[4]
    dw = np.empty((c, 9), dtype=x.dtype)                 # the weight's dtype
    buffers = {}
    for c0, c1 in _channel_groups(n, c, size):
        k = c1 - c0
        if k not in buffers:
            buffers[k] = (np.zeros((n, k, h + 3, w + 2), dtype=gout.dtype),
                          np.zeros((n, k, h + 3, w + 2), dtype=x.dtype))
        gp, xp = buffers[k]
        gp[:, :, 1:h + 1, 1:w + 1] = gout[:, c0:c1]
        xp[:, :, 1:h + 1, 1:w + 1] = x[:, c0:c1]
        g = gp.reshape(n, k, size)[:, :, centre:centre + length]   # zero in the padding columns
        xf = xp.reshape(n, k, size)
        for t, off in enumerate(offsets):
            dw[c0:c1, t] = np.einsum("ncl,ncl->c", g, xf[:, :, off:off + length])
    return dw


def _conv_depthwise3(x: Tensor4, weight: Tensor4) -> Tensor4:
    c = x.shape[1]
    taps = weight.data.reshape(c, 9)
    need_x, need_w = _needs(x, weight)
    w_shape = weight.shape
    x_kept = x.data if need_w else None
    taps_kept = taps if need_x else None

    def backward_fn(gout: np.ndarray):
        dw = _depthwise_dw(gout, x_kept).reshape(w_shape) if need_w else None
        dx = _shifted_sum(gout, taps_kept[:, ::-1]) if need_x else None   # flipped kernel
        return [dx, dw]

    return make_result(_shifted_sum(x.data, taps), "conv2d", (x, weight), backward_fn)


def conv2d(x: Tensor4, weight: Tensor4, bias: Optional[Tensor4] = None) -> Tensor4:
    """Stride-1 2-d cross-correlation, zero-padded by ``k // 2`` so the
    output keeps the input's spatial size.

    The kernel ``k x k`` must be square and odd, else
    ``ConfigurationError``. The weight's shape over ``x``'s ``cin`` channels
    picks one of three kernels, each recorded on the tape as ``conv2d``:

    - **pointwise**, ``[cout, cin, 1, 1]``: one matmul over the input as
      stored, forward and backward.
    - **depthwise 3x3**, ``[cin, 1, 3, 3]`` (tested before dense, so
      ``[1, 1, 3, 3]`` over one channel is depthwise): nine shifted
      multiply-adds over zero-padded flat planes. The planes are padded a
      stage at a time (:data:`_STAGE` elements, one plane at least) into
      one reused buffer, and each stage is summed whole and written
      straight into the output: one blocking level, so no padded copy of
      the whole input and no whole-array temporary is made. Each output
      entry sees the same nine products in the same order as a pass over
      the whole padded input, so the values do not depend on the staging.
      ``dx`` is the same staged sum over the gradient with the kernel
      flipped. The weight gradient pads the gradient and the input a group
      of two or more channels at a time (:func:`_depthwise_dw`), so the
      backward, too, makes no padded copy of a whole array.
    - **dense**, ``[cout, cin, k, k]`` (CBAM's 7x7): products of float64
      ``rfft2`` spectra over planes zero-padded to ``L``, the smallest
      2*3*5-smooth length >= ``size + k - 1`` per axis, so that they are
      linear convolutions: ``irfft2`` of the input's spectra summed over
      ``cin`` against the flipped weight's, cropped at ``[p:p+h, p:p+w]``
      (``p = k // 2``); ``dx`` sums the gradient's over ``cout`` against the
      weight's, and the weight gradient is ``irfft2`` of ``conj(G) * X``
      summed over the batch, read at the lags ``(i - p) mod L``. Results are
      cast back to the input's dtype.

    Any other weight shape is a ``DimensionError``. Only the pointwise
    kernel takes a ``bias`` (``[1, cout, 1, 1]``), as only the network's 1x1
    convs carry one; a bias with a depthwise or dense weight is a
    ``DimensionError``.

    Every kernel's backward keeps the input array only when the weight needs
    a gradient and the weight array only when the input does, never a padded
    copy, a patch matrix or a spectrum, which the dense backward rebuilds;
    with a frozen weight (Grad-CAM) the input is freed once the forward code
    drops it.
    """
    _same_dtype(*( (x, weight) + ((bias,) if bias is not None else ()) ))
    cin = x.shape[1]
    cout, wcin, kh, kw = weight.shape
    if kh != kw or kh % 2 == 0:
        raise ConfigurationError(f"conv2d needs a square, odd kernel, got {kh}x{kw}")
    if bias is not None and bias.shape != (1, cout, 1, 1):
        raise DimensionError(f"bias must have shape (1,{cout},1,1), got {bias.shape}")
    if kh == 1 and wcin == cin:
        return _conv_pointwise(x, weight, bias)
    if bias is not None:
        raise DimensionError(f"conv2d takes a bias only with a pointwise [cout,{cin},1,1] "
                             f"weight, got weight {weight.shape}")
    if kh == 3 and wcin == 1 and cout == cin:
        return _conv_depthwise3(x, weight)
    if wcin == cin:
        return _conv_dense(x, weight)
    raise DimensionError(
        f"conv2d weight {weight.shape} over {cin} input channels is none of "
        f"pointwise [cout,{cin},1,1], depthwise [{cin},1,3,3] or dense [cout,{cin},k,k]")


# -- batch normalization ------------------------------------------------------

def _normalize(y: np.ndarray, mean: np.ndarray, inv_std: np.ndarray) -> np.ndarray:
    """``xhat`` of batch norm, written over ``y``, a fresh pointwise product
    that nothing else reads; the backward rebuilds it bitwise from the same
    product instead of keeping it."""
    c = y.shape[1]
    y -= mean.reshape(1, c, 1, 1)
    y *= inv_std.reshape(1, c, 1, 1)
    return y


def pointwise_batch_norm(x: Tensor4, weight: Tensor4, gamma: Tensor4, beta: Tensor4,
                         running_mean: np.ndarray, running_var: np.ndarray, *,
                         train: bool) -> Tensor4:
    """A DSC stage's bias-free pointwise conv (``weight`` ``[cout, cin, 1,
    1]``) and the batch norm after it, as one op recorded as
    ``batch_norm``: per-channel normalization of the product over ``(n, h,
    w)``, with the variance epsilon :data:`BN_EPS`. The values are bitwise
    those of the pointwise :func:`conv2d` followed by the normalization.

    Train mode uses biased batch statistics and folds them into the running
    buffers in place (``running = (1-m)*running + m*batch``, with ``m`` the
    fixed :data:`BN_MOMENTUM`); eval mode normalizes with the running
    buffers. Differentiable w.r.t. input, weight, gamma and beta in both
    modes.

    The product is not kept. Where the backward needs the normalized
    product (for the ``gamma`` gradient or a train-mode input gradient), it
    recomputes it with the forward's matmul from the input and the weight,
    which the weight and input gradients read anyway.
    """
    _same_dtype(x, weight, gamma, beta)
    n, cin, h, w = x.shape
    cout = weight.shape[0]
    if weight.shape != (cout, cin, 1, 1):
        raise DimensionError(f"pointwise weight must be ({cout},{cin},1,1), got {weight.shape}")
    if gamma.shape != (1, cout, 1, 1) or beta.shape != (1, cout, 1, 1):
        raise DimensionError(
            f"gamma/beta must be (1,{cout},1,1), got {gamma.shape}/{beta.shape}")
    if running_mean.shape != (cout,) or running_var.shape != (cout,):
        raise DimensionError(f"running stats must be ({cout},)")
    m = n * h * w
    if train and m < 2:
        raise DimensionError(f"batch_norm train mode needs n*h*w >= 2, got {m}")
    dt = x.dtype
    x3 = x.data.reshape(n, cin, h * w)                 # a view: Tensor4 data is contiguous
    w2 = weight.data.reshape(cout, cin)
    out_shape = (n, cout, h, w)
    y = _pointwise(x3, w2, out_shape)
    if train:
        mean = y.mean(axis=(0, 2, 3), dtype=dt)
        var = y.var(axis=(0, 2, 3), dtype=dt)         # biased
        running_mean *= (1.0 - BN_MOMENTUM)
        running_mean += BN_MOMENTUM * mean.astype(running_mean.dtype)
        running_var *= (1.0 - BN_MOMENTUM)
        running_var += BN_MOMENTUM * var.astype(running_var.dtype)
    else:
        mean = running_mean.astype(dt)
        var = running_var.astype(dt)
    inv_std = 1.0 / np.sqrt(var + dt.type(BN_EPS))
    out = _normalize(y, mean, inv_std)
    out *= gamma.data
    out += beta.data
    need_x, need_w, need_gamma, need_beta = _needs(x, weight, gamma, beta)
    need_y = need_x or need_w                          # the product's gradient
    need_xhat = need_gamma or (need_y and train)
    x_shape, w_shape = x.shape, weight.shape
    x_kept = x3 if need_w or need_xhat else None
    w_kept = w2 if need_x or need_xhat else None
    gamma_kept = gamma.data if need_y else None

    def backward_fn(gout: np.ndarray):
        dx = dw = dgamma = dbeta = None
        xhat = _normalize(_pointwise(x_kept, w_kept, out_shape), mean, inv_std) \
            if need_xhat else None
        if need_gamma:
            dgamma = (gout * xhat).sum(axis=(0, 2, 3)).reshape(1, cout, 1, 1)
        if need_beta:
            dbeta = gout.sum(axis=(0, 2, 3)).reshape(1, cout, 1, 1)
        if need_y:
            # dy = istd * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat)) in
            # train mode, istd * dxhat in eval mode, written over dxhat and
            # xhat: each in-place step is the same float operation
            dy = gout * gamma_kept                       # dxhat
            gout = None                                  # the only reference: freed here
            if train:
                mean_dxhat = dy.mean(axis=(0, 2, 3), keepdims=True)
                mean_dxhat_xhat = (dy * xhat).mean(axis=(0, 2, 3), keepdims=True)
                dy -= mean_dxhat
                xhat *= mean_dxhat_xhat
                dy -= xhat
            xhat = None                                  # freed before the matmuls
            dy *= inv_std.reshape(1, cout, 1, 1)
            dx, dw = _pointwise_grads(dy, x_kept, w_kept, x_shape, w_shape, need_x, need_w)
        return [dx, dw, dgamma, dbeta]

    return make_result(out, "batch_norm", (x, weight, gamma, beta), backward_fn)


# -- elementwise --------------------------------------------------------------

def relu(x: Tensor4) -> Tensor4:
    out = np.maximum(x.data, 0)
    shape = out.shape
    # out > 0 iff x > 0: relu'(0) = 0; a bit per entry is all backward reads
    signs = np.packbits(out > 0) if x.requires_grad else None

    def backward_fn(gout):
        return [gout * np.unpackbits(signs, count=gout.size).reshape(shape)]

    return make_result(out, "relu", (x,), backward_fn)


def sigmoid(x: Tensor4) -> Tensor4:
    # numerically stable over sign: exp(-|x|) never overflows, and each
    # side of the split is 1/(1+exp(-x)) or exp(x)/(1+exp(x)) exactly
    d = x.data
    e = np.exp(-np.abs(d))
    den = 1.0 + e
    out = np.where(d >= 0, 1.0 / den, e / den)

    def backward_fn(gout):
        return [gout * out * (1.0 - out)]

    return make_result(out, "sigmoid", (x,), backward_fn)


def _check_same_shape(a: Tensor4, b: Tensor4, opname: str) -> None:
    if a.shape != b.shape:
        raise DimensionError(f"{opname} needs equal shapes, got {a.shape} vs {b.shape}")


def add(a: Tensor4, b: Tensor4) -> Tensor4:
    _same_dtype(a, b)
    _check_same_shape(a, b, "add")
    return make_result(a.data + b.data, "add", (a, b), lambda g: [g, g])


def sub(a: Tensor4, b: Tensor4) -> Tensor4:
    _same_dtype(a, b)
    _check_same_shape(a, b, "sub")
    return make_result(a.data - b.data, "sub", (a, b), lambda g: [g, -g])


def mul(a: Tensor4, b: Tensor4) -> Tensor4:
    """Elementwise product of ``a`` and a factor of ``a``'s shape, a
    per-channel ``[n,c,1,1]`` one or a per-pixel ``[n,1,h,w]`` one (CBAM's
    gates). A broadcast factor's gradient is summed over the axes it spans;
    a factor of ``a``'s own shape is never summed."""
    _same_dtype(a, b)
    n, c, h, w = a.shape
    # a later key wins: an equal shape is never reduced
    reduce_axes = {(n, c, 1, 1): (2, 3), (n, 1, h, w): (1,), a.shape: ()}.get(b.shape)
    if reduce_axes is None:
        raise DimensionError(f"mul factor must be {a.shape}, ({n},{c},1,1) or "
                             f"({n},1,{h},{w}), got {b.shape}")
    need_a, need_b = _needs(a, b)
    a_kept = a.data if need_b else None
    b_kept = b.data if need_a else None

    def backward_fn(gout):
        db = gout * a_kept if need_b else None
        if need_b and reduce_axes:
            db = db.sum(axis=reduce_axes, keepdims=True)
        return [gout * b_kept if need_a else None, db]

    return make_result(a.data * b.data, "mul", (a, b), backward_fn)


def concat_channels(a: Tensor4, b: Tensor4) -> Tensor4:
    _same_dtype(a, b)
    na, ca, ha, wa = a.shape
    nb, cb, hb, wb = b.shape
    if (na, ha, wa) != (nb, hb, wb):
        raise DimensionError(f"concat_channels needs matching n/h/w, got {a.shape} vs {b.shape}")
    out = np.concatenate([a.data, b.data], axis=1)

    def backward_fn(gout):
        return [gout[:, :ca], gout[:, ca:]]

    return make_result(out, "concat_channels", (a, b), backward_fn)


# -- pooling / resampling ------------------------------------------------------

_POOL_TAPS = ((0, 0), (0, 1), (1, 0), (1, 1))     # row-major window order


def _route(gout: np.ndarray, hits: np.ndarray, out: np.ndarray) -> None:
    """``out = gout`` where ``hits``, else ``+0.0``, bit for bit (a ``-0.0``
    gradient stays ``-0.0``): the float bits times the 0/1 mask, in one
    pass that writes every entry of ``out``."""
    bits = np.dtype(f"u{gout.itemsize}")
    np.multiply(gout.view(bits), hits, out=out.view(bits))


def max_pool2(x: Tensor4) -> Tensor4:
    """2x2 max pooling, stride 2, over the four strided tap views of ``x``.

    Ties go to the first tap in row-major window order, in the value (a
    ``-0.0``/``+0.0`` tie keeps the first tap's sign) and in the gradient.
    When ``x`` requires grad, the forward also writes each window's winner,
    the first tap equal to the output, as a one-byte code (0-3, row-major;
    3 also when no tap equals it, a NaN window), and the backward keeps that
    code and nothing more: it routes ``gout`` to the winning tap.
    """
    n, c, h, w = x.shape
    if h % 2 or w % 2:
        raise DimensionError(f"max_pool2 needs even spatial dims, got {h}x{w}")
    taps = [x.data[:, :, i::2, j::2] for i, j in _POOL_TAPS]
    a, b, cc, d = taps
    # np.maximum returns its second argument on a tie, so each call takes
    # the later tap first and the earlier one wins
    out = np.maximum(d, cc)
    np.maximum(out, np.maximum(b, a), out=out)
    winner = None
    if x.requires_grad:
        winner = np.full(out.shape, len(_POOL_TAPS) - 1, dtype=np.uint8)
        hit = np.empty(out.shape, dtype=bool)
        for t in (2, 1, 0):                     # an earlier tap overwrites a later one
            np.copyto(winner, t, where=np.equal(taps[t], out, out=hit))
    x_shape, dtype = x.shape, x.dtype

    def backward_fn(gout):
        dx = np.empty(x_shape, dtype=dtype)
        hit = np.empty(winner.shape, dtype=bool)
        for t, (i, j) in enumerate(_POOL_TAPS):
            _route(gout, np.equal(winner, t, out=hit), dx[:, :, i::2, j::2])
        return [dx]

    return make_result(out, "max_pool2", (x,), backward_fn)


def _along(axis: int, s) -> tuple:
    """Index ``s`` on spatial ``axis`` (-2: rows, -1: columns)."""
    return (Ellipsis, s) if axis == -1 else (Ellipsis, s, slice(None))


def _double(a: np.ndarray, axis: int) -> np.ndarray:
    """Bilinear x2 along spatial ``axis``: out ``2i`` is
    ``0.25*a[i-1] + 0.75*a[i]`` and out ``2i+1`` is ``0.75*a[i] + 0.25*a[i+1]``.
    The clamped ends are ``a[0]*1 + a[1]*0`` and ``a[-1]*1 + a[-1]*0``, kept
    as sums, so the result is bitwise that of the general half-pixel
    formula, ``-0.0`` included."""
    size = a.shape[axis]
    shape = list(a.shape)
    shape[axis] = 2 * size
    out = np.empty(shape, dtype=a.dtype)
    quarter, three_q, zero = (a.dtype.type(v) for v in (0.25, 0.75, 0.0))
    prev, cur = a[_along(axis, slice(None, -1))], a[_along(axis, slice(1, None))]
    p, q = np.empty_like(prev), np.empty_like(prev)    # the pass's two products
    np.add(np.multiply(prev, quarter, out=p), np.multiply(cur, three_q, out=q),
           out=out[_along(axis, slice(2, None, 2))])    # 2i, i >= 1
    np.add(np.multiply(prev, three_q, out=p), np.multiply(cur, quarter, out=q),
           out=out[_along(axis, slice(1, -1, 2))])      # 2i+1, i <= size-2
    first, last = _along(axis, slice(0, 1)), _along(axis, slice(-1, None))
    nxt = min(1, size - 1)
    out[first] = a[first] + a[_along(axis, slice(nxt, nxt + 1))] * zero
    out[last] = a[last] + a[last] * zero
    return out


def _double_adjoint(g: np.ndarray, axis: int) -> np.ndarray:
    """Adjoint of :func:`_double`: ``g`` has ``2*size`` entries along
    ``axis``; input ``i`` gathers ``0.75`` of outputs ``2i`` and ``2i+1``
    and ``0.25`` of outputs ``2i-1`` and ``2i+2``, and the clamped ends
    carry their full weight to ``0`` and ``size-1``."""
    quarter = g.dtype.type(0.25)
    even, odd = g[_along(axis, slice(0, None, 2))], g[_along(axis, slice(1, None, 2))]
    d = np.add(even, odd)
    d *= g.dtype.type(0.75)
    first, last = _along(axis, slice(0, 1)), _along(axis, slice(-1, None))
    d[first] += even[first] * quarter
    d[last] += odd[last] * quarter
    term = np.multiply(odd[_along(axis, slice(None, -1))], quarter)   # one temporary
    tail = d[_along(axis, slice(1, None))]
    tail += term
    head = d[_along(axis, slice(None, -1))]
    head += np.multiply(even[_along(axis, slice(1, None))], quarter, out=term)
    return d


def upsample_bilinear2(x: Tensor4) -> Tensor4:
    """Double both spatial dims with bilinear interpolation
    (``src = (dst+0.5)/2 - 0.5``, clamped).

    On a x2 grid the weights are fixed: 0.25 and 0.75 for each interior
    output, 1 and 0 at the clamped ends. Rows, then columns, are written
    as strided slices; the backward is the adjoint, strided reads and adds,
    and keeps nothing.
    """
    out = _double(_double(x.data, -2), -1)

    def backward_fn(gout):
        return [_double_adjoint(_double_adjoint(gout, -1), -2)]

    return make_result(out, "upsample_bilinear2", (x,), backward_fn)


def _first_hits(xs: np.ndarray, m: np.ndarray, axis: int) -> np.ndarray:
    """Where ``xs`` first equals its maximum ``m`` along ``axis``: the
    first-index tie rule as a bool mask, without an index array. Only
    slices with a tie pay for the cumulative scan."""
    hits = xs == m
    along = np.moveaxis(hits, axis, -1)                # a view
    tied = np.count_nonzero(along, axis=-1) > 1
    if tied.any():
        seen = np.logical_or.accumulate(along[tied], axis=-1)
        seen[:, 1:] &= ~seen[:, :-1]
        along[tied] = seen
    return hits


def _max_first(xs: np.ndarray, axis: int) -> np.ndarray:
    """Maximum over ``axis``, kept, with the first-index tie rule. Only a
    ``-0.0``/``+0.0`` tie can break that rule, and the reduction may
    return either zero, so a zero maximum takes the first zero's sign."""
    m = xs.max(axis=axis, keepdims=True)
    zero = m == 0
    if zero.any():
        neg = np.logical_and(_first_hits(xs, m, axis), np.signbit(xs)).any(
            axis=axis, keepdims=True)
        m[zero] = np.where(neg[zero], -0.0, 0.0)
    return m


def global_pool(x: Tensor4, kind: str = "avg", axis: str = "spatial") -> Tensor4:
    """Exact mean/max either over space (``[n,c,1,1]``) or channels (``[n,1,h,w]``).

    Max ties go to the first index (row-major over space), in the value and
    in the gradient; the max backward keeps the input and the maximum and
    finds the winner again from ``x == out``; the mean backward keeps only
    the shape.
    """
    if kind not in ("avg", "max") or axis not in ("spatial", "channel"):
        raise UsageError(f"global_pool kind must be avg|max and axis spatial|channel, "
                         f"got {kind}/{axis}")
    n, c, h, w = x.shape
    x_shape = x.shape
    if kind == "avg":
        size = h * w if axis == "spatial" else c
        out = x.data.mean(axis=(2, 3) if axis == "spatial" else 1, keepdims=True)

        def backward_fn(gout):
            return [np.broadcast_to(gout / size, x_shape).astype(gout.dtype)]
    else:
        # one reduced axis: the flattened plane, or the channels
        xs, ax = (x.data.reshape(n, c, h * w), 2) if axis == "spatial" else (x.data, 1)
        m = _max_first(xs, ax)
        out = m.reshape(n, c, 1, 1) if axis == "spatial" else m

        def backward_fn(gout):
            dx = np.empty_like(xs)
            _route(gout.reshape(m.shape), _first_hits(xs, m, ax), dx)
            return [dx.reshape(x_shape)]

    return make_result(out, f"global_pool_{kind}_{axis}", (x,), backward_fn)


# -- reductions ---------------------------------------------------------------

def sum_all(x: Tensor4) -> Tensor4:
    out = np.array(x.data.sum(dtype=np.float64), dtype=x.dtype).reshape(1, 1, 1, 1)
    x_shape = x.shape

    def backward_fn(gout):
        return [np.broadcast_to(gout.reshape(()), x_shape).astype(gout.dtype)]

    return make_result(out, "sum_all", (x,), backward_fn)


def mean_all(x: Tensor4) -> Tensor4:
    size = x.data.size
    out = np.array(x.data.sum(dtype=np.float64) / size, dtype=x.dtype).reshape(1, 1, 1, 1)
    x_shape, denom = x.shape, x.dtype.type(size)     # a value: no class in the closure

    def backward_fn(gout):
        g = gout.reshape(()) / denom
        return [np.broadcast_to(g, x_shape).astype(gout.dtype)]

    return make_result(out, "mean_all", (x,), backward_fn)
