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
array itself, and what one elementwise pass or one copy can rebuild, it
rebuilds. Batch norm keeps its input only for the ``gamma`` gradient or a
train-mode ``dx``, ``gamma`` only for ``dx``, and the per-channel mean and
inverse deviation, and recomputes the normalized input with the forward's
own expression; so eval batch norm with a frozen ``gamma`` keeps nothing of
its input. relu and sigmoid read their output; max pooling and global max
keep their input and output and find the winning entry again from
``x == out``; bilinear upsampling and ``concat_channels`` keep nothing;
:func:`mul` and :func:`mul_broadcast` keep each factor only when the other
needs a gradient. Every rule captures its arrays directly, never through a
nested function, so a count of the closure cells sees them all.

A backward rule computes only the gradients something reads, as PyTorch's
``needs_input_grad`` does. The three conv kernels, batch norm, :func:`mul`
and :func:`mul_broadcast` read each input's ``requires_grad`` at forward
time and keep the flags in the closure as booleans. A ``None`` gradient
means no gradient is needed: the rule returns ``None`` in the slot of an
input that needs none and skips that input's work. So a frozen weight costs
no weight gradient, and the model input costs no ``dx``. The other rules
compute every input gradient, and :meth:`~sarunet.tensor.Tape.backward`
drops the ones nothing needs.

:func:`conv2d` is stride-1 and always pads by ``k // 2`` (a "same"
convolution, the only kind the network runs); the weight's shape picks one
of three kernels:

- ``[cout, cin, 1, 1]`` (pointwise): one matmul over the input as stored;
  the backward keeps the input only for the weight gradient and the weight
  only for ``dx``, as every kernel does.
- ``[c, 1, 3, 3]`` over ``c`` channels (depthwise): nine shifted
  multiply-adds over zero-padded flat planes, run in cache-sized tiles (a
  band of image rows over a group of planes, :data:`_TILE` elements at
  most) and written straight into the output, so no whole-plane temporary
  is made. Each output entry sees the same nine products in the same order
  as a whole-plane pass, so the values do not depend on the tiling. The
  backward runs the same tiled sum over the padded gradient for ``dx``, and
  pads the input again for the weight gradient.
- ``[cout, cin, k, k]``, odd ``k`` (dense; CBAM's 7x7): products of float64
  ``rfft2`` spectra over planes zero-padded to ``L``, the smallest
  2*3*5-smooth length >= ``size + k - 1`` per axis, so that they are linear
  convolutions. The backward keeps no spectrum: it transforms the kept input
  or weight again, and never makes a ``k*k``-fold patch matrix.

:func:`batch_norm` uses the fixed :data:`BN_EPS` and :data:`BN_MOMENTUM`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .errors import ConfigurationError, DimensionError, UsageError
from .tensor import Tensor4, make_result

__all__ = [
    "conv2d", "batch_norm", "relu", "sigmoid", "add", "sub", "mul", "mul_broadcast",
    "concat_channels", "max_pool2", "upsample_bilinear2", "global_pool", "sum_all", "mean_all",
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

def _record_conv(out: np.ndarray, x: Tensor4, weight: Tensor4, bias: Optional[Tensor4],
                 backward_fn) -> Tensor4:
    """Add the bias into ``out`` (each kernel's fresh array) and record the
    kernel on the tape as ``conv2d`` with inputs ``(x, weight[, bias])``."""
    if bias is None:
        return make_result(out, "conv2d", (x, weight), backward_fn)
    out += bias.data
    return make_result(out, "conv2d", (x, weight, bias), backward_fn)


def _needs(*tensors: Optional[Tensor4]) -> tuple[bool, ...]:
    """Each input's ``requires_grad`` as read at forward time; an absent
    bias needs nothing."""
    return tuple(t is not None and t.requires_grad for t in tensors)


def _conv_grads(gout: np.ndarray, dx: Optional[np.ndarray], dw: Optional[np.ndarray],
                has_bias: bool, need_b: bool) -> list[Optional[np.ndarray]]:
    if not has_bias:
        return [dx, dw]
    return [dx, dw, gout.sum(axis=(0, 2, 3), keepdims=True) if need_b else None]


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


def _conv_dense(x: Tensor4, weight: Tensor4, bias: Optional[Tensor4]) -> Tensor4:
    _, _, h, w_in = x.shape
    p = weight.shape[2] // 2                             # k = 2p + 1
    lengths = (_fft_length(h + 2 * p), _fft_length(w_in + 2 * p))
    crop = (Ellipsis, slice(p, p + h), slice(p, p + w_in))
    flipped = _spectrum(weight.data[:, :, ::-1, ::-1], lengths)
    out = np.fft.irfft2(np.einsum("ncij,ocij->noij", _spectrum(x.data, lengths), flipped),
                        s=lengths)[crop].astype(x.dtype)
    need_x, need_w, need_b = _needs(x, weight, bias)
    has_b, dtype = bias is not None, x.dtype
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
        return _conv_grads(gout, dx, dw, has_b, need_b)

    return _record_conv(out, x, weight, bias, backward_fn)


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
        go = gout.reshape(n, cout, h * w_in)
        dx = dw = None
        if need_w:
            dw = np.matmul(go, x_kept.transpose(0, 2, 1)).sum(axis=0).reshape(w_shape)
        if need_x:
            dx = np.matmul(w_kept.T, go).reshape(x_shape)
        return _conv_grads(gout, dx, dw, has_b, need_b)

    out = np.matmul(w2, x3).reshape(n, cout, h, w_in)
    return _record_conv(out, x, weight, bias, backward_fn)


def _pad_planes(a: np.ndarray) -> np.ndarray:
    """``[n, c, h, w]`` zero-padded by one column each side, one row on top
    and two below, each plane flattened to ``[n, c, (h+3)*(w+2)]``. Tap
    ``(i, j)`` of a 3x3 window is then the contiguous slice at offset
    ``i*(w+2)+j``, of length ``h*(w+2)``; the second row below keeps the
    last tap's slice in bounds."""
    n, c, h, w = a.shape
    p = np.zeros((n, c, h + 3, w + 2), dtype=a.dtype)
    p[:, :, 1:h + 1, 1:w + 1] = a
    return p.reshape(n, c, (h + 3) * (w + 2))


def _tap_offsets(w: int) -> list[int]:
    return [i * (w + 2) + j for i in range(3) for j in range(3)]


# elements in one tile of the depthwise kernel: 128 KiB of float32 per tile
# buffer, so a tile's input slices, ``acc`` and ``term`` stay in L2
_TILE = 32768


def _shifted_sum(planes: np.ndarray, taps: np.ndarray, h: int, w: int) -> np.ndarray:
    """Per-channel 3x3 correlation of :func:`_pad_planes` output ``[n, c,
    (h+3)*(w+2)]`` with ``taps`` ``[c, 9]`` (row-major): ``[n, c, h, w]``.

    It runs tile by tile over the ``n*c`` flat planes. A tile is a band of
    ``band = min(h, _TILE // (w+2))`` image rows over a group of up to
    ``_TILE // (band*(w+2))`` planes, so an array no larger than one tile is
    one tile. Per tile, tap 0's products go into ``acc``, the other eight
    are each multiplied into ``term`` and added to ``acc``, and ``acc``
    without its two padding columns is copied into the tile's rows of the
    output. The two tile buffers are allocated once per call. Each output
    entry sees the same nine products added in the same order as a
    whole-plane pass, so the result is bitwise that of the whole-plane sum."""
    n, c, size = planes.shape
    nc, row = n * c, w + 2
    flat = planes.reshape(nc, size)
    if n > 1:
        taps = np.concatenate((taps,) * n)          # plane k*c + i takes channel i's taps
    offsets = _tap_offsets(w)
    band = max(1, min(h, _TILE // row))
    group = max(1, min(nc, _TILE // (band * row)))
    dtype = np.result_type(planes, taps)
    out = np.empty((nc, h, w), dtype=dtype)
    acc_buf = np.empty(group * band * row, dtype=dtype)
    term_buf = np.empty_like(acc_buf)
    for p0 in range(0, nc, group):
        p1 = min(nc, p0 + group)
        cols = taps[p0:p1, :, None]                 # cols[:, t] is tap t per plane
        for r0 in range(0, h, band):
            r1 = min(h, r0 + band)
            shape = (p1 - p0, (r1 - r0) * row)
            acc = acc_buf[:shape[0] * shape[1]].reshape(shape)
            term = term_buf[:acc.size].reshape(shape)
            start, stop = r0 * row, r1 * row
            np.multiply(flat[p0:p1, start:stop], cols[:, 0], out=acc)
            for t in range(1, 9):
                off = offsets[t]
                np.multiply(flat[p0:p1, off + start:off + stop], cols[:, t], out=term)
                acc += term
            out[p0:p1, r0:r1] = acc.reshape(shape[0], r1 - r0, row)[..., :w]
    return out.reshape(n, c, h, w)


def _conv_depthwise3(x: Tensor4, weight: Tensor4, bias: Optional[Tensor4]) -> Tensor4:
    _, c, h, w_in = x.shape
    taps = weight.data.reshape(c, 9)
    need_x, need_w, need_b = _needs(x, weight, bias)
    w_shape, has_b = weight.shape, bias is not None
    x_kept = x.data if need_w else None
    taps_kept = taps if need_x else None

    def backward_fn(gout: np.ndarray):
        gp = _pad_planes(gout)
        dx = dw = None
        if need_x:
            dx = _shifted_sum(gp, taps_kept[:, ::-1], h, w_in)   # the flipped kernel
        if need_w:
            xp = _pad_planes(x_kept)
            length = h * (w_in + 2)
            centre = _tap_offsets(w_in)[4]
            g = gp[:, :, centre:centre + length]         # gout, zero in the padding columns
            dw = np.empty((c, 9), dtype=x_kept.dtype)    # the weight's dtype
            for t, off in enumerate(_tap_offsets(w_in)):
                dw[:, t] = np.einsum("ncl,ncl->c", g, xp[:, :, off:off + length])
            dw = dw.reshape(w_shape)
        return _conv_grads(gout, dx, dw, has_b, need_b)

    return _record_conv(_shifted_sum(_pad_planes(x.data), taps, h, w_in), x, weight, bias,
                        backward_fn)


def conv2d(x: Tensor4, weight: Tensor4, bias: Optional[Tensor4] = None) -> Tensor4:
    """Stride-1 2-d cross-correlation, zero-padded by ``k // 2`` so the
    output keeps the input's spatial size.

    ``bias``, when given, is a per-output-channel vector stored as
    ``[1, cout, 1, 1]``. The kernel ``k x k`` must be square and odd, else
    ``ConfigurationError``. The weight's shape over ``x``'s ``cin`` channels
    picks one of three kernels, each recorded on the tape as ``conv2d``:

    - **pointwise**, ``[cout, cin, 1, 1]``: one matmul over the input as
      stored, forward and backward.
    - **depthwise 3x3**, ``[cin, 1, 3, 3]`` (tested before dense, so
      ``[1, 1, 3, 3]`` over one channel is depthwise): nine shifted
      multiply-adds over the zero-padded input planes, tile by tile in
      bands of rows over groups of planes of at most :data:`_TILE`
      elements, each tile written straight into the output; bitwise the
      whole-plane sum. The backward runs the same sum over the padded
      gradient with the kernel flipped, and pads the input again for the
      weight gradient.
    - **dense**, ``[cout, cin, k, k]`` (CBAM's 7x7): ``irfft2`` of the
      input's spectra summed over ``cin`` against the flipped weight's,
      cropped at ``[p:p+h, p:p+w]`` (``p = k // 2``); ``dx`` sums the
      gradient's over ``cout`` against the weight's, and the weight gradient
      is ``irfft2`` of ``conj(G) * X`` summed over the batch, read at the lags
      ``(i - p) mod L``. Results are cast back to the input's dtype.

    Any other weight shape is a ``DimensionError``. Every kernel's backward
    keeps the input array only when the weight needs a gradient and the
    weight array only when the input does, never a padded copy, a patch
    matrix or a spectrum, which the dense backward rebuilds; with a frozen
    weight (Grad-CAM) the input is freed once the forward code drops it.
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
    if kh == 3 and wcin == 1 and cout == cin:
        return _conv_depthwise3(x, weight, bias)
    if wcin == cin:
        return _conv_dense(x, weight, bias)
    raise DimensionError(
        f"conv2d weight {weight.shape} over {cin} input channels is none of "
        f"pointwise [cout,{cin},1,1], depthwise [{cin},1,3,3] or dense [cout,{cin},k,k]")


# -- batch normalization ------------------------------------------------------

def _normalize(x: np.ndarray, mean: np.ndarray, inv_std: np.ndarray) -> np.ndarray:
    """``xhat`` of batch norm, in one fresh buffer; the backward rebuilds it
    bitwise from the same call instead of keeping it."""
    c = x.shape[1]
    xhat = x - mean.reshape(1, c, 1, 1)
    xhat *= inv_std.reshape(1, c, 1, 1)
    return xhat


def batch_norm(x: Tensor4, gamma: Tensor4, beta: Tensor4,
               running_mean: np.ndarray, running_var: np.ndarray, *,
               train: bool) -> Tensor4:
    """Per-channel normalization over ``(n, h, w)``, with the variance
    epsilon :data:`BN_EPS`.

    Train mode uses biased batch statistics and folds them into the running
    buffers in place (``running = (1-m)*running + m*batch``, with ``m`` the
    fixed :data:`BN_MOMENTUM`); eval mode normalizes with the running
    buffers. Differentiable w.r.t. input, gamma and beta in both modes.
    """
    _same_dtype(x, gamma, beta)
    n, c, h, w = x.shape
    if gamma.shape != (1, c, 1, 1) or beta.shape != (1, c, 1, 1):
        raise DimensionError(f"gamma/beta must be (1,{c},1,1), got {gamma.shape}/{beta.shape}")
    if running_mean.shape != (c,) or running_var.shape != (c,):
        raise DimensionError(f"running stats must be ({c},)")
    m = n * h * w
    if train and m < 2:
        raise DimensionError(f"batch_norm train mode needs n*h*w >= 2, got {m}")
    dt = x.dtype
    if train:
        mean = x.data.mean(axis=(0, 2, 3), dtype=dt)
        var = x.data.var(axis=(0, 2, 3), dtype=dt)     # biased
        running_mean *= (1.0 - BN_MOMENTUM)
        running_mean += BN_MOMENTUM * mean.astype(running_mean.dtype)
        running_var *= (1.0 - BN_MOMENTUM)
        running_var += BN_MOMENTUM * var.astype(running_var.dtype)
    else:
        mean = running_mean.astype(dt)
        var = running_var.astype(dt)
    inv_std = 1.0 / np.sqrt(var + dt.type(BN_EPS))
    out = _normalize(x.data, mean, inv_std)
    out *= gamma.data
    out += beta.data
    need_x, need_gamma, need_beta = _needs(x, gamma, beta)
    need_xhat = need_gamma or (need_x and train)
    x_kept = x.data if need_xhat else None
    gamma_kept = gamma.data if need_x else None

    def backward_fn(gout: np.ndarray):
        dx = dgamma = dbeta = None
        if need_xhat:
            xhat = _normalize(x_kept, mean, inv_std)
        if need_gamma:
            dgamma = (gout * xhat).sum(axis=(0, 2, 3)).reshape(1, c, 1, 1)
        if need_beta:
            dbeta = gout.sum(axis=(0, 2, 3)).reshape(1, c, 1, 1)
        if need_x:
            dxhat = gout * gamma_kept
            istd = inv_std.reshape(1, c, 1, 1)
            if train:
                mean_dxhat = dxhat.mean(axis=(0, 2, 3), keepdims=True)
                mean_dxhat_xhat = (dxhat * xhat).mean(axis=(0, 2, 3), keepdims=True)
                dx = istd * (dxhat - mean_dxhat - xhat * mean_dxhat_xhat)
            else:
                dx = istd * dxhat
        return [dx, dgamma, dbeta]

    return make_result(out, "batch_norm", (x, gamma, beta), backward_fn)


# -- elementwise --------------------------------------------------------------

def relu(x: Tensor4) -> Tensor4:
    out = np.maximum(x.data, 0)

    def backward_fn(gout):
        return [gout * (out > 0)]        # out > 0 iff x > 0: relu'(0) = 0

    return make_result(out, "relu", (x,), backward_fn)


def sigmoid(x: Tensor4) -> Tensor4:
    # numerically stable split over sign
    d = x.data
    out = np.empty_like(d)
    pos = d >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-d[pos]))
    ex = np.exp(d[~pos])
    out[~pos] = ex / (1.0 + ex)

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
    """Elementwise product of equal shapes."""
    _same_dtype(a, b)
    _check_same_shape(a, b, "mul")
    need_a, need_b = _needs(a, b)
    a_kept = a.data if need_b else None
    b_kept = b.data if need_a else None

    def backward_fn(gout):
        return [gout * b_kept if need_a else None, gout * a_kept if need_b else None]

    return make_result(a.data * b.data, "mul", (a, b), backward_fn)


def mul_broadcast(a: Tensor4, b: Tensor4) -> Tensor4:
    """Gate ``a`` with a per-channel ``[n,c,1,1]`` or per-pixel ``[n,1,h,w]`` factor."""
    _same_dtype(a, b)
    n, c, h, w = a.shape
    if b.shape == (n, c, 1, 1):
        reduce_axes = (2, 3)
    elif b.shape == (n, 1, h, w):
        reduce_axes = (1,)
    else:
        raise DimensionError(
            f"mul_broadcast factor must be ({n},{c},1,1) or ({n},1,{h},{w}), got {b.shape}")

    need_a, need_b = _needs(a, b)
    a_kept = a.data if need_b else None
    b_kept = b.data if need_a else None

    def backward_fn(gout):
        da = gout * b_kept if need_a else None
        db = (gout * a_kept).sum(axis=reduce_axes, keepdims=True) if need_b else None
        return [da, db]

    return make_result(a.data * b.data, "mul_broadcast", (a, b), backward_fn)


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
    The backward keeps the input and output arrays and nothing more: it
    routes ``gout`` to the first tap equal to the output.
    """
    n, c, h, w = x.shape
    if h % 2 or w % 2:
        raise DimensionError(f"max_pool2 needs even spatial dims, got {h}x{w}")
    xd = x.data
    a, b, cc, d = (xd[:, :, i::2, j::2] for i, j in _POOL_TAPS)
    # np.maximum returns its second argument on a tie, so each call takes
    # the later tap first and the earlier one wins
    out = np.maximum(d, cc)
    np.maximum(out, np.maximum(b, a), out=out)

    def backward_fn(gout):
        dx = np.empty_like(xd)
        free = np.ones(out.shape, dtype=bool)       # windows not routed yet
        hit = np.empty_like(free)
        for i, j in _POOL_TAPS[:-1]:
            np.equal(xd[:, :, i::2, j::2], out, out=hit)
            hit &= free
            _route(gout, hit, dx[:, :, i::2, j::2])
            free ^= hit
        _route(gout, free, dx[:, :, 1::2, 1::2])
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
