"""Differentiable operations over :class:`~sarunet.tensor.Tensor4`.

Every public function computes forward values eagerly and registers a
backward rule on the active tape. Conventions fixed here for bit-stable
tests: relu'(0) = 0, max-pool ties break to the first index in row-major
window order, bilinear upsampling uses the corner-aligned-false mapping
``src = (dst + 0.5) / 2 - 0.5`` with clamping.

A backward rule keeps only what it reads. It copies nothing the tape
already holds as an op's inputs and output, and what one elementwise pass
or one copy can rebuild, it rebuilds. Batch norm keeps its input, the per-channel
mean, inverse deviation and ``gamma``, and recomputes the normalized input
with the forward's own expression; relu reads its mask from its output;
max pooling keeps the argmax indices only. Every rule captures its arrays
directly, never through a nested function, so a count of the closure
cells sees them all.

:func:`conv2d` runs one of three kernels, picked from the call's shape:

- 1x1, padding 0, ``groups=1`` (pointwise): one matmul over the input as
  stored; the backward keeps only the input and the weight.
- 3x3, padding 1, ``groups == cin == cout`` (depthwise): nine shifted
  multiply-adds over zero-padded flat planes; the backward keeps the input
  and the weight, and pads the input again.
- every other shape (CBAM 7x7, grouped, dense 3x3): im2col and a batched
  matmul; the backward keeps the input and the weight, and rebuilds the
  patch matrix (``kh*kw`` times the input) while it runs.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .errors import ConfigurationError, DimensionError, UsageError
from .tensor import Tensor4, make_result

__all__ = [
    "conv2d", "batch_norm", "relu", "sigmoid", "add", "sub", "mul",
    "mul_broadcast", "smul", "concat_channels", "max_pool2", "upsample_bilinear2", "global_pool", "sum_all", "mean_all",
]


def _same_dtype(*tensors: Tensor4) -> np.dtype:
    dt = tensors[0].dtype
    for t in tensors[1:]:
        if t.dtype != dt:
            raise UsageError(f"mixed dtypes {dt} vs {t.dtype}; build all tensors in one precision")
    return dt


# -- convolution -------------------------------------------------------------

def _im2col(x: np.ndarray, padding: int, groups: int, kh: int, kw: int,
            ho: int, wo: int) -> np.ndarray:
    """The patch matrix of ``x`` zero-padded by ``padding``, split by group:
    ``[n, groups, (c/groups)*kh*kw, ho*wo]``."""
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding))) \
        if padding else x
    n, c, _, _ = x.shape
    cols = np.empty((n, c, kh, kw, ho, wo), dtype=x.dtype)
    for i in range(kh):
        for j in range(kw):
            cols[:, :, i, j] = xp[:, :, i:i + ho, j:j + wo]
    return cols.reshape(n, groups, (c // groups) * kh * kw, ho * wo)


def _col2im(cols: np.ndarray, n: int, c: int, hp: int, wp: int,
            kh: int, kw: int, ho: int, wo: int) -> np.ndarray:
    xp = np.zeros((n, c, hp, wp), dtype=cols.dtype)
    cols6 = cols.reshape(n, c, kh, kw, ho, wo)
    for i in range(kh):
        for j in range(kw):
            xp[:, :, i:i + ho, j:j + wo] += cols6[:, :, i, j]
    return xp


def _conv_shapes(x: Tensor4, weight: Tensor4, bias: Optional[Tensor4],
                 padding: int, groups: int):
    n, cin, h, w = x.shape
    cout, cin_g, kh, kw = weight.shape
    if groups < 1:
        raise ConfigurationError(f"groups must be >= 1, got {groups}")
    if cin % groups != 0 or cout % groups != 0:
        raise DimensionError(
            f"channels not divisible by groups: cin={cin}, cout={cout}, groups={groups}")
    if cin_g != cin // groups:
        raise DimensionError(
            f"weight expects {cin_g} input channels per group, input provides {cin // groups}")
    if padding < 0:
        raise ConfigurationError(f"invalid padding={padding}")
    ho = h + 2 * padding - kh + 1
    wo = w + 2 * padding - kw + 1
    if ho < 1 or wo < 1:
        raise ConfigurationError(
            f"empty conv output for input {h}x{w}, kernel {kh}x{kw}, padding {padding}")
    if bias is not None and bias.shape != (1, cout, 1, 1):
        raise DimensionError(f"bias must have shape (1,{cout},1,1), got {bias.shape}")
    return n, cin, h, w, cout, kh, kw, ho, wo


def _record_conv(out: np.ndarray, x: Tensor4, weight: Tensor4, bias: Optional[Tensor4],
                 backward_fn) -> Tensor4:
    """Add the bias and record one conv kernel on the tape as ``conv2d``
    with inputs ``(x, weight[, bias])``, whichever kernel ran."""
    if bias is None:
        return make_result(out, "conv2d", (x, weight), backward_fn)
    return make_result(out + bias.data, "conv2d", (x, weight, bias), backward_fn)


def _conv_grads(gout: np.ndarray, dx: np.ndarray, dw: np.ndarray,
                bias: Optional[Tensor4]) -> list[np.ndarray]:
    if bias is None:
        return [dx, dw]
    return [dx, dw, gout.sum(axis=(0, 2, 3)).reshape(bias.shape)]


def _conv_im2col(x: Tensor4, weight: Tensor4, bias: Optional[Tensor4],
                 padding: int, groups: int, ho: int, wo: int) -> Tensor4:
    n, cin, h, w_in = x.shape
    cout, _, kh, kw = weight.shape
    k = (cin // groups) * kh * kw
    hp, wp = h + 2 * padding, w_in + 2 * padding
    wg = weight.data.reshape(groups, cout // groups, k)
    out = np.matmul(wg[None, :, :, :], _im2col(x.data, padding, groups, kh, kw, ho, wo))

    def backward_fn(gout: np.ndarray):
        go = gout.reshape(n, groups, cout // groups, ho * wo)
        cols = _im2col(x.data, padding, groups, kh, kw, ho, wo).transpose(0, 1, 3, 2)
        dw = np.matmul(go, cols).sum(axis=0).reshape(weight.shape)
        del cols                                         # rebuilt here, not kept
        dcols = np.matmul(wg.transpose(0, 2, 1)[None, :, :, :], go)
        dxp = _col2im(dcols.reshape(n, cin * kh * kw, ho * wo),
                      n, cin, hp, wp, kh, kw, ho, wo)
        dx = dxp[:, :, padding:hp - padding, padding:wp - padding] if padding else dxp
        return _conv_grads(gout, dx, dw, bias)

    return _record_conv(out.reshape(n, cout, ho, wo), x, weight, bias, backward_fn)


def _conv_pointwise(x: Tensor4, weight: Tensor4, bias: Optional[Tensor4]) -> Tensor4:
    n, cin, h, w_in = x.shape
    cout = weight.shape[0]
    x3 = x.data.reshape(n, cin, h * w_in)              # a view: Tensor4 data is contiguous
    w2 = weight.data.reshape(cout, cin)

    def backward_fn(gout: np.ndarray):
        go = gout.reshape(n, cout, h * w_in)
        dw = np.matmul(go, x3.transpose(0, 2, 1)).sum(axis=0).reshape(weight.shape)
        dx = np.matmul(w2.T, go).reshape(x.shape)
        return _conv_grads(gout, dx, dw, bias)

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


def _shifted_sum(planes: np.ndarray, taps: np.ndarray, h: int, w: int) -> np.ndarray:
    """Per-channel 3x3 correlation of :func:`_pad_planes` output with
    ``taps`` ``[c, 9]`` (row-major): nine multiply-adds over whole-plane
    slices into one buffer, then a contiguous copy without the two padding
    columns."""
    length = h * (w + 2)
    offsets = _tap_offsets(w)
    acc = planes[:, :, :length] * taps[None, :, 0, None]
    term = np.empty_like(acc)
    for t in range(1, 9):
        np.multiply(planes[:, :, offsets[t]:offsets[t] + length], taps[None, :, t, None],
                    out=term)
        acc += term
    del term                                    # not alive during the copy
    return np.ascontiguousarray(acc.reshape(acc.shape[0], acc.shape[1], h, w + 2)[..., :w])


def _conv_depthwise3(x: Tensor4, weight: Tensor4, bias: Optional[Tensor4]) -> Tensor4:
    _, c, h, w_in = x.shape
    taps = weight.data.reshape(c, 9)

    def backward_fn(gout: np.ndarray):
        xp = _pad_planes(x.data)
        gp = _pad_planes(gout)
        dx = _shifted_sum(gp, taps[:, ::-1], h, w_in)   # the flipped kernel
        length = h * (w_in + 2)
        centre = _tap_offsets(w_in)[4]
        g = gp[:, :, centre:centre + length]             # gout, zero in the padding columns
        dw = np.empty((c, 9), dtype=taps.dtype)
        for t, off in enumerate(_tap_offsets(w_in)):
            dw[:, t] = np.einsum("ncl,ncl->c", g, xp[:, :, off:off + length])
        return _conv_grads(gout, dx, dw.reshape(weight.shape), bias)

    return _record_conv(_shifted_sum(_pad_planes(x.data), taps, h, w_in), x, weight, bias,
                        backward_fn)


def conv2d(x: Tensor4, weight: Tensor4, bias: Optional[Tensor4] = None, *,
           padding: int = 0, groups: int = 1) -> Tensor4:
    """Grouped stride-1 2-d cross-correlation with zero padding.

    ``weight`` is ``[cout, cin/groups, kh, kw]``; ``bias``, when given, is a
    per-output-channel vector stored as ``[1, cout, 1, 1]``. ``groups=cin``
    yields a depthwise convolution. The call's own shape picks one of three
    kernels, each recorded on the tape as ``conv2d``:

    - **pointwise** (1x1, padding 0, ``groups=1``): one matmul over the
      input as stored, forward and backward.
    - **depthwise 3x3** (3x3, padding 1, ``groups == cin == cout``): nine
      shifted multiply-adds over the zero-padded input planes; the backward
      runs the same sum over the padded gradient with the kernel flipped,
      and pads the input again for the weight gradient.
    - **im2col**, every other shape (CBAM 7x7, grouped, dense 3x3): a patch
      matrix and a batched matmul. The backward rebuilds the patch matrix,
      ``kh*kw`` times the input, for the weight gradient.

    Every kernel's backward keeps only the input and the weight (the tape
    holds both already), never a padded copy or a patch matrix.
    """
    _same_dtype(*( (x, weight) + ((bias,) if bias is not None else ()) ))
    _, cin, _, _, cout, kh, kw, ho, wo = _conv_shapes(x, weight, bias, padding, groups)
    if kh == kw == 1 and padding == 0 and groups == 1:
        return _conv_pointwise(x, weight, bias)
    if kh == kw == 3 and padding == 1 and groups == cin == cout:
        return _conv_depthwise3(x, weight, bias)
    return _conv_im2col(x, weight, bias, padding, groups, ho, wo)


# -- batch normalization ------------------------------------------------------

def _normalize(x: np.ndarray, mean: np.ndarray, inv_std: np.ndarray) -> np.ndarray:
    """``xhat`` of batch norm; the backward rebuilds it bitwise from the same
    call instead of keeping it."""
    c = x.shape[1]
    return (x - mean.reshape(1, c, 1, 1)) * inv_std.reshape(1, c, 1, 1)


def batch_norm(x: Tensor4, gamma: Tensor4, beta: Tensor4,
               running_mean: np.ndarray, running_var: np.ndarray, *,
               train: bool, eps: float = 1e-5, momentum: float = 0.1) -> Tensor4:
    """Per-channel normalization over ``(n, h, w)``.

    Train mode uses biased batch statistics and folds them into the running
    buffers in place (``running = (1-momentum)*running + momentum*batch``);
    eval mode normalizes with the running buffers. Differentiable w.r.t.
    input, gamma and beta in both modes.
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
        running_mean *= (1.0 - momentum)
        running_mean += momentum * mean.astype(running_mean.dtype)
        running_var *= (1.0 - momentum)
        running_var += momentum * var.astype(running_var.dtype)
    else:
        mean = running_mean.astype(dt)
        var = running_var.astype(dt)
    inv_std = 1.0 / np.sqrt(var + dt.type(eps))
    out = gamma.data * _normalize(x.data, mean, inv_std) + beta.data

    def backward_fn(gout: np.ndarray):
        xhat = _normalize(x.data, mean, inv_std)
        dgamma = (gout * xhat).sum(axis=(0, 2, 3)).reshape(1, c, 1, 1)
        dbeta = gout.sum(axis=(0, 2, 3)).reshape(1, c, 1, 1)
        dxhat = gout * gamma.data
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
    return make_result(a.data * b.data, "mul", (a, b),
                       lambda g: [g * b.data, g * a.data])


def smul(x: Tensor4, scalar: float) -> Tensor4:
    """Multiply by a python scalar constant."""
    s = x.dtype.type(scalar)
    return make_result(x.data * s, "smul", (x,), lambda g: [g * s])


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

    def backward_fn(gout):
        da = gout * b.data
        db = (gout * a.data).sum(axis=reduce_axes, keepdims=True)
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

def max_pool2(x: Tensor4) -> Tensor4:
    """2x2 max pooling, stride 2. Ties route gradient to the first index in
    row-major window order."""
    n, c, h, w = x.shape
    if h % 2 or w % 2:
        raise DimensionError(f"max_pool2 needs even spatial dims, got {h}x{w}")
    h2, w2 = h // 2, w // 2
    windows = (x.data.reshape(n, c, h2, 2, w2, 2)
               .transpose(0, 1, 2, 4, 3, 5)
               .reshape(n, c, h2, w2, 4))
    am = windows.argmax(axis=-1)           # first max in (0,0),(0,1),(1,0),(1,1) order
    out = np.take_along_axis(windows, am[..., None], axis=-1)[..., 0]

    def backward_fn(gout):
        dwin = np.zeros((n, c, h2, w2, 4), dtype=gout.dtype)
        np.put_along_axis(dwin, am[..., None], gout[..., None], axis=-1)
        dx = (dwin.reshape(n, c, h2, w2, 2, 2)
              .transpose(0, 1, 2, 4, 3, 5)
              .reshape(n, c, h, w))
        return [dx]

    return make_result(out, "max_pool2", (x,), backward_fn)


def _bilinear_axis(size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Index/weight vectors mapping an axis of length `size` to `2*size`."""
    dst = np.arange(2 * size, dtype=np.float64)
    src = np.clip((dst + 0.5) / 2.0 - 0.5, 0.0, size - 1.0)
    i0 = np.floor(src).astype(np.int64)
    i1 = np.minimum(i0 + 1, size - 1)
    w1 = src - i0
    w0 = 1.0 - w1
    return i0, i1, w0, w1


def upsample_bilinear2(x: Tensor4) -> Tensor4:
    """Double both spatial dims with bilinear interpolation
    (``src = (dst+0.5)/2 - 0.5``, clamped)."""
    n, c, h, w = x.shape
    r0, r1, rw0, rw1 = _bilinear_axis(h)
    c0, c1, cw0, cw1 = _bilinear_axis(w)
    dt = x.dtype
    rw0c = rw0.astype(dt)[None, None, :, None]
    rw1c = rw1.astype(dt)[None, None, :, None]
    cw0c = cw0.astype(dt)[None, None, None, :]
    cw1c = cw1.astype(dt)[None, None, None, :]
    rows = x.data[:, :, r0, :] * rw0c + x.data[:, :, r1, :] * rw1c   # [n,c,2h,w]
    out = rows[:, :, :, c0] * cw0c + rows[:, :, :, c1] * cw1c        # [n,c,2h,2w]

    def backward_fn(gout):
        drows = np.zeros((n, c, 2 * h, w), dtype=gout.dtype)
        np.add.at(drows, (slice(None), slice(None), slice(None), c0), gout * cw0c)
        np.add.at(drows, (slice(None), slice(None), slice(None), c1), gout * cw1c)
        dx = np.zeros_like(x.data)
        np.add.at(dx, (slice(None), slice(None), r0, slice(None)), drows * rw0c)
        np.add.at(dx, (slice(None), slice(None), r1, slice(None)), drows * rw1c)
        return [dx]

    return make_result(out, "upsample_bilinear2", (x,), backward_fn)


def global_pool(x: Tensor4, kind: str = "avg", axis: str = "spatial") -> Tensor4:
    """Exact mean/max either over space (``[n,c,1,1]``) or channels (``[n,1,h,w]``)."""
    if kind not in ("avg", "max") or axis not in ("spatial", "channel"):
        raise UsageError(f"global_pool kind must be avg|max and axis spatial|channel, "
                         f"got {kind}/{axis}")
    n, c, h, w = x.shape
    if axis == "spatial":
        if kind == "avg":
            out = x.data.mean(axis=(2, 3), keepdims=True)

            def backward_fn(gout):
                return [np.broadcast_to(gout / (h * w), x.shape).astype(gout.dtype).copy()]
        else:
            flat = x.data.reshape(n, c, h * w)
            am = flat.argmax(axis=-1)
            out = np.take_along_axis(flat, am[..., None], axis=-1).reshape(n, c, 1, 1)

            def backward_fn(gout):
                dflat = np.zeros_like(flat)
                np.put_along_axis(dflat, am[..., None], gout.reshape(n, c, 1), axis=-1)
                return [dflat.reshape(x.shape)]
    else:
        if kind == "avg":
            out = x.data.mean(axis=1, keepdims=True)

            def backward_fn(gout):
                return [np.broadcast_to(gout / c, x.shape).astype(gout.dtype).copy()]
        else:
            am = x.data.argmax(axis=1)
            out = np.take_along_axis(x.data, am[:, None], axis=1)

            def backward_fn(gout):
                dx = np.zeros_like(x.data)
                np.put_along_axis(dx, am[:, None], gout, axis=1)
                return [dx]

    return make_result(out, f"global_pool_{kind}_{axis}", (x,), backward_fn)


# -- reductions ---------------------------------------------------------------

def sum_all(x: Tensor4) -> Tensor4:
    out = np.array(x.data.sum(dtype=np.float64), dtype=x.dtype).reshape(1, 1, 1, 1)

    def backward_fn(gout):
        return [np.broadcast_to(gout.reshape(()), x.shape).astype(gout.dtype).copy()]

    return make_result(out, "sum_all", (x,), backward_fn)


def mean_all(x: Tensor4) -> Tensor4:
    size = x.data.size
    out = np.array(x.data.sum(dtype=np.float64) / size, dtype=x.dtype).reshape(1, 1, 1, 1)

    def backward_fn(gout):
        g = gout.reshape(()) / x.dtype.type(size)
        return [np.broadcast_to(g, x.shape).astype(gout.dtype).copy()]

    return make_result(out, "mean_all", (x,), backward_fn)
