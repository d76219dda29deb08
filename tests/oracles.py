"""Independent reference implementations the test suite checks the library
against. Everything here is written from the operation definitions directly
(scalar loops, finite differences) and stays free of sarunet internals, bar
``load_nwds_records``: the earlier NWDS reader, which reads each record with
the library's T4v1 codec so that its errors are the records' own.
"""

import struct

import numpy as np


def conv2d_loops(x, w, bias=None, stride=1, padding=0, groups=1):
    """Six-nested-loop convolution: batch, out channel, output row/col, then
    the kernel window. Zero padding, cross-correlation orientation."""
    n, cin, h, wth = x.shape
    cout, cin_g, kh, kw = w.shape
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (wth + 2 * padding - kw) // stride + 1
    og = cout // groups
    out = np.zeros((n, cout, ho, wo), dtype=np.float64)
    for b in range(n):
        for o in range(cout):
            g = o // og
            for y in range(ho):
                for xx in range(wo):
                    acc = 0.0
                    for ci in range(cin_g):
                        for i in range(kh):
                            for j in range(kw):
                                yy = y * stride + i - padding
                                xj = xx * stride + j - padding
                                if 0 <= yy < h and 0 <= xj < wth:
                                    acc += float(w[o, ci, i, j]) * \
                                        float(x[b, g * cin_g + ci, yy, xj])
                    out[b, o, y, xx] = acc + (float(bias[o]) if bias is not None else 0.0)
    return out


def im2col(x, k):
    """The patch matrix of ``x`` zero-padded by ``k // 2``:
    ``[n, c*k*k, h*w]``."""
    n, c, h, w = x.shape
    p = k // 2
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
    cols = np.empty((n, c, k, k, h, w), dtype=x.dtype)
    for i in range(k):
        for j in range(k):
            cols[:, :, i, j] = xp[:, :, i:i + h, j:j + w]
    return cols.reshape(n, c * k * k, h * w)


def col2im(cols, shape, k):
    """Adjoint of :func:`im2col`: the patch matrix summed back onto the
    ``shape`` planes, without the padding."""
    n, c, h, w = shape
    p = k // 2
    xp = np.zeros((n, c, h + 2 * p, w + 2 * p), dtype=cols.dtype)
    cols6 = cols.reshape(n, c, k, k, h, w)
    for i in range(k):
        for j in range(k):
            xp[:, :, i:i + h, j:j + w] += cols6[:, :, i, j]
    return xp[:, :, p:p + h, p:p + w]


def conv_dense_im2col(x, w):
    """The dense "same" conv of ``x`` ``[n, cin, h, w]`` with ``w`` ``[cout,
    cin, k, k]`` as one matmul against the :func:`im2col` patch matrix, in
    the arrays' dtype: ``(out, grads)``, where ``grads(gout)`` gives
    ``(dx, dw)`` by :func:`col2im` and a rebuilt patch matrix."""
    n, cin, h, wd = x.shape
    cout, _, k, _ = w.shape
    w2 = w.reshape(cout, cin * k * k)
    out = np.matmul(w2, im2col(x, k)).reshape(n, cout, h, wd)

    def grads(gout):
        go = gout.reshape(n, cout, h * wd)
        dw = np.matmul(go, im2col(x, k).transpose(0, 2, 1)).sum(axis=0).reshape(w.shape)
        return col2im(np.matmul(w2.T, go), x.shape, k), dw
    return out, grads


def depthwise_separable_loops(x, dw, pw, pb):
    """Depthwise 3x3 (pad 1) then pointwise 1x1, both via the loop oracle."""
    mid = conv2d_loops(x, dw, stride=1, padding=1, groups=x.shape[1])
    return conv2d_loops(mid, pw, bias=pb, stride=1, padding=0, groups=1)


def max_pool2_windows(x):
    """Window-scan 2x2 max pool."""
    n, c, h, w = x.shape
    out = np.empty((n, c, h // 2, w // 2), dtype=x.dtype)
    for b in range(n):
        for ch in range(c):
            for y in range(h // 2):
                for xx in range(w // 2):
                    out[b, ch, y, xx] = x[b, ch, 2 * y:2 * y + 2, 2 * xx:2 * xx + 2].max()
    return out


def _half_pixel_source(dst, size):
    """Source taps of output ``dst`` on a doubled axis of ``size`` inputs,
    ``src = (dst+0.5)/2 - 0.5`` clamped: ``(i0, i1, weight of i1)``."""
    s = min(max((dst + 0.5) / 2 - 0.5, 0.0), size - 1.0)
    i0 = int(np.floor(s))
    return i0, min(i0 + 1, size - 1), s - i0


def bilinear_double(x):
    """Doubling bilinear resample, src = (dst+0.5)/2 - 0.5 with clamping."""
    n, c, h, w = x.shape
    out = np.empty((n, c, 2 * h, 2 * w), dtype=np.float64)
    for oy in range(2 * h):
        y0, y1, wy = _half_pixel_source(oy, h)
        for ox in range(2 * w):
            x0, x1, wx = _half_pixel_source(ox, w)
            out[:, :, oy, ox] = ((1 - wy) * (1 - wx) * x[:, :, y0, x0]
                                 + (1 - wy) * wx * x[:, :, y0, x1]
                                 + wy * (1 - wx) * x[:, :, y1, x0]
                                 + wy * wx * x[:, :, y1, x1])
    return out


def bilinear_double_adjoint(g):
    """Adjoint of :func:`bilinear_double` in float64: each output's
    gradient is scattered onto its four source pixels with the forward's
    weights."""
    n, c, h2, w2 = g.shape
    h, w = h2 // 2, w2 // 2
    dx = np.zeros((n, c, h, w), dtype=np.float64)
    for oy in range(h2):
        y0, y1, wy = _half_pixel_source(oy, h)
        for ox in range(w2):
            x0, x1, wx = _half_pixel_source(ox, w)
            go = g[:, :, oy, ox].astype(np.float64)
            dx[:, :, y0, x0] += (1 - wy) * (1 - wx) * go
            dx[:, :, y0, x1] += (1 - wy) * wx * go
            dx[:, :, y1, x0] += wy * (1 - wx) * go
            dx[:, :, y1, x1] += wy * wx * go
    return dx


def batch_norm_train_loops(x, gamma, beta, eps):
    """Train-mode batch norm by scalar loops over each channel's ``n*h*w``
    values, in float64: ``(out, mean, var, grads)`` with the biased batch
    variance, where ``grads(gout)`` gives ``(dx, dgamma, dbeta)`` by the
    chain rule through the mean and the variance, step by step as in
    Ioffe & Szegedy (arXiv 1502.03167), Algorithm 1's backward."""
    n, c, h, w = x.shape
    m = n * h * w
    cells = list(np.ndindex(n, h, w))
    x = np.asarray(x, dtype=np.float64)
    out = np.empty(x.shape, dtype=np.float64)
    mean, var, istd = np.empty(c), np.empty(c), np.empty(c)
    for ch in range(c):
        total = 0.0
        for b, i, j in cells:
            total += x[b, ch, i, j]
        mean[ch] = total / m
        sq = 0.0
        for b, i, j in cells:
            sq += (x[b, ch, i, j] - mean[ch]) ** 2
        var[ch] = sq / m
        istd[ch] = 1.0 / np.sqrt(var[ch] + eps)
        for b, i, j in cells:
            xhat = (x[b, ch, i, j] - mean[ch]) * istd[ch]
            out[b, ch, i, j] = float(gamma[ch]) * xhat + float(beta[ch])

    def grads(gout):
        dx = np.empty(x.shape, dtype=np.float64)
        dgamma, dbeta = np.zeros(c), np.zeros(c)
        for ch in range(c):
            g = float(gamma[ch])
            dvar = dmean = 0.0
            for b, i, j in cells:
                go = float(gout[b, ch, i, j])
                centred = x[b, ch, i, j] - mean[ch]
                dbeta[ch] += go
                dgamma[ch] += go * centred * istd[ch]
                dvar += go * g * centred * -0.5 * istd[ch] ** 3
                dmean += -go * g * istd[ch]
            for b, i, j in cells:
                dmean += dvar * -2.0 * (x[b, ch, i, j] - mean[ch]) / m
            for b, i, j in cells:
                centred = x[b, ch, i, j] - mean[ch]
                dx[b, ch, i, j] = (float(gout[b, ch, i, j]) * g * istd[ch]
                                   + dvar * 2.0 * centred / m + dmean / m)
        return dx, dgamma, dbeta
    return out, mean, var, grads


def cbam_reference(x, w1, w2, sw):
    """Descriptor-level CBAM: materialize avg/max descriptors, run the shared
    perceptron on each, sum, sigmoid, gate; then channel-avg/max maps, 7x7
    conv (loop oracle), sigmoid, gate."""
    def sig(v):
        return 1.0 / (1.0 + np.exp(-v))

    n, c, h, w = x.shape
    avg_desc = x.mean(axis=(2, 3))                      # [n, c]
    max_desc = x.max(axis=(2, 3))
    m1 = w1.reshape(w1.shape[0], c)                     # [hidden, c]
    m2 = w2.reshape(c, w1.shape[0])                     # [c, hidden]
    att_c = sig((m2 @ np.maximum(m1 @ avg_desc.T, 0)
                 + m2 @ np.maximum(m1 @ max_desc.T, 0)).T)   # [n, c]
    gated = x * att_c[:, :, None, None]
    cat = np.stack([gated.mean(axis=1), gated.max(axis=1)], axis=1)  # [n,2,h,w]
    k = sw.shape[2]
    att_s = sig(conv2d_loops(cat, sw, stride=1, padding=k // 2))      # [n,1,h,w]
    return gated * att_s


def finite_diff(f, arr, h=1e-4, indices=None):
    """Central finite differences of scalar ``f()`` w.r.t. entries of ``arr``
    (mutated in place and restored). ``indices`` limits the sweep."""
    grad = np.zeros(arr.shape, dtype=np.float64)
    idx_iter = indices if indices is not None else list(np.ndindex(*arr.shape))
    for idx in idx_iter:
        old = arr[idx]
        arr[idx] = old + h
        fp = f()
        arr[idx] = old - h
        fm = f()
        arr[idx] = old
        grad[idx] = (fp - fm) / (2.0 * h)
    return grad


def grad_rel_err(analytic, numeric):
    """Max absolute difference normalized by the largest gradient magnitude;
    0/0 counts as agreement."""
    a = np.asarray(analytic, dtype=np.float64)
    b = np.asarray(numeric, dtype=np.float64)
    scale = max(np.abs(a).max(initial=0.0), np.abs(b).max(initial=0.0))
    if scale == 0.0:
        return 0.0
    return float(np.abs(a - b).max() / scale)


def confusion_loops(pred, target):
    """Per-pixel confusion counting."""
    tp = tn = fp = fn = 0
    for p, t in zip(pred.ravel(), target.ravel()):
        if p == 1 and t == 1:
            tp += 1
        elif p == 0 and t == 0:
            tn += 1
        elif p == 1 and t == 0:
            fp += 1
        else:
            fn += 1
    return tp, tn, fp, fn


def windows_bruteforce(n_frames, input_frames, offsets, selected):
    """Enumerate every anchor and keep windows whose targets are all selected."""
    out = []
    sel = set(selected)
    anchor = input_frames - 1
    while anchor + max(offsets) < n_frames:
        targets = [anchor + o for o in offsets]
        if all(t in sel for t in targets):
            out.append((list(range(anchor - input_frames + 1, anchor + 1)), targets))
        anchor += 1
    return out


def load_nwds_records(path):
    """Per-record NWDS reader: one ``read_t4`` array per record, a shape
    check once every record is read, then ``np.stack``. Records of one shape
    but different dtypes load; the shape error's text is the library's."""
    from sarunet.data import FrameSeries
    from sarunet.errors import DataError
    from sarunet.tensor import read_exact, read_magic, read_t4
    units = {0: "raw", 1: "binary", 2: "norm"}
    with open(path, "rb") as f:
        read_magic(f, b"NWDS", f"{path}: NWDS container")
        interval, code, count = struct.unpack("<IBQ", read_exact(f, 13, f"{path}: NWDS header"))
        if code not in units:
            raise DataError(f"{path}: unknown unit code {code}")
        records = [read_t4(f) for _ in range(count)]
    if not records:
        raise DataError(f"{path}: container holds no frames")
    shape = records[0].shape
    if shape[:2] != (1, 1) or any(r.shape != shape for r in records):
        raise DataError(f"{path}: frames must be [1,1,H,W] records of one shape and dtype")
    return FrameSeries(np.stack([r[0, 0] for r in records]), interval, units[code])


def shifted_sum_planes(planes, taps, h, w):
    """The depthwise 3x3 kernel as nine whole-plane passes: the correlation
    of zero-padded flat planes ``[n, c, (h+3)*(w+2)]`` (one column each side,
    one row on top, two below) with ``taps`` ``[c, 9]``. Tap ``(i, j)`` is
    the slice at offset ``i*(w+2)+j``; products are added in tap order, and
    the two padding columns are dropped at the end."""
    length = h * (w + 2)
    offsets = [i * (w + 2) + j for i in range(3) for j in range(3)]
    acc = planes[:, :, :length] * taps[None, :, 0, None]
    term = np.empty_like(acc)
    for t in range(1, 9):
        np.multiply(planes[:, :, offsets[t]:offsets[t] + length], taps[None, :, t, None],
                    out=term)
        acc += term
    return np.ascontiguousarray(acc.reshape(acc.shape[0], acc.shape[1], h, w + 2)[..., :w])


def depthwise_dw_padded(gout, x):
    """The depthwise 3x3 weight gradient ``[c, 9]`` over whole padded
    arrays: ``gout`` and ``x`` ``[n, c, h, w]`` each zero-padded and
    flattened as :func:`shifted_sum_planes` reads them, and tap ``(i, j)``'s
    entry one ``einsum`` of ``gout`` against ``x`` at offset ``i*(w+2)+j``,
    over the batch and the plane at once."""
    n, c, h, w = x.shape
    gp, xp = (np.pad(a, ((0, 0), (0, 0), (1, 2), (1, 1))).reshape(n, c, -1)
              for a in (gout, x))
    length = h * (w + 2)
    offsets = [i * (w + 2) + j for i in range(3) for j in range(3)]
    g = gp[:, :, offsets[4]:offsets[4] + length]
    dw = np.empty((c, 9), dtype=x.dtype)
    for t, off in enumerate(offsets):
        dw[:, t] = np.einsum("ncl,ncl->c", g, xp[:, :, off:off + length])
    return dw
