"""Gradient-weighted class-activation heatmaps for image-to-image nowcasts.

The regression output is binarized with the evaluation rule, turning the
nowcast into a rain/no-rain segmentation; the class score is the sum of raw
prediction values over the predicted-rain mask (the mask is a constant with
respect to differentiation — thresholding is non-differentiable, so the
gradient flows only through the raw values). Per-channel importance weights
are the spatial means of the score gradient at the target activation; the
weighted activation combination is rectified, resized to input resolution by
repeated bilinear doubling, and normalized by its maximum (kept as
``raw_max`` so intensity stays comparable across layers; an all-zero map
stays all-zero rather than dividing 0/0).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ops
from .data import FrameSeries, save_nwds
from .errors import UsageError
from .metrics import binarize
from .model import Model, check_prediction, gradient_layer
from .tensor import Tape, Tensor4

__all__ = [
    "Heatmap", "rain_score", "explain_suite", "suite_grid",
    "color_table", "write_ppm", "save_heatmap_nwds",
]

# figure-grid columns
_ENCODER_COLUMNS = ("block", "block.dsc_path", "block.shortcut", "cbam")
_DECODER_COLUMNS = ("block", "block.dsc_path", "block.shortcut")


@dataclass
class Heatmap:
    values: Tensor4              # [1,1,H,W] in [0,1]
    layer: str
    raw_max: float


def rain_score(pred: Tensor4, unit: str, *, scale: float = 1.0,
               interval_minutes: int = 5,
               threshold_mm_per_h: float = 0.5) -> tuple[Tensor4, np.ndarray]:
    """Class score for a single-sample prediction: the sum of raw prediction
    values over the pixels predicted as rain/cloud after binarization.

    Returns ``(score, mask)``; an empty mask yields an exact zero score (the
    downstream heatmap is all zeros).
    """
    if pred.shape[0] != 1:
        raise UsageError(f"rain_score expects a single-sample prediction, got {pred.shape}")
    mask = binarize(pred.data, unit, scale=scale, interval_minutes=interval_minutes,
                    threshold_mm_per_h=threshold_mm_per_h)
    mask_t = Tensor4(mask.astype(pred.data.dtype))
    return ops.sum_all(ops.mul(pred, mask_t)), mask


def _resize_to(arr: np.ndarray, height: int, width: int) -> np.ndarray:
    """Repeated bilinear doubling of a [h,w] map up to [height,width]."""
    cur = Tensor4(arr[None, None].astype(arr.dtype))
    while cur.shape[2] < height:
        if height % cur.shape[2] or width % cur.shape[3]:
            raise UsageError(f"cannot resize {cur.shape[2]}x{cur.shape[3]} map to "
                             f"{height}x{width} by doubling")
        cur = ops.upsample_bilinear2(cur)
    if cur.shape[2] != height or cur.shape[3] != width:
        raise UsageError(f"resize mismatch: got {cur.shape[2]}x{cur.shape[3]}, "
                         f"wanted {height}x{width}")
    return cur.data[0, 0]


def _combine(activation: np.ndarray, grad: np.ndarray,
             height: int, width: int, layer: str) -> Heatmap:
    """alpha = spatial mean of the gradient; map = relu(sum_k alpha_k A_k)."""
    alpha = grad.mean(axis=(2, 3))                       # [1, k]
    combined = (alpha[0][:, None, None] * activation[0]).sum(axis=0)
    rectified = np.maximum(combined, 0.0)
    resized = _resize_to(rectified, height, width)
    raw_max = float(resized.max())
    values = resized / raw_max if raw_max > 0.0 else np.zeros_like(resized)
    return Heatmap(values=Tensor4(values[None, None].astype(np.float32)),
                   layer=layer, raw_max=raw_max)


def _zero_map(height: int, width: int, layer: str) -> Heatmap:
    return Heatmap(values=Tensor4(np.zeros((1, 1, height, width), np.float32)),
                   layer=layer, raw_max=0.0)


def suite_grid(model: Model) -> dict[str, tuple[str, int, int]]:
    """Figure layout of the 32-map suite, in grid order: layer name ->
    (section, row, col). Encoder rows are depths 0..4 with columns (block,
    dsc_path, shortcut, cbam); decoder rows start at the bottom level
    (depth 3) and have columns (block, dsc_path, shortcut)."""
    if model.config.variant != "sar":
        raise UsageError("the explanation suite needs the sar variant "
                         "(sub-path targets require residual blocks)")
    grid = {}
    for d in range(5):
        for col, suffix in enumerate(_ENCODER_COLUMNS):
            grid[f"enc{d}.{suffix}"] = ("encoder", d, col)
    for row, d in enumerate((3, 2, 1, 0)):
        for col, suffix in enumerate(_DECODER_COLUMNS):
            grid[f"dec{d}.{suffix}"] = ("decoder", row, col)
    return grid


def explain_suite(model: Model, x: Tensor4, layers: list[str], *,
                  unit: str, scale: float = 1.0, interval_minutes: int = 5,
                  threshold_mm_per_h: float = 0.5) -> list[Heatmap]:
    """Heatmaps of ``layers`` (names from ``model.trace_names()``, in the
    order given; ``list(suite_grid(model))`` is the 32-map suite), each a
    layer's contribution to the predicted-rain score, from one
    forward/backward pass: the score does not depend on the layer, so the
    traced activations share it. A name that ``model.trace_names()`` lacks
    or that comes twice raises ``UsageError``.

    The pass runs over frozen parameters: every ``requires_grad`` flag is
    off for the length of the call and restored on return, also when the
    call raises. The traced activations are the gradient roots, so the tape
    holds only the ops downstream of the first of them, and no parameter's
    ``grad`` buffer is written. A prediction that is not finite raises
    ``NumericError`` (see :func:`~sarunet.model.check_prediction`).

    A residual level's ``block``, ``block.dsc_path`` and ``block.shortcut``
    share one gradient (see :func:`~sarunet.model.gradient_layer`): one
    buffer on the block output, retained when any of the three is
    requested, from which each of their maps reads its alpha."""
    repeated = sorted({n for n in layers if layers.count(n) > 1})
    if repeated:
        raise UsageError(f"explain target(s) {repeated} given more than once")
    if x.shape[0] != 1:
        raise UsageError("Grad-CAM explains one sample at a time")
    if not layers:
        return []
    height, width = x.shape[2], x.shape[3]
    params = model.parameters()
    flags = [p.requires_grad for p in params]
    for p in params:
        p.requires_grad = False
    try:
        with Tape() as tape:
            pred, trace = model.forward(x, train=False, trace_request=layers)
            score, mask = rain_score(check_prediction(pred), unit, scale=scale,
                                     interval_minutes=interval_minutes,
                                     threshold_mm_per_h=threshold_mm_per_h)
        if mask.sum() == 0:
            return [_zero_map(height, width, n) for n in layers]
        tape.backward(score)
    finally:
        for p, flag in zip(params, flags):
            p.requires_grad = flag
    return [_combine(trace[n].data, trace[gradient_layer(n)].grad, height, width, n)
            for n in layers]


# -- rendering -------------------------------------------------------------------
#
# 256-entry RGB table: linear interpolation through the anchor colors
#   0.000 (0,0,128)  0.125 (0,0,255)  0.375 (0,255,255)
#   0.625 (255,255,0)  0.875 (255,0,0)  1.000 (128,0,0)
# Pixel index = round(value * 255). Bit-exact given the table.

_ANCHORS = [(0.000, (0, 0, 128)), (0.125, (0, 0, 255)), (0.375, (0, 255, 255)),
            (0.625, (255, 255, 0)), (0.875, (255, 0, 0)), (1.000, (128, 0, 0))]


def color_table() -> np.ndarray:
    """[256,3] uint8 colormap."""
    pos = np.array([p for p, _ in _ANCHORS])
    cols = np.array([c for _, c in _ANCHORS], dtype=np.float64)
    xs = np.linspace(0.0, 1.0, 256)
    table = np.stack([np.interp(xs, pos, cols[:, k]) for k in range(3)], axis=1)
    return np.rint(table).astype(np.uint8)


_COLOR_TABLE = color_table()


def write_ppm(path, heatmap: Heatmap) -> None:
    """Binary P6 image of a heatmap under the documented color table."""
    vals = heatmap.values.data[0, 0]
    idx = np.rint(np.clip(vals, 0.0, 1.0) * 255).astype(np.intp)
    rgb = np.take(_COLOR_TABLE, idx, axis=0)
    h, w = vals.shape
    with open(path, "wb") as f:
        f.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        f.write(rgb.tobytes())


def save_heatmap_nwds(path, heatmap: Heatmap) -> None:
    """Single-frame NWDS container (unit 'norm', interval 0)."""
    series = FrameSeries(heatmap.values.data[0], interval_minutes=0, unit="norm")
    save_nwds(path, series)
