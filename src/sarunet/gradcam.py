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
from typing import Optional

import numpy as np

from . import ops
from .data import FrameSeries, save_nwds
from .errors import UsageError
from .metrics import binarize
from .model import Model
from .tensor import Tape, Tensor4

__all__ = [
    "ExplainTarget", "Heatmap", "rain_score", "grad_cam", "explain_suite",
    "suite_targets", "color_table", "write_ppm", "save_heatmap_nwds",
]

_EXPLAINABLE_SUFFIXES = ("block", "block.dsc_path", "block.shortcut", "cbam")


@dataclass(frozen=True)
class ExplainTarget:
    """A layer to explain plus the positive class of the score."""

    layer: str
    klass: str = "rain"          # rain (raw precipitation units) | cloud (binary)


@dataclass
class Heatmap:
    values: Tensor4              # [1,1,H,W] in [0,1]
    target: ExplainTarget
    raw_max: float


def _check_targets(model: Model, targets: list[ExplainTarget]) -> None:
    valid = {n for n in model.trace_names()
             if any(n.endswith(s) for s in _EXPLAINABLE_SUFFIXES)}
    unknown = [t.layer for t in targets if t.layer not in valid]
    if unknown:
        raise UsageError(f"unknown explain target(s) {unknown}; "
                         f"valid targets: {sorted(valid)}")


def rain_score(pred: Tensor4, unit: str, *, scale: float = 1.0,
               interval_minutes: int = 5, threshold_mm_per_h: float = 0.5,
               score_mode: str = "masked_sum",
               score_scale: float = 1.0) -> tuple[Tensor4, np.ndarray]:
    """Class score for a single-sample prediction: the sum of raw prediction
    values over the pixels predicted as rain/cloud after binarization.

    Returns ``(score, mask)``; an empty mask yields an exact zero score (the
    downstream heatmap is all zeros). ``masked_mean`` divides by the mask
    cardinality instead.
    """
    if pred.shape[0] != 1:
        raise UsageError(f"rain_score expects a single-sample prediction, got {pred.shape}")
    if score_mode not in ("masked_sum", "masked_mean"):
        raise UsageError(f"unknown score_mode {score_mode!r}")
    mask = binarize(pred.data, unit, scale=scale, interval_minutes=interval_minutes,
                    threshold_mm_per_h=threshold_mm_per_h)
    mask_t = Tensor4(mask.astype(pred.data.dtype), _checked=True)
    score = ops.sum_all(ops.mul(pred, mask_t))
    n_on = int(mask.sum())
    factor = score_scale if score_mode == "masked_sum" else \
        (score_scale / n_on if n_on else score_scale)
    if factor != 1.0:
        score = ops.smul(score, factor)
    return score, mask


def _resize_to(arr: np.ndarray, height: int, width: int) -> np.ndarray:
    """Repeated bilinear doubling of a [h,w] map up to [height,width]."""
    cur = Tensor4(arr[None, None].astype(arr.dtype), _checked=True)
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
             height: int, width: int, target: ExplainTarget) -> Heatmap:
    """alpha = spatial mean of the gradient; map = relu(sum_k alpha_k A_k)."""
    alpha = grad.mean(axis=(2, 3))                       # [1, k]
    combined = (alpha[0][:, None, None] * activation[0]).sum(axis=0)
    rectified = np.maximum(combined, 0.0)
    resized = _resize_to(rectified, height, width)
    raw_max = float(resized.max())
    values = resized / raw_max if raw_max > 0.0 else np.zeros_like(resized)
    return Heatmap(values=Tensor4(values[None, None].astype(np.float32), _checked=True),
                   target=target, raw_max=raw_max)


def _zero_map(height: int, width: int, target: ExplainTarget) -> Heatmap:
    return Heatmap(values=Tensor4(np.zeros((1, 1, height, width), np.float32),
                                  _checked=True),
                   target=target, raw_max=0.0)


def _score_kwargs(target_klass: str, unit: Optional[str], scale: float,
                  interval_minutes: int, threshold_mm_per_h: float) -> dict:
    if unit is None:
        unit = "binary" if target_klass == "cloud" else "raw"
    return dict(unit=unit, scale=scale, interval_minutes=interval_minutes,
                threshold_mm_per_h=threshold_mm_per_h)


def _sweep(model: Model, x: Tensor4, targets: list[ExplainTarget], *,
           score_mode: str = "masked_sum", score_scale: float = 1.0,
           **score_kw) -> list[Heatmap]:
    """Heatmaps of all ``targets`` from one forward/backward pass: the score
    does not depend on the target, so the traced activations share it."""
    _check_targets(model, targets)
    if x.shape[0] != 1:
        raise UsageError("Grad-CAM explains one sample at a time")
    height, width = x.shape[2], x.shape[3]
    model.zero_grad()
    with Tape() as tape:
        pred, trace = model.forward(x, train=False,
                                    trace_request=[t.layer for t in targets])
        score, mask = rain_score(pred, score_mode=score_mode,
                                 score_scale=score_scale, **score_kw)
    if mask.sum() == 0:
        return [_zero_map(height, width, t) for t in targets]
    tape.backward(score)
    out = []
    for t in targets:
        act = trace.get(t.layer)
        out.append(_combine(act.data, act.grad, height, width, t))
    return out


def grad_cam(model: Model, x: Tensor4, target: ExplainTarget, *,
             unit: Optional[str] = None, scale: float = 1.0,
             interval_minutes: int = 5, threshold_mm_per_h: float = 0.5,
             score_mode: str = "masked_sum", score_scale: float = 1.0) -> Heatmap:
    """Heatmap of one layer's contribution to the predicted-rain score."""
    kw = _score_kwargs(target.klass, unit, scale, interval_minutes, threshold_mm_per_h)
    return _sweep(model, x, [target], score_mode=score_mode,
                  score_scale=score_scale, **kw)[0]


def suite_targets(model: Model) -> list[ExplainTarget]:
    """Fixed figure-grid order: encoder depths 0..4 as (block, dsc_path,
    shortcut, cbam), then decoder depths 3..0 as (block, dsc_path, shortcut)."""
    if model.config.variant != "sar":
        raise UsageError("the explanation suite needs the sar variant "
                         "(sub-path targets require residual blocks)")
    names = []
    for d in range(5):
        names += [f"enc{d}.block", f"enc{d}.block.dsc_path",
                  f"enc{d}.block.shortcut", f"enc{d}.cbam"]
    for d in (3, 2, 1, 0):
        names += [f"dec{d}.block", f"dec{d}.block.dsc_path",
                  f"dec{d}.block.shortcut"]
    return [ExplainTarget(n) for n in names]


def explain_suite(model: Model, x: Tensor4, layers: Optional[list[str]] = None, *,
                  unit: Optional[str] = None, scale: float = 1.0,
                  interval_minutes: int = 5, threshold_mm_per_h: float = 0.5,
                  klass: str = "rain") -> list[Heatmap]:
    """Heatmaps of ``layers`` (default: the 32-map suite in grid order) from
    one forward/backward pass."""
    if layers is None:
        layers = [t.layer for t in suite_targets(model)]
    kw = _score_kwargs(klass, unit, scale, interval_minutes, threshold_mm_per_h)
    return _sweep(model, x, [ExplainTarget(n, klass) for n in layers], **kw)


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


def write_ppm(path, heatmap: Heatmap) -> None:
    """Binary P6 image of a heatmap under the documented color table."""
    table = color_table()
    vals = heatmap.values.data[0, 0]
    idx = np.rint(np.clip(vals, 0.0, 1.0) * 255).astype(np.intp)
    rgb = table[idx]
    h, w = vals.shape
    with open(path, "wb") as f:
        f.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        f.write(rgb.tobytes())


def save_heatmap_nwds(path, heatmap: Heatmap) -> None:
    """Single-frame NWDS container (unit 'norm', interval 0)."""
    series = FrameSeries(heatmap.values.data[0], interval_minutes=0, unit="norm")
    save_nwds(path, series)
