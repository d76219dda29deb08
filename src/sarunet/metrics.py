"""Evaluation: binarization at a rain-rate threshold, confusion counting,
ratio metrics, and the reports of one evaluated setup.

Precipitation frames hold accumulation per frame interval in hundredths of a
millimeter, so the rain rate of a pixel is ``value * 0.01 * (60 / interval)``
mm/h; normalized values are rescaled by the dataset scale first. The rate
threshold uses the >= convention. Binary cloud data is thresholded at 0.5
directly. Confusion counts accumulate over a whole split before ratios are
taken (micro-averaging); a metric with a zero denominator reports 0.0
instead of NaN. The report writers take the reports of one input/lead
setup, one per model, and write their rows in the order given.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .data import WindowDataset
from .errors import UsageError
from .model import Model, check_prediction, persistence_forward
from .tensor import Tensor4

__all__ = [
    "ConfusionCounts", "MetricReport", "EvalSetup", "SquaredErrorSum", "binarize",
    "confusion", "metrics", "evaluate_setup", "write_report_csv", "render_report_table",
    "REPORT_COLUMNS",
]

REPORT_COLUMNS = ("model", "mse", "precision", "recall", "accuracy", "f1")

_MM_PER_RAW_UNIT = 0.01


@dataclass
class ConfusionCounts:
    tp: int = 0
    tn: int = 0
    fp: int = 0
    fn: int = 0

    @classmethod
    def from_positives(cls, both: int, pred: int, target: int, size: int) -> "ConfusionCounts":
        """Counts over ``size`` pixels from those positive in both, in pred, in target."""
        return cls(tp=both, tn=size - pred - target + both, fp=pred - both, fn=target - both)

    @property
    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn


@dataclass
class MetricValues:
    precision: float
    recall: float
    accuracy: float
    f1: float


@dataclass
class LeadStats:
    lead_minutes: int
    mse: float
    values: MetricValues


@dataclass
class EvalSetup:
    """Descriptor of one evaluated configuration."""

    model_name: str
    input_minutes: int
    lead_minutes: tuple[int, ...]
    unit: str
    scale: float
    interval_minutes: int
    threshold_mm_per_h: float = 0.5


@dataclass
class MetricReport:
    setup: EvalSetup
    mse: float                       # normalized units
    values: MetricValues
    per_lead: list[LeadStats] = field(default_factory=list)


def binarize(arr: np.ndarray, unit: str, *, scale: float = 1.0,
             threshold_mm_per_h: float = 0.5, interval_minutes: int = 5) -> np.ndarray:
    """Map pixels to {0,1}. ``unit`` metadata is mandatory.

    raw/norm data: rain rate ``value * scale * 0.01 * (60/interval)`` mm/h,
    >= threshold; ``scale`` maps normalized values back to raw units (1.0 for
    values already in raw units). Binary data: >= 0.5 directly.
    """
    if unit not in ("raw", "binary", "norm"):
        raise UsageError(f"binarize needs unit metadata ('raw'|'binary'|'norm'), got {unit!r}")
    if unit == "binary":
        return (arr >= 0.5).astype(np.uint8)
    rate = arr * np.float64(scale) * _MM_PER_RAW_UNIT * (60.0 / interval_minutes)
    return (rate >= threshold_mm_per_h).astype(np.uint8)


def confusion(pred_bin: np.ndarray, target_bin: np.ndarray) -> ConfusionCounts:
    """Count TP/TN/FP/FN over binary arrays of equal shape; positive class 1."""
    p = np.asarray(pred_bin)
    t = np.asarray(target_bin)
    if p.shape != t.shape:
        raise UsageError(f"confusion needs equal shapes, got {p.shape} vs {t.shape}")
    pb, tb = p.astype(bool), t.astype(bool)
    for name, a, a_bool in (("pred", p, pb), ("target", t, tb)):
        if not np.array_equal(a, a_bool):            # a value other than 0 and 1
            raise UsageError(f"confusion needs binary {name} values in {{0,1}}")
    return ConfusionCounts.from_positives(
        *(int(np.count_nonzero(a)) for a in (pb & tb, pb, tb)), pb.size)


def metrics(counts: ConfusionCounts) -> MetricValues:
    def ratio(num, den):
        return num / den if den else 0.0

    precision = ratio(counts.tp, counts.tp + counts.fp)
    recall = ratio(counts.tp, counts.tp + counts.fn)
    accuracy = ratio(counts.tp + counts.tn, counts.total)
    f1 = ratio(2.0 * precision * recall, precision + recall)
    return MetricValues(precision, recall, accuracy, f1)


class SquaredErrorSum:
    """Mean squared error accumulated over batches: float64 squared errors
    summed per sample, the sums combined by exact summation, so the mean
    does not depend on how the samples were batched or ordered."""

    def __init__(self):
        self.parts: list[float] = []
        self.count = 0

    def add(self, pred: np.ndarray, target: np.ndarray) -> np.ndarray:
        """Add a batch of ``[n, ...]`` predictions and their targets; returns
        their float64 squared errors."""
        diff = pred.astype(np.float64) - target.astype(np.float64)
        sq = np.multiply(diff, diff, out=diff)
        self.add_squared(sq)
        return sq

    def add_squared(self, sq: np.ndarray) -> None:
        """Add a batch of ``[n, ...]`` float64 squared errors."""
        self.parts += sq.reshape(len(sq), -1).sum(axis=1).tolist()
        self.count += sq.size

    def mean(self) -> float:
        return math.fsum(self.parts) / self.count


PredictFn = Callable[[Tensor4], Tensor4]


def _model_predictor(model: Model) -> PredictFn:
    return lambda inputs: check_prediction(model.forward(inputs, train=False)[0])


def evaluate_setup(predictor, data: WindowDataset, setup: EvalSetup,
                   batch_size: int = 6) -> MetricReport:
    """Evaluate one model over one split.

    ``predictor`` is a Model or the string ``"persistence"``. MSE is averaged
    over all pixels and samples in normalized units (``SquaredErrorSum``);
    confusion counts accumulate over the whole split before ratios
    (micro-averaging). Per-lead-time rows are reported alongside the overall
    figures, whose confusion counts are the sums of the per-lead ones. Each
    batch is squared and binarized once for all leads.
    """
    if len(data) == 0:
        raise UsageError("evaluate_setup needs a non-empty split")
    if batch_size < 1:
        raise UsageError(f"batch size must be >= 1, got {batch_size}")
    n_leads = len(setup.lead_minutes)
    if predictor == "persistence":
        def fn(inputs):
            return persistence_forward(inputs, n_leads)
    elif isinstance(predictor, Model):
        fn = _model_predictor(predictor)
    else:
        raise UsageError(f"predictor must be a Model or 'persistence', got {predictor!r}")

    sse = SquaredErrorSum()
    lead_sse = [SquaredErrorSum() for _ in range(n_leads)]
    hits = np.zeros((3, n_leads), dtype=np.int64)    # positives per lead: both, pred, target
    bin_kw = dict(scale=setup.scale, threshold_mm_per_h=setup.threshold_mm_per_h,
                  interval_minutes=setup.interval_minutes)

    for lo in range(0, len(data), batch_size):
        batch = data.batch(range(lo, min(lo + batch_size, len(data))))
        pred = fn(batch.inputs)
        if pred.shape != batch.targets.shape:
            raise UsageError(f"predictor produced shape {pred.shape}, "
                             f"targets have {batch.targets.shape}")
        sq = sse.add(pred.data, batch.targets.data)
        for k in range(n_leads):
            lead_sse[k].add_squared(sq[:, k])
        pbin = binarize(pred.data, setup.unit, **bin_kw)
        tbin = binarize(batch.targets.data, setup.unit, **bin_kw)
        hits += [np.count_nonzero(a, axis=(0, 2, 3)) for a in (pbin & tbin, pbin, tbin)]

    pixels = len(data) * tbin[0, 0].size                # per lead
    lead_counts = [ConfusionCounts.from_positives(*h, pixels) for h in hits.T.tolist()]
    counts = ConfusionCounts.from_positives(*hits.sum(axis=1).tolist(), pixels * n_leads)
    per_lead = [LeadStats(setup.lead_minutes[k], lead_sse[k].mean(),
                          metrics(lead_counts[k]))
                for k in range(n_leads)]
    return MetricReport(setup=setup, mse=sse.mean(), values=metrics(counts),
                        per_lead=per_lead)


# -- report rendering -----------------------------------------------------------

def write_report_csv(path, reports: Sequence[MetricReport]) -> None:
    """One row per report of one setup, in the order given."""
    with open(path, "w", encoding="utf-8") as f:
        f.write(",".join(REPORT_COLUMNS) + "\n")
        for r in reports:
            v = r.values
            f.write(f"{r.setup.model_name},{r.mse!r},{v.precision!r},"
                    f"{v.recall!r},{v.accuracy!r},{v.f1!r}\n")


def write_per_lead_csv(path, reports: Sequence[MetricReport]) -> None:
    """Plot-ready per-lead-time averages of the reports of one setup, report
    by report in the order given."""
    with open(path, "w", encoding="utf-8") as f:
        f.write("model,lead_minutes,mse,precision,recall,accuracy,f1\n")
        for r in reports:
            for ls in r.per_lead:
                v = ls.values
                f.write(f"{r.setup.model_name},{ls.lead_minutes},{ls.mse!r},"
                        f"{v.precision!r},{v.recall!r},{v.accuracy!r},{v.f1!r}\n")


def render_report_table(reports: Sequence[MetricReport]) -> str:
    """Aligned text table (MSE, Precision, Recall, Accuracy, F1 score) of one
    or more reports of one setup, in the order given, with a ``*`` marker on
    the best value per column when there is more than one row; lowest MSE
    wins, highest wins elsewhere. A footer states the setup's normalization
    scale and the physical-unit MSE per model."""
    best = {
        "mse": min(r.mse for r in reports),
        "precision": max(r.values.precision for r in reports),
        "recall": max(r.values.recall for r in reports),
        "accuracy": max(r.values.accuracy for r in reports),
        "f1": max(r.values.f1 for r in reports),
    }

    def cell(value, name):
        mark = "*" if value == best[name] and len(reports) > 1 else " "
        return f"{value:.4f}{mark}"

    header = ["Input", "Lead", "Model", "MSE", "Precision", "Recall",
              "Accuracy", "F1 score"]
    setup = reports[0].setup
    lead_txt = "/".join(str(x) for x in setup.lead_minutes)
    lines = [[f"{setup.input_minutes} min", f"{lead_txt} min", r.setup.model_name,
              cell(r.mse, "mse"), cell(r.values.precision, "precision"),
              cell(r.values.recall, "recall"), cell(r.values.accuracy, "accuracy"),
              cell(r.values.f1, "f1")]
             for r in reports]
    widths = [max(len(header[i]), *(len(row[i]) for row in lines))
              for i in range(len(header))]
    out = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(header))]
    out.append("  ".join("-" * w for w in widths))
    for row in lines:
        out.append("  ".join(c.ljust(widths[i]) for i, c in enumerate(row)))
    scale = setup.scale
    out += ["", f"normalization scale s = {scale!r}; physical-unit MSE = normalized * s^2:"]
    out += [f"  {r.setup.model_name}: {r.mse * scale * scale!r}" for r in reports]
    return "\n".join(out) + "\n"
