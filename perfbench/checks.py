"""Output checks: properties every correct run must have, computed with the
benchmark's own readers and float64 arithmetic, never a stored copy of an
earlier output. Each check returns a list of problems; empty means it held.

The NWDS and T4v1 layouts read here are the ones documented in
``sarunet.data`` and ``sarunet.tensor``.
"""

from __future__ import annotations

import csv
import json
import math
import struct
from pathlib import Path

import numpy as np

_UNITS = {0: "raw", 1: "binary", 2: "norm"}
_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}
SPLIT_RATIOS = (0.7, 0.15, 0.15)
MM_PER_RAW_UNIT = 0.01
RESIDUAL_BLOCKS = [f"enc{d}" for d in range(5)] + [f"dec{d}" for d in (3, 2, 1, 0)]
EXPLAIN_MAPS = 32
ADDITIVITY_RTOL = 1e-5


def read_nwds(path) -> tuple[np.ndarray, int, str]:
    """(frames [T,H,W] float64, interval minutes, unit) of an NWDS file."""
    buf = Path(path).read_bytes()
    if buf[:4] != b"NWDS":
        raise ValueError(f"{path}: not an NWDS container")
    interval, code, count = struct.unpack_from("<IBQ", buf, 4)
    off = 17
    frames = []
    for _ in range(count):
        if buf[off:off + 4] != b"T4v1":
            raise ValueError(f"{path}: bad T4v1 record at byte {off}")
        n, c, h, w, dt = struct.unpack_from("<4QB", buf, off + 4)
        off += 37
        dtype = _DTYPES[dt]
        frames.append(np.frombuffer(buf, dtype, n * c * h * w, off).reshape(h, w))
        off += n * c * h * w * dtype.itemsize
    if off != len(buf):
        raise ValueError(f"{path}: {len(buf) - off} trailing bytes")
    return np.stack(frames).astype(np.float64), interval, _UNITS[code]


def _read_csv(path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.DictReader(f))


def _ratios(tp: int, tn: int, fp: int, fn: int) -> dict[str, float]:
    """Micro-averaged ratios; a zero denominator reads 0.0."""
    def ratio(num, den):
        return num / den if den else 0.0
    precision = ratio(tp, tp + fp)
    recall = ratio(tp, tp + fn)
    return {"precision": precision, "recall": recall,
            "accuracy": ratio(tp + tn, tp + tn + fp + fn),
            "f1": ratio(2.0 * precision * recall, precision + recall)}


def _binary(norm32: np.ndarray, unit: str, scale: float, interval: int,
            threshold: float) -> np.ndarray:
    """The documented evaluation rule on normalized float32 values: rain rate
    ``value * scale * 0.01 * (60 / interval)`` mm/h >= threshold; binary data
    >= 0.5."""
    if unit == "binary":
        return norm32 >= 0.5
    rate = norm32.astype(np.float64) * scale * MM_PER_RAW_UNIT * (60.0 / interval)
    return rate >= threshold


def gated_anchors(frames: np.ndarray, in_frames: int, offsets: tuple[int, ...],
                  fraction) -> list[int]:
    """Window anchors whose target frames all pass the rain gate (share of
    strictly positive pixels >= fraction; ``None`` keeps every anchor)."""
    t, h, w = frames.shape
    keep = np.ones(t, bool) if fraction is None else \
        (frames > 0).sum(axis=(1, 2)) / float(h * w) >= fraction
    return [a for a in range(in_frames - 1, t - max(offsets))
            if all(keep[a + o] for o in offsets)]


def split_anchors(anchors: list[int]) -> dict[str, list[int]]:
    """Chronological 70/15/15 split of the anchor list: train and val take
    floor(n * ratio) windows, test the rest."""
    n = len(anchors)
    n_train = int(n * SPLIT_RATIOS[0])
    n_val = int(n * SPLIT_RATIOS[1])
    return {"train": anchors[:n_train], "val": anchors[n_train:n_train + n_val],
            "test": anchors[n_train + n_val:]}


def check_persistence(eval_dir, data_path, in_frames: int, offsets, fraction,
                      threshold: float) -> list[str]:
    """Recompute the persistence row of ``report.csv`` from the container."""
    problems = []
    eval_dir = Path(eval_dir)
    manifest = json.loads((eval_dir / "manifest.json").read_text())
    scale = float(manifest["config"]["norm_scale"])
    frames, interval, unit = read_nwds(data_path)
    splits = split_anchors(gated_anchors(frames, in_frames, offsets, fraction))
    counted = {k: len(v) for k, v in splits.items()}
    if manifest["splits"]["windows"] != counted:
        problems.append(f"windows per split {manifest['splits']['windows']} "
                        f"!= recount {counted}")
    norm32 = (frames.astype(np.float32) / np.float32(scale)).astype(np.float32)
    sse = 0.0
    pixels = 0
    tp = tn = fp = fn = 0
    for a in splits["test"]:
        for o in offsets:
            pred, target = norm32[a], norm32[a + o]
            diff = pred.astype(np.float64) - target.astype(np.float64)
            sse += float((diff * diff).sum())
            pixels += diff.size
            p = _binary(pred, unit, scale, interval, threshold)
            t = _binary(target, unit, scale, interval, threshold)
            tp += int(np.count_nonzero(p & t))
            tn += int(np.count_nonzero(~p & ~t))
            fp += int(np.count_nonzero(p & ~t))
            fn += int(np.count_nonzero(~p & t))
    rows = {r["model"]: r for r in _read_csv(eval_dir / "report.csv")}
    row = rows.get("persistence")
    if row is None:
        return problems + ["report.csv has no persistence row"]
    if pixels == 0:
        return problems + ["test split holds no windows"]
    if not math.isclose(float(row["mse"]), sse / pixels, rel_tol=1e-9, abs_tol=1e-15):
        problems.append(f"persistence mse {row['mse']} != recomputed {sse / pixels!r}")
    for name, value in _ratios(tp, tn, fp, fn).items():
        if float(row[name]) != value:
            problems.append(f"persistence {name} {row[name]} != recomputed {value!r}")
    return problems


def check_model_row(eval_dir, model_name: str = "sar-unet") -> list[str]:
    """Ratios in [0,1], F1 the harmonic mean, overall MSE the mean of the
    per-lead MSEs (every lead has the same number of pixels)."""
    problems = []
    eval_dir = Path(eval_dir)
    rows = {r["model"]: r for r in _read_csv(eval_dir / "report.csv")}
    row = rows.get(model_name)
    if row is None:
        return [f"report.csv has no {model_name} row"]
    v = {k: float(row[k]) for k in ("mse", "precision", "recall", "accuracy", "f1")}
    for k in ("precision", "recall", "accuracy", "f1"):
        if not 0.0 <= v[k] <= 1.0:
            problems.append(f"{model_name} {k} {v[k]} outside [0,1]")
    p, r = v["precision"], v["recall"]
    f1 = 2.0 * p * r / (p + r) if p + r > 0 else 0.0
    if not math.isclose(v["f1"], f1, rel_tol=1e-12, abs_tol=1e-15):
        problems.append(f"{model_name} f1 {v['f1']} != harmonic mean {f1!r}")
    leads = [float(x["mse"]) for x in _read_csv(eval_dir / "per_lead.csv")
             if x["model"] == model_name]
    if not leads or not math.isfinite(v["mse"]):
        problems.append(f"{model_name} mse {v['mse']} with {len(leads)} lead rows")
    elif not math.isclose(v["mse"], sum(leads) / len(leads), rel_tol=1e-9):
        problems.append(f"{model_name} mse {v['mse']} != mean of per-lead "
                        f"{sum(leads) / len(leads)!r}")
    return problems


def check_train(out_dir) -> list[str]:
    """Finite losses; with two or more epochs, the last train MSE is below
    the first."""
    hist = _read_csv(Path(out_dir) / "history.csv")
    if not hist:
        return ["history.csv is empty"]
    problems = []
    for row in hist:
        for k in ("train_mse", "val_mse"):
            if not math.isfinite(float(row[k])):
                problems.append(f"epoch {row['epoch']} {k} = {row[k]}")
    first, last = float(hist[0]["train_mse"]), float(hist[-1]["train_mse"])
    if len(hist) >= 2 and not last < first:
        problems.append(f"train_mse did not fall: first {first}, last {last}")
    return problems


def check_predict(out_path, leads: int, shape: tuple[int, int]) -> list[str]:
    """One frame per lead, the input's shape, finite and >= 0."""
    frames, _, _ = read_nwds(out_path)
    problems = []
    if frames.shape != (leads,) + tuple(shape):
        problems.append(f"prediction shape {frames.shape} != {(leads,) + tuple(shape)}")
    if not np.isfinite(frames).all():
        problems.append("prediction holds non-finite values")
    elif frames.min() < 0:
        problems.append(f"prediction minimum {frames.min()} < 0")
    return problems


def check_explain(out_dir, shape: tuple[int, int]) -> list[str]:
    """32 maps in [0,1] of the input's shape; some ``raw_max`` > 0; and for
    each residual block, ``block*raw_max <= dsc_path*raw_max +
    shortcut*raw_max`` pointwise within float32 rounding, because the block
    is the sum of its two paths and both receive the block's gradient."""
    out_dir = Path(out_dir)
    rows = _read_csv(out_dir / "index.csv")
    problems = []
    if len(rows) != EXPLAIN_MAPS:
        problems.append(f"{len(rows)} maps in index.csv, expected {EXPLAIN_MAPS}")
    raw = {}
    for row in rows:
        frames, _, _ = read_nwds(out_dir / row["file"])
        if frames.shape != (1,) + tuple(shape):
            problems.append(f"{row['target']} map shape {frames.shape}")
            continue
        m = frames[0]
        if not (np.isfinite(m).all() and m.min() >= 0.0 and m.max() <= 1.0):
            problems.append(f"{row['target']} map outside [0,1]")
        raw[row["target"]] = m * float(row["raw_max"])
    if not any(float(r["raw_max"]) > 0 for r in rows):
        problems.append("every raw_max is 0: the backward pass did not run")
    for blk in RESIDUAL_BLOCKS:
        names = [f"{blk}.block", f"{blk}.block.dsc_path", f"{blk}.block.shortcut"]
        if not all(n in raw for n in names):
            problems.append(f"{blk}: block or path maps missing")
            continue
        whole, dsc, short = (raw[n] for n in names)
        excess = float((whole - dsc - short).max())
        if excess > ADDITIVITY_RTOL * float(whole.max()):
            problems.append(f"{blk}: block map exceeds the sum of its paths by "
                            f"{excess:.3g} (block max {float(whole.max()):.3g})")
    return problems
