"""Dataset container, frame selection, window assembly, normalization, and a
deterministic synthetic generator of advecting rain blobs.

Frame series are stored as a single ``[T, H, W]`` float32 array with interval
and unit metadata. Units: ``raw`` (accumulation per frame interval in
hundredths of a millimeter), ``binary`` (cloud masks in {0, 1}), ``norm``
(dimensionless, used for exported heatmaps).

The on-disk container ("NWDS") is bit-exact: magic ``NWDS``, u32
interval_minutes, u8 unit code (0=raw, 1=binary, 2=norm), u64 frame count,
then one T4v1 record of shape ``[1,1,H,W]`` per frame. Little-endian
throughout. All records share one T4v1 header, so one shape and one dtype;
bytes after the last record are ignored.
"""

from __future__ import annotations

import io
import struct
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import DataError, DimensionError, UsageError
from .tensor import Tensor4, read_exact, read_magic, read_t4, write_t4

__all__ = [
    "FrameSeries", "WindowSpec", "SampleBatch", "Window", "WindowDataset",
    "select_rainy", "make_windows", "normalization_scale", "normalize_array",
    "SPLIT_RATIOS", "split_bounds", "synth_generate", "save_nwds", "load_nwds",
]

_UNIT_CODES = {"raw": 0, "binary": 1, "norm": 2}
_CODE_UNITS = {v: k for k, v in _UNIT_CODES.items()}

# background cutoff for the synthetic generator: keeps radar-like true zeros
_SYNTH_FLOOR = 0.01
# mean blob peak of the synthetic generator, in raw units (hundredths of a mm
# per frame); each blob draws its peak from 0.5x to 1.5x of it
_SYNTH_AMPLITUDE = 120.0
# the largest float32: a synthetic frame with a pixel past it does not cast
_F32_MAX = float(np.finfo(np.float32).max)


@dataclass
class FrameSeries:
    """Ordered single-channel frames with physical-unit metadata."""

    frames: np.ndarray                  # [T, H, W]
    interval_minutes: int
    unit: str

    def __post_init__(self):
        self.frames = np.asarray(self.frames, dtype=np.float32)
        if self.frames.ndim != 3:
            raise DimensionError(f"frames must be [T,H,W], got shape {self.frames.shape}")
        if 0 in self.frames.shape[1:]:
            raise DimensionError(f"frames need at least one pixel, got shape {self.frames.shape}")
        if self.unit not in _UNIT_CODES:
            raise UsageError(f"unit must be one of {sorted(_UNIT_CODES)}, got {self.unit!r}")
        f = self.frames
        if f.size and not f.min() >= 0:
            raise DataError("frame values must be >= 0 (NaN is rejected)")
        # one boolean array alive at a time; NaN already failed the test above
        if self.unit == "binary":
            if np.count_nonzero(f == 0) + np.count_nonzero(f == 1) != f.size:
                raise DataError("binary series may contain only {0, 1}")
        elif f.size and f.max() == np.inf:
            raise DataError("frame values must be finite (+inf is rejected)")

    def __len__(self) -> int:
        return self.frames.shape[0]

    @property
    def frame_shape(self) -> tuple[int, int]:
        return self.frames.shape[1], self.frames.shape[2]


@dataclass
class WindowSpec:
    """Input length and target offsets, both in frames."""

    input_frames: int
    target_offsets: tuple[int, ...]

    def __post_init__(self):
        self.target_offsets = tuple(int(o) for o in self.target_offsets)
        if self.input_frames < 1:
            raise UsageError("input_frames must be >= 1")
        if not self.target_offsets or min(self.target_offsets) < 1:
            raise UsageError("target offsets must be positive")


Window = tuple[tuple[int, ...], tuple[int, ...]]


@dataclass
class SampleBatch:
    """Normalized input/target stacks sharing one scale factor."""

    inputs: Tensor4                     # [n, input_frames, H, W]
    targets: Tensor4                    # [n, len(offsets), H, W]


def select_rainy(series: FrameSeries, fraction: float = 0.5) -> np.ndarray:
    """Indices of frames where the share of strictly positive pixels is at
    least ``fraction`` (pixel comparison strict, fraction comparison >=)."""
    if not 0.0 <= fraction <= 1.0:
        raise UsageError(f"fraction must lie in [0,1], got {fraction}")
    h, w = series.frame_shape
    share = (series.frames > 0).sum(axis=(1, 2)) / float(h * w)
    return np.flatnonzero(share >= fraction)


def make_windows(series: FrameSeries, spec: WindowSpec,
                 selected: Optional[Iterable[int]] = None) -> list[Window]:
    """Enumerate (input indices, target indices) windows, one per anchor.

    A window anchored at frame ``i`` consumes inputs ``i-input_frames+1 .. i``
    and targets ``i + offset`` for each offset. A window is kept iff all its
    target frames are selected; input frames are not gated.
    ``selected=None`` keeps everything.
    """
    t = len(series)
    sel = None if selected is None else frozenset(int(i) for i in selected)
    max_off = max(spec.target_offsets)
    out: list[Window] = []
    for anchor in range(spec.input_frames - 1, t - max_off):
        targets = tuple(anchor + o for o in spec.target_offsets)
        if sel is not None and not all(ti in sel for ti in targets):
            continue
        inputs = tuple(range(anchor - spec.input_frames + 1, anchor + 1))
        out.append((inputs, targets))
    return out


def normalization_scale(train_series: FrameSeries) -> float:
    """Scale factor from the training split only: max raw value (1.0 for
    binary data)."""
    if train_series.unit == "binary":
        return 1.0
    if len(train_series) == 0:
        raise DataError("cannot derive a normalization scale from an empty split")
    s = float(train_series.frames.max())
    if s <= 0.0:
        raise DataError("training split max is zero; data is degenerate")
    return s


def normalize_array(arr: np.ndarray, scale: float) -> np.ndarray:
    return (arr / np.float32(scale)).astype(np.float32, copy=False)


SPLIT_RATIOS = (0.7, 0.15, 0.15)


def split_bounds(n: int) -> list[tuple[int, int]]:
    """Half-open train/val/test index ranges over ``n`` time-ordered items:
    train and val take floor(n * ratio) items of ``SPLIT_RATIOS``, test takes
    the rest. A part may come out empty; callers decide whether that is an
    error."""
    n_train = int(n * SPLIT_RATIOS[0])
    n_val = int(n * SPLIT_RATIOS[1])
    return [(0, n_train), (n_train, n_train + n_val), (n_train + n_val, n)]


class WindowDataset:
    """Windows over a series, materialized as normalized batches on demand."""

    def __init__(self, series: FrameSeries, windows: Sequence[Window], scale: float):
        if scale <= 0:
            raise DataError(f"normalization scale must be positive, got {scale}")
        self.series = series
        self.windows = list(windows)
        self.scale = float(scale)

    def __len__(self) -> int:
        return len(self.windows)

    def batch(self, idxs: Sequence[int]) -> SampleBatch:
        frames = self.series.frames
        xs = np.stack([frames[list(self.windows[i][0])] for i in idxs])
        ys = np.stack([frames[list(self.windows[i][1])] for i in idxs])
        return SampleBatch(
            inputs=Tensor4(normalize_array(xs, self.scale)),
            targets=Tensor4(normalize_array(ys, self.scale)))


# -- synthetic generator -------------------------------------------------------

def _growth_overflow(growth: float, n_frames: int, t: int) -> UsageError:
    return UsageError(f"growth {growth} over {n_frames} frames takes frame {t} past "
                      f"float32 ({_F32_MAX:.4g}); lower --growth or --frames")


def synth_generate(seed: int, n_frames: int, height: int, width: int,
                   n_blobs: int = 3, wind: tuple[float, float] = (1.0, 0.0),
                   growth: float = 1.0, jitter: float = 0.0,
                   interval_minutes: int = 5) -> FrameSeries:
    """Sum of Gaussian blobs advected by ``wind`` (px/frame, toroidal wrap)
    with multiplicative intensity drift ``growth`` per frame.

    Per-blob position, size and amplitude are jittered from the seeded
    generator; ``jitter > 0`` additionally perturbs each blob's per-frame
    displacement (and changes the draw sequence). Values below a fixed floor
    are clamped to zero so the background holds true zeros. Same seed, same
    arguments: bitwise identical output. ``growth`` must be finite and > 0,
    ``jitter`` finite and >= 0, and a frame's pixels must stay within
    float32 (``UsageError`` otherwise, raised before any value overflows).
    """
    if height < 32 or width < 32:
        raise UsageError(f"synthetic frames must be at least 32x32, got {height}x{width}")
    if n_frames < 1 or n_blobs < 1:
        raise UsageError("n_frames and n_blobs must be >= 1")
    if interval_minutes < 1:
        raise UsageError(f"the frame interval must be >= 1 minute, got {interval_minutes}")
    if not (np.isfinite(growth) and growth > 0.0):
        raise UsageError(f"growth must be a finite number > 0, got {growth}")
    if not (np.isfinite(jitter) and jitter >= 0.0):
        raise UsageError(f"jitter must be a finite number >= 0, got {jitter}")
    rng = np.random.default_rng(seed)
    cx = rng.uniform(0.15 * width, 0.85 * width, size=n_blobs)
    cy = rng.uniform(0.15 * height, 0.85 * height, size=n_blobs)
    sigma = rng.uniform(min(height, width) / 16.0, min(height, width) / 9.0, size=n_blobs)
    amp = rng.uniform(0.5, 1.5, size=n_blobs) * _SYNTH_AMPLITUDE
    if jitter > 0.0:
        steps = rng.normal(0.0, jitter, size=(n_frames, n_blobs, 2))

    ys = np.arange(height, dtype=np.float64)[:, None]
    xs = np.arange(width, dtype=np.float64)[None, :]
    frames = np.empty((n_frames, height, width), dtype=np.float32)
    px, py = cx.copy(), cy.copy()
    gain = 1.0
    amp_total = float(amp.sum())
    for t in range(n_frames):
        if t > 0:
            px = px + wind[0]
            py = py + wind[1]
            if jitter > 0.0:
                px = px + steps[t, :, 0]
                py = py + steps[t, :, 1]
            px %= width
            py %= height
            gain *= growth
        # amp_total * gain bounds every pixel; past 1e300 it is far past
        # float32, and the float64 sum itself could overflow
        if amp_total * gain > 1e300:
            raise _growth_overflow(growth, n_frames, t)
        acc = np.zeros((height, width), dtype=np.float64)
        for b in range(n_blobs):
            r2 = (xs - px[b]) ** 2 + (ys - py[b]) ** 2
            acc += amp[b] * gain * np.exp(-r2 / (2.0 * sigma[b] ** 2))
        if acc.max() > _F32_MAX:
            raise _growth_overflow(growth, n_frames, t)
        frame = acc.astype(np.float32)
        frame[frame < _SYNTH_FLOOR] = 0.0
        frames[t] = frame
    return FrameSeries(frames, interval_minutes, "raw")


# -- NWDS container --------------------------------------------------------------

_NWDS_MAGIC = b"NWDS"
_ONE_SHAPE = "frames must be [1,1,H,W] records of one shape and dtype"


def save_nwds(path, series: FrameSeries) -> None:
    with open(path, "wb") as f:
        f.write(_NWDS_MAGIC)
        f.write(struct.pack("<IBQ", series.interval_minutes,
                            _UNIT_CODES[series.unit], len(series)))
        for i in range(len(series)):
            write_t4(f, series.frames[i][None, None])


def load_nwds(path) -> FrameSeries:
    """Read an NWDS file into one frame array, allocated once.

    Another format raises ``UsageError``; a truncated or corrupt container
    raises ``DataError``. The first record sets the header every record must
    repeat (shape ``[1,1,H,W]`` and dtype). One loop reads the records into
    an array of the frame count or of as many records as the file holds,
    whichever is fewer, so a count past the end of the file allocates
    nothing larger than the file. The first faulty record, or the first
    past the end, raises its own ``read_t4`` error (or, if it parses, the
    one-shape error). Bytes after the last record are ignored."""
    with open(path, "rb") as f:
        read_magic(f, _NWDS_MAGIC, f"{path}: NWDS container")
        interval, code, count = struct.unpack("<IBQ", read_exact(f, 13, f"{path}: NWDS header"))
        if code not in _CODE_UNITS:
            raise DataError(f"{path}: unknown unit code {code}")
        if count == 0:
            raise DataError(f"{path}: container holds no frames")
        start = f.tell()
        first = read_t4(f)
        if first.shape[:2] != (1, 1):
            raise DataError(f"{path}: {_ONE_SHAPE}")
        record = f.tell() - start
        f.seek(start)
        head = f.read(record - first.nbytes)
        fits = (f.seek(0, io.SEEK_END) - start) // record
        frames = np.empty((min(count, fits),) + first.shape[2:], first.dtype.newbyteorder("<"))
        f.seek(start)
        buf = bytearray(len(head))
        for k in range(count):
            if (k == fits or f.readinto(buf) != len(buf) or buf != head
                    or f.readinto(frames[k]) != first.nbytes):
                _raise_record_fault(f, path, start + k * record)
    return FrameSeries(frames, interval, _CODE_UNITS[code])


def _raise_record_fault(f, path, pos: int):
    """Raise the error of the record at ``pos``: its own from ``read_t4``,
    or, if it parses, the one-shape error."""
    f.seek(pos)
    read_t4(f)
    raise DataError(f"{path}: {_ONE_SHAPE}")
