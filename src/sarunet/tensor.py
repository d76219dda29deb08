"""Rank-4 tensor type with reverse-mode autodiff over an explicit tape.

A :class:`Tensor4` wraps a contiguous ``[n, c, h, w]`` float array. Operations
(see :mod:`sarunet.ops`) record themselves on the currently active
:class:`Tape`; replaying the tape in reverse propagates gradients through
every ``requires_grad`` tensor they touched. Gradients are kept only where
they are read, as in PyTorch's ``retain_grad`` contract: in the ``grad``
buffer of a leaf made with ``requires_grad=True`` (a :func:`parameter`), and
of any op output on which :meth:`Tensor4.retain_grad` was called (Grad-CAM's
traced activations). Other op outputs carry no buffer. Storage is float32 by
default; a float64 mode exists for gradient-check tests.

The tape holds no op input and no op output, as PyTorch's autograd saves
only what each function marks for backward. A record keeps the input keys
(each tensor's process-unique :attr:`Tensor4.key`), the inputs the tape did
not produce (parameters, the model input, gradient roots), and a weak
reference to its output; each backward rule keeps in its closure exactly the
arrays it reads. So an op output that no rule reads is freed as soon as the
forward code drops it, before backward runs. Backward consumes the tape, as
PyTorch's autograd frees saved tensors after one backward: each record is
popped before its rule runs, so a rule's arrays are freed once it has run,
and a second backward on the same tape raises ``UsageError``.

Tapes are thread-local: concurrent inference threads each open their own tape
(or none) over shared read-only parameters. The parameters' ``requires_grad``
flags are shared, though: :func:`sarunet.gradcam.explain_suite` turns them
off for the length of its call, so one ``Model`` must not be trained in
another thread while it is being explained.
"""

from __future__ import annotations

import io
import itertools
import struct
import threading
import weakref
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DataError, DimensionError, UsageError

__all__ = [
    "Tensor4",
    "Tape",
    "tensor",
    "parameter",
    "active_tape",
    "read_exact",
    "read_magic",
    "read_t4",
    "write_t4",
    "read_section",
    "write_section",
]

# Each Tensor4's ``key``, unique in the process: tapes route gradients by it,
# since an ``id()`` is reused once an intermediate is freed.
_keys = itertools.count()


class Tensor4:
    """A ``[n, c, h, w]`` array with an optional same-shape gradient buffer.

    Data is immutable by convention once created (optimizer updates and grad
    accumulation are the sanctioned exceptions). ``requires_grad`` means a
    gradient flows through the tensor. ``grad`` exists on a leaf built with
    ``requires_grad=True`` and on an op output after :meth:`retain_grad`;
    any other tensor has ``grad`` None. A buffer accumulates across tapes
    (each backward consumes its tape) until zeroed. ``key`` is unique in
    the process, and tapes route gradients by it.

    Construction takes a float32 or float64 ndarray and checks rank, sizes
    and dtype but does not scan the values: op results and already-validated
    data are wrapped as they are. Outside data enters through :func:`tensor`
    or :func:`parameter`, which convert it and reject a non-finite value.
    """

    __slots__ = ("data", "requires_grad", "grad", "key", "__weakref__")

    def __init__(self, data: np.ndarray, requires_grad: bool = False):
        if not isinstance(data, np.ndarray):
            raise UsageError(f"Tensor4 wraps a numpy array, got {type(data).__name__}; "
                             "build one from other data with tensor()")
        if data.ndim != 4:
            raise DimensionError(f"Tensor4 needs 4 dims [n,c,h,w], got shape {data.shape}")
        if any(d < 1 for d in data.shape):
            raise DimensionError(f"all dims must be >= 1, got shape {data.shape}")
        if data.dtype not in (np.float32, np.float64):
            raise UsageError(f"Tensor4 holds float32 or float64, got {data.dtype}; "
                             "convert with tensor()")
        self.data = np.ascontiguousarray(data)
        self.requires_grad = requires_grad
        self.grad: Optional[np.ndarray] = np.zeros_like(self.data) if requires_grad else None
        self.key = next(_keys)

    # -- introspection -----------------------------------------------------

    @property
    def shape(self) -> tuple[int, int, int, int]:
        return self.data.shape  # type: ignore[return-value]

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def item(self) -> float:
        if self.data.size != 1:
            raise UsageError(f"item() needs a scalar-shaped tensor, got {self.shape}")
        return float(self.data.reshape(-1)[0])

    def retain_grad(self) -> None:
        """Give this op output a zeroed ``grad`` buffer that backward passes
        accumulate into. A no-op on a tensor that already has one, and on a
        tensor no gradient flows through."""
        if self.requires_grad and self.grad is None:
            self.grad = np.zeros_like(self.data)

    def zero_grad(self) -> None:
        if self.grad is not None:
            self.grad.fill(0.0)

    def __repr__(self) -> str:
        return f"Tensor4(shape={self.shape}, dtype={self.data.dtype.name}, requires_grad={self.requires_grad})"


def tensor(data, requires_grad: bool = False, dtype=np.float32) -> Tensor4:
    """Build a Tensor4 from array-like data; a non-finite value raises
    ``DataError``."""
    arr = np.asarray(data, dtype=dtype)
    if not np.isfinite(arr).all():
        raise DataError("tensor() rejects non-finite values")
    return Tensor4(arr, requires_grad=requires_grad)


def parameter(data, dtype=np.float32) -> Tensor4:
    """A trainable tensor: requires_grad with a zeroed grad buffer."""
    return tensor(data, requires_grad=True, dtype=dtype)


# -- tape ------------------------------------------------------------------


class _OpRecord:
    """One recorded op. ``inputs`` holds the input keys; ``leaves`` holds,
    at the same positions, the input itself where this tape did not produce
    it (a parameter, the model input, a gradient root), else None. The
    output is reached through the weak reference ``output``, and its key is
    ``key``. So the record keeps no array alive: the arrays a backward rule
    reads live in ``backward_fn``'s closure."""

    __slots__ = ("name", "inputs", "leaves", "key", "output", "backward_fn")

    def __init__(self, name, inputs, leaves, output, backward_fn):
        self.name = name
        self.inputs = inputs
        self.leaves = leaves
        self.key = output.key
        self.output = weakref.ref(output)
        self.backward_fn = backward_fn


_tls = threading.local()


def _tape_stack() -> list:
    stack = getattr(_tls, "stack", None)
    if stack is None:
        stack = []
        _tls.stack = stack
    return stack


def active_tape() -> Optional["Tape"]:
    stack = _tape_stack()
    return stack[-1] if stack else None


class Tape:
    """Ordered record of operations; reversing it runs backpropagation.

    Use as a context manager around a forward pass::

        with Tape() as tape:
            y, _ = model.forward(x, train=True)
            loss = mse_loss(y, target)
        tape.backward(loss)

    :meth:`backward` consumes the tape and runs once per tape; a second
    pass needs the forward pass recorded again on a new tape.
    """

    def __init__(self):
        self.ops: list[_OpRecord] = []
        self._produced: set[int] = set()        # keys of the recorded outputs
        self._consumed = False

    def __enter__(self) -> "Tape":
        _tape_stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        stack = _tape_stack()
        assert stack and stack[-1] is self, "tape stack corrupted (unbalanced enter/exit)"
        stack.pop()

    def record(self, name: str, inputs: Sequence[Tensor4], output: Tensor4,
               backward_fn: Callable[[np.ndarray], Sequence[Optional[np.ndarray]]]) -> None:
        produced = self._produced
        leaves = tuple(None if t.key in produced else t for t in inputs)
        self.ops.append(_OpRecord(name, tuple(t.key for t in inputs), leaves, output,
                                  backward_fn))
        produced.add(output.key)

    def backward(self, loss: Tensor4) -> None:
        """Accumulate dLoss/dT into the ``grad`` buffer of every tensor the
        loss depends on that has one: the leaves built with
        ``requires_grad=True`` and the op outputs marked with
        :meth:`Tensor4.retain_grad`. A buffer is filled only when its tensor
        requires grad, so a frozen parameter's buffer is left as it is.
        Other op outputs only pass their gradient on. An input that is
        neither recorded here nor holds a buffer (an op output of another
        tape) is skipped, and so is a ``None`` gradient, which a rule
        returns for an input that needs none.

        A leaf's gradient goes into its buffer as soon as a rule returns it;
        an op output's gradients are summed and passed on when its own rule
        runs.

        Gradients are routed by tensor key, not by the tensors: the tape
        holds no op output, so an output nothing else holds is freed during
        the forward pass, and a marked output is reached through its
        record's weak reference. The arrays a rule reads are the ones its
        closure captured.

        Ops run their backward rules in reverse recording order, each at
        most once: once if the loss depends on its output, else never.
        Backward consumes the tape: each record is popped off ``ops`` before
        its rule runs, so the arrays only its closure holds are freed as soon
        as the rule returns, and ``ops`` is empty at the end. A second call
        on the same tape raises ``UsageError``, also after a call that
        raised partway; record the forward pass again on a new tape.
        """
        if self._consumed:
            raise UsageError("backward already ran on this tape, which it consumes; "
                             "record the forward pass again on a new tape")
        if loss.shape != (1, 1, 1, 1):
            raise UsageError(f"backward needs a scalar-shaped [1,1,1,1] loss, got {loss.shape}")
        if loss.key not in self._produced:
            raise UsageError("loss tensor was not recorded on this tape; "
                             "run the forward pass inside `with Tape() as tape:`")
        self._consumed = True
        pending: dict[int, np.ndarray] = {loss.key: np.ones_like(loss.data)}
        ops = self.ops
        while ops:
            rec = ops.pop()
            out_grad = pending.pop(rec.key, None)
            if out_grad is None:
                continue
            out = rec.output()
            if out is not None and out.grad is not None:
                out.grad += out_grad
            in_grads = rec.backward_fn(out_grad)
            for key, leaf, g in zip(rec.inputs, rec.leaves, in_grads):
                if g is None:
                    continue
                if leaf is not None:
                    if leaf.requires_grad and leaf.grad is not None:
                        leaf.grad += g
                elif key in pending:
                    pending[key] = pending[key] + g
                else:
                    pending[key] = g


def make_result(data: np.ndarray, name: str, inputs: Sequence[Tensor4],
                backward_fn) -> Tensor4:
    """Wrap an op result and record it on the active tape, if any.

    Used by :mod:`sarunet.ops`; the output requires grad only when a tape is
    listening and at least one input requires grad. It gets no ``grad``
    buffer (see :meth:`Tensor4.retain_grad`).
    """
    out = Tensor4(data)
    tape = active_tape()
    if tape is not None and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        tape.record(name, inputs, out, backward_fn)
    return out


# -- serialization -------------------------------------------------------------
#
# T4v1 record, little-endian: magic "T4v1", four u64 dims, one u8 dtype code
# (0 = float32, 1 = float64), then the raw row-major payload.

_T4_MAGIC = b"T4v1"
_DTYPE_CODES = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}
_CODE_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}

# Reads above this size first check the bytes left in the stream, so a
# corrupt length never makes a reader allocate more than the file holds.
_CHECKED_READ_BYTES = 1 << 20


def read_exact(f, n: int, what: str) -> bytes:
    """Read exactly ``n`` bytes of ``what``; a stream that ends first (or
    holds fewer bytes than a large ``n``) raises ``DataError``."""
    if n > _CHECKED_READ_BYTES:
        pos = f.tell()
        left = f.seek(0, io.SEEK_END) - pos
        f.seek(pos)
        if n > left:
            raise DataError(f"{what} claims {n} bytes, but only {left} are left")
    data = f.read(n)
    if len(data) != n:
        raise DataError(f"truncated {what}: wanted {n} bytes, got {len(data)}")
    return data


def read_magic(f, magic: bytes, what: str) -> None:
    """Consume ``magic``. Other bytes are another format (``UsageError``); a
    stream that ends inside the magic is truncated (``DataError``)."""
    got = f.read(len(magic))
    if got == magic:
        return
    if magic.startswith(got):
        raise DataError(f"truncated {what}: stream ends inside the magic")
    raise UsageError(f"not a {what}: magic {got!r}, expected {magic!r}")


def write_t4(f, arr: np.ndarray) -> None:
    """Write one T4v1 record for a 4-d float array."""
    if arr.ndim != 4:
        raise DimensionError(f"T4v1 records hold rank-4 arrays, got shape {arr.shape}")
    code = _DTYPE_CODES.get(arr.dtype)
    if code is None:
        raise UsageError(f"unsupported dtype for T4v1: {arr.dtype}")
    f.write(_T4_MAGIC)
    f.write(struct.pack("<4QB", *arr.shape, code))
    f.write(np.ascontiguousarray(arr, dtype=arr.dtype.newbyteorder("<")).tobytes())


def read_t4(f) -> np.ndarray:
    """Read one T4v1 record; returns a native-endian contiguous array."""
    read_magic(f, _T4_MAGIC, "T4v1 record")
    n, c, h, w, code = struct.unpack("<4QB", read_exact(f, 33, "T4v1 header"))
    if code not in _CODE_DTYPES:
        raise DataError(f"unknown T4v1 dtype code {code}")
    dt = _CODE_DTYPES[code]
    payload = read_exact(f, n * c * h * w * dt.itemsize, "T4v1 payload")
    arr = np.frombuffer(payload, dtype=dt).reshape(n, c, h, w)
    return np.ascontiguousarray(arr.astype(dt.newbyteorder("=")))


def write_section(f, magic: bytes, meta: dict[str, str],
                  tensors: Sequence[tuple[str, np.ndarray]]) -> None:
    """Write one section, the container of SARv1 checkpoints and OPTv1
    optimizer state. Layout, little-endian: ``magic``; a u32 count of
    ``meta`` lines, each a u32 byte length and a UTF-8 ``key=value`` line; a
    u64 count of ``tensors``, each a u32 byte length, a UTF-8 name and one
    T4v1 record. Both keep their order; round-trips are bitwise exact."""
    f.write(magic)
    f.write(struct.pack("<I", len(meta)))
    for k, v in meta.items():
        _write_text(f, f"{k}={v}")
    f.write(struct.pack("<Q", len(tensors)))
    for name, arr in tensors:
        _write_text(f, name)
        write_t4(f, arr)


def read_section(f, magic: bytes, what: str
                 ) -> tuple[dict[str, str], dict[str, np.ndarray]]:
    """Read one section written by :func:`write_section`, leaving the stream
    just past it; returns ``(meta, tensors)`` in file order."""
    read_magic(f, magic, what)
    (n_meta,) = struct.unpack("<I", read_exact(f, 4, what))
    meta = {}
    for _ in range(n_meta):
        key, _, value = _read_text(f, what).partition("=")
        meta[key] = value
    (n_tensors,) = struct.unpack("<Q", read_exact(f, 8, what))
    tensors = {}
    for _ in range(n_tensors):
        name = _read_text(f, what)
        tensors[name] = read_t4(f)
    return meta, tensors


def _write_text(f, text: str) -> None:
    raw = text.encode("utf-8")
    f.write(struct.pack("<I", len(raw)))
    f.write(raw)


def _read_text(f, what: str) -> str:
    (length,) = struct.unpack("<I", read_exact(f, 4, what))
    raw = read_exact(f, length, what)
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError:
        raise DataError(f"{what} holds text that is not UTF-8: {raw[:40]!r}") from None
