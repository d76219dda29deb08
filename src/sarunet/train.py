"""Training recipe: MSE loss, Adam, plateau learning-rate scheduler, early
stopping, and best-validation checkpointing.

Improvement semantics, fixed for reproducible traces: an epoch improves iff
its validation loss is strictly below the best seen so far; the first epoch
establishes the baseline and counts as a non-improving epoch for both the
plateau counter and the early-stopping counter. The two counters are
independent; dropping the learning rate resets only the plateau counter.
Ties never update the best epoch.

Training checkpoints are a SARv1 model section followed by an optimizer
section (magic "OPTv1") holding counters, the shuffle-rng state, and the Adam
moment tensors, which makes a resumed run reproduce the remaining history
bitwise.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from . import ops
from .data import WindowDataset
from .errors import DataError, DimensionError, NumericError, UsageError
from .metrics import SquaredErrorSum
from .model import (Model, load_checkpoint, read_checkpoint_section,
                    save_checkpoint, write_checkpoint_section)
from .tensor import Tape, Tensor4, read_section, write_section

__all__ = [
    "TrainConfig", "TrainState", "EpochStats", "FitResult",
    "mse_loss", "adam_step", "scheduler_step", "fit",
    "write_history_csv", "HISTORY_COLUMNS",
]

HISTORY_COLUMNS = ("epoch", "train_mse", "val_mse", "lr", "seconds")

# The paper's recipe, inherited from SmaAt-UNet: Adam from LR0, the rate cut
# by LR_FACTOR after PLATEAU_PATIENCE epochs without improvement.
LR0 = 1e-3
PLATEAU_PATIENCE = 4
LR_FACTOR = 0.1
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# a batch loss above this (in normalized units) aborts training as diverged
DIVERGENCE_LIMIT = 1e6


@dataclass
class TrainConfig:
    early_stop_patience: int = 15
    max_epochs: int = 200
    batch_size: int = 6
    seed: int = 0

    def validate(self) -> None:
        if self.early_stop_patience < 1:
            raise UsageError("early_stop_patience must be >= 1")
        if self.batch_size < 1 or self.max_epochs < 1:
            raise UsageError("batch_size and max_epochs must be >= 1")


@dataclass
class TrainState:
    """Mutable optimizer/scheduler state carried across epochs."""

    current_lr: float
    epoch: int = 0
    best_val_loss: Optional[float] = None
    best_epoch: int = 0
    since_improve: int = 0          # early-stop counter
    since_improve_lr: int = 0       # plateau counter
    adam_step_count: int = 0
    adam_m: dict[str, np.ndarray] = field(default_factory=dict)
    adam_v: dict[str, np.ndarray] = field(default_factory=dict)


@dataclass
class EpochStats:
    epoch: int
    train_mse: float
    val_mse: float
    lr: float                       # rate used during this epoch
    seconds: float


@dataclass
class FitResult:
    history: list[EpochStats]
    best_epoch: int
    best_val_loss: float


def mse_loss(pred: Tensor4, target: Tensor4) -> Tensor4:
    """Mean over all elements of the squared difference; differentiable."""
    if pred.shape != target.shape:
        raise DimensionError(f"mse_loss needs equal shapes, got {pred.shape} vs {target.shape}")
    diff = ops.sub(pred, target)
    return ops.mean_all(ops.mul(diff, diff))


def adam_step(named_params, state: TrainState, lr: float) -> None:
    """Bias-corrected Adam update applied in place; one shared step counter."""
    params = list(named_params)
    for name, p in params:
        if p.grad is None:
            raise UsageError(f"parameter {name!r} has no gradient buffer")
        if name not in state.adam_m:
            state.adam_m[name] = np.zeros_like(p.data)
            state.adam_v[name] = np.zeros_like(p.data)
    state.adam_step_count += 1
    t = state.adam_step_count
    bc1 = 1.0 - ADAM_BETA1 ** t
    bc2 = 1.0 - ADAM_BETA2 ** t
    for name, p in params:
        g = p.grad
        m = state.adam_m[name]
        v = state.adam_v[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * (g * g)
        mhat = m / bc1
        vhat = v / bc2
        p.data -= (lr * mhat / (np.sqrt(vhat) + ADAM_EPS)).astype(p.data.dtype)


def scheduler_step(state: TrainState, val_loss: float) -> float:
    """Advance the plateau/early-stop bookkeeping after one validation pass.

    Returns the learning rate for the next epoch. Raises on NaN validation
    loss. Call exactly once per epoch.
    """
    if math.isnan(val_loss):
        raise NumericError(f"validation loss is NaN at epoch {state.epoch}")
    if state.best_val_loss is None:
        state.best_val_loss = val_loss
        state.best_epoch = state.epoch
        improved = False
    else:
        improved = val_loss < state.best_val_loss
        if improved:
            state.best_val_loss = val_loss
            state.best_epoch = state.epoch
    if improved:
        state.since_improve = 0
        state.since_improve_lr = 0
    else:
        state.since_improve += 1
        state.since_improve_lr += 1
    if state.since_improve_lr >= PLATEAU_PATIENCE:
        state.current_lr *= LR_FACTOR
        state.since_improve_lr = 0
    return state.current_lr


def _split_mse(model: Model, data: WindowDataset, batch_size: int) -> float:
    """Eval-mode MSE over a whole split, accumulated as ``evaluate_setup``
    accumulates it."""
    sse = SquaredErrorSum()
    for lo in range(0, len(data), batch_size):
        batch = data.batch(range(lo, min(lo + batch_size, len(data))))
        pred, _ = model.forward(batch.inputs, train=False)
        sse.add(pred.data, batch.targets.data)
    return sse.mean()


# -- optimizer-state section ("OPTv1") ------------------------------------------

_OPT_MAGIC = b"OPTv1"


def _write_opt_section(f, state: TrainState, rng: np.random.Generator) -> None:
    meta = {
        "epoch": str(state.epoch),
        "current_lr": repr(state.current_lr),
        "best_val_loss": "" if state.best_val_loss is None else repr(state.best_val_loss),
        "best_epoch": str(state.best_epoch),
        "since_improve": str(state.since_improve),
        "since_improve_lr": str(state.since_improve_lr),
        "adam_step_count": str(state.adam_step_count),
        "rng_state": json.dumps(rng.bit_generator.state),
    }
    moments = [(f"m.{n}", a) for n, a in state.adam_m.items()]
    moments += [(f"v.{n}", a) for n, a in state.adam_v.items()]
    write_section(f, _OPT_MAGIC, meta, moments)


def _read_opt_section(f) -> tuple[TrainState, np.random.Generator]:
    """Optimizer state and the shuffle generator; a missing or unparseable
    value raises ``DataError``."""
    meta, tensors = read_section(f, _OPT_MAGIC, "OPTv1 optimizer section")
    try:
        state = TrainState(
            current_lr=float(meta["current_lr"]),
            epoch=int(meta["epoch"]),
            best_val_loss=float(meta["best_val_loss"]) if meta["best_val_loss"] else None,
            best_epoch=int(meta["best_epoch"]),
            since_improve=int(meta["since_improve"]),
            since_improve_lr=int(meta["since_improve_lr"]),
            adam_step_count=int(meta["adam_step_count"]))
        rng = np.random.default_rng()
        rng.bit_generator.state = json.loads(meta["rng_state"])
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        raise DataError(f"OPTv1 optimizer section: missing or unparseable value: {e!r}") from None
    moments = {"m": state.adam_m, "v": state.adam_v}
    for name, arr in tensors.items():
        kind, _, pname = name.partition(".")
        if kind not in moments:
            raise DataError(f"OPTv1 optimizer section: tensor {name!r} is not an m. or v. moment")
        moments[kind][pname] = arr
    return state, rng


def _check_moments(state: TrainState, model: Model, path) -> None:
    """Refuse Adam moments that are not one per parameter with its shape,
    that hold a non-finite entry, or (second moments) a negative one,
    naming the first offending tensor."""
    shapes = {n: p.shape for n, p in model.named_parameters()}
    for kind, moments in (("m", state.adam_m), ("v", state.adam_v)):
        for name, arr in moments.items():
            if arr.shape != shapes.get(name):
                raise DataError(
                    f"{path}: optimizer moment '{kind}.{name}' of shape {arr.shape} has no "
                    "model parameter of that name and shape; cannot resume")
            if not np.isfinite(arr).all():
                raise DataError(f"{path}: optimizer moment '{kind}.{name}' holds a "
                                "non-finite value; cannot resume")
            if kind == "v" and arr.min() < 0:
                raise DataError(f"{path}: optimizer moment 'v.{name}' holds a negative "
                                "value; cannot resume")
        for name in shapes:
            if name not in moments:
                raise DataError(f"{path}: optimizer section lacks moment '{kind}.{name}'; "
                                "cannot resume")


def _snapshot(model: Model) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray]]:
    params = {n: t.data.copy() for n, t in model.named_parameters()}
    buffers = {n: b.copy() for n, b in model.named_buffers()}
    return params, buffers


def _restore(model: Model, params: dict[str, np.ndarray],
             buffers: dict[str, np.ndarray]) -> None:
    """Copy ``_snapshot``'s arrays back into ``model`` in place, by name."""
    for name, p in model.named_parameters():
        p.data[...] = params[name]
    for name, b in model.named_buffers():
        b[...] = buffers[name]


def write_history_csv(path, history: list[EpochStats]) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(",".join(HISTORY_COLUMNS) + "\n")
        for row in history:
            f.write(f"{row.epoch},{row.train_mse!r},{row.val_mse!r},"
                    f"{row.lr!r},{row.seconds:.3f}\n")


def fit(model: Model, train_data: WindowDataset, val_data: WindowDataset,
        config: TrainConfig, out_dir: Optional[Path] = None,
        resume: bool = False) -> FitResult:
    """Train until the epoch cap or the early-stopping criterion.

    Deterministic under a fixed config seed: batch order comes from one
    persistent shuffle generator re-drawn each epoch. With ``out_dir`` set,
    writes ``history.csv``, ``best.ckpt`` (lowest validation loss) and
    ``last.ckpt`` (model + OPTv1 optimizer state, enabling ``resume=True``).
    Returns with the best epoch's weights and buffers in ``model``. Raises
    on empty splits, NaN validation loss, or divergence.
    """
    config.validate()
    if len(train_data) == 0 or len(val_data) == 0:
        raise DataError("fit needs non-empty train and validation splits")
    out_path = Path(out_dir) if out_dir is not None else None
    if out_path is not None:
        out_path.mkdir(parents=True, exist_ok=True)

    if resume:
        if out_path is None:
            raise UsageError("resume requires out_dir with an existing last.ckpt")
        last = out_path / "last.ckpt"
        if not last.exists():
            raise UsageError(f"cannot resume: {last} does not exist")
        with open(last, "rb") as f:
            loaded, _ = read_checkpoint_section(f, str(last))
            state, rng = _read_opt_section(f)
        if loaded.config != model.config:
            raise UsageError(f"resume checkpoint config {loaded.config} does not match "
                             f"the model being trained ({model.config})")
        _check_moments(state, model, last)
        _restore(model, *_snapshot(loaded))
        best_file = out_path / "best.ckpt"
        best_params, best_buffers = _snapshot(
            load_checkpoint(best_file)[0] if best_file.exists() else model)
    else:
        state = TrainState(current_lr=LR0)
        rng = np.random.default_rng(config.seed)
        best_params, best_buffers = _snapshot(model)

    history: list[EpochStats] = []
    named = list(model.named_parameters())

    while state.epoch < config.max_epochs:
        t0 = time.perf_counter()
        state.epoch += 1
        lr_used = state.current_lr
        perm = rng.permutation(len(train_data))
        sse = SquaredErrorSum()
        for lo in range(0, len(perm), config.batch_size):
            idxs = perm[lo:lo + config.batch_size]
            batch = train_data.batch(idxs)
            model.zero_grad()
            with Tape() as tape:
                pred, _ = model.forward(batch.inputs, train=True)
                loss = mse_loss(pred, batch.targets)
            loss_val = loss.item()
            if not math.isfinite(loss_val) or loss_val > DIVERGENCE_LIMIT:
                raise NumericError(
                    f"training diverged at epoch {state.epoch}: batch loss {loss_val}")
            sse.add(pred.data, batch.targets.data)
            tape.backward(loss)
            adam_step(named, state, lr_used)
        train_mse = sse.mean()
        val_mse = _split_mse(model, val_data, config.batch_size)
        scheduler_step(state, val_mse)
        if state.best_epoch == state.epoch:
            best_params, best_buffers = _snapshot(model)
            if out_path is not None:
                save_checkpoint(out_path / "best.ckpt", model)
        history.append(EpochStats(state.epoch, train_mse, val_mse, lr_used,
                                  time.perf_counter() - t0))
        if out_path is not None:
            with open(out_path / "last.ckpt", "wb") as f:
                write_checkpoint_section(f, model)
                _write_opt_section(f, state, rng)
            write_history_csv(out_path / "history.csv", history)
        if state.since_improve >= config.early_stop_patience:
            break

    assert state.best_val_loss is not None
    _restore(model, best_params, best_buffers)
    return FitResult(history=history, best_epoch=state.best_epoch,
                     best_val_loss=state.best_val_loss)
