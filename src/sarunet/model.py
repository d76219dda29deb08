"""Full encoder/decoder assembly, its shortcut-free ablation, the persistence
baseline, and the checkpoint container.

Topology (variant ``sar``): five encoder levels of Residual DSC block + CBAM,
with 2x2 max pooling between levels. The CBAM output is both the skip tensor
and the input pooled into the next level. Encoder block output channels are
``base * (1, 2, 4, 8, 16)``; the deepest level (the bottleneck) has no
pooling below it. Each decoder level applies a channel-halving 1x1
convolution, doubles the spatial size bilinearly, concatenates the stored
skip (skip first, upsampled second), and runs a Residual DSC block that
halves the concatenated channels. A linear 1x1 convolution produces the
output; no final activation.

Variant ``smaat`` (the smaat-config ablation): plain double-DSC blocks, CBAM
feeding the skip only (pooling consumes the block output), ``base * 8``
bottleneck channels, and no pre-upsample 1x1 convolutions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from . import ops
from .blocks import Cbam, Conv2dLayer, DoubleDscBlock, ResidualDscBlock
from .errors import ConfigurationError, DataError, DimensionError, NumericError, UsageError
from .tensor import Tensor4, active_tape, read_section, write_section

__all__ = [
    "ModelConfig", "Model", "build", "check_prediction", "gradient_layer",
    "persistence_forward",
    "save_checkpoint", "load_checkpoint", "write_checkpoint_section",
    "read_checkpoint_section", "plain_unet_param_count",
]

_VARIANTS = ("sar", "smaat")


@dataclass
class ModelConfig:
    """Architecture hyperparameters; the network always has five encoder
    levels and four poolings."""

    in_channels: int
    out_channels: int
    base_channels: int = 64
    variant: str = "sar"
    cbam_reduction: int = 16

    def encoder_channels(self) -> list[int]:
        b = self.base_channels
        if self.variant == "sar":
            return [b, 2 * b, 4 * b, 8 * b, 16 * b]
        return [b, 2 * b, 4 * b, 8 * b, 8 * b]

    def decoder_channels(self) -> list[int]:
        """Decoder block output channels indexed by decoder depth 0..3."""
        b = self.base_channels
        if self.variant == "sar":
            return [b, 2 * b, 4 * b, 8 * b]
        return [b, b, 2 * b, 4 * b]

    def validate(self) -> None:
        if self.variant not in _VARIANTS:
            raise ConfigurationError(f"variant must be one of {_VARIANTS}, got {self.variant!r}")
        if self.in_channels < 1 or self.out_channels < 1 or self.base_channels < 1:
            raise ConfigurationError("channel counts must be >= 1")
        if self.cbam_reduction < 1:
            raise ConfigurationError("cbam_reduction must be >= 1")
        for c in self.encoder_channels():
            if c % self.cbam_reduction != 0:
                raise ConfigurationError(
                    f"cbam_reduction {self.cbam_reduction} must divide every encoder "
                    f"channel count, violated at {c}")


_SUB_PATHS = (".dsc_path", ".shortcut")


def gradient_layer(name: str) -> str:
    """The traced layer whose ``grad`` holds the gradient of layer ``name``:
    for a residual sub-path (``enc1.block.dsc_path``), its block
    (``enc1.block``), else ``name`` itself. The block output is the sum of
    its two sub-paths, and nothing else reads them, so the add hands its
    gradient to both unchanged and the three layers share it."""
    for suffix in _SUB_PATHS:
        if name.endswith(suffix):
            return name[:-len(suffix)]
    return name


class _Tap:
    """Collects the requested activations, and marks the layers that hold
    their gradients (:func:`gradient_layer`) to retain them.

    A residual level's block output, ``dsc_path`` and ``shortcut`` share one
    gradient buffer, on the block output: it is retained, and the block
    output collected, whenever any of the three is requested, and the
    sub-paths keep no buffer of their own.

    Under a tape, a requested activation that nothing upstream makes
    differentiable (all parameters frozen, as in Grad-CAM) becomes a
    gradient root: it is marked ``requires_grad``, so the tape records only
    the ops downstream of the first requested layer."""

    def __init__(self, wanted: Iterable[str], valid: set[str]):
        self.wanted = set(wanted)
        unknown = self.wanted - valid
        if unknown:
            raise UsageError(
                f"unknown layer name(s) {sorted(unknown)}; valid names: {sorted(valid)}")
        self.holders = {gradient_layer(n) for n in self.wanted}
        self.got: dict[str, Tensor4] = {}

    def put(self, name: str, t: Tensor4) -> Tensor4:
        if name in self.wanted:
            if not t.requires_grad and active_tape() is not None:
                t.requires_grad = True
            self.got[name] = t
        if name in self.holders:
            t.retain_grad()
            self.got[name] = t
        return t


class _NoDraws:
    """Stands in for the generator of a model whose every value a checkpoint
    supplies: each weight starts as zeros instead of a Kaiming draw."""

    @staticmethod
    def uniform(low: float, high: float, size: tuple) -> np.ndarray:
        return np.zeros(size)


class Model:
    """Built network: parameters, fixed wiring, and the forward pass. The
    weights are drawn from ``rng`` in construction order (see
    :func:`build`)."""

    def __init__(self, config: ModelConfig, rng: np.random.Generator, dtype=np.float32):
        config.validate()
        self.config = config
        self.dtype = np.dtype(dtype)
        enc_ch = config.encoder_channels()
        dec_ch = config.decoder_channels()
        block_cls = ResidualDscBlock if config.variant == "sar" else DoubleDscBlock

        self.enc_blocks = []
        self.enc_cbams = []
        cin = config.in_channels
        for d in range(5):
            self.enc_blocks.append(block_cls(cin, enc_ch[d], rng, dtype))
            self.enc_cbams.append(Cbam(enc_ch[d], config.cbam_reduction, rng, dtype))
            cin = enc_ch[d]

        self.dec_reduce: list[Optional[Conv2dLayer]] = [None] * 4
        self.dec_blocks = [None] * 4
        x_ch = enc_ch[4]
        for d in (3, 2, 1, 0):
            if config.variant == "sar":
                self.dec_reduce[d] = Conv2dLayer(x_ch, x_ch // 2, 1, rng, dtype)
                up_ch = x_ch // 2
            else:
                up_ch = x_ch
            cat_ch = enc_ch[d] + up_ch
            self.dec_blocks[d] = block_cls(cat_ch, dec_ch[d], rng, dtype)
            x_ch = dec_ch[d]
        self.out_conv = Conv2dLayer(dec_ch[0], config.out_channels, 1, rng, dtype)

    # -- enumeration ---------------------------------------------------------

    def named_parameters(self):
        for d in range(5):
            yield from self.enc_blocks[d].named_parameters(f"enc{d}.block")
            yield from self.enc_cbams[d].named_parameters(f"enc{d}.cbam")
        for d in (3, 2, 1, 0):
            if self.dec_reduce[d] is not None:
                yield from self.dec_reduce[d].named_parameters(f"dec{d}.reduce")
            yield from self.dec_blocks[d].named_parameters(f"dec{d}.block")
        yield from self.out_conv.named_parameters("out")

    def named_buffers(self):
        for d in range(5):
            yield from self.enc_blocks[d].named_buffers(f"enc{d}.block")
        for d in (3, 2, 1, 0):
            yield from self.dec_blocks[d].named_buffers(f"dec{d}.block")

    def parameters(self) -> list[Tensor4]:
        return [t for _, t in self.named_parameters()]

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    def trace_names(self) -> set[str]:
        """The layers ``forward`` can trace, which are the layers Grad-CAM
        explains: each level's block (with its residual sub-paths in
        ``sar``) and each encoder CBAM."""
        parts = ("block", "block.dsc_path", "block.shortcut") \
            if self.config.variant == "sar" else ("block",)
        levels = [f"enc{d}" for d in range(5)] + [f"dec{d}" for d in range(4)]
        return ({f"{level}.{part}" for level in levels for part in parts}
                | {f"enc{d}.cbam" for d in range(5)})

    # -- forward ---------------------------------------------------------------

    def forward(self, x: Tensor4, train: bool = False,
                trace_request: Iterable[str] = ()
                ) -> tuple[Tensor4, dict[str, Tensor4]]:
        """The prediction, and the activations of the ``trace_request``
        layers (names from :meth:`trace_names`) keyed by name. A requested
        residual sub-path also brings its block's output, which holds the
        gradient the three share: after a backward pass, layer ``n``'s
        gradient is ``trace[gradient_layer(n)].grad``. Each encoder skip is
        let go once its decoder level's concat has copied it."""
        n, c, h, w = x.shape
        if c != self.config.in_channels:
            raise DimensionError(
                f"model expects {self.config.in_channels} input channels, got {c}")
        if h % 16 or w % 16:
            raise DimensionError(f"input spatial dims must be divisible by 16, got {h}x{w}")
        if x.dtype != self.dtype:
            raise UsageError(f"model built for {self.dtype}, input is {x.dtype}")
        tap = _Tap(trace_request, self.trace_names())
        sar = self.config.variant == "sar"

        skips = []
        cur = x
        for d in range(5):
            name = f"enc{d}.block"
            blk = tap.put(name, self.enc_blocks[d].forward(cur, train, tap, name))
            att = tap.put(f"enc{d}.cbam", self.enc_cbams[d].forward(blk))
            if d < 4:
                skips.append(att)
                cur = ops.max_pool2(att if sar else blk)
            else:
                cur = att
        for d in (3, 2, 1, 0):
            if self.dec_reduce[d] is not None:
                cur = self.dec_reduce[d].forward(cur)
            cur = ops.upsample_bilinear2(cur)
            cur = ops.concat_channels(skips.pop(), cur)     # level d's skip, freed once copied
            name = f"dec{d}.block"
            cur = tap.put(name, self.dec_blocks[d].forward(cur, train, tap, name))
        return self.out_conv.forward(cur), tap.got


def build(config: ModelConfig, seed: int, dtype=np.float32) -> Model:
    """Deterministically initialize a model from ``seed``."""
    return Model(config, np.random.default_rng(seed), dtype)


def check_prediction(pred: Tensor4) -> Tensor4:
    """``pred``, if every value is finite. A checkpoint's values are checked
    on load, but finite weights can still overflow the forward pass; a
    non-finite prediction then raises ``NumericError``, so ``evaluate``,
    ``predict`` and ``explain`` never write a figure, frame or heatmap from
    it."""
    if not np.isfinite(pred.data).all():
        raise NumericError("the model's prediction is not finite: the checkpoint's "
                           "weights overflow the forward pass")
    return pred


def persistence_forward(x: Tensor4, out_ch: int) -> Tensor4:
    """Baseline: replicate the last input channel ``out_ch`` times."""
    last = x.data[:, -1:, :, :]
    return Tensor4(np.repeat(last, out_ch, axis=1))


def plain_unet_param_count(in_channels: int, out_channels: int, base: int) -> int:
    """Analytic trainable-scalar count of a dense-convolution UNet at the same
    widths: two 3x3 convolutions (+bias +bn) per level, bilinear decoder with
    skip concatenation, 1x1 output convolution. Comparison reference only;
    the network itself is out of scope.
    """
    def double_conv(cin: int, cout: int) -> int:
        c1 = 9 * cin * cout + cout
        c2 = 9 * cout * cout + cout
        return c1 + c2 + 2 * (2 * cout)

    enc = [base, 2 * base, 4 * base, 8 * base, 16 * base]
    total = 0
    cin = in_channels
    for c in enc:
        total += double_conv(cin, c)
        cin = c
    for d in (3, 2, 1, 0):
        total += double_conv(enc[d] + cin, enc[d])
        cin = enc[d]
    total += cin * out_channels + out_channels
    return total


# -- checkpoints ("SARv1") -----------------------------------------------------
#
# A SARv1 checkpoint is one ``write_section`` section (see sarunet.tensor)
# with magic "SARv1": the five config keys (in_channels, out_channels,
# base_channels, variant, cbam_reduction) come first, then any extra metadata
# keys (for example the data normalization scale); parameters, then buffers
# stored as [1, c, 1, 1] records. Round-trips are bitwise exact.

_CKPT_MAGIC = b"SARv1"

_CONFIG_PARSERS = {"in_channels": int, "out_channels": int, "base_channels": int,
                   "variant": str, "cbam_reduction": int}


def _named_arrays(model: Model) -> list[tuple[str, np.ndarray]]:
    """Checkpoint records: parameter arrays, then buffers as [1,c,1,1] views."""
    arrays = [(name, t.data) for name, t in model.named_parameters()]
    arrays += [(name, buf.reshape(1, -1, 1, 1)) for name, buf in model.named_buffers()]
    return arrays


def write_checkpoint_section(f, model: Model, extra: Optional[dict[str, str]] = None) -> None:
    """Write the SARv1 section (config meta + named tensors) to a file object."""
    cfg = model.config
    meta = {k: str(getattr(cfg, k)) for k in _CONFIG_PARSERS}
    if extra:
        overlap = set(extra) & set(meta)
        if overlap:
            raise UsageError(f"extra checkpoint keys shadow config keys: {sorted(overlap)}")
        meta.update({k: str(v) for k, v in extra.items()})
    write_section(f, _CKPT_MAGIC, meta, _named_arrays(model))


def save_checkpoint(path, model: Model, extra: Optional[dict[str, str]] = None) -> None:
    with open(path, "wb") as f:
        write_checkpoint_section(f, model, extra)


def read_checkpoint_section(f, path="<stream>") -> tuple["Model", dict[str, str]]:
    """Read one SARv1 section from a file object; the stream is left
    positioned just past the section. A missing or unparseable config value,
    a missing, extra or misshapen tensor, a non-finite parameter or buffer
    entry, or a negative running variance raises ``DataError`` naming what
    is wrong."""
    meta, tensors = read_section(f, _CKPT_MAGIC, f"{path}: SARv1 checkpoint")
    try:
        config = ModelConfig(**{k: parse(meta.pop(k)) for k, parse in _CONFIG_PARSERS.items()})
    except KeyError as e:
        raise DataError(f"{path}: checkpoint missing config key {e}") from None
    except ValueError as e:
        raise DataError(f"{path}: unparseable checkpoint config value: {e}") from None
    dtype = next(iter(tensors.values())).dtype if tensors else np.float32
    model = Model(config, _NoDraws(), dtype)
    for name, dst in _named_arrays(model):
        if name not in tensors:
            raise DataError(f"{path}: checkpoint missing tensor {name!r}")
        arr = tensors.pop(name)
        if arr.shape != dst.shape:
            raise DataError(
                f"{path}: tensor {name!r} has shape {arr.shape}, expected {dst.shape}")
        dst[...] = arr
    if tensors:
        raise DataError(f"{path}: checkpoint holds unknown tensors {sorted(tensors)}")
    named = _named_arrays(model)
    # one pass over every value; the per-tensor search runs only on a failure
    if not np.isfinite(np.concatenate([arr.reshape(-1) for _, arr in named])).all():
        name = next(name for name, arr in named if not np.isfinite(arr).all())
        raise DataError(f"{path}: tensor {name!r} holds a non-finite value")
    for name, var in model.named_buffers():
        if name.endswith(".running_var") and var.min() < 0:
            raise DataError(f"{path}: tensor {name!r} holds a negative variance")
    return model, meta


def load_checkpoint(path) -> tuple[Model, dict[str, str]]:
    """Rebuild a model from a checkpoint file; returns (model, extra metadata)."""
    with open(path, "rb") as f:
        return read_checkpoint_section(f, str(path))
