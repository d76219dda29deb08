"""Composite layers: depthwise-separable convolution stages, the plain
double-DSC block (the smaat ablation), the residual DSC block that adds a
1x1 shortcut to it, and CBAM attention.

Blocks hold parameters only; ``forward`` is re-entrant given a per-call tape.
Every block enumerates its trainables as stable hierarchical names
(``dsc1.depthwise``, ``shortcut.weight``, ...) consumed by checkpoints and
the optimizer. Weight init is Kaiming-uniform (fan-in) for conv/perceptron
weights, zeros for biases and bn beta, ones for bn gamma, drawn from the
generator in construction order. Only 1x1 convolutions carry a bias (the
shortcut, the decoder's channel reduction and the output conv); depthwise,
DSC pointwise, perceptron and CBAM 7x7 weights have none.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from . import ops
from .errors import ConfigurationError, DimensionError
from .tensor import Tensor4, parameter

__all__ = [
    "BatchNorm2d", "Conv2dLayer", "DscLayer", "ResidualDscBlock",
    "DoubleDscBlock", "Cbam", "param_count",
]

NamedParams = Iterator[tuple[str, Tensor4]]
NamedBuffers = Iterator[tuple[str, np.ndarray]]

def _join(prefix: str, name: str) -> str:
    return f"{prefix}.{name}" if prefix else name

def _kaiming_uniform(rng: np.random.Generator, shape: tuple[int, ...],
                     fan_in: int, dtype) -> Tensor4:
    bound = math.sqrt(6.0 / fan_in)
    return parameter(rng.uniform(-bound, bound, shape), dtype=dtype)


class BatchNorm2d:
    """Per-channel batch norm's parameters: trainable gamma/beta plus running
    buffers. :meth:`DscLayer.forward` runs it fused with the pointwise conv
    before it (:func:`~sarunet.ops.pointwise_batch_norm`)."""

    def __init__(self, channels: int, dtype=np.float32):
        self.gamma = parameter(np.ones((1, channels, 1, 1)), dtype=dtype)
        self.beta = parameter(np.zeros((1, channels, 1, 1)), dtype=dtype)
        self.running_mean = np.zeros(channels, dtype=dtype)
        self.running_var = np.ones(channels, dtype=dtype)

    def named_parameters(self, prefix: str = "") -> NamedParams:
        yield _join(prefix, "gamma"), self.gamma
        yield _join(prefix, "beta"), self.beta

    def named_buffers(self, prefix: str = "") -> NamedBuffers:
        yield _join(prefix, "running_mean"), self.running_mean
        yield _join(prefix, "running_var"), self.running_var


class Conv2dLayer:
    """Plain convolution holder: a ``[cout, cin, kernel, kernel]`` weight,
    which :func:`~sarunet.ops.conv2d` runs as pointwise for ``kernel`` 1 and
    as dense otherwise, and a bias exactly when ``kernel`` is 1. An odd
    ``kernel`` is padded by ``kernel // 2``, so the spatial size is kept."""

    def __init__(self, cin: int, cout: int, kernel: int, rng: np.random.Generator,
                 dtype=np.float32):
        self.weight = _kaiming_uniform(rng, (cout, cin, kernel, kernel),
                                       cin * kernel * kernel, dtype)
        self.bias = parameter(np.zeros((1, cout, 1, 1)), dtype=dtype) if kernel == 1 else None

    def forward(self, x: Tensor4) -> Tensor4:
        return ops.conv2d(x, self.weight, self.bias)

    def named_parameters(self, prefix: str = "") -> NamedParams:
        yield _join(prefix, "weight"), self.weight
        if self.bias is not None:
            yield _join(prefix, "bias"), self.bias


class DscLayer:
    """Depthwise 3x3 (a ``[cin, 1, 3, 3]`` weight, pad 1) then pointwise 1x1
    convolution, spatial-size preserving and bias-free: every DSC stage
    feeds a batch norm, whose ``beta`` supplies the shift and whose mean
    subtraction would cancel a bias added here. ``forward`` runs the
    pointwise conv and that batch norm as one op."""

    def __init__(self, cin: int, cout: int, rng: np.random.Generator, dtype=np.float32):
        self.cin = cin
        self.depthwise = _kaiming_uniform(rng, (cin, 1, 3, 3), 9, dtype)
        self.pointwise = _kaiming_uniform(rng, (cout, cin, 1, 1), cin, dtype)

    def forward(self, x: Tensor4, bn: BatchNorm2d, train: bool) -> Tensor4:
        """The stage up to its activation: ``bn`` over the DSC output."""
        if x.shape[1] != self.cin:
            raise DimensionError(f"DscLayer expects {self.cin} channels, got {x.shape[1]}")
        mid = ops.conv2d(x, self.depthwise)
        return ops.pointwise_batch_norm(mid, self.pointwise, bn.gamma, bn.beta,
                                        bn.running_mean, bn.running_var, train=train)

    def named_parameters(self, prefix: str = "") -> NamedParams:
        yield _join(prefix, "depthwise"), self.depthwise
        yield _join(prefix, "pointwise"), self.pointwise


class DoubleDscBlock:
    """DSC+BN+ReLU twice, shortcut-free: the smaat-config ablation block and
    the DSC path of :class:`ResidualDscBlock`. ``forward`` ignores ``tap``
    and ``prefix``, taken so the model calls every block alike."""

    def __init__(self, cin: int, cout: int, rng: np.random.Generator, dtype=np.float32):
        self.dsc1 = DscLayer(cin, cout, rng, dtype)
        self.bn1 = BatchNorm2d(cout, dtype)
        self.dsc2 = DscLayer(cout, cout, rng, dtype)
        self.bn2 = BatchNorm2d(cout, dtype)

    def forward(self, x: Tensor4, train: bool, tap=None, prefix: str = "") -> Tensor4:
        h = ops.relu(self.dsc1.forward(x, self.bn1, train))
        return ops.relu(self.dsc2.forward(h, self.bn2, train))

    def named_parameters(self, prefix: str = "") -> NamedParams:
        yield from self.dsc1.named_parameters(_join(prefix, "dsc1"))
        yield from self.bn1.named_parameters(_join(prefix, "bn1"))
        yield from self.dsc2.named_parameters(_join(prefix, "dsc2"))
        yield from self.bn2.named_parameters(_join(prefix, "bn2"))

    def named_buffers(self, prefix: str = "") -> NamedBuffers:
        yield from self.bn1.named_buffers(_join(prefix, "bn1"))
        yield from self.bn2.named_buffers(_join(prefix, "bn2"))


class ResidualDscBlock:
    """Two DSC+BN+ReLU stages summed with a parallel 1x1-conv shortcut.

    The sum itself is not re-activated; the shortcut carries a bias and no
    batch norm.
    """

    def __init__(self, cin: int, cout: int, rng: np.random.Generator, dtype=np.float32):
        self.stack = DoubleDscBlock(cin, cout, rng, dtype)
        self.shortcut = Conv2dLayer(cin, cout, 1, rng, dtype)

    def forward(self, x: Tensor4, train: bool, tap=None, prefix: str = "") -> Tensor4:
        dsc_out = self.stack.forward(x, train)
        short_out = self.shortcut.forward(x)
        if tap is not None:
            dsc_out = tap.put(_join(prefix, "dsc_path"), dsc_out)
            short_out = tap.put(_join(prefix, "shortcut"), short_out)
        return ops.add(dsc_out, short_out)

    def named_parameters(self, prefix: str = "") -> NamedParams:
        yield from self.stack.named_parameters(prefix)
        yield from self.shortcut.named_parameters(_join(prefix, "shortcut"))

    def named_buffers(self, prefix: str = "") -> NamedBuffers:
        yield from self.stack.named_buffers(prefix)


class Cbam:
    """Channel attention (shared bias-free two-layer perceptron over avg/max
    spatial descriptors, summed, sigmoid) followed by spatial attention (7x7
    bias-free conv over the stacked channel-avg/channel-max map, sigmoid).
    Channel gating precedes spatial gating; output shape equals input shape.
    """

    def __init__(self, channels: int, reduction: int, rng: np.random.Generator,
                 dtype=np.float32):
        if channels % reduction != 0:
            raise ConfigurationError(
                f"CBAM reduction {reduction} must divide channel count {channels}")
        hidden = channels // reduction
        self.mlp_w1 = _kaiming_uniform(rng, (hidden, channels, 1, 1), channels, dtype)
        self.mlp_w2 = _kaiming_uniform(rng, (channels, hidden, 1, 1), hidden, dtype)
        self.spatial = Conv2dLayer(2, 1, 7, rng, dtype)

    def _mlp(self, descriptor: Tensor4) -> Tensor4:
        h = ops.relu(ops.conv2d(descriptor, self.mlp_w1))
        return ops.conv2d(h, self.mlp_w2)

    def channel_attention(self, x: Tensor4) -> Tensor4:
        avg = ops.global_pool(x, "avg", "spatial")
        mx = ops.global_pool(x, "max", "spatial")
        return ops.sigmoid(ops.add(self._mlp(avg), self._mlp(mx)))

    def spatial_attention(self, x: Tensor4) -> Tensor4:
        avg = ops.global_pool(x, "avg", "channel")
        mx = ops.global_pool(x, "max", "channel")
        return ops.sigmoid(self.spatial.forward(ops.concat_channels(avg, mx)))

    def forward(self, x: Tensor4) -> Tensor4:
        gated = ops.mul_broadcast(x, self.channel_attention(x))
        return ops.mul_broadcast(gated, self.spatial_attention(gated))

    def named_parameters(self, prefix: str = "") -> NamedParams:
        yield _join(prefix, "mlp_w1"), self.mlp_w1
        yield _join(prefix, "mlp_w2"), self.mlp_w2
        yield from self.spatial.named_parameters(_join(prefix, "spatial"))


def param_count(obj) -> int:
    """Exact number of trainable scalars; running stats are excluded."""
    return sum(t.data.size for _, t in obj.named_parameters())
