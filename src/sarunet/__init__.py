"""Nowcasting toolkit: residual depthwise-separable UNet with CBAM attention,
tape-based autodiff, training/evaluation recipes, and Grad-CAM heatmaps."""

from .errors import (ConfigurationError, DataError, DimensionError,
                     NumericError, SarunetError, UsageError)
from .tensor import Tape, Tensor4, parameter, tensor

__version__ = "0.1.0"

__all__ = [
    "Tape", "Tensor4", "parameter", "tensor",
    "SarunetError", "DimensionError", "ConfigurationError", "UsageError",
    "DataError", "NumericError",
    "__version__",
]
