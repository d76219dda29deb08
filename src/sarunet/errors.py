"""Exception taxonomy shared by all sarunet modules.

The CLI maps these onto stable exit codes: usage errors exit 2,
configuration/data errors exit 3, numeric failures exit 4.
"""


class SarunetError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(SarunetError):
    """Tensor shapes or divisibility constraints violated."""


class ConfigurationError(SarunetError):
    """Invalid configuration value (bad variant, empty conv output, ...)."""


class UsageError(SarunetError):
    """API misuse: non-scalar loss, unknown trace name, missing metadata."""


class DataError(SarunetError):
    """Degenerate or empty data where the pipeline needs real content."""


class NumericError(SarunetError):
    """Numeric failure at runtime: NaN validation loss, divergence."""
