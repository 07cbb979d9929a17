"""Shared exception types."""


class HwnasError(Exception):
    """Base class for all package errors."""


class InvalidOp(HwnasError):
    """Operator spec violates a structural invariant."""


class ShapeMismatch(HwnasError):
    """Tensor/layer shapes are inconsistent."""


class ParseError(HwnasError):
    """Serialized network/LUT/model text is malformed."""

    def __init__(self, message, path=""):
        super().__init__(f"{path}: {message}" if path else message)
        self.path = path


class MissingEntry(HwnasError):
    """Latency table has no entry for the requested canonical key."""

    def __init__(self, key):
        super().__init__(f"no latency entry for key {key!r}")
        self.key = key


class LengthMismatch(HwnasError):
    """Paired vectors have different lengths."""


class NotNormalized(HwnasError):
    """Probability vector does not sum to 1 (or has negative mass)."""


class StaleState(HwnasError):
    """backward() called without a retained forward pass."""


class NonFiniteLoss(HwnasError):
    """Training produced a NaN/inf loss."""


class NotStackable(HwnasError):
    """Operator does not preserve its input shape, cannot self-stack."""


class DeviceError(HwnasError):
    """Device runner failed (timeout, bad output, non-zero exit)."""


class InsufficientData(HwnasError):
    """Too few records to train the cost model."""


class EmptySet(HwnasError):
    """Metric requested over an empty record set."""
