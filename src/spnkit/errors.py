"""Exception types shared across the package, and a range check raising ConfigError."""
import math


class SpnError(Exception):
    """Base class for all package errors."""


class DimensionError(SpnError, ValueError):
    """A shape or size precondition was violated."""


class FormatError(SpnError, ValueError):
    """A file is malformed; the message carries the byte offset where known."""


class ContractError(SpnError, RuntimeError):
    """An internal contract was violated (boundary gates, caches, row sums)."""


class ConfigError(SpnError, ValueError):
    """Bad or unknown configuration key or value."""


class CheckpointError(SpnError, ValueError):
    """A checkpoint file is malformed or inconsistent, or is a retired v1 directory."""


class TrainingAborted(SpnError, RuntimeError):
    """Training stopped on a non-finite loss; the message carries gate statistics."""


def require_at_least(*checks) -> None:
    """Raise ConfigError for the first (name, value, least) whose value is
    NaN, infinite, or below `least`."""
    for name, value, least in checks:
        if not -math.inf < value < math.inf:
            raise ConfigError(f"{name} must be finite, got {value}")
        if value < least:
            raise ConfigError(f"{name} must be at least {least}, got {value}")
