"""Exception types shared across the package, and the one rule for a count."""

import numbers


def check_count(value, name: str, low: int | None = None) -> int:
    """value as an int; raises ValueError unless it is an integer (a numpy
    integer passes, a bool does not) and, when low is given, at least low."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if low is not None and value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")
    return int(value)


class CapacityError(ValueError):
    """Requested register size exceeds the supported simulation range."""


class ImpossibleBranchError(ValueError):
    """Postselection on a measurement branch that carries (numerically) zero mass."""


class EstimationFailedError(RuntimeError):
    """A sampled run produced no accepted shots, so nothing can be estimated."""


class UnsupportedGateError(ValueError):
    """Gate kind outside the set a pass or emitter can handle."""


class NormalizationError(ValueError):
    """Input vector was required to have unit norm but does not."""


class ZeroVectorError(ValueError):
    """Vector with (numerically) zero norm has no direction to normalize."""


class DegenerateFeatureError(ValueError):
    """A feature column has zero variance and cannot be standardized."""


class AssignmentError(ValueError):
    """Logical-to-physical qubit assignment does not cover a used qubit."""
