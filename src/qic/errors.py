"""Exception types shared across the package."""


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
