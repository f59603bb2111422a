"""Binomial-proportion statistics for shot counts: the Wilson estimate, Wald
and Wilson worst-case error bounds, and shot-budget planning."""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

from .errors import check_count


@dataclass(frozen=True)
class IntervalEstimate:
    p_hat: float
    max_error: float


def _check_counts(successes: int, shots: int, z: float):
    check_count(successes, "successes")
    check_count(shots, "shots", 1)
    if not 0 <= successes <= shots:
        raise ValueError(f"successes must be in [0, {shots}], got {successes}")
    _check_z(z)


def _check_z(z: float):
    if not (math.isfinite(z) and z > 0):
        raise ValueError(f"z must be positive and finite, got {z}")


def wilson(successes: int, shots: int, z: float) -> IntervalEstimate:
    """Score-interval estimate, shrunk toward 1/2; well behaved near p=0 or 1.

    p_hat = (p_raw + z^2/2R) / (1 + z^2/R),
    error = z/(1 + z^2/R) * sqrt(p_raw(1-p_raw)/R + z^2/(4R^2)).
    """
    _check_counts(successes, shots, z)
    p_raw = successes / shots
    damp = 1.0 + z * z / shots
    p_hat = (p_raw + z * z / (2 * shots)) / damp
    max_error = (z / damp) * math.sqrt(
        p_raw * (1.0 - p_raw) / shots + z * z / (4 * shots * shots)
    )
    return IntervalEstimate(p_hat=p_hat, max_error=max_error)


def wald_worst_case(shots: int, z: float) -> float:
    """Error bound at the maximizing p = 1/2: z / (2 sqrt(R))."""
    return z / (2.0 * math.sqrt(shots))


def wilson_worst_case(shots: int, z: float) -> float:
    """sqrt(z^2 (R + z^2) / (4 R^2)): wilson's largest error, which it reaches
    at p_raw = 1/2, times 1 + z^2/R, so a bound on every wilson error at R.

    Written as Wald's bound b times sqrt(1 + z^2/R) = sqrt(1 + 4 b^2): z is
    never squared, so it cannot underflow, each float step is monotone in R,
    and the bound is never below Wald's; products, not **, so an overflow
    gives inf rather than raising.
    """
    b = wald_worst_case(shots, z)
    return b * math.sqrt(1.0 + 4.0 * b * b)


# method -> worst-case error bound at a shot count, bound(shots, z)
WORST_CASE = {"wald": wald_worst_case, "wilson": wilson_worst_case}


def shots_for_error(epsilon: float, z: float, method: str = "wald") -> int:
    """Smallest shot count whose worst-case bound is at most epsilon."""
    if not 0 < epsilon < 0.5:
        raise ValueError(f"epsilon must be in (0, 0.5), got {epsilon}")
    _check_z(z)
    try:
        bound = WORST_CASE[method]
    except KeyError:
        raise ValueError(f"method must be 'wald' or 'wilson', got {method!r}") from None

    # both bounds are non-increasing in R, so the smallest count is found by
    # bisection; float64 counts past 2**53 are not exact, so the bound could
    # not tell neighbouring counts apart there
    counts = range(1, 2**53 + 1)
    i = bisect.bisect_left(counts, True, key=lambda R: bound(R, z) <= epsilon)
    if i == len(counts):
        raise ValueError(f"epsilon {epsilon} at z {z} needs more than 2**53 shots")
    return counts[i]
