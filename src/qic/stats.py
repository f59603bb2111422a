"""Binomial-proportion statistics for shot counts: the Wilson estimate, Wald
and Wilson worst-case error bounds, and shot-budget planning."""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class IntervalEstimate:
    p_hat: float
    max_error: float


def _check_counts(successes: int, shots: int, z: float):
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
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
    at p_raw = 1/2, times 1 + z^2/R, so a bound on every wilson error at R."""
    return math.sqrt(z * z * (shots + z * z) / (4.0 * shots * shots))


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

    # closed-form seed for both methods (wilson's quadratic lower root), then
    # exact fix-up against the bound, which is monotone decreasing in R;
    # products instead of powers, so an overflow gives inf rather than raising
    half = z / (2 * epsilon)
    seed = half * half
    if method == "wilson":
        seed *= (1.0 + math.sqrt(1.0 + 16.0 * epsilon * epsilon)) / 2
    # float64 counts past 2**53 are not exact, so the bound could not tell
    # neighbouring counts apart there, and the seed itself may overflow to inf
    if not seed <= 2**53:
        raise ValueError(f"epsilon {epsilon} at z {z} needs more than 2**53 shots")
    # the seed misses by a shot or so, but where z is tiny the bound is
    # subnormal or 0 and flat over many counts, so the fix-up widens a bracket
    # (lo, hi] by doubling steps and then bisects it: bound(hi) <= epsilon,
    # and lo == 0 or bound(lo) > epsilon
    hi = max(1, math.ceil(seed))
    lo, step = hi - 1, 1
    while bound(hi, z) > epsilon:
        lo, hi, step = hi, hi + step, 2 * step
    while lo > 0 and bound(lo, z) <= epsilon:
        lo, hi, step = max(0, lo - step), lo, 2 * step
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if bound(mid, z) <= epsilon else (mid, hi)
    return hi
