"""Binomial-proportion estimators for shot statistics: Wald and Wilson point
estimates, maximum-error bounds, and shot-budget planning."""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class IntervalEstimate:
    p_hat: float
    max_error: float
    method: str  # "wald" | "wilson"
    z: float
    shots: int
    degenerate: bool = False


def _check_counts(successes: int, shots: int, z: float):
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    if not 0 <= successes <= shots:
        raise ValueError(f"successes must be in [0, {shots}], got {successes}")
    _check_z(z)


def _check_z(z: float):
    if not (math.isfinite(z) and z > 0):
        raise ValueError(f"z must be positive and finite, got {z}")


def wald(successes: int, shots: int, z: float) -> IntervalEstimate:
    """Normal-approximation estimate: p_hat = S/R, error z*sqrt(p(1-p)/R).

    Degenerates to a zero-width interval at p_hat in {0, 1}; the degenerate
    flag marks that case so callers can fall back to wilson.
    """
    _check_counts(successes, shots, z)
    p_hat = successes / shots
    max_error = z * math.sqrt(p_hat * (1.0 - p_hat) / shots)
    return IntervalEstimate(
        p_hat=p_hat,
        max_error=max_error,
        method="wald",
        z=z,
        shots=shots,
        degenerate=(max_error == 0.0),
    )


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
    return IntervalEstimate(
        p_hat=p_hat, max_error=max_error, method="wilson", z=z, shots=shots
    )


def wald_worst_case(shots: int, z: float) -> float:
    """Error bound at the maximizing p = 1/2: z / (2 sqrt(R))."""
    return z / (2.0 * math.sqrt(shots))


def wilson_worst_case(shots: int, z: float) -> float:
    """Error bound at the maximizing p_raw = 1/2: sqrt(z^2 (R + z^2) / (4 R^2))."""
    return math.sqrt(z * z * (shots + z * z) / (4.0 * shots * shots))


_WORST_CASE = {"wald": wald_worst_case, "wilson": wilson_worst_case}


def shots_for_error(epsilon: float, z: float, method: str = "wald") -> int:
    """Smallest shot count whose worst-case bound is at most epsilon."""
    if not 0 < epsilon < 0.5:
        raise ValueError(f"epsilon must be in (0, 0.5), got {epsilon}")
    _check_z(z)
    try:
        bound = _WORST_CASE[method]
    except KeyError:
        raise ValueError(f"method must be 'wald' or 'wilson', got {method!r}") from None

    # closed-form seed for both methods (wilson's quadratic lower root), then
    # exact fix-up against the bound, which is monotone decreasing in R;
    # products instead of powers, so an overflow gives inf rather than raising
    half = z / (2 * epsilon)
    seed = half * half
    if method == "wilson":
        seed *= (1.0 + math.sqrt(1.0 + 16.0 * epsilon * epsilon)) / 2
    # float64 counts past 2**53 are not exact, so the fix-up could not step by
    # one shot there: it stalls, and the seed itself may overflow to inf
    if not seed <= 2**53:
        raise ValueError(f"epsilon {epsilon} at z {z} needs more than 2**53 shots")
    r = max(1, math.ceil(seed))
    while bound(r, z) > epsilon:
        r += 1
    while r > 1 and bound(r - 1, z) <= epsilon:
        r -= 1
    return r
