import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qic.stats import (
    WORST_CASE,
    shots_for_error,
    wald_worst_case,
    wilson,
    wilson_worst_case,
)


class TestWald:
    def test_worst_case_bound_matches_half(self):
        assert wald_worst_case(8192, 2.58) == pytest.approx(0.01425, abs=1e-5)

    def test_argument_checks(self):
        # the shot-count checks every estimate runs, through the one estimator
        with pytest.raises(ValueError):
            wilson(1, 0, z=2.58)
        with pytest.raises(ValueError):
            wilson(5, 4, z=2.58)
        with pytest.raises(ValueError):
            wilson(1, 4, z=0.0)

    def test_bound_maximized_at_half(self):
        # the worst case bounds the Wald error z*sqrt(p(1-p)/R) at every p
        shots, z = 500, 2.58
        bound = wald_worst_case(shots, z)
        errors = [z * math.sqrt(p * (1 - p) / shots) for p in np.linspace(0, 1, 101)]
        assert max(errors) <= bound
        assert errors[50] == pytest.approx(bound, rel=1e-15)


class TestWilson:
    # one shot is the fewest a count check lets through
    @pytest.mark.parametrize("successes, shots", [(700, 1000), (0, 1), (1, 1)])
    def test_formula_spot_value(self, successes, shots):
        z = 2.58
        est = wilson(successes, shots, z)
        p_raw = successes / shots
        damp = 1 + z**2 / shots
        assert est.p_hat == pytest.approx((p_raw + z**2 / (2 * shots)) / damp, abs=1e-12)
        expected_err = (z / damp) * math.sqrt(
            p_raw * (1 - p_raw) / shots + z**2 / (4 * shots**2)
        )
        assert est.max_error == pytest.approx(expected_err, abs=1e-12)

    @pytest.mark.parametrize("successes, shots", [(0.5, 1), (3, 10.5), (True, 3), (1, True)])
    def test_non_integer_counts_rejected(self, successes, shots):
        with pytest.raises(ValueError, match="must be an integer"):
            wilson(successes, shots, 2.0)

    def test_numpy_integer_counts_accepted(self):
        assert wilson(np.int64(3), np.int32(10), 2.0) == wilson(3, 10, 2.0)

    def test_shrinks_toward_half_at_zero_successes(self):
        est = wilson(0, 10, z=2.58)
        assert est.p_hat > 0.0
        assert est.max_error > 0.0

    def test_worst_case_bound(self):
        z, shots = 2.58, 8192
        expected = math.sqrt(z**2 * (shots + z**2) / (4 * shots**2))
        assert wilson_worst_case(shots, z) == pytest.approx(expected, abs=1e-15)
        assert wilson_worst_case(shots, z) == pytest.approx(0.01426, abs=1e-5)

    def test_agrees_with_raw_rate_for_huge_samples(self):
        est = wilson(73_000_000, 100_000_000, z=2.58)
        assert est.p_hat == pytest.approx(0.73, abs=1e-6)

    def test_bound_maximized_at_half(self):
        shots = 500
        grid = np.linspace(0, 1, 101)
        errors = [wilson(int(round(p * shots)), shots, 2.58).max_error for p in grid]
        assert int(np.argmax(errors)) == 50


class TestShotsForError:
    def test_wald_closed_form(self):
        assert shots_for_error(0.01, 2.58, "wald") == 16641

    def test_wilson_matches_quadratic_inversion(self):
        # solve 4 eps^2 R^2 - z^2 R - z^4 >= 0 for the smallest integer R
        eps, z = 0.01, 2.58
        root = z**2 * (1 + math.sqrt(1 + 16 * eps**2)) / (8 * eps**2)
        assert shots_for_error(eps, z, "wilson") == math.ceil(root) == 16648

    @pytest.mark.parametrize("method", ["wald", "wilson"])
    @pytest.mark.parametrize("eps", [0.2, 0.05, 0.01, 0.003])
    def test_returned_count_is_tight(self, method, eps):
        bound = wald_worst_case if method == "wald" else wilson_worst_case
        shots = shots_for_error(eps, 2.58, method)
        assert bound(shots, 2.58) <= eps
        if shots > 1:
            assert bound(shots - 1, 2.58) > eps

    # epsilon within a rounding of the exact bound at an integer count, so the
    # count turns on the bound's last bit; random floats almost never are
    @example(eps=0.007, z=0.07, method="wald")  # bound(25) just above eps: 26
    @example(eps=0.005, z=0.07, method="wald")  # (z / 2 eps)^2 = 49.000000000000014: 49
    @example(eps=0.05933335934248285, z=1.0, method="wilson")  # bound(72) just above: 73
    @example(eps=0.4330127018922193, z=1.0, method="wilson")  # eps = bound(2) = sqrt(3)/4: 2
    # a z so small that the bound is subnormal and flat over many counts near
    # 1e15, and one whose square underflows: counts 1001436190795455 and 2.5e15
    @example(eps=1.58e-318, z=1e-310, method="wald")
    @example(eps=1e-168, z=1e-160, method="wilson")
    @settings(max_examples=200, deadline=None)
    @given(
        eps=st.floats(0.0, 0.5, exclude_min=True, exclude_max=True),
        z=st.floats(0.0, 6.0, exclude_min=True),
        method=st.sampled_from(["wald", "wilson"]),
    )
    def test_returned_count_is_minimal(self, eps, z, method):
        bound = WORST_CASE[method]
        try:
            shots = shots_for_error(eps, z, method)
        except ValueError as exc:
            # refused only past 2**53 shots: both counts are at least Wald's
            # (z / 2 eps)^2, which is then far past 2**52
            assert "needs more than 2**53 shots" in str(exc)
            assert z / (2 * eps) > 2**26
            return
        assert bound(shots, z) <= eps
        assert shots == 1 or bound(shots - 1, z) > eps

    @example(eps=1e-168, z=1e-160)  # z * z underflows; both counts are 2.5e15
    @settings(max_examples=200, deadline=None)
    @given(
        eps=st.floats(0.0, 0.5, exclude_min=True, exclude_max=True),
        z=st.floats(0.0, 6.0, exclude_min=True),
    )
    def test_wilson_count_never_below_walds(self, eps, z):
        counts = {}
        for method in WORST_CASE:
            try:
                counts[method] = shots_for_error(eps, z, method)
            except ValueError:
                counts[method] = math.inf
        assert counts["wilson"] >= counts["wald"]

    def test_wilson_count_at_an_underflowing_z(self):
        assert shots_for_error(1e-168, 1e-160, "wilson") == 2_500_000_000_000_000

    @settings(max_examples=300, deadline=None)
    @given(
        shots=st.integers(1, 2**53 - 1),
        more=st.integers(1, 2**53),
        z=st.floats(0.0, exclude_min=True, allow_infinity=False),
        method=st.sampled_from(sorted(WORST_CASE)),
    )
    def test_bounds_non_increasing_in_shots(self, shots, more, z, method):
        bound = WORST_CASE[method]
        assert bound(min(shots + more, 2**53), z) <= bound(shots, z)

    # a target that 2**53 shots meet is planned, one a float below it refused
    @pytest.mark.parametrize("method", ["wald", "wilson"])
    @pytest.mark.parametrize("z", [2.58, 1e-160])
    def test_refused_exactly_when_2_to_the_53_shots_miss(self, method, z):
        eps = WORST_CASE[method](2**53, z)
        assert shots_for_error(eps, z, method) <= 2**53
        with pytest.raises(ValueError, match=r"needs more than 2\*\*53 shots"):
            shots_for_error(math.nextafter(eps, 0.0), z, method)

    def test_monotone_in_epsilon(self):
        counts = [shots_for_error(e, 2.58, "wald") for e in (0.1, 0.05, 0.02, 0.01)]
        assert counts == sorted(counts)

    def test_epsilon_range(self):
        with pytest.raises(ValueError):
            shots_for_error(0.6, 2.58, "wald")
        with pytest.raises(ValueError):
            shots_for_error(0.0, 2.58, "wald")

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            shots_for_error(0.01, 2.58, "jeffreys")

    @pytest.mark.parametrize("z", [math.inf, math.nan])
    def test_non_finite_z_rejected(self, z):
        with pytest.raises(ValueError, match="positive and finite"):
            wilson(1, 4, z)
        with pytest.raises(ValueError, match="positive and finite"):
            shots_for_error(0.01, z)

    # (z / 2 eps)^2 is 1.7e16 and 1.7e40 shots at 1e-8 and 1e-20, and
    # overflows a float at 1e-300 and at z 1e200
    @pytest.mark.parametrize("method", ["wald", "wilson"])
    @pytest.mark.parametrize("eps, z", [(1e-8, 2.58), (1e-20, 2.58), (1e-300, 2.58), (0.01, 1e200)])
    def test_count_past_2_to_the_53_rejected(self, method, eps, z):
        with pytest.raises(ValueError, match=r"needs more than 2\*\*53 shots"):
            shots_for_error(eps, z, method)


class TestCoverage:
    def test_wald_interval_covers_at_nominal_99(self):
        # 10k seeded Bernoulli experiments at p=0.5, R=1000
        rng = np.random.default_rng(123)
        p, shots, z = 0.5, 1000, 2.58
        successes = rng.binomial(shots, p, size=10_000)
        p_hat = successes / shots
        max_err = z * np.sqrt(p_hat * (1 - p_hat) / shots)
        covered = np.abs(p_hat - p) <= max_err
        assert covered.mean() >= 0.98
