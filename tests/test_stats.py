import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qic.stats import (
    shots_for_error,
    wald,
    wald_worst_case,
    wilson,
    wilson_worst_case,
)


class TestWald:
    def test_half_successes_at_8192(self):
        est = wald(4096, 8192, z=2.58)
        assert est.p_hat == 0.5
        assert est.max_error == pytest.approx(2.58 / (2 * math.sqrt(8192)), abs=1e-12)
        assert est.max_error == pytest.approx(0.01425, abs=1e-5)

    def test_worst_case_bound_matches_half(self):
        assert wald_worst_case(8192, 2.58) == pytest.approx(0.01425, abs=1e-5)

    def test_degenerate_at_extremes(self):
        est = wald(8192, 8192, z=2.58)
        assert est.max_error == 0.0
        assert est.degenerate
        assert wald(0, 10, z=2.58).degenerate

    def test_argument_checks(self):
        with pytest.raises(ValueError):
            wald(1, 0, z=2.58)
        with pytest.raises(ValueError):
            wald(5, 4, z=2.58)
        with pytest.raises(ValueError):
            wald(1, 4, z=0.0)

    def test_bound_maximized_at_half(self):
        shots = 500
        grid = np.linspace(0, 1, 101)
        errors = [wald(int(round(p * shots)), shots, 2.58).max_error for p in grid]
        assert int(np.argmax(errors)) == 50


class TestWilson:
    def test_formula_spot_value(self):
        successes, shots, z = 700, 1000, 2.58
        est = wilson(successes, shots, z)
        p_raw = successes / shots
        damp = 1 + z**2 / shots
        assert est.p_hat == pytest.approx((p_raw + z**2 / (2 * shots)) / damp, abs=1e-12)
        expected_err = (z / damp) * math.sqrt(
            p_raw * (1 - p_raw) / shots + z**2 / (4 * shots**2)
        )
        assert est.max_error == pytest.approx(expected_err, abs=1e-12)

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

    @settings(max_examples=200, deadline=None)
    @given(
        eps=st.floats(1e-3, 0.5, exclude_max=True),
        z=st.floats(0.01, 5.0),
        method=st.sampled_from(["wald", "wilson"]),
    )
    def test_returned_count_is_minimal(self, eps, z, method):
        bound = wald_worst_case if method == "wald" else wilson_worst_case
        shots = shots_for_error(eps, z, method)
        assert bound(shots, z) <= eps
        if shots > 1:
            assert bound(shots - 1, z) > eps

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
        for call in (wald, wilson):
            with pytest.raises(ValueError, match="positive and finite"):
                call(1, 4, z)
        with pytest.raises(ValueError, match="positive and finite"):
            shots_for_error(0.01, z)

    # 1e-20 once stalled in the fix-up loop; 1e-300 overflowed the closed form
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
