"""check_count, the one rule for a count that statevector, classifier, stats,
encoding and data share."""

import numpy as np
import pytest

from qic.errors import check_count


@pytest.mark.parametrize("value", [True, False, 2.0, 2.5, "3", None, np.float64(1.0)])
def test_non_integer_rejected(value):
    with pytest.raises(ValueError) as info:
        check_count(value, "shots", 1)
    assert str(info.value) == f"shots must be an integer, got {value!r}"


@pytest.mark.parametrize("value", [0, -1, np.int64(0)])
def test_below_low_rejected(value):
    with pytest.raises(ValueError) as info:
        check_count(value, "shots", 1)
    assert str(info.value) == f"shots must be >= 1, got {value}"


@pytest.mark.parametrize("value", [1, 7, np.int8(1), np.uint64(2**63)])
def test_integer_at_least_low_returned_as_int(value):
    got = check_count(value, "shots", 1)
    assert type(got) is int and got == value


def test_no_low_takes_any_integer():
    assert check_count(-5, "seed") == -5
    with pytest.raises(ValueError, match="^seed must be an integer, got 1.5$"):
        check_count(1.5, "seed")
