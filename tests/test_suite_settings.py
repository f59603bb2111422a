"""The suite's own pytest settings: under pyproject.toml's filterwarnings, a
failing hypothesis property reports as one failed test and the run goes on,
while every other warning still fails its test."""

from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

PLANTED = '''
import warnings

from hypothesis import Phase, given, settings, strategies as st

MESSAGE = (
    "mypy_extensions.TypedDict is deprecated, and will be removed in a future"
    " version. Use typing.TypedDict or typing_extensions.TypedDict instead."
)


# generation only: the report path under test is the same, without the
# seconds that shrinking and explaining take
@settings(database=None, phases=[Phase.generate])
@given(st.integers(min_value=0))
def test_planted_property(x):
    assert x < 0


def test_runs_after_the_failure():
    pass


def test_ignored_message_passes():
    warnings.warn(MESSAGE, DeprecationWarning)


def test_other_deprecation_fails():
    warnings.warn("mypy_extensions.TypedDict is deprecated", DeprecationWarning)


def test_ignored_message_of_other_category_fails():
    warnings.warn(MESSAGE, UserWarning)
'''


def test_failing_property_reports_as_failed(pytester):
    pytester.makepyprojecttoml(PYPROJECT.read_text())
    pytester.mkdir("tests")
    pytester.makepyfile(**{"tests/test_planted": PLANTED})
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider", "-rf")
    output = result.stdout.str() + result.stderr.str()
    assert "INTERNALERROR" not in output
    result.assert_outcomes(failed=3, passed=2)
    result.stdout.fnmatch_lines([
        "FAILED tests/test_planted.py::test_planted_property - *",
        "FAILED tests/test_planted.py::test_other_deprecation_fails - *",
        "FAILED tests/test_planted.py::test_ignored_message_of_other_category_fails - *",
    ])
