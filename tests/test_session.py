"""The test session's own settings: a failing test is reported by name and
the session goes on, under the repository's ``pyproject.toml``."""

from pathlib import Path

pytest_plugins = ["pytester"]

ROOT = Path(__file__).resolve().parent.parent


def test_a_failing_hypothesis_test_is_named_and_the_session_goes_on(pytester):
    # With warnings as errors, the Hypothesis plugin's report hook on a failed
    # example warned (mypy_extensions.TypedDict is deprecated), and pytest
    # ended the session with INTERNALERROR before the next test ran.
    pytester.makepyprojecttoml((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    test_file = pytester.makepyfile(
        """
        from hypothesis import given, settings, strategies as st

        @settings(max_examples=1, database=None)
        @given(st.integers())
        def test_fails(x):
            assert False

        def test_after():
            pass
        """
    )
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider", test_file)
    result.assert_outcomes(failed=1, passed=1)
    result.stdout.fnmatch_lines(["FAILED test_a_failing_hypothesis_test_*.py::test_fails*"])
    result.stdout.no_fnmatch_line("*INTERNALERROR*")
