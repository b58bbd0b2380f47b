"""The test run's own settings: a failing property test is reported like
any other failure, and the tests after it still run."""

import tomllib
from pathlib import Path

pytest_plugins = ["pytester"]

SETTINGS = tomllib.loads(Path(__file__).parents[1].joinpath("pyproject.toml").read_text())


def test_a_failing_property_test_does_not_end_the_run(pytester):
    # Hypothesis writes a patch for a failing example, which imports libcst;
    # the warning filters of pyproject.toml must not turn that into an
    # INTERNALERROR that drops every later test
    filters = SETTINGS["tool"]["pytest"]["ini_options"]["filterwarnings"]
    pytester.makeini(
        "[pytest]\nfilterwarnings =\n" + "".join(f"    {entry}\n" for entry in filters)
    )
    pytester.makepyfile(
        """
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_fails(x):
            assert x < 0

        def test_passes():
            pass
        """
    )
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    result.assert_outcomes(failed=1, passed=1)
    assert "INTERNALERROR" not in result.stdout.str() + result.stderr.str()
