"""Full-volume runs of the randomized invariant suites."""

import pytest

from property_suites import ALL_SUITES, run_suite


@pytest.mark.parametrize("name,suite", ALL_SUITES,
                         ids=[name for name, _ in ALL_SUITES])
def test_invariant_suite(name, suite):
    run_suite(suite, cases=1000)
