"""Test-session settings shared by every tier-1 module.

Hypothesis draws the same examples on every run (a hash of each test picks
its seed), so tier-1 passes or fails the same way each time.  The fixture
`int_digit_limit_1000` lowers int()'s digit limit for one test.
"""

import sys

import pytest
from hypothesis import settings

settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")


@pytest.fixture
def int_digit_limit_1000():
    """Run the test with int() limited to 1000 digits, as PYTHONINTMAXSTRDIGITS=1000 does; restore the limit after."""
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(1000)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(before)
