import sys

import pytest
from hypothesis import settings

from holoproj import rings

# `--hypothesis-profile=ci` draws the same examples on every run, so a failure
# there recurs; without it each run draws new ones
settings.register_profile("ci", derandomize=True)


@pytest.fixture
def default_int_str_limit():
    """CPython's default int->str digit limit, whatever the environment set."""
    if not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("this Python has no int->str digit limit")
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    yield sys.int_info.default_max_str_digits
    sys.set_int_max_str_digits(old)


@pytest.fixture
def no_large_cyclotomic_polynomial(monkeypatch):
    """rings.cyclotomic_polynomial fails for e > 10^4, so a test shows that no
    large Phi_e is built."""
    build = rings.cyclotomic_polynomial

    def guarded(e):
        if e > 10 ** 4:
            raise AssertionError(f"Phi_{e} was built")
        return build(e)

    monkeypatch.setattr(rings, "cyclotomic_polynomial", guarded)
