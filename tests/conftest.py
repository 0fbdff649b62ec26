import sys

import pytest


@pytest.fixture
def default_int_str_limit():
    """CPython's default int->str digit limit, whatever the environment set."""
    if not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("this Python has no int->str digit limit")
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    yield sys.int_info.default_max_str_digits
    sys.set_int_max_str_digits(old)
