import sys

import pytest


@pytest.fixture(autouse=True)
def restore_int_digit_limit():
    """cli.main lifts the interpreter's int-to-str digit limit for the whole
    process; undo it after every test, so no test sees another's limit."""
    if not hasattr(sys, "get_int_max_str_digits"):
        yield
        return
    limit = sys.get_int_max_str_digits()
    yield
    sys.set_int_max_str_digits(limit)
