import sys
from pathlib import Path

import pytest

# Make the suite runnable from a clean checkout without installing.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


@pytest.fixture
def default_digit_limit():
    """Python's default int-to-str limit of 4300 digits while the test runs, where it has one."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(before)
