"""Acceptance gate: every verification criterion must pass within its budget, with its pinned details.

Each test prints one PASS/FAIL line (visible with `pytest -s` or in the
CLI `verify` report); failures carry the collected detail messages.
"""

import pytest

from gaussbase.verification import ALL_CHECKS

# details a criterion reports on a pass, where a rewrite of its loops could change them
PINNED_DETAILS = {
    "check_digit_sets": {"bases_scanned": 304},
    "check_uniqueness": {"words_checked": 3125},
    "check_length_bound": {
        "per_base": {
            **dict.fromkeys(("2+1i", "-1+2i", "-2+1i"), {"m3": 3, "max_at_nk": [3, 4, 5, 6, 7]}),
            **dict.fromkeys(("3", "1+3i"), {"m3": 2, "max_at_nk": [2, 3, 4, 5, 6]}),
        }
    },
}


@pytest.mark.parametrize("check", ALL_CHECKS, ids=lambda c: c.__name__)
def test_criterion(check):
    result = check()
    print(result.summary_line())
    assert result.passed, "; ".join(result.failures)
    for key, value in PINNED_DETAILS.get(check.__name__, {}).items():
        assert result.details[key] == value, key
