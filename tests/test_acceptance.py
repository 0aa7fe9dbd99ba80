"""Acceptance suite: every criterion at its pinned tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; ``affkms self-test`` prints the same report from the CLI.
"""

import pytest

from affkms.acceptance import ALL_CRITERIA, run_all, run_criterion


@pytest.mark.parametrize("number", ALL_CRITERIA)
def test_criterion(number):
    result = run_criterion(number)
    print(result.line())
    assert result.passed, result.line()


def test_corruption_is_detected():
    # the harness must be able to fail: a seeded weight corruption in the
    # decomposition input produces a negative-coefficient witness
    result = run_criterion(3, corrupt=True)
    print(result.line())
    assert not result.passed
    assert "n=2" in result.detail


@pytest.mark.parametrize("numbers, corrupt, message", [
    ([5], 5, "^only criterion 3 has a seeded corruption, got 5$"),
    ([3], 0, "^only criterion 3 has a seeded corruption, got 0$"),
    ([1], 3, r"^corrupting criterion 3 needs it among the criteria run, got \[1\]$"),
])
def test_a_corruption_that_corrupts_nothing_is_refused(numbers, corrupt, message):
    with pytest.raises(ValueError, match=message):
        run_all(numbers, corrupt=corrupt)
