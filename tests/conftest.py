"""Fixtures shared by the test modules."""

import pytest

from qfest import core, oracle


@pytest.fixture
def no_count(monkeypatch):
    """Make any close-pair count, by the kernel or by the brute-force reference, fail the test."""

    def fail(*args, **kwargs):
        raise AssertionError("a close pair was counted before the arguments were checked")

    monkeypatch.setattr(core, "_record_counts", fail)
    monkeypatch.setattr(oracle, "_lag_counts", fail)
