"""Fixtures shared by the test modules."""

import tracemalloc

import pytest


def _traced_peak(call):
    """The peak of the bytes tracemalloc traces while call() runs, above
    what was traced when it started (its result included)."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.fixture
def traced_peak():
    return _traced_peak
