"""Fixtures shared by the test modules."""

import tracemalloc

import pytest


@pytest.fixture
def traced_peak():
    """``peak(fn, *args, **kwargs)``: the tracemalloc peak of one call of
    ``fn``, in bytes above what was traced when the call began, and the
    call's value.

    The call runs once untraced first, so that allocations made only on
    a first call (numpy's lazily built tables and caches, imports) do
    not count, and the bound a test puts on the peak does not depend on
    which tests ran before it."""

    def peak(fn, *args, **kwargs):
        fn(*args, **kwargs)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            value = fn(*args, **kwargs)
            return tracemalloc.get_traced_memory()[1] - base, value
        finally:
            tracemalloc.stop()

    return peak
