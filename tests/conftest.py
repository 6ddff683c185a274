"""Shared fixtures. The share kernel keeps no counter of its own, so the
tests count its placements from outside: one line of
``maximin._best_partition``, the one that records a placement, carries
PLACEMENT_MARKER, and a line tracer counts how often it runs."""

import functools
import inspect
import sys

import pytest

from gmms import maximin

PLACEMENT_MARKER = "# [placement]"


@functools.cache
def placement_line():
    """The number of the one line of maximin._best_partition that ends in
    PLACEMENT_MARKER."""
    lines, first = inspect.getsourcelines(maximin._best_partition)
    (marked,) = [first + i for i, line in enumerate(lines)
                 if line.rstrip().endswith(PLACEMENT_MARKER)]
    return marked


def count_placements(call):
    """call()'s result and the number of placements the share kernel's
    search made during it: executions of its one marked line."""
    code, marked = maximin._best_partition.__code__, placement_line()
    count = 0

    def local(frame, event, arg):
        nonlocal count
        if event == "line" and frame.f_lineno == marked:
            count += 1
        return local

    def enter(frame, event, arg):
        return local if frame.f_code is code else None

    previous = sys.gettrace()
    sys.settrace(enter)
    try:
        result = call()
    finally:
        sys.settrace(previous)
    return result, count


@pytest.fixture
def placements():
    """count_placements: call() -> (result, placements)."""
    return count_placements


@pytest.fixture
def placement_marker():
    return PLACEMENT_MARKER
