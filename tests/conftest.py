"""Shared fixtures. The package's searches keep no counters of their own,
so the tests count their steps from outside: one line of a function
carries a marker, and a line tracer counts how often it runs. The share
kernel ``maximin._best_partition`` marks the line that records a placement
(PLACEMENT_MARKER) and the line that sums its water-filling deficit afresh
(LEVEL_MARKER); the group walker ``maximin._beating_groups`` marks the
line that extends a prefix of co-members (EXTENSION_MARKER); the
allocator's pick ``algorithms._first_unenvied`` marks the line that sums
one bundle under one agent's row (PAIR_SUM_MARKER); the envied-pair walk
``fairness._envied`` marks the same sum in its own walk (ENVIED_SUM_MARKER),
which the allocator's rotations reach through their cycle search."""

import functools
import inspect
import sys

import pytest

from gmms import algorithms, fairness, maximin

PLACEMENT_MARKER = "# [placement]"
LEVEL_MARKER = "# [level]"
EXTENSION_MARKER = "# [extension]"
PAIR_SUM_MARKER = "# [pair sum]"
ENVIED_SUM_MARKER = "# [envied sum]"


@functools.cache
def marked_line(func, marker):
    """The number of the one line of `func` that ends in `marker`."""
    lines, first = inspect.getsourcelines(func)
    (marked,) = [first + i for i, line in enumerate(lines)
                 if line.rstrip().endswith(marker)]
    return marked


def count_marked(func, marker, call):
    """call()'s result and the number of times the one line of `func`
    ending in `marker` ran during it; a generator's frame is traced at
    every resumption."""
    code, marked = func.__code__, marked_line(func, marker)
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


def count_placements(call):
    """call()'s result and the number of placements the share kernel's
    search made during it: executions of its one marked line."""
    return count_marked(maximin._best_partition, PLACEMENT_MARKER, call)


def count_levels(call):
    """call()'s result and the number of times the share kernel summed its
    water-filling deficit afresh, on raising its bound, during it."""
    return count_marked(maximin._best_partition, LEVEL_MARKER, call)


def count_extensions(call):
    """call()'s result and the number of prefix extensions the group
    walker made during it: executions of its one marked line."""
    return count_marked(maximin._beating_groups, EXTENSION_MARKER, call)


def count_pair_sums(call):
    """call()'s result and the number of bundle sums the allocator's picks
    made during it: executions of the pick walk's one marked line."""
    return count_marked(algorithms._first_unenvied, PAIR_SUM_MARKER, call)


def count_envied_sums(call):
    """call()'s result and the number of bundle sums the envied-pair walk
    made during it: executions of its one marked line."""
    return count_marked(fairness._envied, ENVIED_SUM_MARKER, call)


@pytest.fixture
def placements():
    """count_placements: call() -> (result, placements)."""
    return count_placements


@pytest.fixture
def levels():
    """count_levels: call() -> (result, deficit recomputes)."""
    return count_levels


@pytest.fixture
def extensions():
    """count_extensions: call() -> (result, prefix extensions)."""
    return count_extensions


@pytest.fixture
def pair_sums():
    """count_pair_sums: call() -> (result, pair sums)."""
    return count_pair_sums


@pytest.fixture
def envied_sums():
    """count_envied_sums: call() -> (result, envied-pair walk sums)."""
    return count_envied_sums


@pytest.fixture
def placement_marker():
    return PLACEMENT_MARKER
