"""Equivalence records for the envy-graph allocator, cycle resolution and
the groupwise threshold, hashed into one sha256.

Each record is one line of text: an output, serialized, or the type and
text of the error raised. Two versions of the package that print the same
digest gave the same allocations, debug runs and error texts on every input
below. Run

    PYTHONPATH=src python tests/equivalence.py          # the full sweep
    PYTHONPATH=src python tests/equivalence.py --slice  # the pinned slice

to print the record count and the digest. The slice runs in about a second
and ``test_equivalence_slice_pinned`` pins its digest; a change that moves
an output on purpose re-records both.

The records cover:
- ``efl_allocate`` with and without ``debug``, and with scripted sources
  and goods (valid, envied, malformed, too short), and the ``efl_tight``
  traces for n 2-6;
- ``resolve_envy_cycles`` on random partial and complete allocations;
- every ``PolicyError`` text, from the allocator and from
  ``TieBreakPolicy.from_doc``;
- the ``AssertionError`` of a debug run whose every pick goes to agent 0;
- ``gmms_threshold`` values and witnesses, and its ``InputError`` texts on
  malformed allocations and agents.
"""

import argparse
import hashlib
import itertools
import random
import sys

from gmms import (Allocation, InputError, Instance, PolicyError, TieBreakPolicy,
                  algorithms, efl_allocate, efl_tight, efl_tight_policy,
                  generate, GenSpec, gmms_threshold, resolve_envy_cycles,
                  serialize_allocation)

FULL = {"n_max": 8, "m_max": 40, "threshold_m_max": 11}
SLICE = {"n_max": 5, "m_max": 12, "threshold_m_max": 8}


def instances(rng, n_max, m_max):
    """Over n 1..n_max x m 0..m_max: a generator draw, uniform or gaussian,
    independent or same-order in turn, and small integers, once more with a
    zero row. Small integers tie often, so rotations run."""
    kinds = itertools.cycle(itertools.product(("uniform", "gaussian"), (False, True)))
    for n in range(1, n_max + 1):
        for m in range(m_max + 1):
            dist, sop = next(kinds)
            yield generate(GenSpec(n, m, dist, sop, rng.randrange(10**6)))
            rows = [[rng.choice((0, 0, 1, 2, 3)) for _ in range(m)] for _ in range(n)]
            yield Instance.from_rows(rows)
            rows[rng.randrange(n)] = [0] * m
            yield Instance.from_rows(rows)


def outcome(call, show=serialize_allocation):
    """show(call()), or the type and text of the error it raised."""
    try:
        return show(call())
    except (PolicyError, InputError, AssertionError) as exc:
        return f"{type(exc).__name__}: {exc}"


def random_allocation(rng, n, m, low):
    """Each good to a random agent; with low=-1, some goods to none."""
    vec = [rng.randrange(low, n) for _ in range(m)]
    return Allocation.from_lists([[g for g, a in enumerate(vec) if a == i]
                                  for i in range(n)])


def scripts(rng, n, m):
    """Scripted (sources, goods) pairs: random picks, a malformed entry at
    a random step, and a script one step short."""
    def sources():
        return [rng.choice((*[None] * 6, *range(n))) for _ in range(m)]

    def goods():
        return [rng.choice((*[None] * 6, *range(m))) for _ in range(m)]

    yield sources(), None
    yield None, goods()
    yield sources(), goods()
    if m:
        bad = sources()
        bad[rng.randrange(m)] = rng.choice((n, -1, True, 0.0, "0"))
        yield bad, None
        bad = goods()
        bad[rng.randrange(m)] = rng.choice((m, -1, True, 0.0, "0"))
        yield None, bad
        yield [None] * (m - 1), None


def allocator_records(inst, rng):
    n, m = inst.num_agents, inst.num_goods
    yield "efl " + outcome(lambda: efl_allocate(inst))
    yield "efl debug " + outcome(lambda: efl_allocate(inst, debug=True))
    for sources, goods in scripts(rng, n, m):
        policy = TieBreakPolicy(*(None if script is None else tuple(script)
                                  for script in (sources, goods)))
        yield "efl scripted " + outcome(lambda: efl_allocate(inst, policy, debug=True))
    for low in (-1, 0):
        alloc = random_allocation(rng, n, m, low)
        yield "resolve " + outcome(lambda: resolve_envy_cycles(inst, alloc))


def one_agent_picks(inst):
    """A debug run whose every pick goes to agent 0, envied or not."""
    real = algorithms._first_unenvied
    algorithms._first_unenvied = lambda *args: 0
    try:
        return "fault " + outcome(lambda: efl_allocate(inst, debug=True))
    finally:
        algorithms._first_unenvied = real


def show_threshold(threshold):
    return (f"{threshold.value} {list(threshold.witness_group)} "
            f"{[sorted(b) for b in threshold.witness_partition]}")


def threshold_records(inst, rng):
    n, m = inst.num_agents, inst.num_goods
    for alloc in (efl_allocate(inst), random_allocation(rng, n, m, 0)):
        for agent in range(n):
            yield "threshold " + outcome(
                lambda: gmms_threshold(inst, alloc, agent), show_threshold)
    good = random_allocation(rng, n, m, 0).bundles
    malformed = [good[:-1], good + (frozenset(),),
                 (good[0] | {m},) + good[1:], (good[0] | {True},) + good[1:]]
    if m:
        partial = list(good)
        partial[rng.randrange(n)] = frozenset()
        malformed.append(tuple(partial))
    for bundles in malformed:
        for agent in (0, n):
            yield "threshold " + outcome(
                lambda: gmms_threshold(inst, Allocation(bundles), agent), show_threshold)
    for agent in (-1, n, True, "0"):
        yield "threshold " + outcome(
            lambda: gmms_threshold(inst, Allocation(good), agent), show_threshold)


POLICY_DOCS = [
    [], "x", None, {"sources": "x"}, {"goods": [1.5]}, {"goods": [True]},
    {"sources": [None, -1]}, {"source": [1], "good": [2]},
    {"a": 1, "b": 2, "c": 3, "d": 4, "e": 5, "sources": None},
    {"sources": [0, None], "goods": None},
]


def records(n_max, m_max, threshold_m_max, seed=26):
    """Every record of the sweep, in order."""
    rng = random.Random(seed)
    for doc in POLICY_DOCS:
        yield "policy " + outcome(lambda: TieBreakPolicy.from_doc(doc),
                                  lambda policy: repr(policy.to_doc()))
    for n in range(2, 7):
        inst, _ = efl_tight(n)
        yield "tight " + outcome(
            lambda: efl_allocate(inst, efl_tight_policy(n), debug=True))
    for inst in instances(rng, n_max, m_max):
        yield from allocator_records(inst, rng)
        if inst.num_agents > 1:
            yield one_agent_picks(inst)
        if inst.num_goods <= threshold_m_max:
            yield from threshold_records(inst, rng)


def digest(lines):
    """(count, sha256 hex digest) of the records, one per line."""
    h = hashlib.sha256()
    count = 0
    for line in lines:
        h.update(line.encode("utf-8") + b"\n")
        count += 1
    return count, h.hexdigest()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--slice", action="store_true",
                        help="the small slice that the test suite pins")
    args = parser.parse_args(argv)
    count, hexdigest = digest(records(**(SLICE if args.slice else FULL)))
    print(f"{count} records sha256 {hexdigest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
