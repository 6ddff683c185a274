import functools
import itertools
import math
import pickle
import random
from fractions import Fraction

import numpy as np
import pytest

from gmms import (Allocation, GenSpec, InputError, Instance, MaximinResult,
                  bundle_value, efl_allocate, exact_gmms_search, generate,
                  gmms_factor, gmms_threshold, is_gmms, maximin,
                  maximin_exceeds, maximin_share, maximin_share_naive, mms)
from gmms.fairness import CHECKERS
from gmms.maximin import _agent_ints, _beating_groups, _pool_share
from gmms.generator import efl_tight, kwise_boundary, mms_not_gmms


def iter_groups(num_agents, agent, size=None):
    """Groups containing `agent`, by increasing size then lexicographic: the
    order _beating_groups keeps, here unpruned."""
    sizes = range(1, num_agents + 1) if size is None else (size,)
    for k in sizes:
        for combo in itertools.combinations(range(num_agents), k):
            if agent in combo:
                yield combo


def random_instance(rng, n, m, max_num=10, max_den=4):
    return Instance.from_rows(
        [[Fraction(rng.randrange(0, max_num + 1), rng.randrange(1, max_den + 1))
          for _ in range(m)] for _ in range(n)])


def check_witness(inst, agent, result, goods, parts):
    assert len(result.witness) == parts
    union = frozenset().union(*result.witness)
    assert union == frozenset(goods)
    assert sum(len(b) for b in result.witness) == len(frozenset(goods))
    assert min(bundle_value(inst, agent, b) for b in result.witness) == result.value


def test_kwise_fixture_full_pool():
    inst, _ = kwise_boundary(4, 9)
    result = maximin_share(inst, 0, range(8), 4)
    assert result.value == 6
    check_witness(inst, 0, result, range(8), 4)


def test_tight_fixture_grand_share():
    inst, _ = efl_tight(4)
    result = maximin_share(inst, 0, range(10), 4)
    assert result.value == Fraction(7, 4)
    check_witness(inst, 0, result, range(10), 4)


def test_more_parts_than_valued_goods():
    inst = Instance.from_rows([[5, 0, 0]])
    assert maximin_share(inst, 0, range(3), 2).value == 0


def test_parts_zero_rejected():
    inst = Instance.from_rows([[1]])
    with pytest.raises(InputError):
        maximin_share(inst, 0, {0}, 0)
    with pytest.raises(InputError):
        maximin_share_naive(inst, 0, {0}, 0)


def test_naive_single_part_is_total():
    inst = Instance.from_rows([[2, 3, 5]])
    result = maximin_share_naive(inst, 0, range(3), 1)
    assert result.value == 10


def test_naive_empty_goods():
    inst = Instance.from_rows([[1, 1]])
    result = maximin_share_naive(inst, 0, frozenset(), 3)
    assert result.value == 0
    assert result.witness == (frozenset(),) * 3


def test_naive_size_guard():
    inst = Instance.from_rows([[1] * 20])
    with pytest.raises(InputError):
        maximin_share_naive(inst, 0, range(15), 2)


@pytest.mark.parametrize("seed", range(30))
def test_search_matches_naive(seed):
    rng = random.Random(seed)
    inst = random_instance(rng, 2, 6)
    goods = frozenset(g for g in range(6) if rng.random() < 0.8)
    parts = rng.randrange(1, 5)
    fast = maximin_share(inst, 0, goods, parts)
    slow = maximin_share_naive(inst, 0, goods, parts)
    assert fast.value == slow.value
    check_witness(inst, 0, fast, goods, parts)
    check_witness(inst, 0, slow, goods, parts)


@pytest.mark.parametrize("seed", range(15))
def test_exceeds_agrees_with_value(seed):
    rng = random.Random(100 + seed)
    inst = random_instance(rng, 1, 7)
    parts = rng.randrange(1, 4)
    value = maximin_share(inst, 0, range(7), parts).value
    assert not maximin_exceeds(inst, 0, range(7), parts, value)
    if value > 0:
        below = value - Fraction(1, 1000)
        assert maximin_exceeds(inst, 0, range(7), parts, below)


def test_averaging_bound():
    rng = random.Random(5)
    for _ in range(20):
        inst = random_instance(rng, 1, 7)
        total = bundle_value(inst, 0, range(7))
        for k in range(1, 5):
            assert maximin_share(inst, 0, range(7), k).value <= total / k


def test_restriction_invariance():
    rng = random.Random(6)
    for _ in range(20):
        inst = random_instance(rng, 1, 8, max_num=3, max_den=1)
        positive = frozenset(g for g in range(8) if inst.valuations[0][g] > 0)
        for k in (2, 3):
            assert (maximin_share(inst, 0, range(8), k).value
                    == maximin_share(inst, 0, positive, k).value)


def test_monotone_removal():
    # deleting one witness part and decrementing k never lowers the share
    rng = random.Random(9)
    for _ in range(20):
        inst = random_instance(rng, 1, 8)
        k = rng.randrange(2, 5)
        result = maximin_share(inst, 0, range(8), k)
        for drop in range(k):
            kept = frozenset().union(*(b for j, b in enumerate(result.witness)
                                       if j != drop))
            reduced = maximin_share(inst, 0, kept, k - 1)
            assert reduced.value >= result.value


def test_mms_fixture_values():
    inst, _ = mms_not_gmms(4, Fraction(1), Fraction(1, 100))
    for i in range(3):
        assert mms(inst, i).value == 1
    assert mms(inst, 3).value == Fraction(1, 50)


def test_mms_zero_when_more_agents_than_goods():
    inst, _ = kwise_boundary(4, 9)
    for i in range(9):
        assert mms(inst, i).value == 0


def test_gmms_threshold_fixture_witnesses():
    inst, ref = mms_not_gmms(4, Fraction(1), Fraction(1, 100))
    t = gmms_threshold(inst, ref, 3)
    assert t.value == Fraction(101, 100)
    assert t.witness_group == (1, 3)
    inst2, ref2 = kwise_boundary(4, 9)
    t2 = gmms_threshold(inst2, ref2, 0)
    assert t2.value == 6
    assert t2.witness_group == (0, 1, 2, 3)


def test_gmms_threshold_single_agent():
    inst = Instance.from_rows([[2, 3]])
    alloc = Allocation.from_lists([[0, 1]])
    assert gmms_threshold(inst, alloc, 0).value == 5


def test_gmms_threshold_rejects_partial():
    inst = Instance.from_rows([[1, 1], [1, 1]])
    with pytest.raises(InputError):
        gmms_threshold(inst, Allocation.from_lists([[0], []]), 0)


def gmms_threshold_oracle(inst, alloc, agent):
    """Max share over every group containing the agent, no skipping, naive mu."""
    best = None
    for size in range(1, inst.num_agents + 1):
        for group in itertools.combinations(range(inst.num_agents), size):
            if agent not in group:
                continue
            pooled = frozenset().union(*(alloc.bundles[j] for j in group))
            value = maximin_share_naive(inst, agent, pooled, size).value
            if best is None or value > best:
                best = value
    return best


@pytest.mark.parametrize("seed", range(10))
def test_gmms_threshold_matches_group_oracle(seed):
    rng = random.Random(200 + seed)
    inst = random_instance(rng, 3, 7)
    vec = [rng.randrange(3) for _ in range(7)]
    alloc = Allocation.from_lists(
        [[g for g, a in enumerate(vec) if a == i] for i in range(3)])
    for agent in range(3):
        assert (gmms_threshold(inst, alloc, agent).value
                == gmms_threshold_oracle(inst, alloc, agent))


def test_full_group_term_equals_mms():
    rng = random.Random(42)
    inst = random_instance(rng, 3, 6)
    vec = [rng.randrange(3) for _ in range(6)]
    alloc = Allocation.from_lists(
        [[g for g, a in enumerate(vec) if a == i] for i in range(3)])
    for agent in range(3):
        assert gmms_threshold(inst, alloc, agent).value >= mms(inst, agent).value


@pytest.mark.parametrize("agent", [-1, 2])
def test_oracles_reject_agent_out_of_range(agent):
    inst = Instance.from_rows([[1, 2, 3], [3, 2, 1]])
    alloc = Allocation.from_lists([[0], [1, 2]])
    with pytest.raises(InputError):
        maximin_share(inst, agent, range(3), 2)
    with pytest.raises(InputError):
        maximin_exceeds(inst, agent, range(3), 2, Fraction(0))
    with pytest.raises(InputError):
        gmms_threshold(inst, alloc, agent)


def test_agent_order_breaks_ties_by_index():
    # witnesses map the kernel's values back to goods through this order
    inst = Instance.from_rows([[2, 0, 3, 2, 3, 1, 0, Fraction(3, 2)]])
    denom, ints, order = _agent_ints(inst, 0)
    assert (denom, ints) == (2, (4, 0, 6, 4, 6, 2, 0, 3))
    assert order == (2, 4, 0, 3, 7, 5)
    rng = random.Random(77)
    for _ in range(200):
        inst = random_instance(rng, 1, rng.randrange(0, 12), max_num=3)
        _, ints, order = _agent_ints(inst, 0)
        assert order == tuple(sorted((g for g in range(len(ints)) if ints[g] > 0),
                                     key=lambda g: (-ints[g], g)))


def test_view_is_cached_and_invisible(monkeypatch):
    # the view is built once per instance, on first use, and leaves ==,
    # hash, repr and pickling as they were
    rows = [[3, 0, Fraction(1, 2), 2, 1], [0, 0, 0, 0, 0], [1, 4, 2, Fraction(3, 4), 1]]
    built, fresh = Instance.from_rows(rows), Instance.from_rows(rows)
    alloc = Allocation.from_lists([[0, 1], [2], [3, 4]])
    scaled = []
    real_lcm = math.lcm
    monkeypatch.setattr(math, "lcm", lambda *ds: scaled.append(ds) or real_lcm(*ds))

    def outputs(inst):
        docs = [checker(inst, alloc).to_doc() for checker in CHECKERS.values()]
        return (docs, gmms_factor(inst, alloc), exact_gmms_search(inst).to_doc(),
                [mms(inst, a).to_doc() for a in range(3)])

    expected = outputs(built)
    outputs(built)
    assert len(scaled) == 3  # one lcm per row, over both rounds
    assert "_units" in vars(built) and "_units" not in vars(fresh)
    assert built == fresh and hash(built) == hash(fresh)
    assert repr(built) == repr(fresh)
    for inst in (built, fresh):
        copy = pickle.loads(pickle.dumps(inst))
        assert copy == inst and outputs(copy) == expected
    monkeypatch.undo()
    assert outputs(fresh) == expected


def test_exceeds_rejects_float_threshold():
    inst = Instance.from_rows([[1, 2, 3]])
    for bad in (0.5, "3", True):
        with pytest.raises(InputError):
            maximin_exceeds(inst, 0, range(3), 2, bad)
    assert maximin_exceeds(inst, 0, range(3), 2, 2)
    assert not maximin_exceeds(inst, 0, range(3), 2, Fraction(3))


def random_sparse_instance(rng, n, m):
    """Values with zeros and mixed denominators; some agents end up with an
    empty bundle in random_allocation."""
    return Instance.from_rows(
        [[0 if rng.random() < 0.3 else
          Fraction(rng.randrange(1, 13), rng.choice([1, 2, 3, 5, 10]))
          for _ in range(m)] for _ in range(n)])


def random_allocation(rng, n, m):
    vec = [rng.randrange(n) for _ in range(m)]
    return Allocation.from_lists(
        [[g for g, a in enumerate(vec) if a == i] for i in range(n)])


@pytest.mark.parametrize("seed", range(12))
def test_gmms_threshold_is_first_strict_maximum(seed):
    rng = random.Random(700 + seed)
    n, m = rng.randrange(1, 5), rng.randrange(0, 9)
    inst = random_sparse_instance(rng, n, m)
    alloc = random_allocation(rng, n, m)
    for agent in range(n):
        value, group = None, None
        for g in iter_groups(n, agent):
            pooled = frozenset().union(*(alloc.bundles[j] for j in g))
            mu = maximin_share_naive(inst, agent, pooled, len(g)).value
            if value is None or mu > value:
                value, group = mu, g
        t = gmms_threshold(inst, alloc, agent)
        assert (t.value, t.witness_group) == (value, group)
        pooled = frozenset().union(*(alloc.bundles[j] for j in group))
        check_witness(inst, agent, MaximinResult(t.value, t.witness_partition),
                      pooled, len(group))


def unpruned_beating_groups(ints, order, bundles, agent, floor=-1, size=None,
                            goal=None):
    """The walker without its prune: every group in iter_groups order, but
    for the empty co-member skip, is pooled and handed to the kernel."""
    for group in iter_groups(len(bundles), agent, size):
        if size is None and any(j != agent and not bundles[j] for j in group):
            continue
        pooled = frozenset().union(*(bundles[j] for j in group))
        value, witness = _pool_share(ints, order, pooled, len(group), floor, goal)
        if witness is not None:
            floor = value
            yield group, value, witness


def walker_case(rng, n):
    """Small integer or fractional rows with ties and zeros, sometimes an
    all-zero row, and a random allocation, often with empty bundles."""
    m = rng.randrange(0, 2 * n + 3)
    pick = rng.choice([[0, 1, 1, 2], [0, 0, 1, 2, 3, 5],
                       [Fraction(1, 2), Fraction(1, 3), 1, 0]])
    rows = [[rng.choice(pick) for _ in range(m)] for _ in range(n)]
    if rng.random() < 0.2:
        rows[rng.randrange(n)] = [0] * m
    return Instance.from_rows(rows), random_allocation(rng, n, m)


def test_walker_matches_unpruned_loop():
    # the prune drops only groups whose summed bundle value cannot beat the
    # floor, so every yield, and the floor each one sets, is unchanged
    rng = random.Random(4242)
    walks = 0
    for case in range(64):
        n = case % 8 + 1
        inst, alloc = walker_case(rng, n)
        for agent in range(n):
            _, ints, order = _agent_ints(inst, agent)
            own = sum(ints[g] for g in alloc.bundles[agent])
            floors = (-1, own, rng.randrange(0, sum(ints) + 2))
            for size, floor, goal in itertools.product(
                    (None, *range(1, n + 1)), floors, (None, own + 1)):
                args = (ints, order, alloc.bundles, agent, floor, size, goal)
                assert (list(_beating_groups(*args))
                        == list(unpruned_beating_groups(*args))), (case, args)
                walks += 1
    assert walks == 11520


def pool_share_calls(monkeypatch, call):
    """call()'s result and the number of groups it pooled for the kernel."""
    calls = []
    real = maximin._pool_share

    def spy(*args):
        calls.append(args)
        return real(*args)

    with monkeypatch.context() as patch:
        patch.setattr(maximin, "_pool_share", spy)
        return call(), len(calls)


def test_pooled_group_counts_pinned(monkeypatch):
    # no result changes when the prune gets weaker, so pin how many groups
    # reach the share kernel; the unpruned loop pools 6146 groups for is_gmms
    # and 2048 per agent for gmms_threshold here
    inst = generate(GenSpec(12, 36, "uniform", False, 1))
    alloc = efl_allocate(inst)
    report, calls = pool_share_calls(monkeypatch, lambda: is_gmms(inst, alloc))
    assert (report.witness.agent, report.witness.other) == (3, (0, 3))
    assert calls == 1
    counts = [pool_share_calls(monkeypatch,
                               lambda: gmms_threshold(inst, alloc, i))[1]
              for i in range(12)]
    assert counts == [1, 1, 1, 2, 2, 3, 1, 1, 1, 3, 5, 1]


def test_walker_is_output_sensitive_at_n16(monkeypatch, extensions):
    # 16 agents have 2**15 groups each; the first violation is found after
    # pooling 3 of the 393,223 groups the unpruned loop pools. The full
    # walk from agent 12's own value pools 7 of her 32,768 groups, 2 of
    # which beat the floor so far, and extends a prefix of co-members 282
    # times to find them
    inst = generate(GenSpec(16, 48, "uniform", False, 1))
    alloc = efl_allocate(inst)
    report, calls = pool_share_calls(monkeypatch, lambda: is_gmms(inst, alloc))
    assert report.witness.to_doc() == {
        "agent": 12, "other": [5, 12], "lhs": "606009/250000",
        "rhs": "2439333/1000000",
        "partition": [[14, 27, 40], [13, 30, 37, 38]]}
    assert calls == 3

    _, ints, order = _agent_ints(inst, 12)
    own = sum(ints[g] for g in alloc.bundles[12])
    (found, extended), calls = pool_share_calls(monkeypatch, lambda: extensions(
        lambda: list(_beating_groups(ints, order, alloc.bundles, 12, own))))
    assert [group for group, _, _ in found] == [(5, 12), (11, 12)]
    assert (calls, extended) == (7, 282)


def recursive_rgs(m, k):
    """Independent oracle: the restricted-growth strings by recursion."""
    out, assign = [], [0] * m

    def rec(t, used):
        if t == m:
            out.append(tuple(assign))
            return
        for j in range(min(used + 1, k)):
            assign[t] = j
            rec(t + 1, max(used, j + 1))

    rec(0, 0)
    return out


@pytest.mark.parametrize("k", [1, 2, 3, 4, 6])
def test_restricted_growth_matches_recursive_oracle(k):
    from gmms.maximin import _restricted_growth
    for m in range(0, 8):
        assert [tuple(a) for a in _restricted_growth(m, k)] == recursive_rgs(m, k)



def lpt_seed(vals, k):
    """The kernel's LPT seed as a loop of its own: each value goes to the
    first bin of least sum."""
    sums, assign = [0] * k, []
    for v in vals:
        j = min(range(k), key=sums.__getitem__)
        sums[j] += v
        assign.append(j)
    return min(sums), assign


def waterfill_ok(sums, level, remaining):
    """The kernel's bound as a function of its own: can `remaining` lift
    every bin to `level`? A False answer proves no completion reaches it."""
    return sum(level - s for s in sums if s < level) <= remaining


def recursive_best_partition(vals, k, floor=-1, goal=None, raises=None):
    """Independent oracle: the share kernel as a recursive search, with a
    restricted-growth bound and a per-node set of tried sums, and no closed
    form: every pool with at least k values is searched. Returns the result
    and the number of placements, each tested once against the bound. The
    explicit stack in maximin._best_partition must agree with it on value
    and witness. A `raises` list gets the min of each improving leaf that
    stays below the goal, so the search goes on with a raised bound."""
    p = len(vals)
    if p < k:
        return ((0, list(range(p))) if floor < 0 else (floor, None)), 0
    suffix = [0] * (p + 1)
    for i in range(p - 1, -1, -1):
        suffix[i] = suffix[i + 1] + vals[i]
    step = math.gcd(*vals)
    cap = suffix[0] // (k * step) * step
    if cap <= floor:
        return (floor, None), 0
    if goal is None:
        goal = cap
    best, best_assign = floor, None
    seed, seed_assign = lpt_seed(vals, k)
    if seed > best:
        best, best_assign = seed, seed_assign
        if best >= goal:
            return (best, best_assign), 0
    sums = [0] * k
    assign = [0] * p
    placed = 0

    def dfs(t, used):
        nonlocal best, best_assign, placed
        if t == p:
            m = min(sums)
            if m > best:
                best, best_assign = m, assign[:]
                if raises is not None and best < goal:
                    raises.append(best)
            return best >= goal
        limit = min(used + 1, k)
        tried = set()
        for j in range(limit):
            s = sums[j]
            if s in tried:
                continue
            tried.add(s)
            sums[j] = s + vals[t]
            assign[t] = j
            placed += 1
            if waterfill_ok(sums, best + 1, suffix[t + 1]):
                if dfs(t + 1, max(used, j + 1)):
                    sums[j] = s
                    return True
            sums[j] = s
        return False

    dfs(0, 0)
    return (best, best_assign), placed


def test_best_partition_matches_recursive_oracle(placements):
    from gmms import maximin
    # placements are counted too: a weaker symmetry rule finds the same
    # leaves, but only after more tries. Pools with one part or at most two
    # values more than parts are decided by the LPT seed, with no placement
    # at all
    rng = random.Random(2024)
    below = 0  # cases whose floor lies below the optimum
    total = 0
    for case in range(2000):
        p, k = rng.randrange(0, 13), rng.randrange(1, 7)
        kind = case % 3
        if kind == 0:  # 6-digit values, as the generator draws them
            vals = [rng.randrange(1, 10 ** 6) for _ in range(p)]
        elif kind == 1:  # small integers, with many ties
            vals = [rng.randrange(1, 6) for _ in range(p)]
        else:  # multiples of a common gcd, so the cap steps by it
            step = rng.randrange(2, 9)
            vals = [step * rng.randrange(1, 20) for _ in range(p)]
        vals.sort(reverse=True)
        cap = sum(vals) // k
        forms = [(vals, k)]  # optimisation form
        floor = rng.randrange(-1, cap + 2)
        forms.append((vals, k, floor))  # optimisation above a floor
        forms.append((vals, k, floor, floor + 1))  # decision form
        goal = rng.randrange(floor + 1, cap + 3)
        forms.append((vals, k, floor, goal))  # stop at a goal
        results = []
        for args in forms:
            found, placed = placements(lambda: maximin._best_partition(*args))
            expected, searched = recursive_best_partition(*args)
            assert found == expected, args
            if k == 1 or p <= k + 2:
                assert placed == 0, args
            else:
                assert placed == searched, args
            total += searched
            results.append(found)
        # from a floor below the optimum, the optimisation form finds the
        # same partition as from floor -1; the group walker relies on it
        if floor < results[0][0]:
            below += 1
            assert results[1] == results[0], (vals, k, floor)
    assert total > 100_000
    assert below > 500


@functools.cache
def audit_width_pools():
    """(args, expected, searched, raises) for 60 seeded pools with 7 or 8
    parts, as a (7, 11) audit instance pools, and 10 to 14 values, each in
    the four forms of the narrower sweep; `raises` as in the oracle. Every
    pool is searched. The seed gives improving leaves below the goal (25)
    and bins that stay below the bound or cross it, at a small cost."""
    rng = random.Random(2025)
    pools = []
    for case in range(60):
        k = rng.randrange(7, 9)
        p = rng.randrange(k + 3, 15)
        kind = case % 3
        if kind == 0:
            vals = [rng.randrange(1, 10 ** 6) for _ in range(p)]
        elif kind == 1:
            vals = [rng.randrange(1, 6) for _ in range(p)]
        else:
            step = rng.randrange(2, 9)
            vals = [step * rng.randrange(1, 20) for _ in range(p)]
        vals.sort(reverse=True)
        cap = sum(vals) // k
        floor = rng.randrange(-1, cap + 2)
        goal = rng.randrange(floor + 1, cap + 3)
        for args in ((vals, k), (vals, k, floor), (vals, k, floor, floor + 1),
                     (vals, k, floor, goal)):
            raises = []
            expected, searched = recursive_best_partition(*args, raises=raises)
            pools.append((args, expected, searched, raises))
    return pools


def test_best_partition_matches_recursive_oracle_at_audit_widths(placements):
    from gmms import maximin
    total = 0
    for args, expected, searched, _ in audit_width_pools():
        found, placed = placements(lambda: maximin._best_partition(*args))
        assert found == expected, args
        assert placed == searched, args
        total += searched
    assert total > 50_000


def test_deficit_recomputes_pinned(levels):
    # the kernel keeps its water-filling deficit as a running sum, and sums
    # it afresh only when an improving leaf short of the goal raises the
    # bound: 25 times over the sweep, against 85,654 placements; a walk of
    # the bins at each placement would run once per placement
    from gmms import maximin
    pools = audit_width_pools()
    _, recomputes = levels(lambda: [maximin._best_partition(*args)
                                    for args, _, _, _ in pools])
    assert recomputes == sum(len(raises) for _, _, _, raises in pools) == 25
    assert sum(searched for _, _, searched, _ in pools) == 85_654


def test_best_partition_at_the_wall_size():
    # the regression point of the m=20, k=4 timings: agent 0's grand bundle
    # of GenSpec(4, 20, "uniform", False, 0), whose other seeds take seconds
    from gmms.maximin import _best_partition
    _, ints, order = generate(GenSpec(4, 20, "uniform", False, 0))._units[0]
    vals = [ints[g] for g in order]
    best, assign = _best_partition(vals, 4)
    assert best == 2_561_321
    parts = [0] * 4
    for v, j in zip(vals, assign):
        parts[j] += v
    assert min(parts) == best


def test_closed_form_pools_match_full_search(placements):
    # every pool the kernel decides without a search: one part, or k, k + 1
    # or k + 2 values; small values with ties, and multiples of a common gcd
    from gmms.maximin import _best_partition
    pools = 0
    for values in (range(1, 5), (2, 4, 6, 8), (3, 6, 9)):
        for k in range(1, 5):
            for p in range(1, 5) if k == 1 else (k, k + 1, k + 2):
                for combo in itertools.combinations_with_replacement(values, p):
                    vals = sorted(combo, reverse=True)
                    cap = sum(vals) // k
                    pools += 1
                    for floor in range(-1, cap + 2):
                        for goal in (None, floor + 1, cap):
                            args = (vals, k, floor, goal)
                            found, placed = placements(
                                lambda: _best_partition(*args))
                            assert found == recursive_best_partition(*args)[0], args
                            assert placed == 0, args
    assert pools > 1000


def test_lpt_seed_is_optimal_with_two_values_more_than_parts():
    # every pool of k + 2 values from 1-7, ties included, for k = 2-5: the
    # seed's min equals the best min over every partition
    from gmms.maximin import _lpt_seed, _restricted_growth
    pools = 0
    for k in range(2, 6):
        p = k + 2
        # column t * k + j of onehot is 1 when an assignment puts value t in
        # bin j, so vals @ onehot gives every assignment's bin sums
        assigns = np.array([a[:] for a in _restricted_growth(p, k)])
        onehot = np.zeros((len(assigns), p, k), dtype=np.int64)
        rows, cols = np.indices(assigns.shape)
        onehot[rows, cols, assigns] = 1
        for combo in itertools.combinations_with_replacement(range(7, 0, -1), p):
            vals = np.array(combo)
            optimum = int(np.einsum("t,atj->aj", vals, onehot).min(axis=1).max())
            assert _lpt_seed(list(combo), k)[0] == optimum, (combo, k)
            pools += 1
    assert pools == 3312


def test_lpt_seed_misses_with_three_values_more_than_parts(placements):
    # the closed form stops at k + 2: here the seed pairs 3 + 2 against
    # 3 + 2 + 2, while 3 + 3 against 2 + 2 + 2 is better, so the pool is
    # searched and the search finds it
    from gmms.maximin import _best_partition, _lpt_seed
    vals = [3, 3, 2, 2, 2]
    assert _lpt_seed(vals, 2)[0] == 5
    (best, assign), placed = placements(lambda: _best_partition(vals, 2))
    assert (best, assign) == (6, [0, 0, 1, 1, 1])
    assert placed > 0
    assert recursive_best_partition(vals, 2) == ((6, [0, 0, 1, 1, 1]), placed)


def long_pool_instance():
    """Two agents valuing 1201 goods as [3, 3] + [2] * 1199. The LPT seed's
    min is 1201 and the optimum 1202, so the share search must place all
    1201 goods on one path: deeper than the default recursion limit."""
    row = [3, 3] + [2] * 1199
    return Instance.from_rows([row, row])


def test_share_is_not_bounded_by_recursion_depth():
    from gmms import is_gmms
    inst = long_pool_instance()
    goods = range(inst.num_goods)
    result = maximin_share(inst, 0, goods, 2)
    assert result.value == 1202
    check_witness(inst, 0, result, goods, 2)
    report = is_gmms(inst, Allocation.from_lists([[0], list(range(1, 1201))]))
    assert not report.holds
    witness = report.witness
    assert (witness.agent, witness.other, witness.lhs) == (0, (0, 1), 3)
    assert witness.rhs == 1202
    check_witness(inst, 0, MaximinResult(witness.rhs, witness.partition), goods, 2)
