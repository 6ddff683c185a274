import itertools
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from gmms import (Allocation, BudgetError, InputError, Instance, PolicyError,
                  TieBreakPolicy, algorithms, build_envy_graph, bundle_value,
                  efl_allocate, exact_gmms_search, gmms_factor, is_ef1, is_efl,
                  is_gmms, lex_dominates, lexmax_allocation, resolve_envy_cycles,
                  serialize_allocation)
from gmms.algorithms import EnvyGraph
from gmms.core import _is_json_int, _quote
from gmms.fairness import _efx_hit, _envied
from gmms.maximin import _agent_ints, _beating_groups, _lpt_seed
from gmms.generator import (GenSpec, efl_tight, efl_tight_policy, generate,
                            mms_not_ef1)


def random_allocation(rng, n, m, low=0):
    """Each good to a random agent; with low=-1, some goods to none."""
    vec = [rng.randrange(low, n) for _ in range(m)]
    return Allocation.from_lists(
        [[g for g, a in enumerate(vec) if a == i] for i in range(n)])


def test_envy_graph_edges():
    inst = Instance.from_rows([[2, 1], [1, 2]])
    graph = build_envy_graph(inst, Allocation.from_lists([[1], [0]]))
    assert graph.edges == frozenset({(0, 1), (1, 0)})
    assert graph.sources() == []


def test_envy_graph_no_edges_when_happy():
    inst = Instance.from_rows([[2, 1], [1, 2]])
    graph = build_envy_graph(inst, Allocation.from_lists([[0], [1]]))
    assert graph.edges == frozenset()
    assert sorted(graph.sources()) == [0, 1]


@pytest.mark.parametrize("lists", [
    [[0]],  # one bundle short
    [[0], [1], []],  # one bundle too many
    [[0], [2]],  # good 2 is past the last good
    [[True], [0]],  # a bool is no good index, though True == 1
])
def test_envy_graph_family_checks_the_allocation(lists):
    # the family's entry points reach the package's one checked entry,
    # fairness._checked: each refuses what Allocation.validate refuses,
    # with its message
    inst = Instance.from_rows([[2, 1], [1, 2]])
    alloc = Allocation.from_lists(lists)
    with pytest.raises(InputError) as expected:
        alloc.validate(inst)
    for call in (lambda: EnvyGraph.from_allocation(inst, alloc.bundles),
                 lambda: build_envy_graph(inst, alloc),
                 lambda: resolve_envy_cycles(inst, alloc)):
        with pytest.raises(InputError) as caught:
            call()
        assert str(caught.value) == str(expected.value)


def test_resolve_two_cycle_swap():
    inst = Instance.from_rows([[2, 1], [1, 2]])
    resolved = resolve_envy_cycles(inst, Allocation.from_lists([[1], [0]]))
    assert resolved.bundles == (frozenset({0}), frozenset({1}))


def test_resolve_preserves_bundles_and_improves():
    rng = random.Random(5)
    for _ in range(30):
        n, m = rng.randrange(2, 5), rng.randrange(1, 7)
        inst = Instance.from_rows(
            [[rng.randrange(0, 6) for _ in range(m)] for _ in range(n)])
        alloc = random_allocation(rng, n, m)
        resolved = resolve_envy_cycles(inst, alloc)
        assert sorted(tuple(sorted(b)) for b in resolved.bundles) == \
            sorted(tuple(sorted(b)) for b in alloc.bundles)
        for i in range(n):
            assert bundle_value(inst, i, resolved.bundles[i]) >= \
                bundle_value(inst, i, alloc.bundles[i])
        assert build_envy_graph(inst, resolved).find_cycle() is None


def recursive_find_cycle(graph):
    """The recursive depth-first search EnvyGraph.find_cycle must agree with."""
    succ = [[] for _ in range(graph.num_agents)]
    for i, j in sorted(graph.edges):
        succ[i].append(j)
    color = [0] * graph.num_agents
    stack = []

    def visit(u):
        color[u] = 1
        stack.append(u)
        for v in succ[u]:
            if color[v] == 1:
                return stack[stack.index(v):]
            if color[v] == 0:
                cycle = visit(v)
                if cycle is not None:
                    return cycle
        stack.pop()
        color[u] = 2
        return None

    for start in range(graph.num_agents):
        if color[start] == 0:
            cycle = visit(start)
            if cycle is not None:
                return cycle
    return None


def test_find_cycle_long_ring():
    n = 1500
    ring = EnvyGraph(n, frozenset((i, (i + 1) % n) for i in range(n)))
    assert ring.find_cycle() == list(range(n))
    path = EnvyGraph(n, frozenset((i, i + 1) for i in range(n - 1)))
    assert path.find_cycle() is None


def test_find_cycle_matches_recursive_search():
    rng = random.Random(41)
    cycles = 0
    for _ in range(400):
        n = rng.randrange(1, 9)
        density = rng.random() * 0.5
        edges = frozenset((i, j) for i in range(n) for j in range(n)
                          if i != j and rng.random() < density)
        graph = EnvyGraph(n, edges)
        expected = recursive_find_cycle(graph)
        assert graph.find_cycle() == expected
        cycles += expected is not None
    assert 50 < cycles < 350


def test_efl_single_agent_takes_everything():
    inst = Instance.from_rows([[3, 1, 2]])
    assert efl_allocate(inst).bundles == (frozenset({0, 1, 2}),)


def test_efl_output_is_complete_efl_ef1():
    rng = random.Random(9)
    for _ in range(40):
        n, m = rng.randrange(1, 5), rng.randrange(0, 9)
        inst = Instance.from_rows(
            [[rng.randrange(0, 7) for _ in range(m)] for _ in range(n)])
        alloc = efl_allocate(inst, debug=True)
        alloc.validate(inst)
        assert is_efl(inst, alloc).holds
        assert is_ef1(inst, alloc).holds


def test_efl_half_share_guarantee():
    rng = random.Random(13)
    for _ in range(25):
        n, m = rng.randrange(2, 4), rng.randrange(2, 8)
        inst = Instance.from_rows(
            [[rng.randrange(0, 7) for _ in range(m)] for _ in range(n)])
        factor = gmms_factor(inst, efl_allocate(inst))
        assert factor is None or factor >= Fraction(1, 2)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_efl_tightness_trace(n):
    inst, ref = efl_tight(n)
    alloc = efl_allocate(inst, policy=efl_tight_policy(n), debug=True)
    assert alloc.bundles == ref.bundles
    assert gmms_factor(inst, alloc) == Fraction(n, 2 * n - 1)


def test_policy_rejects_envied_source():
    inst = Instance.from_rows([[2, 1], [2, 1]])
    with pytest.raises(PolicyError, match="step 1: scripted source 0 is envied"):
        # after agent 0 takes good 0, agent 1 is the only unenvied agent
        efl_allocate(inst, policy=TieBreakPolicy(sources=(0, 0)))
    for source in (99, -1):
        # no agent, so neither envied nor unenvied
        with pytest.raises(PolicyError, match=f"source {source} is not an agent"):
            efl_allocate(inst, policy=TieBreakPolicy(sources=(source, None)))


def test_policy_rejects_non_top_good():
    inst = Instance.from_rows([[2, 1]])
    with pytest.raises(PolicyError):
        efl_allocate(inst, policy=TieBreakPolicy(goods=(1, None)))
    for good in (0.0, False):  # good 0 is the top good, but no int
        with pytest.raises(PolicyError, match=f"scripted good {good} is not"):
            efl_allocate(inst, policy=TieBreakPolicy(goods=(good, None)))


def test_policy_rejects_short_script():
    inst = Instance.from_rows([[1, 1, 1]])
    with pytest.raises(PolicyError):
        efl_allocate(inst, policy=TieBreakPolicy(goods=(0,)))


def test_policy_doc_round_trip():
    policy = efl_tight_policy(3)
    assert TieBreakPolicy.from_doc(policy.to_doc()) == policy
    with pytest.raises(PolicyError):
        TieBreakPolicy.from_doc({"goods": ["x"]})
    with pytest.raises(PolicyError, match="unknown"):
        TieBreakPolicy.from_doc({"source": [1, 0], "good": [5]})


def full_graph_efl_allocate(instance, policy=None, debug=False, pick=min,
                            log=None):
    """The allocator as it was before its picks walked columns: it builds
    the whole envy graph at every step and hands the good to pick(sources),
    the lowest unenvied agent by default. Kept as the oracle for
    allocations, debug runs and policy errors. `log`, when given, gets each
    step's (sources, rotations)."""
    n, m = instance.num_agents, instance.num_goods
    bundles = [frozenset()] * n
    last_good = [None] * n
    remaining = set(range(m))
    for step in range(m):
        graph = EnvyGraph.from_allocation(instance, bundles)
        sources = graph.sources()
        rotations = 0
        while not sources:
            cycle = graph.find_cycle()
            if cycle is None:
                raise AssertionError("sourceless envy graph must contain a cycle")
            algorithms._rotate_cycle(bundles, cycle)
            algorithms._rotate_cycle(last_good, cycle)
            graph = EnvyGraph.from_allocation(instance, bundles)
            sources = graph.sources()
            rotations += 1
            if rotations > n * n:
                raise AssertionError("cycle resolution failed to terminate")
        if log is not None:
            log.append((sources, rotations))
        agent = pick(sources)
        if policy is not None:
            scripted = policy.pick("sources", step)
            if scripted is not None:
                if not (_is_json_int(scripted) and 0 <= scripted < n):
                    raise PolicyError(f"step {step}: scripted source "
                                      f"{_quote(scripted)} is not an agent")
                if scripted not in sources:
                    raise PolicyError(
                        f"step {step}: scripted source {scripted} is envied")
                agent = scripted
        row = instance.valuations[agent]
        top = max(row[g] for g in remaining)
        good = min(g for g in remaining if row[g] == top)
        if policy is not None:
            scripted = policy.pick("goods", step)
            if scripted is not None:
                if (not _is_json_int(scripted) or scripted not in remaining
                        or row[scripted] != top):
                    raise PolicyError(
                        f"step {step}: scripted good {scripted} is not a "
                        f"highest-valued remaining good for agent {agent}")
                good = scripted
        bundles[agent] = bundles[agent] | {good}
        last_good[agent] = good
        remaining.discard(good)
        if debug:
            algorithms._assert_ef1_wrt_last(instance, bundles, last_good)
    return Allocation(tuple(bundles))


def efl_outcome(allocate, instance, **kw):
    """The serialized allocation, or the text of the PolicyError raised."""
    try:
        return serialize_allocation(allocate(instance, **kw))
    except PolicyError as exc:
        return f"PolicyError: {exc}"


def efl_sweep_instances(rng):
    """(instance, small) over n 1-8 x m 0-30: a generator draw, uniform or
    gaussian, independent or same-order in turn, and small integers
    (small=True), once more with a zero row. Small integers tie often and
    leave steps with no unenvied agent, so rotations run."""
    kinds = itertools.cycle(itertools.product(("uniform", "gaussian"), (False, True)))
    for n in range(1, 9):
        for m in range(31):
            dist, sop = next(kinds)
            yield generate(GenSpec(n, m, dist, sop, rng.randrange(10**6))), False
            rows = [[rng.choice((0, 0, 1, 2, 3)) for _ in range(m)] for _ in range(n)]
            yield Instance.from_rows(rows), True
            rows[rng.randrange(n)] = [0] * m
            yield Instance.from_rows(rows), True


def count_graph_builds(monkeypatch):
    """A list that gets one entry per EnvyGraph.from_allocation call."""
    builds, real = [], EnvyGraph.from_allocation

    def counted(instance, bundles):
        builds.append(1)
        return real(instance, bundles)

    monkeypatch.setattr(EnvyGraph, "from_allocation", staticmethod(counted))
    return builds


def count_calls(monkeypatch, name):
    """A Counter of calls to algorithms.<name>, keyed by the name of the
    calling function."""
    calls, real = Counter(), getattr(algorithms, name)

    def counted(*args):
        calls[sys._getframe(1).f_code.co_name] += 1
        return real(*args)

    monkeypatch.setattr(algorithms, name, counted)
    return calls


def test_efl_matches_full_graph_allocator(monkeypatch):
    # same allocations, debug runs included; the allocator builds no graph,
    # and its rotation step searches for a cycle only for each rotation, at
    # a step with no unenvied agent
    builds = count_graph_builds(monkeypatch)
    searches = count_calls(monkeypatch, "_first_cycle")
    rng = random.Random(71)
    swept = rotations = 0
    for inst, small in efl_sweep_instances(rng):
        log = []
        expected = efl_outcome(full_graph_efl_allocate, inst, debug=small, log=log)
        del builds[:]
        searches.clear()
        assert efl_outcome(efl_allocate, inst, debug=small) == expected
        assert builds == []
        assert searches == Counter(_rotate_first_cycle=sum(r for _, r in log))
        rotations += searches["_rotate_first_cycle"]
        swept += 1
    assert swept == 8 * 31 * 3
    assert rotations > 0


def test_efl_scripted_sources_match_full_graph_allocator():
    # a random valid script gives the same allocation; the same script with
    # one step set to an envied agent, or to no agent, the same error
    rng = random.Random(73)
    runs = envied = 0
    for inst, _ in efl_sweep_instances(rng):
        n = inst.num_agents
        if not inst.num_goods or rng.random() < 0.75:
            continue
        log, picks = [], []

        def pick(sources):
            picks.append(rng.choice(sources))
            return picks[-1]

        expected = serialize_allocation(
            full_graph_efl_allocate(inst, pick=pick, log=log))
        # None where the script takes the default, the lowest source
        script = [None if p == min(sources) and rng.random() < 0.5 else p
                  for p, (sources, _) in zip(picks, log)]
        policy = TieBreakPolicy(sources=tuple(script))
        assert efl_outcome(efl_allocate, inst, policy=policy) == expected
        assert efl_outcome(full_graph_efl_allocate, inst, policy=policy) == expected
        runs += 1
        step = rng.randrange(len(script))
        wrong = sorted(set(range(n)) - set(log[step][0])) + [n, -1, True, 0.0]
        script[step] = rng.choice(wrong)
        envied += _is_json_int(script[step]) and 0 <= script[step] < n
        policy = TieBreakPolicy(sources=tuple(script))
        text = efl_outcome(full_graph_efl_allocate, inst, policy=policy)
        assert text.startswith(f"PolicyError: step {step}: scripted source ")
        assert efl_outcome(efl_allocate, inst, policy=policy) == text
    assert runs > 150 and envied > 20


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_efl_tight_trace_matches_full_graph_allocator(n):
    inst, _ = efl_tight(n)
    policy = efl_tight_policy(n)
    assert (efl_outcome(efl_allocate, inst, policy=policy, debug=True)
            == efl_outcome(full_graph_efl_allocate, inst, policy=policy, debug=True))


def test_envied_script_error_matches_full_graph_allocator():
    inst = Instance.from_rows([[2, 1, 1], [2, 1, 1]])
    policy = TieBreakPolicy(sources=(0, 0, 0))
    text = "PolicyError: step 1: scripted source 0 is envied"
    assert efl_outcome(full_graph_efl_allocate, inst, policy=policy) == text
    assert efl_outcome(efl_allocate, inst, policy=policy) == text


def fraction_envy_edges(instance, bundles):
    """The envy graph's edges by a plain loop over the exact Fraction rows,
    apart from the integer view that the package's sums read."""
    n = instance.num_agents
    worth = [[sum((row[g] for g in b), Fraction(0)) for b in bundles]
             for row in instance.valuations]
    return frozenset((i, j) for i in range(n) for j in range(n)
                     if worth[i][i] < worth[i][j])


def fraction_resolve(instance, bundles):
    """resolve_envy_cycles on Fraction-row edges and the recursive cycle
    search: each round gives every agent on the first cycle the bundle of
    the agent after her."""
    n, bundles = instance.num_agents, list(bundles)
    while True:
        cycle = recursive_find_cycle(EnvyGraph(n, fraction_envy_edges(instance, bundles)))
        if cycle is None:
            return Allocation(tuple(bundles))
        taken = [bundles[cycle[(a + 1) % len(cycle)]] for a in range(len(cycle))]
        for agent, bundle in zip(cycle, taken):
            bundles[agent] = bundle


def test_envy_graph_matches_fraction_rows():
    # the envy graph sums the integer view; on partial and complete
    # allocations, a plain loop over the Fraction rows gives the same
    # edges, sources, first cycle and cycle resolution
    rng = random.Random(79)
    checked = cycles = 0
    for inst, _ in efl_sweep_instances(rng):
        n, m = inst.num_agents, inst.num_goods
        for low in (-1, 0):
            alloc = random_allocation(rng, n, m, low)
            graph = build_envy_graph(inst, alloc)
            edges = fraction_envy_edges(inst, alloc.bundles)
            assert graph.edges == edges
            assert graph.sources() == [j for j in range(n)
                                       if all((i, j) not in edges for i in range(n))]
            expected = recursive_find_cycle(EnvyGraph(n, edges))
            assert graph.find_cycle() == expected
            assert resolve_envy_cycles(inst, alloc) == fraction_resolve(inst, alloc.bundles)
            checked += 1
            cycles += expected is not None
    assert checked == 8 * 31 * 3 * 2
    assert cycles > 400


def test_resolve_rotates_without_graph_builds(monkeypatch):
    # cycle resolution checks the allocation once, then loops on the
    # allocator's rotation step: no envy graph, and one cycle search per
    # rotation, plus the one that finds no cycle
    builds = count_graph_builds(monkeypatch)
    searches = count_calls(monkeypatch, "_first_cycle")
    rotations = count_calls(monkeypatch, "_rotate_cycle")
    checks, real = [], Allocation.validate

    def counted(self, *args, **kw):
        checks.append(1)
        return real(self, *args, **kw)

    monkeypatch.setattr(Allocation, "validate", counted)
    rng = random.Random(83)
    resolved = rotated = 0
    for inst, _ in efl_sweep_instances(rng):
        for low in (-1, 0):
            alloc = random_allocation(rng, inst.num_agents, inst.num_goods, low)
            searches.clear()
            rotations.clear()
            del checks[:]
            resolve_envy_cycles(inst, alloc)
            assert builds == []
            assert set(rotations) <= {"_rotate_first_cycle"}
            assert searches == {"_rotate_first_cycle":
                                rotations["_rotate_first_cycle"] + 1}
            assert checks == [1]
            resolved += 1
            rotated += rotations["_rotate_first_cycle"]
    assert resolved == 8 * 31 * 3 * 2
    assert rotated > 400


def test_pick_sums_pinned(pair_sums, monkeypatch):
    # bundle sums made by the allocator's picks, which skip a bundle whose
    # remembered envier still holds; the full envy graph made n(n-1) at
    # every pick, 76,000 at (20, 200), and was built at every step
    builds = count_graph_builds(monkeypatch)
    inst = generate(GenSpec(20, 200, "uniform", False, 1))
    _, sums = pair_sums(lambda: efl_allocate(inst))
    assert sums == 9438 and sums < 200 * 20 * 19 // 2
    assert builds == []  # no step of this run lacks an unenvied agent
    # one grid shape: 420 at the full graph
    _, sums = pair_sums(lambda: [efl_allocate(generate(GenSpec(5, 7, "uniform", False, seed)))
                                 for seed in range(3)])
    assert sums == 178 and sums < 3 * 7 * 5 * 4 // 2
    assert builds == []


def test_graph_builds_pinned(monkeypatch):
    # over the benchmark grid's 27 rows (n 3-5 x m 5-7, seeds 0-2), one
    # step has no unenvied agent (n=3, m=7, seed 1, step 5); it searches
    # for a cycle once for each of its 2 rotations, and no other step
    # searches (the full-graph allocator built the graph 164 times: once
    # per step and rotation). The allocator builds no graph, and its own
    # values are running sums, never summed afresh
    builds = count_graph_builds(monkeypatch)
    searches = count_calls(monkeypatch, "_first_cycle")
    own_sums = count_calls(monkeypatch, "_own_values")
    instances = [generate(GenSpec(n, m, "uniform", False, seed))
                 for n in (3, 4, 5) for m in (5, 6, 7) for seed in range(3)]
    for inst in instances:
        efl_allocate(inst)
    assert builds == []
    assert searches == {"_rotate_first_cycle": 2}
    assert own_sums == {}
    efl_allocate(generate(GenSpec(20, 200, "uniform", False, 1)))
    assert own_sums == {}


def test_rotation_sums_pinned(envied_sums, monkeypatch):
    # a rotation's cycle search sums a bundle only when it reaches it; the
    # full envy graph summed n(n-1) = 380 for each of this run's 34
    # rotations, 12,920 in all
    searches = count_calls(monkeypatch, "_first_cycle")
    inst = generate(GenSpec(20, 200, "gaussian", True, 1))
    _, sums = envied_sums(lambda: efl_allocate(inst))
    assert searches == {"_rotate_first_cycle": 34}
    assert sums == 6327 and sums < 34 * 20 * 19


def brute_force_gmms_search(inst):
    """Independent oracle: scan assignment vectors in the same lexicographic
    order and return the first allocation every agent's groupwise check passes."""
    n, m = inst.num_agents, inst.num_goods
    for vec in itertools.product(range(n), repeat=m):
        bundles = [[g for g in range(m) if vec[g] == i] for i in range(n)]
        alloc = Allocation.from_lists(bundles)
        if is_gmms(inst, alloc).holds:
            return alloc
    return None


def test_search_matches_brute_force():
    rng = random.Random(31)
    found = none_found = 0
    for _ in range(12):
        n, m = rng.randrange(2, 4), rng.randrange(1, 6)
        inst = Instance.from_rows(
            [[rng.randrange(0, 5) for _ in range(m)] for _ in range(n)])
        result = exact_gmms_search(inst)
        oracle = brute_force_gmms_search(inst)
        if oracle is None:
            none_found += 1
            assert result.status == "exhausted" and result.allocation is None
        else:
            found += 1
            assert result.status == "found"
            assert result.allocation.bundles == oracle.bundles
            assert is_gmms(inst, result.allocation).holds
    assert found > 0


def sweep_instances(rng):
    """Small instances for the search sweep: random small integers with
    many zeros, and generator draws (uniform, and gaussian same-order)."""
    for n in (2, 3, 4):
        for m in range(0, 7):
            for _ in range(3):
                yield Instance.from_rows(
                    [[rng.choice((0, 0, 1, 2, 3, 7)) for _ in range(m)]
                     for _ in range(n)])
            if m:
                yield generate(GenSpec(n, m, "uniform", False, rng.randrange(10**6)))
                yield generate(GenSpec(n, m, "gaussian", True, rng.randrange(10**6)))


def test_search_sweep_matches_brute_force():
    rng = random.Random(53)
    count = 0
    for inst in sweep_instances(rng):
        result = exact_gmms_search(inst)
        oracle = brute_force_gmms_search(inst)
        if oracle is None:
            assert result.status == "exhausted" and result.allocation is None
        else:
            assert result.status == "found"
            assert result.allocation.bundles == oracle.bundles
        count += 1
    assert count > 80


def test_search_is_not_bounded_by_recursion_depth():
    result = exact_gmms_search(Instance.from_rows([[1] * 1200] * 2))
    assert result.status == "found"
    assert result.allocation.bundles == (frozenset(range(600)),
                                         frozenset(range(600, 1200)))


def test_search_node_counts_pinned():
    """Answers alone do not show a prune that got weaker but stayed sound;
    the node counts do."""
    for (n, m, seed), nodes in [((4, 8, 1), 373), ((4, 9, 2), 866),
                                ((5, 8, 3), 30288), ((5, 9, 4), 7696),
                                ((3, 10, 5), 263)]:
        result = exact_gmms_search(generate(GenSpec(n, m, "uniform", False, seed)))
        assert (result.status, result.examined) == ("found", nodes)
    # no allocation of these 9 goods gives all 3 agents their maximin shares
    # (78, 81, 83; all 3^9 allocations checked), so none is groupwise fair
    no_mms = Instance.from_rows([[2, 32, 43, 52, 7, 18, 24, 39, 17],
                                 [1, 31, 47, 50, 7, 19, 27, 41, 20],
                                 [3, 32, 48, 54, 9, 17, 25, 41, 21]])
    result = exact_gmms_search(no_mms)
    assert (result.status, result.examined) == ("exhausted", 9676)


def placement_loop_search(instance, budget=None):
    """The search as it was before its prune was gated once per depth: the
    LPT prune runs over every agent after every placement. Kept as the
    oracle for status, first allocation and node count."""
    n, m = instance.num_agents, instance.num_goods
    if budget is not None and budget < 1:
        return ("budget", None, 0)
    agents = [_agent_ints(instance, i) for i in range(n)]
    rows = [ints for _, ints, _ in agents]
    need = [[] for _ in range(m)] + [
        [_lpt_seed([ints[g] for g in order], n)[0] for _, ints, order in agents]]
    for t in range(m - 1, -1, -1):
        need[t] = [x - row[t] for x, row in zip(need[t + 1], rows)]
    holder = [-1] * m
    own = [0] * n

    def leaf_passes():
        bundles = [[] for _ in range(n)]
        for g, a in enumerate(holder):
            bundles[a].append(g)
        if any(_efx_hit(rows[i], own[i], value, bundles[j])
               for i, j, value in _envied(rows, bundles, own)):
            return None
        if all(next(_beating_groups(ints, order, bundles, i, own[i],
                                    goal=own[i] + 1), None) is None
               for i, (_, ints, order) in enumerate(agents)):
            return Allocation(tuple(map(frozenset, bundles)))
        return None

    examined = 1
    if m == 0:
        found = leaf_passes()
        return ("exhausted" if found is None else "found", found, 1)
    t = 0
    while True:
        a = holder[t]
        if a >= 0:
            own[a] -= rows[a][t]
        a += 1
        if a == n:
            holder[t] = -1
            if t == 0:
                return ("exhausted", None, examined)
            t -= 1
            continue
        if budget is not None and examined >= budget:
            return ("budget", None, examined)
        examined += 1
        holder[t] = a
        own[a] += rows[a][t]
        if any(x < y for x, y in zip(own, need[t + 1])):
            continue
        if t + 1 < m:
            t += 1
            continue
        found = leaf_passes()
        if found is not None:
            return ("found", found, examined)


def test_search_matches_placement_loop():
    rng = random.Random(89)
    swept = 0
    for n in range(1, 6):
        for m in range(0, 10):
            insts = [Instance.from_rows(
                [[rng.choice((0, 0, 1, 2, 3, 7)) for _ in range(m)]
                 for _ in range(n)])]
            if m:
                insts.append(generate(GenSpec(n, m, "uniform", False,
                                              rng.randrange(10**6))))
                insts.append(generate(GenSpec(n, m, "gaussian", True,
                                              rng.randrange(10**6))))
            for inst in insts:
                result = exact_gmms_search(inst)
                expected = placement_loop_search(inst)
                assert (result.status, result.allocation, result.examined) == expected
                if expected[2] > 120:
                    continue
                swept += 1
                for budget in range(expected[2] + 2):
                    result = exact_gmms_search(inst, budget)
                    assert ((result.status, result.allocation, result.examined)
                            == placement_loop_search(inst, budget))
    assert swept > 50


def test_search_budget_counts_nodes():
    inst = Instance.from_rows([[1, 1, 1], [1, 1, 1]])
    full = exact_gmms_search(inst)
    assert full.status == "found"
    assert exact_gmms_search(inst, budget=full.examined) == full
    capped = exact_gmms_search(inst, budget=full.examined - 1)
    assert capped.status == "budget" and capped.examined == full.examined - 1


def test_search_result_bundle_shape():
    inst, _ = mms_not_ef1()
    result = exact_gmms_search(inst)
    assert result.status == "found"
    sizes = sorted(len(b) for b in result.allocation.bundles)
    assert sizes == [1, 2, 2]
    assert is_gmms(inst, result.allocation).holds


def test_search_budget():
    inst = Instance.from_rows([[1, 1, 1], [1, 1, 1]])
    result = exact_gmms_search(inst, budget=1)
    assert result.status == "budget"
    assert result.allocation is None and result.examined == 1


def test_search_rejects_negative_budget():
    inst = Instance.from_rows([[1, 1, 1], [1, 1, 1]])
    with pytest.raises(InputError, match="budget must be >= 0"):
        exact_gmms_search(inst, budget=-1)
    result = exact_gmms_search(inst, budget=0)
    assert (result.status, result.allocation, result.examined) == ("budget", None, 0)


def test_lex_dominates_examples():
    assert lex_dominates((1, 2, 3), (0, 5, 5))
    assert not lex_dominates((1, 1, 1), (1, 2, 4))
    assert lex_dominates((1, 2, 3), (3, 2, 1))  # equal after sorting
    with pytest.raises(InputError):
        lex_dominates((1,), (1, 2))


def test_lexmax_unit_goods():
    inst = Instance.from_rows([[1] * 5] * 3)
    alloc = lexmax_allocation(inst)
    assert sorted(bundle_value(inst, 0, b) for b in alloc.bundles) == [1, 2, 2]


def test_lexmax_unequal_goods():
    inst = Instance.from_rows([[3, 2, 1], [3, 2, 1]])
    alloc = lexmax_allocation(inst)
    assert sorted(bundle_value(inst, 0, b) for b in alloc.bundles) == [3, 3]


def test_lexmax_dominates_everything():
    rng = random.Random(17)
    for _ in range(10):
        n, m = rng.randrange(2, 4), rng.randrange(1, 6)
        row = [rng.randrange(0, 6) for _ in range(m)]
        inst = Instance.from_rows([row] * n)
        best = lexmax_allocation(inst)
        best_vec = [bundle_value(inst, 0, b) for b in best.bundles]
        for vec in itertools.product(range(n), repeat=m):
            bundles = [[g for g in range(m) if vec[g] == i] for i in range(n)]
            other = [sum((Fraction(row[g]) for g in b), Fraction(0))
                     for b in bundles]
            assert lex_dominates(best_vec, other)


def test_lexmax_requires_identical_rows():
    inst = Instance.from_rows([[1, 2], [2, 1]])
    with pytest.raises(InputError):
        lexmax_allocation(inst)


def test_lexmax_rows_compare_as_values():
    # [1, 2] and [1/2, 1] share their integer row under different D, so
    # they are not identical; identical rows with D > 1 run as any other
    with pytest.raises(InputError, match="identical valuation rows"):
        lexmax_allocation(Instance.from_rows([[1, 2], [Fraction(1, 2), 1]]))
    inst = Instance.from_rows([[Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)]] * 2)
    alloc = lexmax_allocation(inst)
    assert [bundle_value(inst, 0, b) for b in alloc.bundles] == [Fraction(1, 2)] * 2


def test_lexmax_budget():
    inst = Instance.from_rows([[1] * 6] * 3)
    with pytest.raises(InputError):
        lexmax_allocation(inst, budget=3)


def test_lexmax_rejects_negative_budget():
    # a negative budget is refused, not reported as an exhausted enumeration
    inst = Instance.from_rows([[1, 1], [1, 1]])
    with pytest.raises(InputError, match="budget must be >= 0"):
        lexmax_allocation(inst, budget=-1)
    with pytest.raises(InputError, match="budget 0 exhausted"):
        lexmax_allocation(inst, budget=0)


def test_lexmax_budget_raises_its_own_subclass():
    # a reached cap is told apart from a malformed instance or budget
    with pytest.raises(BudgetError):
        lexmax_allocation(Instance.from_rows([[1] * 6] * 3), budget=3)
    for rows, budget in (([[1, 2], [2, 1]], None), ([[1, 1], [1, 1]], -1)):
        with pytest.raises(InputError) as info:
            lexmax_allocation(Instance.from_rows(rows), budget)
        assert type(info.value) is InputError


def test_lexmax_is_not_bounded_by_recursion_depth():
    # the enumerator keeps no stack, so 1200 goods reach the budget check
    with pytest.raises(InputError, match="budget 1 exhausted"):
        lexmax_allocation(Instance.from_rows([[1] * 1200] * 2), budget=1)


def test_debug_invariant_holds_through_rotations(monkeypatch):
    # bundles and last goods go through the same rotation; on this instance
    # a last good left behind by a cycle breaks the debug invariant
    from gmms import algorithms
    rotated, real_rotate = [], algorithms._rotate_cycle

    def spy(per_agent, cycle):
        rotated.append(cycle)
        real_rotate(per_agent, cycle)

    monkeypatch.setattr(algorithms, "_rotate_cycle", spy)
    inst = Instance.from_rows([[3, 1, 4, 4, 2], [1, 0, 3, 0, 1], [4, 1, 3, 0, 0]])
    assert efl_allocate(inst, debug=True) == efl_allocate(inst)
    assert rotated


def test_debug_failure_matches_full_graph_allocator(monkeypatch):
    # with the last goods left out of every rotation, both allocators fail
    # the debug invariant with the same message
    real = algorithms._rotate_cycle

    def bundles_only(per_agent, cycle):
        if all(isinstance(b, frozenset) for b in per_agent):
            real(per_agent, cycle)

    monkeypatch.setattr(algorithms, "_rotate_cycle", bundles_only)
    inst = Instance.from_rows([[3, 1, 4, 4, 2], [1, 0, 3, 0, 1], [4, 1, 3, 0, 0]])
    messages = []
    for allocate in (full_graph_efl_allocate, efl_allocate):
        with pytest.raises(AssertionError, match="last-good envy bound") as info:
            allocate(inst, debug=True)
        messages.append(str(info.value))
    assert messages[0] == messages[1]


def test_debug_checks_remembered_enviers():
    # agent 1 envies bundle 0 ({0}, worth 3 to her) while she holds {1}
    # (worth 1), and stops once she holds {1, 2} (worth 4)
    rows = Instance.from_rows([[3, 1, 1], [3, 1, 3]]).valuations
    algorithms._assert_enviers_envy(
        rows, [frozenset({0}), frozenset({1})], [3, 1], [1, None])
    with pytest.raises(AssertionError, match="remembered envier 1 no longer envies bundle 0"):
        algorithms._assert_enviers_envy(
            rows, [frozenset({0}), frozenset({1, 2})], [3, 4], [1, None])


def test_debug_checks_running_own_values():
    # agent 1 holds {1, 2} (worth 4 to her); a running own value left at
    # 1, as before her last pick, fails the check before the enviers do
    rows = Instance.from_rows([[3, 1, 1], [3, 1, 3]]).valuations
    bundles = [frozenset({0}), frozenset({1, 2})]
    algorithms._assert_enviers_envy(rows, bundles, [3, 4], [None, None])
    with pytest.raises(AssertionError,
                       match="running own value 1 of agent 1 is not her bundle's 4"):
        algorithms._assert_enviers_envy(rows, bundles, [3, 1], [1, None])


def test_debug_invariant_is_checked_under_optimize():
    # `python -O` strips assert statements; the invariant raises explicitly,
    # so a last good left behind by a cycle still fails the debug run there
    script = (
        "from gmms import Instance, algorithms\n"
        "real = algorithms._rotate_cycle\n"
        "def bundles_only(per_agent, cycle):\n"
        "    if all(isinstance(b, frozenset) for b in per_agent):\n"
        "        real(per_agent, cycle)\n"
        "algorithms._rotate_cycle = bundles_only\n"
        "inst = Instance.from_rows([[3, 1, 4, 4, 2], [1, 0, 3, 0, 1], [4, 1, 3, 0, 0]])\n"
        "algorithms.efl_allocate(inst, debug=True)\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    for flags in ([], ["-O"]):
        done = subprocess.run([sys.executable, *flags, "-c", script], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 1, (flags, done.stderr)
        assert "AssertionError: partial allocation lost the last-good envy bound" \
            in done.stderr, flags
