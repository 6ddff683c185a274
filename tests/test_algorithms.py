import itertools
import random
from fractions import Fraction

import pytest

from gmms import (Allocation, InputError, Instance, PolicyError,
                  TieBreakPolicy, build_envy_graph, bundle_value, efl_allocate,
                  exact_gmms_search, gmms_factor, is_ef1, is_efl, is_gmms,
                  lex_dominates, lexmax_allocation, resolve_envy_cycles)
from gmms.algorithms import EnvyGraph
from gmms.generator import (GenSpec, efl_tight, efl_tight_policy, generate,
                            mms_not_ef1)


def random_allocation(rng, n, m):
    vec = [rng.randrange(n) for _ in range(m)]
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
    with pytest.raises(PolicyError):
        # after agent 0 takes good 0, agent 1 is the only unenvied agent
        efl_allocate(inst, policy=TieBreakPolicy(sources=(0, 0)))


def test_policy_rejects_non_top_good():
    inst = Instance.from_rows([[2, 1]])
    with pytest.raises(PolicyError):
        efl_allocate(inst, policy=TieBreakPolicy(goods=(1, None)))


def test_policy_rejects_short_script():
    inst = Instance.from_rows([[1, 1, 1]])
    with pytest.raises(PolicyError):
        efl_allocate(inst, policy=TieBreakPolicy(goods=(0,)))


def test_policy_doc_round_trip():
    policy = efl_tight_policy(3)
    assert TieBreakPolicy.from_doc(policy.to_doc()) == policy
    with pytest.raises(PolicyError):
        TieBreakPolicy.from_doc({"goods": ["x"]})


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


def test_lexmax_budget():
    inst = Instance.from_rows([[1] * 6] * 3)
    with pytest.raises(InputError):
        lexmax_allocation(inst, budget=3)
