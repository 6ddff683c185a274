import itertools
import json
import random
from fractions import Fraction

import pytest

from gmms import (Allocation, InputError, Instance, bundle_value, gmms_factor,
                  is_ef1, is_efl, is_efx, is_envy_free, is_gmms,
                  is_kwise_fair, is_mms, is_pmms, maximin_share,
                  gmms_threshold, maximin_share_naive)
from gmms.fairness import CHECKERS, FairnessReport, Notion, Violation
from gmms.generator import (efl_tight, kwise_boundary, mms_not_ef1,
                            mms_not_gmms, single_good_two_agents)

MMS_NOT_GMMS_REF = mms_not_gmms(4, Fraction(1), Fraction(1, 100))


def test_envy_free_disjoint_interests():
    inst = Instance.from_rows([[1, 0], [0, 1]])
    assert is_envy_free(inst, Allocation.from_lists([[0], [1]])).holds


def test_envy_free_single_good():
    inst, ref = single_good_two_agents()
    report = is_envy_free(inst, ref)
    assert not report.holds
    assert report.witness.agent == 1 and report.witness.other == (0,)


def test_envy_free_reference_violated():
    inst, ref = MMS_NOT_GMMS_REF
    report = is_envy_free(inst, ref)
    assert not report.holds
    assert report.witness.agent == 3


def test_ef1_unit_goods_violation():
    inst, ref = mms_not_ef1()
    report = is_ef1(inst, ref)
    assert not report.holds
    assert report.witness.lhs < report.witness.rhs


def test_ef_implies_ef1():
    inst = Instance.from_rows([[1, 0], [0, 1]])
    alloc = Allocation.from_lists([[0], [1]])
    assert is_ef1(inst, alloc).holds


def test_ef1_empty_envied_bundle_not_a_violation():
    inst = Instance.from_rows([[1], [1]])
    assert is_ef1(inst, Allocation.from_lists([[0], []])).holds


def test_efx_examples():
    inst = Instance.from_rows([[3, 1, 1], [1, 1, 1]])
    assert is_efx(inst, Allocation.from_lists([[0], [1, 2]])).holds
    inst2 = Instance.from_rows([[1, 2, 2], [1, 1, 1]])
    report = is_efx(inst2, Allocation.from_lists([[0], [1, 2]]))
    assert not report.holds
    assert report.witness.lhs == 1 and report.witness.rhs == 2


def test_efl_tight_reference_holds():
    inst, ref = efl_tight(4)
    assert is_efl(inst, ref).holds


def test_efl_direct_violation():
    inst = Instance.from_rows([[1, 5, 5], [1, 1, 1]])
    report = is_efl(inst, Allocation.from_lists([[0], [1, 2]]))
    assert not report.holds
    assert report.witness.agent == 0


def test_efl_single_positive_good_clause():
    inst = Instance.from_rows([[1, 9, 0], [1, 1, 1]])
    # envied bundle worth 9 but holds only one positively valued good
    assert is_efl(inst, Allocation.from_lists([[0], [1, 2]])).holds


def test_mms_holds_on_fixtures():
    inst, ref = MMS_NOT_GMMS_REF
    assert is_mms(inst, ref).holds
    inst2, ref2 = mms_not_ef1()
    assert is_mms(inst2, ref2).holds


def test_mms_trivial_when_more_agents_than_goods():
    inst = Instance.from_rows([[1, 1], [1, 1], [1, 1]])
    assert is_mms(inst, Allocation.from_lists([[0, 1], [], []])).holds


def test_pmms_fixture_verdicts():
    inst, ref = kwise_boundary(4, 9)
    assert is_pmms(inst, ref).holds
    inst3, ref3 = MMS_NOT_GMMS_REF
    report = is_pmms(inst3, ref3)
    assert not report.holds
    assert report.witness.agent == 3 and report.witness.other == (1,)
    assert report.witness.rhs == Fraction(101, 100)


def test_pmms_single_agent_vacuous():
    inst = Instance.from_rows([[1, 2]])
    assert is_pmms(inst, Allocation.from_lists([[0, 1]])).holds


@pytest.mark.parametrize("k", [4, 5])
def test_kwise_boundary_family(k):
    inst, ref = kwise_boundary(k, 3 * k - 3)
    for t in range(1, k):
        assert is_kwise_fair(inst, ref, t).holds
    report = is_kwise_fair(inst, ref, k)
    assert not report.holds
    assert report.witness.other == tuple(range(k))


def test_kwise_k1_always_holds():
    inst, ref = MMS_NOT_GMMS_REF
    assert is_kwise_fair(inst, ref, 1).holds


def test_kwise_k_out_of_range():
    inst, ref = MMS_NOT_GMMS_REF
    with pytest.raises(InputError):
        is_kwise_fair(inst, ref, 0)
    with pytest.raises(InputError):
        is_kwise_fair(inst, ref, 5)


def test_gmms_fixture_violation():
    inst, ref = MMS_NOT_GMMS_REF
    report = is_gmms(inst, ref)
    assert not report.holds
    assert report.witness.rhs == Fraction(101, 100)


def test_gmms_single_agent():
    inst = Instance.from_rows([[2, 3]])
    assert is_gmms(inst, Allocation.from_lists([[0, 1]])).holds


def test_gmms_equivalent_to_all_kwise():
    rng = random.Random(11)
    for _ in range(15):
        inst = Instance.from_rows(
            [[rng.randrange(0, 5) for _ in range(5)] for _ in range(3)])
        vec = [rng.randrange(3) for _ in range(5)]
        alloc = Allocation.from_lists(
            [[g for g, a in enumerate(vec) if a == i] for i in range(3)])
        all_kwise = all(is_kwise_fair(inst, alloc, k).holds for k in (1, 2, 3))
        assert is_gmms(inst, alloc).holds == all_kwise


def test_checkers_reject_partial_allocations():
    # every checked entry refuses what Allocation.validate refuses for a
    # complete allocation, with its message
    inst = Instance.from_rows([[1, 1], [1, 1]])
    for lists in ([[0], []],  # partial
                  [[0, 1]],  # one bundle short
                  [[0], [1, 2]],  # good 2 is past the last good
                  [[True], [0]]):  # a bool is no good index, though True == 1
        alloc = Allocation.from_lists(lists)
        with pytest.raises(InputError) as expected:
            alloc.validate(inst, require_complete=True)
        calls = [lambda checker=checker: checker(inst, alloc)
                 for checker in CHECKERS.values()]
        calls += [lambda: is_kwise_fair(inst, alloc, 1),
                  lambda: gmms_factor(inst, alloc),
                  lambda: gmms_threshold(inst, alloc, 0)]
        for call in calls:
            with pytest.raises(InputError) as caught:
                call()
            assert str(caught.value) == str(expected.value), lists


def test_kwise_reports_the_allocation_before_k():
    inst = Instance.from_rows([[1, 1], [1, 1]])
    with pytest.raises(InputError, match="^allocation is not complete$"):
        is_kwise_fair(inst, Allocation.from_lists([[0], []]), 0)
    with pytest.raises(InputError, match=r"^k must be in \[1, 2\], got 0$"):
        is_kwise_fair(inst, Allocation.from_lists([[0], [1]]), 0)


def test_violation_witnesses_reevaluate():
    rng = random.Random(21)
    hits = 0
    for _ in range(40):
        inst = Instance.from_rows(
            [[rng.randrange(0, 6) for _ in range(5)] for _ in range(3)])
        vec = [rng.randrange(3) for _ in range(5)]
        alloc = Allocation.from_lists(
            [[g for g, a in enumerate(vec) if a == i] for i in range(3)])
        for checker in (is_envy_free, is_ef1, is_efx, is_efl):
            report = checker(inst, alloc)
            if report.holds:
                continue
            hits += 1
            w = report.witness
            assert w.lhs < w.rhs
            assert w.lhs == bundle_value(inst, w.agent, alloc.bundles[w.agent])
    assert hits > 10


def test_gmms_factor_tight_fixture():
    inst, ref = efl_tight(4)
    assert gmms_factor(inst, ref) == Fraction(4, 7)


def test_gmms_factor_skips_zero_thresholds():
    inst = Instance.from_rows([[0, 0], [1, 1]])
    alloc = Allocation.from_lists([[], [0, 1]])
    assert gmms_factor(inst, alloc) == 1
    all_zero = Instance.from_rows([[0], [0]])
    assert gmms_factor(all_zero, Allocation.from_lists([[0], []])) is None


def per_agent_factor(inst, alloc):
    """gmms_factor as it was before it took each threshold in the agent's
    integer units: one public gmms_threshold call per agent, divided into
    the agent's exact bundle value."""
    factor = None
    for i in range(inst.num_agents):
        threshold = gmms_threshold(inst, alloc, i).value
        if threshold == 0:
            continue
        ratio = bundle_value(inst, i, alloc.bundles[i]) / threshold
        if factor is None or ratio < factor:
            factor = ratio
    return factor


def test_gmms_factor_matches_per_agent_threshold_loop():
    rng = random.Random(4242)
    outcomes = set()
    for t in range(300):
        n, m = rng.randrange(1, 6), rng.randrange(0, 9)
        rows = [[0 if rng.random() < 0.3 else
                 Fraction(rng.randrange(1, 13), rng.choice([1, 2, 3, 7, 10]))
                 for _ in range(m)] for _ in range(n)]
        for i in range(n):
            if t % 3 == 0 and rng.random() < 0.5:  # zero rows: zero thresholds
                rows[i] = [0] * m
        inst = Instance.from_rows(rows)
        vec = [rng.randrange(n) for _ in range(m)]
        alloc = Allocation.from_lists(
            [[g for g, a in enumerate(vec) if a == i] for i in range(n)])
        factor, expected = gmms_factor(inst, alloc), per_agent_factor(inst, alloc)
        assert factor == expected and type(factor) is type(expected)
        outcomes.add("none" if factor is None else "zero" if factor == 0
                     else "below" if factor < 1 else "at least one")
    assert outcomes == {"none", "zero", "below", "at least one"}


def test_gmms_factor_at_least_one_when_gmms():
    inst = Instance.from_rows([[1, 0], [0, 1]])
    alloc = Allocation.from_lists([[0], [1]])
    assert is_gmms(inst, alloc).holds
    assert gmms_factor(inst, alloc) >= 1


def reference_violation(inst, alloc, groups_of):
    """Fraction-only reference: first (agent, group) in order whose naive
    pooled share beats the agent's own value, with its share; no skipping."""
    for i in range(inst.num_agents):
        own = bundle_value(inst, i, alloc.bundles[i])
        for group in groups_of(i):
            pooled = frozenset().union(*(alloc.bundles[j] for j in group))
            share = maximin_share_naive(inst, i, pooled, len(group)).value
            if share > own:
                return i, group, own, share
    return None


def combos_with(n, i, sizes):
    return [c for k in sizes for c in itertools.combinations(range(n), k) if i in c]


@pytest.mark.parametrize("seed", range(25))
def test_group_checkers_match_naive_reference(seed):
    rng = random.Random(900 + seed)
    n, m = rng.randrange(1, 5), rng.randrange(0, 9)
    inst = Instance.from_rows(
        [[0 if rng.random() < 0.3 else
          Fraction(rng.randrange(1, 13), rng.choice([1, 2, 3, 5, 10]))
          for _ in range(m)] for _ in range(n)])
    vec = [rng.randrange(n) for _ in range(m)]
    alloc = Allocation.from_lists(
        [[g for g, a in enumerate(vec) if a == i] for i in range(n)])
    cases = [(is_mms(inst, alloc), lambda i: [tuple(range(n))], None),
             (is_pmms(inst, alloc), lambda i: combos_with(n, i, [2]), "pair"),
             (is_gmms(inst, alloc),
              lambda i: combos_with(n, i, range(1, n + 1)), "group")]
    cases += [(is_kwise_fair(inst, alloc, k),
               lambda i, k=k: combos_with(n, i, [k]), "group")
              for k in range(1, n + 1)]
    for report, groups_of, other in cases:
        expected = reference_violation(inst, alloc, groups_of)
        assert report.holds == (expected is None)
        if expected is None:
            assert report.witness is None
            continue
        agent, group, own, share = expected
        w = report.witness
        assert (w.agent, w.lhs, w.rhs) == (agent, own, share)
        if other == "pair":
            assert w.other == tuple(j for j in group if j != agent)
        elif other == "group":
            assert w.other == group
        else:
            assert w.other is None
        pooled = frozenset().union(*(alloc.bundles[j] for j in group))
        assert len(w.partition) == len(group)
        assert frozenset().union(*w.partition) == pooled
        assert sum(len(b) for b in w.partition) == len(pooled)
        assert min(bundle_value(inst, agent, b) for b in w.partition) == share
        # the witness `gmms check` prints: the floor-own search's partition
        # is the one the optimisation form finds from floor -1
        assert w.partition == maximin_share(inst, agent, pooled, len(group)).witness


# Fraction-only reference loops for the envy notions: every ordered pair,
# envied or not, with its own sums. Each returns (agent, other, good, lhs,
# rhs) for the first violation, or None.

def reference_ef(inst, alloc):
    n = inst.num_agents
    for i in range(n):
        own = bundle_value(inst, i, alloc.bundles[i])
        for j in range(n):
            rhs = bundle_value(inst, i, alloc.bundles[j])
            if i != j and own < rhs:
                return i, (j,), None, own, rhs
    return None


def reference_ef1(inst, alloc):
    n = inst.num_agents
    for i in range(n):
        row, own = inst.valuations[i], bundle_value(inst, i, alloc.bundles[i])
        for j in range(n):
            if i == j or not alloc.bundles[j]:
                continue
            total = bundle_value(inst, i, alloc.bundles[j])
            top = max(alloc.bundles[j], key=lambda g: (row[g], -g))
            if own < total - row[top]:
                return i, (j,), top, own, total - row[top]
    return None


def reference_efx(inst, alloc):
    n = inst.num_agents
    for i in range(n):
        row, own = inst.valuations[i], bundle_value(inst, i, alloc.bundles[i])
        for j in range(n):
            if i == j:
                continue
            total = bundle_value(inst, i, alloc.bundles[j])
            for g in sorted(alloc.bundles[j]):
                if row[g] > 0 and own < total - row[g]:
                    return i, (j,), g, own, total - row[g]
    return None


def reference_efl(inst, alloc):
    n = inst.num_agents
    for i in range(n):
        row, own = inst.valuations[i], bundle_value(inst, i, alloc.bundles[i])
        for j in range(n):
            bundle = alloc.bundles[j]
            if i == j or sum(row[g] > 0 for g in bundle) <= 1:
                continue
            total = bundle_value(inst, i, bundle)
            if any(own >= total - row[g] and own >= row[g] for g in bundle):
                continue
            top = max(bundle, key=lambda g: (row[g], -g))
            rhs = total - row[top] if own < total - row[top] else row[top]
            return i, (j,), top, own, rhs
    return None


@pytest.mark.parametrize("seed", range(25))
def test_envy_checkers_match_reference_loops(seed):
    from gmms.algorithms import EnvyGraph
    rng = random.Random(1700 + seed)
    pairs = ((is_envy_free, reference_ef), (is_ef1, reference_ef1),
             (is_efx, reference_efx), (is_efl, reference_efl))
    violated = set()
    for t in range(12):
        n, m = rng.randrange(1, 5), rng.randrange(0, 8)
        if t % 2:  # small integers: ties between own values and goods
            rows = [[rng.randrange(0, 4) for _ in range(m)] for _ in range(n)]
        else:
            rows = [[0 if rng.random() < 0.3 else
                     Fraction(rng.randrange(1, 13), rng.choice([1, 2, 3, 5]))
                     for _ in range(m)] for _ in range(n)]
        inst = Instance.from_rows(rows)
        vec = [rng.randrange(n) for _ in range(m)]
        alloc = Allocation.from_lists(
            [[g for g, a in enumerate(vec) if a == i] for i in range(n)])
        for checker, reference in pairs:
            report, expected = checker(inst, alloc), reference(inst, alloc)
            assert report.holds == (expected is None)
            if expected is None:
                assert report.witness is None
                continue
            violated.add(checker)
            w = report.witness
            assert (w.agent, w.other, w.good, w.lhs, w.rhs) == expected
            assert w.partition is None
        edges = {(i, j) for i in range(n) for j in range(n) if i != j
                 and bundle_value(inst, i, alloc.bundles[i])
                 < bundle_value(inst, i, alloc.bundles[j])}
        assert EnvyGraph.from_allocation(inst, alloc.bundles).edges == edges
    assert is_envy_free in violated


def matrix_efx_doc(inst, alloc):
    """is_efx's report as the matrix-based kernel gave it: the full matrix
    of every agent's value of every bundle, then the envied pairs
    agent-major, then the bundle's goods ascending."""
    rows = inst.valuations
    sums = [[sum(row[g] for g in b) for b in alloc.bundles] for row in rows]
    for i, row in enumerate(sums):
        for j, value in enumerate(row):
            if not row[i] < value:
                continue
            for g in sorted(alloc.bundles[j]):
                if rows[i][g] > 0 and row[i] < value - rows[i][g]:
                    return FairnessReport(Notion.EFX, False, Violation(
                        i, (j,), good=g, lhs=row[i],
                        rhs=value - rows[i][g])).to_doc()
    return FairnessReport(Notion.EFX, True).to_doc()


def test_efx_report_matches_matrix_kernel():
    rng = random.Random(3131)
    violated = empty = 0
    for t in range(600):
        n, m = rng.randrange(1, 6), rng.randrange(0, 9)
        if t % 2:  # small integers: ties between own values and goods
            rows = [[rng.randrange(0, 4) for _ in range(m)] for _ in range(n)]
        else:
            rows = [[0 if rng.random() < 0.3 else
                     Fraction(rng.randrange(1, 13), rng.choice([1, 2, 3, 5]))
                     for _ in range(m)] for _ in range(n)]
        inst = Instance.from_rows(rows)
        vec = [rng.randrange(n) for _ in range(m)]
        alloc = Allocation.from_lists(
            [[g for g, a in enumerate(vec) if a == i] for i in range(n)])
        doc = json.dumps(is_efx(inst, alloc).to_doc())
        assert doc == json.dumps(matrix_efx_doc(inst, alloc))
        violated += '"witness"' in doc
        empty += not all(alloc.bundles)
    assert violated > 50 and empty > 50


def fraction_envy_docs(inst, alloc):
    """The EF, EF1 and EFL reports as the checkers gave them on a matrix of
    Fraction sums: every agent's value of every bundle, then the envied
    pairs agent-major."""
    rows, bundles = inst.valuations, alloc.bundles
    sums = [[sum(row[g] for g in b) for b in bundles] for row in rows]
    envied = [(i, j, row[i], value) for i, row in enumerate(sums)
              for j, value in enumerate(row) if row[i] < value]
    ef = FairnessReport(Notion.EF, True)
    for i, j, own, value in envied[:1]:
        ef = FairnessReport(Notion.EF, False,
                            Violation(i, (j,), lhs=own, rhs=value))
    ef1 = FairnessReport(Notion.EF1, True)
    for i, j, own, value in envied:
        row = rows[i]
        top = max(bundles[j], key=lambda g: (row[g], -g))
        if own < value - row[top]:
            ef1 = FairnessReport(Notion.EF1, False, Violation(
                i, (j,), good=top, lhs=own, rhs=value - row[top]))
            break
    efl = FairnessReport(Notion.EFL, True)
    for i, j, own, value in envied:
        row, bundle = rows[i], bundles[j]
        if sum(row[g] > 0 for g in bundle) <= 1:
            continue
        if not any(own >= value - row[g] and own >= row[g] for g in bundle):
            top = max(bundle, key=lambda g: (row[g], -g))
            rhs = value - row[top] if own < value - row[top] else row[top]
            efl = FairnessReport(Notion.EFL, False, Violation(
                i, (j,), good=top, lhs=own, rhs=rhs))
            break
    return [json.dumps(r.to_doc()) for r in (ef, ef1, efl)]


def test_envy_reports_match_fraction_matrix():
    # the checkers sum each agent's integer row and build Fractions only
    # for the reported violation; every report must print as before
    rng = random.Random(4242)
    violated = [0, 0, 0]
    empty = zero_rows = 0
    for t in range(900):
        n, m = rng.randrange(1, 6), rng.randrange(0, 10)
        if t % 3 == 0:  # small integers: ties between own values and goods
            rows = [[rng.randrange(0, 4) for _ in range(m)] for _ in range(n)]
        else:  # mixed denominators, zero goods, and some all-zero rows
            rows = [[0] * m if rng.random() < 0.15 else
                    [0 if rng.random() < 0.3 else
                     Fraction(rng.randrange(1, 13), rng.choice([1, 2, 3, 5, 7, 12]))
                     for _ in range(m)] for _ in range(n)]
        inst = Instance.from_rows(rows)
        vec = [rng.randrange(n) for _ in range(m)]
        alloc = Allocation.from_lists(
            [[g for g, a in enumerate(vec) if a == i] for i in range(n)])
        docs = [json.dumps(checker(inst, alloc).to_doc())
                for checker in (is_envy_free, is_ef1, is_efl)]
        assert docs == fraction_envy_docs(inst, alloc)
        for c, doc in enumerate(docs):
            violated[c] += '"witness"' in doc
        empty += not all(alloc.bundles)
        zero_rows += any(not any(row) for row in rows)
    assert min(violated) > 50 and empty > 50 and zero_rows > 50
