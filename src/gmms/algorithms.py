"""Constructive procedures: envy-graph EFL allocation, cycle resolution,
exact groupwise-fair search by enumeration, and the lexicographically maximal
allocation for identical valuations.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence

from .core import Allocation, Bundle, InputError, Instance, bundle_value
from .maximin import _agent_ints, _violated_group


class PolicyError(ValueError):
    """A scripted tie-break is invalid or exhausted at some step."""


@dataclass(frozen=True)
class EnvyGraph:
    """Directed graph with an edge i->j iff i strictly prefers j's bundle."""

    num_agents: int
    edges: frozenset  # of (i, j) pairs

    @staticmethod
    def from_allocation(instance: Instance, bundles: Sequence[Bundle]) -> "EnvyGraph":
        n = instance.num_agents
        own = [bundle_value(instance, i, bundles[i]) for i in range(n)]
        edges = set()
        for i in range(n):
            for j in range(n):
                if i != j and own[i] < bundle_value(instance, i, bundles[j]):
                    edges.add((i, j))
        return EnvyGraph(n, frozenset(edges))

    def sources(self) -> List[int]:
        envied = {j for _, j in self.edges}
        return [i for i in range(self.num_agents) if i not in envied]

    def find_cycle(self) -> Optional[List[int]]:
        """First cycle found by depth-first search from agent 0 upward."""
        succ = [[] for _ in range(self.num_agents)]
        for i, j in sorted(self.edges):
            succ[i].append(j)
        color = [0] * self.num_agents  # 0 unseen, 1 on stack, 2 done
        stack: List[int] = []

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

        for start in range(self.num_agents):
            if color[start] == 0:
                cycle = visit(start)
                if cycle is not None:
                    return cycle
        return None


def build_envy_graph(instance: Instance, allocation: Allocation) -> EnvyGraph:
    allocation.validate(instance)
    return EnvyGraph.from_allocation(instance, allocation.bundles)


def _rotate_cycle(bundles: List[Bundle], cycle: List[int]) -> None:
    """Give every agent on the cycle the bundle of her successor (the one she
    envies); each agent's value strictly rises, so the edge count drops."""
    moved = [bundles[cycle[(a + 1) % len(cycle)]] for a in range(len(cycle))]
    for agent, b in zip(cycle, moved):
        bundles[agent] = b


def resolve_envy_cycles(instance: Instance, allocation: Allocation) -> Allocation:
    """Rotate bundles along envy cycles until the envy graph is acyclic.

    Per-agent values never decrease, and the bundle multiset is preserved.
    """
    allocation.validate(instance)
    bundles = list(allocation.bundles)
    while True:
        graph = EnvyGraph.from_allocation(instance, bundles)
        cycle = graph.find_cycle()
        if cycle is None:
            return Allocation(tuple(bundles))
        _rotate_cycle(bundles, cycle)


@dataclass(frozen=True)
class TieBreakPolicy:
    """Optional per-step overrides for source and good selection.

    Each list, when given, must cover every step; None entries fall back to
    the default lowest-index rule. A scripted source must be unenvied and a
    scripted good must be among the picker's highest-valued remaining goods.
    """

    sources: Optional[tuple] = None
    goods: Optional[tuple] = None

    @staticmethod
    def from_doc(doc: dict) -> "TieBreakPolicy":
        def norm(key):
            seq = doc.get(key)
            if seq is None:
                return None
            if not isinstance(seq, list) or not all(
                    e is None or isinstance(e, int) for e in seq):
                raise PolicyError(f"policy field {key!r} must list ints or nulls")
            return tuple(seq)
        return TieBreakPolicy(norm("sources"), norm("goods"))

    def to_doc(self) -> dict:
        return {"sources": None if self.sources is None else list(self.sources),
                "goods": None if self.goods is None else list(self.goods)}

    def pick(self, which: str, step: int) -> Optional[int]:
        seq = self.sources if which == "sources" else self.goods
        if seq is None:
            return None
        if step >= len(seq):
            raise PolicyError(f"scripted {which} exhausted at step {step}")
        return seq[step]


def efl_allocate(instance: Instance, policy: Optional[TieBreakPolicy] = None,
                 debug: bool = False) -> Allocation:
    """Allocate all goods so the result is envy-free up to one less-preferred
    good (and hence at least half of every groupwise share).

    Loop: hand an unenvied agent her highest-valued remaining good. Envy
    cycles are rotated away lazily, only when no unenvied agent is left;
    resolving after the final pick would permute bundles without improving
    any guarantee, and deferring keeps the algorithm's worst-case traces
    reachable under scripted tie-breaking.
    """
    n, m = instance.num_agents, instance.num_goods
    bundles: List[Bundle] = [frozenset()] * n
    last_good: List[Optional[int]] = [None] * n
    remaining = set(range(m))
    for step in range(m):
        graph = EnvyGraph.from_allocation(instance, bundles)
        rotations = 0
        while not graph.sources():
            cycle = graph.find_cycle()
            assert cycle is not None, "sourceless envy graph must contain a cycle"
            order = {agent: pos for pos, agent in enumerate(cycle)}
            moved = [last_good[cycle[(order[a] + 1) % len(cycle)]]
                     if a in order else last_good[a] for a in range(n)]
            _rotate_cycle(bundles, cycle)
            last_good = moved
            graph = EnvyGraph.from_allocation(instance, bundles)
            rotations += 1
            assert rotations <= n * n, "cycle resolution failed to terminate"
        sources = graph.sources()
        agent = min(sources)
        if policy is not None:
            scripted = policy.pick("sources", step)
            if scripted is not None:
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
                if scripted not in remaining or row[scripted] != top:
                    raise PolicyError(
                        f"step {step}: scripted good {scripted} is not a "
                        f"highest-valued remaining good for agent {agent}")
                good = scripted
        bundles[agent] = bundles[agent] | {good}
        last_good[agent] = good
        remaining.discard(good)
        if debug:
            _assert_ef1_wrt_last(instance, bundles, last_good)
    return Allocation(tuple(bundles))


def _assert_ef1_wrt_last(instance, bundles, last_good):
    """Loop invariant: dropping the most recent good of any bundle kills envy."""
    n = instance.num_agents
    for r in range(n):
        own = bundle_value(instance, r, bundles[r])
        for s in range(n):
            if r == s or not bundles[s]:
                continue
            reduced = bundles[s] - {last_good[s]}
            assert own >= bundle_value(instance, r, reduced), \
                f"partial allocation lost the last-good envy bound ({r} vs {s})"


@dataclass(frozen=True)
class SearchResult:
    status: str  # "found" | "exhausted" | "budget"
    allocation: Optional[Allocation]
    examined: int

    def to_doc(self) -> dict:
        doc = {"status": self.status, "examined": self.examined}
        if self.allocation is not None:
            doc["bundles"] = [sorted(b) for b in self.allocation.bundles]
        return doc


def _is_efx_fast(rows, vecs_by_agent, sums) -> bool:
    """EFX over integer-scaled rows; sums[i][j] = agent i's value of bundle j."""
    n = len(rows)
    for i in range(n):
        row = rows[i]
        own = sums[i][i]
        for j in range(n):
            if i == j or sums[i][j] <= own:
                continue
            total = sums[i][j]
            for g in vecs_by_agent[j]:
                if row[g] > 0 and own < total - row[g]:
                    return False
    return True


def _passes_gmms(agents, bundles, sums) -> bool:
    """GMMS over integer rows: agents[i] = _agent_ints(instance, i), and
    sums[i][i] is agent i's own value in the same units."""
    return all(_violated_group(ints, order, bundles, i, sums[i][i]) is None
               for i, (_, ints, order) in enumerate(agents))


def exact_gmms_search(instance: Instance, budget: Optional[int] = None) -> SearchResult:
    """First allocation in lexicographic assignment order passing the
    groupwise check, or proof of exhaustion, or a budget marker.

    Enumeration keeps an incrementally updated value matrix; candidates are
    prefiltered by the (provably necessary) EFX condition before the share
    computations run.
    """
    n, m = instance.num_agents, instance.num_goods
    agents = [_agent_ints(instance, i) for i in range(n)]
    rows = [ints for _, ints, _ in agents]
    vec = [0] * m
    sums = [[0] * n for _ in range(n)]
    for i in range(n):
        sums[i][0] = sum(rows[i])
    examined = 0
    while True:
        if budget is not None and examined >= budget:
            return SearchResult("budget", None, examined)
        examined += 1
        by_agent = [[] for _ in range(n)]
        for g, a in enumerate(vec):
            by_agent[a].append(g)
        if _is_efx_fast(rows, by_agent, sums):
            bundles = tuple(frozenset(b) for b in by_agent)
            if _passes_gmms(agents, bundles, sums):
                return SearchResult("found", Allocation(bundles), examined)
        # advance the assignment odometer (last good varies fastest)
        pos = m - 1
        while pos >= 0 and vec[pos] == n - 1:
            for i in range(n):
                sums[i][n - 1] -= rows[i][pos]
                sums[i][0] += rows[i][pos]
            vec[pos] = 0
            pos -= 1
        if pos < 0:
            return SearchResult("exhausted", None, examined)
        old = vec[pos]
        vec[pos] = old + 1
        for i in range(n):
            sums[i][old] -= rows[i][pos]
            sums[i][old + 1] += rows[i][pos]


def lex_dominates(u: Sequence[Fraction], v: Sequence[Fraction]) -> bool:
    """Compare value vectors by their ascending-sorted components; the first
    differing (smallest-first) component decides."""
    if len(u) != len(v):
        raise InputError(f"vector lengths differ: {len(u)} vs {len(v)}")
    return tuple(sorted(u)) >= tuple(sorted(v))


def lexmax_allocation(instance: Instance, budget: Optional[int] = None) -> Allocation:
    """For identical valuations: the allocation whose sorted value vector
    dominates every other's. Agents are interchangeable here, so enumeration
    uses canonical (restricted-growth) assignments only.
    """
    n, m = instance.num_agents, instance.num_goods
    for i in range(1, n):
        if instance.valuations[i] != instance.valuations[0]:
            raise InputError("lexmax allocation requires identical valuation rows")
    row = instance.valuations[0]
    best_key = None
    best_assign: Optional[list] = None
    assign = [0] * m
    leaves = 0

    def enumerate_rgs(t, used):
        nonlocal best_key, best_assign, leaves
        if t == m:
            if budget is not None and leaves >= budget:
                raise InputError(f"enumeration budget {budget} exhausted")
            leaves += 1
            sums = [Fraction(0)] * n
            for g, j in zip(range(m), assign):
                sums[j] += row[g]
            key = tuple(sorted(sums))
            if best_key is None or key > best_key:
                best_key, best_assign = key, assign[:]
            return
        for j in range(min(used + 1, n)):
            assign[t] = j
            enumerate_rgs(t + 1, max(used, j + 1))

    enumerate_rgs(0, 0)
    bundles = [set() for _ in range(n)]
    for g, j in zip(range(m), best_assign):
        bundles[j].add(g)
    return Allocation(tuple(frozenset(b) for b in bundles))
