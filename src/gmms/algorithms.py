"""Constructive procedures: envy-graph EFL allocation, cycle resolution,
exact groupwise-fair search by pruned depth-first search, and the
lexicographically maximal allocation for identical valuations.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence

from .core import (Allocation, BudgetError, Bundle, InputError, Instance,
                   _check_int, _checked, _is_json_int, _own_values, _quote)
from .fairness import _efx_hit, _envied
from .maximin import _beating_groups, _lpt_seed, _restricted_growth


class PolicyError(ValueError):
    """A scripted tie-break is invalid or exhausted at some step."""


@dataclass(frozen=True)
class EnvyGraph:
    """Directed graph with an edge i->j iff i strictly prefers j's bundle."""

    num_agents: int
    edges: frozenset  # of (i, j) pairs

    @staticmethod
    def from_allocation(instance: Instance, bundles: Sequence[Bundle]) -> "EnvyGraph":
        """The envy graph of a possibly partial allocation (core._checked).
        Each agent's row in the integer view is scaled by her own D > 0, so
        every edge is the one on Fractions."""
        rows, own = _checked(instance, Allocation(tuple(bundles)), complete=False)
        envied = _envied(rows, bundles, own)
        return EnvyGraph(instance.num_agents, frozenset((i, j) for i, j, _ in envied))

    def sources(self) -> List[int]:
        envied = {j for _, j in self.edges}
        return [i for i in range(self.num_agents) if i not in envied]

    def find_cycle(self) -> Optional[List[int]]:
        """First cycle found by depth-first search from agent 0 upward."""
        succ = [[] for _ in range(self.num_agents)]
        for i, j in sorted(self.edges):
            succ[i].append(j)
        return _first_cycle(self.num_agents, lambda v: iter(succ[v]))


def _first_cycle(n: int, successors) -> Optional[List[int]]:
    """First cycle, as a list of vertices each with an edge to the next and
    the last to the first, found by depth-first search from vertex 0
    upward; successors(v) iterates v's out-neighbours in ascending order.
    The search takes one neighbour at a time, so a lazy iterator is asked
    for no neighbour past the one that closes the cycle, and the last
    neighbour each vertex on the cycle gave is its successor there. The
    search keeps its own stack, so its depth is not bounded by the
    interpreter's recursion limit."""
    color = [0] * n  # 0 unseen, 1 on stack, 2 done
    for start in range(n):
        if color[start]:
            continue
        color[start] = 1
        stack, pending = [start], [successors(start)]
        while stack:
            v = next(pending[-1], None)
            if v is None:
                color[stack.pop()] = 2
                pending.pop()
            elif color[v] == 1:
                return stack[stack.index(v):]
            elif color[v] == 0:
                color[v] = 1
                stack.append(v)
                pending.append(successors(v))
    return None


def build_envy_graph(instance: Instance, allocation: Allocation) -> EnvyGraph:
    return EnvyGraph.from_allocation(instance, allocation.bundles)


def _rotate_cycle(per_agent: list, cycle: List[int]) -> None:
    """Give every agent on the cycle her successor's entry, in place."""
    moved = [per_agent[cycle[(a + 1) % len(cycle)]] for a in range(len(cycle))]
    for agent, entry in zip(cycle, moved):
        per_agent[agent] = entry


def _rotate_first_cycle(rows, bundles, own) -> bool:
    """Rotate the envy graph's first cycle, or return False if it has none,
    without building the graph: _first_cycle walks each agent's envied
    bundles (_envied) only as far as it goes. Each agent on the cycle takes
    the bundle she envies, whole, and as own[i] the sum the walk made for
    it."""
    gain = [0] * len(rows)  # agent i's value of the last bundle envied_by(i) gave

    def envied_by(i):
        for _, j, value in _envied(rows, bundles, own, (i,)):
            gain[i] = value
            yield j

    cycle = _first_cycle(len(rows), envied_by)
    if cycle is None:
        return False
    _rotate_cycle(bundles, cycle)
    for i in cycle:
        own[i] = gain[i]
    return True


def resolve_envy_cycles(instance: Instance, allocation: Allocation) -> Allocation:
    """Rotate bundles along envy cycles until the envy graph is acyclic.
    Per-agent values never decrease, and the bundle multiset is preserved.
    The allocation may be partial; it is checked once (core._checked)."""
    rows, own = _checked(instance, allocation, complete=False)
    bundles = list(allocation.bundles)
    while _rotate_first_cycle(rows, bundles, own):
        pass
    return Allocation(tuple(bundles))


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
        if not isinstance(doc, dict):
            raise PolicyError("policy document must be a JSON object")
        unknown = sorted(set(doc) - {"sources", "goods"})
        if unknown:
            raise PolicyError(f"unknown policy fields {_quote(unknown)}")

        def norm(key):
            seq = doc.get(key)
            if seq is None:
                return None
            if not isinstance(seq, list) or not all(
                    e is None or _is_json_int(e) for e in seq):
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


def _first_unenvied(rows, bundles, own, agents, envier) -> Optional[int]:
    """The first j in `agents` that no other agent i values strictly above
    own[i], or None. Column-major: bundle j is summed under each other row
    in index order, and its column stops at the first agent who envies it,
    so a pick sums only the columns up to the first unenvied one. envier[j]
    remembers that agent, and a column whose envier is still set is skipped
    unsummed; the caller clears an entry once it may no longer hold. The
    checkers walk agent-major (_envied), as their first witness is the
    first envious agent's."""
    for j in agents:
        if envier[j] is not None:
            continue
        bundle = bundles[j]
        for i, row in enumerate(rows):
            if i == j:
                continue
            value = sum(map(row.__getitem__, bundle))  # [pair sum]
            if own[i] < value:
                envier[j] = i
                break
        else:
            return j
    return None


def efl_allocate(instance: Instance, policy: Optional[TieBreakPolicy] = None,
                 debug: bool = False) -> Allocation:
    """Allocate all goods so the result is envy-free up to one less-preferred
    good (and hence at least half of every groupwise share).

    Loop: hand an unenvied agent her highest-valued remaining good. Envy
    cycles are rotated away lazily (_rotate_first_cycle, as in
    resolve_envy_cycles), only when no unenvied agent is left; resolving
    after the final pick would permute bundles without improving any
    guarantee, and deferring keeps the algorithm's worst-case traces
    reachable under scripted tie-breaking. A step needs only the
    lowest-index unenvied agent, so it walks the columns of the envy
    matrix (_first_unenvied).

    The loop keeps what it already knows. Each bundle is a list of goods
    in the order they were picked, so its most recent good is its last
    entry and moves with it through every rotation; the frozensets are
    built once, in the result. Own values are running sums: a pick adds
    its good, and a rotation sets them on its cycle. Each bundle
    remembers the first envier its column walk found, and the walk skips a
    bundle whose envier is set. Between rotations an agent's own value
    changes only when she picks, and a bundle only grows, so an envier
    stops being one only by picking: a pick clears the entries that name
    the picker, and a rotation clears them all. Each agent's good comes
    from a cursor over her preference order (the view's ``order``: the
    positive goods by descending value, lowest index on ties), which skips
    the goods already taken; once she values no remaining good, she takes
    the lowest-index one. ``debug`` checks the last-good envy bound, the
    running own values and every remembered envier at each step, on sums
    made afresh (_assert_loop_invariants).
    """
    n, m = instance.num_agents, instance.num_goods
    rows = instance.valuations
    orders = [order for _, _, order in instance._units]
    bundles: List[List[int]] = [[] for _ in range(n)]  # goods in pick order
    envier: List[Optional[int]] = [None] * n  # bundle j's remembered envier
    own = [0] * n
    cursor = [0] * n  # each agent's place in her preference order
    remaining = set(range(m))
    for step in range(m):
        agent = _first_unenvied(rows, bundles, own, range(n), envier)
        rotations = 0
        while agent is None:
            if not _rotate_first_cycle(rows, bundles, own):
                raise AssertionError("sourceless envy graph must contain a cycle")
            envier = [None] * n
            agent = _first_unenvied(rows, bundles, own, range(n), envier)
            rotations += 1
            if rotations > n * n:
                raise AssertionError("cycle resolution failed to terminate")
        if policy is not None:
            scripted = policy.pick("sources", step)
            if scripted is not None:
                if not (_is_json_int(scripted) and 0 <= scripted < n):
                    raise PolicyError(f"step {step}: scripted source "
                                      f"{_quote(scripted)} is not an agent")
                if _first_unenvied(rows, bundles, own, (scripted,), envier) is None:
                    raise PolicyError(
                        f"step {step}: scripted source {scripted} is envied")
                agent = scripted
        row, order, at = rows[agent], orders[agent], cursor[agent]
        while at < len(order) and order[at] not in remaining:
            at += 1
        cursor[agent] = at
        good = order[at] if at < len(order) else min(remaining)
        if policy is not None:
            scripted = policy.pick("goods", step)
            if scripted is not None:
                if (not _is_json_int(scripted) or scripted not in remaining
                        or row[scripted] != row[good]):
                    raise PolicyError(
                        f"step {step}: scripted good {scripted} is not a "
                        f"highest-valued remaining good for agent {agent}")
                good = scripted
        bundles[agent].append(good)
        own[agent] += row[good]
        remaining.discard(good)
        envier = [None if i == agent else i for i in envier]
        if debug:
            _assert_loop_invariants(rows, bundles, own, envier)
    return Allocation(tuple(map(frozenset, bundles)))


def _assert_loop_invariants(rows, bundles, own, envier):
    """The allocator's loop invariants, on one fresh sum of the own values,
    for bundles that list their goods in pick order: dropping the most
    recent good of any envied bundle kills the envy (an envied bundle is
    never empty); every running own value is its bundle's value; and every
    remembered envier still envies her bundle."""
    fresh = _own_values(rows, bundles)
    for r, s, value in _envied(rows, bundles, fresh):
        if fresh[r] < value - rows[r][bundles[s][-1]]:
            raise AssertionError(
                f"partial allocation lost the last-good envy bound ({r} vs {s})")
    for i, (kept, value) in enumerate(zip(own, fresh)):
        if kept != value:
            raise AssertionError(
                f"running own value {kept} of agent {i} is not her bundle's {value}")
    for j, i in enumerate(envier):
        if i is not None and not fresh[i] < sum(map(rows[i].__getitem__, bundles[j])):
            raise AssertionError(
                f"remembered envier {i} no longer envies bundle {j}")


@dataclass(frozen=True)
class SearchResult:
    """Outcome of ``exact_gmms_search``. ``examined`` counts the search nodes
    visited (the root and every placement tried), not complete allocations."""

    status: str  # "found" | "exhausted" | "budget"
    allocation: Optional[Allocation]
    examined: int

    def to_doc(self) -> dict:
        doc = {"status": self.status, "examined": self.examined}
        if self.allocation is not None:
            doc["bundles"] = [sorted(b) for b in self.allocation.bundles]
        return doc


def exact_gmms_search(instance: Instance, budget: Optional[int] = None) -> SearchResult:
    """First allocation in lexicographic assignment order passing the
    groupwise check, or proof of exhaustion, or a budget marker.

    Depth-first search over partial assignments, on an explicit stack:
    goods are placed in index order, each with agents tried in increasing
    index, so leaves come in the same order as a full enumeration. Across
    nodes only the stack and each agent's own value (in her integer units)
    are kept. A placement is dropped when some agent's own value plus her
    value of the unplaced goods falls below her LPT seed for n parts. That
    seed is at most her maximin share of all goods, which GMMS guarantees
    her, so no dropped subtree holds a solution and the first allocation
    found is the same as without pruning. The placer always keeps pace
    with her need, so the prune is decided once per depth: when good t is
    first reached, the agents already short of the need after it are
    found, and good t goes only to the one short agent, or to anyone when
    none is short. A leaf builds its bundles from the stack and prefilters
    by the (provably necessary) EFX condition on the own values the stack
    keeps, summing another bundle only when it is reached and stopping at
    the first violation, before the share computations run.
    ``examined`` counts the nodes visited: the root, then every placement
    tried, dropped ones included, exactly as if each were tried in turn.
    ``budget`` (>= 0; a negative one raises ``InputError``) caps it.
    """
    n, m = instance.num_agents, instance.num_goods
    if budget is not None:
        _check_int("budget", budget, 0)
    if budget == 0:
        return SearchResult("budget", None, 0)
    agents = instance._units
    rows = [ints for _, ints, _ in agents]
    # need[t][i]: the least own value agent i may hold once goods < t are
    # placed, so that her goods >= t can still lift her to her LPT seed
    need = [[] for _ in range(m)] + [
        [_lpt_seed([ints[g] for g in order], n)[0] for _, ints, order in agents]]
    for t in range(m - 1, -1, -1):
        need[t] = [x - row[t] for x, row in zip(need[t + 1], rows)]
    holder = [-1] * m  # the stack: good t's agent, -1 while good t is unplaced
    stop = [0] * m  # good t's placements pass for agents below stop[t]
    own = [0] * n

    def leaf_passes():
        bundles = [[] for _ in range(n)]  # goods ascending, from the stack
        for g, a in enumerate(holder):
            bundles[a].append(g)
        for i, j, value in _envied(rows, bundles, own):
            if _efx_hit(rows[i], own[i], value, bundles[j]):
                return None
        if all(next(_beating_groups(ints, order, bundles, i, own[i],
                                    goal=own[i] + 1), None) is None
               for i, (_, ints, order) in enumerate(agents)):
            return Allocation(tuple(map(frozenset, bundles)))
        return None

    examined = 1  # the root
    if m == 0:
        found = leaf_passes()
        return SearchResult("exhausted" if found is None else "found", found, 1)
    t = 0
    while True:
        a = holder[t]
        if a < 0:
            # good t first reached: only agents short of need[t + 1] can
            # fail once it is placed (the placer's value rises as much as
            # her need), so placing it passes for the one short agent, for
            # anyone when none is short, and for no one when more are
            short = list(map(operator.lt, own, need[t + 1]))  # per agent
            count = short.count(True)
            if not count:
                a, stop[t] = 0, n
            elif count == 1:
                a = short.index(True)
                stop[t] = a + 1
            else:
                a = stop[t] = n
            tries = a  # the dropped placements below a
        else:  # take good t back before trying the next agent
            own[a] -= rows[a][t]
            a += 1
            tries = 0
        if a == stop[t]:
            tries += n - a  # the dropped placements from stop[t] on
        else:
            tries += 1  # placing good t with agent a
        # the same outcome as counting the tries one at a time
        if budget is not None and examined + tries > budget:
            return SearchResult("budget", None, budget)
        examined += tries
        if a == stop[t]:  # every agent tried for good t: backtrack
            holder[t] = -1
            if t == 0:
                return SearchResult("exhausted", None, examined)
            t -= 1
            continue
        holder[t] = a
        own[a] += rows[a][t]
        if t + 1 < m:
            t += 1
            continue
        found = leaf_passes()
        if found is not None:
            return SearchResult("found", found, examined)


def lex_dominates(u: Sequence[Fraction], v: Sequence[Fraction]) -> bool:
    """Compare value vectors by their ascending-sorted components; the first
    differing (smallest-first) component decides."""
    if len(u) != len(v):
        raise InputError(f"vector lengths differ: {len(u)} vs {len(v)}")
    return tuple(sorted(u)) >= tuple(sorted(v))


def lexmax_allocation(instance: Instance, budget: Optional[int] = None) -> Allocation:
    """For identical valuations: the allocation whose sorted value vector
    dominates every other's. Agents are interchangeable here, so enumeration
    uses canonical (restricted-growth) assignments only. Reaching ``budget``
    enumerated assignments raises BudgetError. Sums run on the integer
    view: rows are identical exactly when their (D, ints, order) entries
    are, and scaling every sum by the one D > 0 keeps the key order.
    """
    n, m = instance.num_agents, instance.num_goods
    units = instance._units
    for i in range(1, n):
        if units[i] != units[0]:
            raise InputError("lexmax allocation requires identical valuation rows")
    if budget is not None:
        _check_int("budget", budget, 0)
    row = units[0][1]
    best_key = best_assign = None
    for leaves, assign in enumerate(_restricted_growth(m, n)):
        if budget is not None and leaves >= budget:
            raise BudgetError(f"enumeration budget {budget} exhausted")
        sums = [0] * n
        for g, j in enumerate(assign):
            sums[j] += row[g]
        key = tuple(sorted(sums))
        if best_key is None or key > best_key:
            best_key, best_assign = key, assign[:]
    bundles = [set() for _ in range(n)]
    for g, j in enumerate(best_assign):
        bundles[j].add(g)
    return Allocation(tuple(frozenset(b) for b in bundles))
