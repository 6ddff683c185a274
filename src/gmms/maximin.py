"""Exact maximin-share computation.

Every share runs on one integer kernel. Each agent's row is scaled once per
instance by the lcm D of its denominators (the view ``Instance._units``,
built on first use), so all of that agent's shares, over any pool of goods,
are integers in units of 1/D; ``_agent_ints`` checks an agent index and
returns her entry. ``_best_partition`` is
the single branch-and-bound, a loop over an explicit stack with a
water-filling bound whose deficit it keeps as a running sum, so that each
placement tests the bound in O(1): it looks for a
partition whose min beats a floor and stops at a goal; a pool with one
part, or at most two positive goods more than parts, it decides by its LPT
seed, which is optimal there, with no search. ``_pool_share``, its
one caller, adds the witness.
``_beating_groups``, the one group walker, yields each group whose pooled
share beats the floor so far, raised at each yield; it never pools a group
whose summed bundle value is at most the group size times the floor, as
such a group's averaging cap cannot beat it, and walks the groups depth
first so that whole runs of them are dropped at once.
``maximin_share`` uses the optimisation form, ``maximin_exceeds`` and the
exact search's leaves the decision form (floor t, goal t+1), the fairness
checkers the optimisation form from the agent's own value, and
``gmms_threshold`` and ``gmms_factor`` the walker's last yield from floor -1
(``_threshold_units``).
Fractions appear only in results. ``maximin_share_naive`` is the unpruned
enumeration oracle used to cross-check it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .core import (Allocation, Bundle, InputError, Instance, _check_int, _checked,
                   check_bundle)

NAIVE_GOODS_LIMIT = 14


@dataclass(frozen=True)
class MaximinResult:
    """A share value together with a witness partition attaining it."""

    value: Fraction
    witness: tuple  # of Bundle, exactly `parts` entries (empty bundles allowed)

    def to_doc(self) -> dict:
        return {"value": str(self.value),
                "witness": [sorted(b) for b in self.witness]}


@dataclass(frozen=True)
class GmmsThreshold:
    """Best maximin share of one agent over any group containing her."""

    value: Fraction
    witness_group: tuple  # sorted agent indices
    witness_partition: tuple  # of Bundle


def _agent_ints(instance: Instance, agent: int):
    """Agent's entry (D, ints, order) of the instance's integer view (see
    ``Instance._units``), once `agent` is checked to be an agent index."""
    _check_int("agent", agent, 0, instance.num_agents - 1)
    return instance._units[agent]


def _lpt_seed(vals, k):
    """Greedy longest-first assignment; a quick lower bound on the optimum."""
    sums = [0] * k
    assign = [0] * len(vals)
    for t, v in enumerate(vals):
        j = sums.index(min(sums))  # the first least bin
        sums[j] += v
        assign[t] = j
    return min(sums), assign


def _best_partition(vals, k, floor=-1, goal=None):
    """Best k-partition of positive integers `vals` (descending) above `floor`.

    Returns (best_min, assignment) for a partition with min > floor, stopping
    as soon as the min reaches `goal` (default: the averaging cap, the largest
    multiple of gcd(vals) <= total/k, which bounds the optimum). Returns
    (floor, None) when no partition beats `floor`. The optimisation form is
    the default; the decision form "is the optimum > t?" is floor=t,
    goal=t+1.

    With k = 1 or p <= k + 2 the LPT seed is optimal, so those pools return
    it, or (floor, None), with no search: the pair the search would return,
    as it never strictly improves an optimal seed. One part holds the total;
    with p <= k each value stands alone, as LPT puts value t in the empty
    bin t, so with p < k its assignment is list(range(p)) and its min 0.
    With k < p <= k + 2 no bin of some optimum is empty, so each bin holds
    one value but for one pair (p = k + 1), or one triple or two pairs
    (p = k + 2). Exchanging values puts the largest alone, and pairs the
    four smallest a >= b >= c >= d as a + d and b + c. LPT places the k
    largest alone, c with b, and then d on the least bin: with a when
    a <= b + c, building the pairs, whose min is at least a, the triple's
    min; else into the triple, whose min, min(a, b + c + d), exceeds the
    pairs' b + c. At p = k + 3 LPT can miss: [3, 3, 2, 2, 2] with k = 2 has
    optimum 6 and seed 5.

    Otherwise one loop over an explicit stack, so no recursion limit bounds
    p; skipping each bin whose sum an earlier bin shares kills bundle
    symmetry, and subtrees that cannot beat the incumbent are pruned by
    water-filling: the values left must raise every bin to best + 1. The
    summed deficit of the bins below best + 1 is kept as a running sum,
    moved by the one bin that a value enters or leaves and summed afresh
    only when an improving leaf raises best; testing it whole is the same
    test as walking the bins and stopping once the partial deficit passes
    the values left, as partial deficits only grow. All
    pruning is sound for strict improvement, so in the optimisation form
    the witness is the LPT seed when that is optimal, else the first
    optimal leaf in search order, whatever the floor.
    """
    p = len(vals)
    if k == 1 or p <= k + 2:
        best, assign = _lpt_seed(vals, k)
        return (floor, None) if best <= floor else (best, assign)
    suffix = list(itertools.accumulate(reversed(vals), initial=0))[::-1]
    step = math.gcd(*vals)
    cap = suffix[0] // (k * step) * step
    if cap <= floor:
        return floor, None
    if goal is None:
        goal = cap
    best, best_assign = floor, None
    seed, seed_assign = _lpt_seed(vals, k)
    if seed > best:
        best, best_assign = seed, seed_assign
        if best >= goal:
            return best, best_assign
    level = best + 1  # the min a leaf must reach to improve
    # the bins' summed deficit below level, kept as bin sums move; best is
    # at least the seed, which fills every bin, so all k empty bins fall short
    short = k * level
    sums = [0] * k
    assign = [-1] * p  # bin of vals[t]; -1 before its first try
    t = 0
    while t >= 0:
        v, j = vals[t], assign[t]
        if j >= 0:
            s = sums[j] - v
            sums[j] = s
            if s < level:
                short += v if s + v <= level else level - s
        j += 1
        # a bin whose sum an earlier bin shares would repeat that subtree;
        # this also tries only the first empty bin, as vals are positive
        while j < k and sums.index(sums[j]) < j:
            j += 1
        if j == k:
            assign[t] = -1
            t -= 1
            continue
        s = sums[j]
        sums[j] = s + v
        assign[t] = j  # [placement]
        if s < level:
            short -= v if s + v <= level else level - s
        # water-filling: can the values left lift every bin to level?
        if short <= suffix[t + 1]:
            if t + 1 < p:
                t += 1
            else:  # every bin reached level with nothing left
                best, best_assign = min(sums), assign[:]
                if best >= goal:
                    return best, best_assign
                level = best + 1
                # no bin is below best, so the bins at best fall 1 short each
                short = sums.count(best)  # [level]
    return best, best_assign


def _pool_share(ints, order, goods: Bundle, parts: int, floor=-1, goal=None):
    """(value, witness) of the agent's parts-share of `goods` in D units if it
    beats `floor`, else (floor, None); `goal` as in _best_partition.

    Zero-valued goods never affect the value; they are left out of the search
    and returned in the first witness bundle.
    """
    positive = [g for g in order if g in goods]
    best, assign = _best_partition([ints[g] for g in positive], parts, floor, goal)
    if assign is None:
        return best, None
    witness = [set() for _ in range(parts)]
    for g, j in zip(positive, assign):
        witness[j].add(g)
    witness[0].update(goods.difference(positive))
    return best, tuple(frozenset(b) for b in witness)


def maximin_share(instance: Instance, agent: int, goods, parts: int) -> MaximinResult:
    """mu_agent^parts(goods): exact max over partitions of the min bundle value.

    Zero-valued goods never affect the value; they are stripped before the
    search and returned in the first witness bundle.
    """
    _check_int("parts", parts, 1)
    denom, ints, order = _agent_ints(instance, agent)
    goods = check_bundle(instance, goods)
    value, witness = _pool_share(ints, order, goods, parts)
    return MaximinResult(Fraction(value, denom), witness)


def maximin_exceeds(instance: Instance, agent: int, goods, parts: int,
                    threshold: Fraction) -> bool:
    """True iff mu_agent^parts(goods) > threshold (no witness; early exit)."""
    _check_int("parts", parts, 1)
    # checked first: any other type would be multiplied by D before failing
    if isinstance(threshold, bool) or not isinstance(threshold, (int, Fraction)):
        raise InputError(f"threshold must be an int or a Fraction, "
                         f"got {type(threshold).__name__}")
    denom, ints, order = _agent_ints(instance, agent)
    goods = check_bundle(instance, goods)
    # the share times D is an integer, so it beats t*D iff it beats floor(t*D)
    floor = math.floor(threshold * denom)
    return _pool_share(ints, order, goods, parts, floor, floor + 1)[1] is not None


def _restricted_growth(m: int, k: int):
    """Every assignment of m items to at most k unlabeled parts, once each.

    These are the restricted-growth strings: a[0] = 0, and each a[t] is at
    most one above max(a[:t]) and below k. They come in lexicographic order,
    as one list updated in place, so a caller keeping one must copy it.
    Iterative, so m is not bounded by the recursion limit.
    """
    assign = [0] * m
    peak = [0] * m  # peak[t] = max(assign[:t + 1])
    while True:
        yield assign
        t = m - 1  # the last position that can still grow
        while t > 0 and (assign[t] == k - 1 or assign[t] > peak[t - 1]):
            t -= 1
        if t <= 0:
            return
        assign[t] += 1
        peak[t] = max(peak[t - 1], assign[t])
        for u in range(t + 1, m):
            assign[u] = 0
            peak[u] = peak[t]


def maximin_share_naive(instance: Instance, agent: int, goods, parts: int) -> MaximinResult:
    """Unpruned enumeration oracle; same contract as maximin_share.

    Enumerates every restricted-growth assignment of `goods` to `parts`
    bundles and takes the exact max of the min. Guarded to small inputs.
    """
    _check_int("parts", parts, 1)
    _check_int("agent", agent, 0, instance.num_agents - 1)
    goods = sorted(check_bundle(instance, goods))
    if len(goods) > NAIVE_GOODS_LIMIT:
        raise InputError(
            f"naive enumeration limited to {NAIVE_GOODS_LIMIT} goods, got {len(goods)}")
    row = instance.valuations[agent]
    best = Fraction(-1)  # the first assignment (all in one part) beats it
    for assign in _restricted_growth(len(goods), parts):
        sums = [Fraction(0)] * parts
        for g, j in zip(goods, assign):
            sums[j] += row[g]
        low = min(sums)
        if low > best:
            best, best_assign = low, assign[:]
    witness = [set() for _ in range(parts)]
    for g, j in zip(goods, best_assign):
        witness[j].add(g)
    return MaximinResult(best, tuple(frozenset(b) for b in witness))


def mms(instance: Instance, agent: int) -> MaximinResult:
    """Maximin share over the grand bundle with n parts."""
    return maximin_share(instance, agent, instance.all_goods(), instance.num_agents)


def _beating_groups(ints, order, bundles, agent: int, floor=-1,
                    size: Optional[int] = None, goal=None):
    """(group, value, witness) in the agent's D units for each group
    containing `agent` (of `size`, or of any size) whose pooled share beats
    `floor`, which each yield then raises to that value; `goal` as in
    _best_partition. Groups come by increasing size and then in
    lexicographic order of the sorted group.

    A group J can beat floor f only if the summed value W of its bundles
    exceeds |J|*f, since the share is at most the averaging cap W/|J| (see
    _best_partition); the other groups are never pooled, and a pooled group
    whose share cannot beat f costs no witness. For each size, the
    co-members are chosen by a depth-first walk over index combinations in
    lexicographic order, which is that order. A prefix with r open slots is
    dropped, with every later choice at its depth, once its W plus r times
    the largest bundle value left to choose from is at most |J|*f; the
    floor only rises, so no dropped group could win later. For all sizes,
    groups with an empty-bundle co-member are skipped: dropping that member
    keeps the pooled goods and lowers the part count, which can only raise
    the share, and the reduced group comes earlier in the order.
    """
    w = [sum(map(ints.__getitem__, b)) for b in bundles]  # bundle values, D units
    others = [j for j in range(len(bundles))
              if j != agent and (size is not None or bundles[j])]
    top = [0] * (len(others) + 1)  # top[t]: the largest w among others[t:]
    for t in range(len(others) - 1, -1, -1):
        top[t] = max(top[t + 1], w[others[t]])
    for k in range(1, len(others) + 2) if size is None else (size,):
        # positions in `others`, ascending, and the open slots left
        chosen, total, t, slots = [], w[agent], 0, k - 1
        while True:
            if not slots:
                if total > k * floor:
                    group = tuple(sorted([agent] + [others[c] for c in chosen]))
                    pooled = frozenset().union(*(bundles[j] for j in group))
                    value, witness = _pool_share(ints, order, pooled, k, floor, goal)
                    if witness is not None:
                        floor = value
                        yield group, value, witness
            elif t + slots <= len(others) and total + slots * top[t] > k * floor:
                chosen.append(t)  # [extension]
                total += w[others[t]]
                t += 1
                slots -= 1
                continue
            if not chosen:
                break
            t = chosen.pop()  # take the last co-member back, try the next
            total -= w[others[t]]
            t += 1
            slots += 1


def _threshold_units(ints, order, bundles, agent: int):
    """(group, value, witness) of the agent's groupwise threshold in her D
    units: the last group that _beating_groups yields from floor -1."""
    # the agent alone beats floor -1, so the walker yields at least once
    for found in _beating_groups(ints, order, bundles, agent):
        pass
    return found


def gmms_threshold(instance: Instance, allocation: Allocation, agent: int) -> GmmsThreshold:
    """Max over groups J containing `agent` of mu_agent^|J|(union of J's bundles).

    The last group that _beating_groups yields from floor -1: the best share
    so far is the floor of every later group's search, so a group whose
    summed bundle value cannot beat it is not even pooled, and the witness
    group is the first group reaching the maximum. Groups containing
    another agent with an empty bundle are skipped (see _beating_groups).
    """
    _checked(instance, allocation)
    denom, ints, order = _agent_ints(instance, agent)
    group, value, witness = _threshold_units(ints, order, allocation.bundles, agent)
    return GmmsThreshold(Fraction(value, denom), group, witness)
