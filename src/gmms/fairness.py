"""Verifiers for every fairness notion on complete allocations.

Each checker returns a FairnessReport; a failed report carries a violation
witness whose inequality re-evaluates exactly as reported. Each check is
one of two walks on the integer view ``Instance._units``: EF, EF1, EFX and
EFL test each envied pair of the lazy walk ``_envied`` (``_pair_violation``),
and MMS, PMMS, k-wise and GMMS run the group walker from each agent's own
value (``_group_violation``). Only a witness is made of Fractions.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional

from .core import Allocation, Instance, _check_int
from .maximin import _beating_groups, _threshold_units


class Notion(str, enum.Enum):
    EF = "EF"
    EF1 = "EF1"
    EFX = "EFX"
    EFL = "EFL"
    MMS = "MMS"
    PMMS = "PMMS"
    KWISE = "KWISE"
    GMMS = "GMMS"


@dataclass(frozen=True, slots=True)
class Violation:
    """A concrete counterexample: lhs < rhs for the reported comparison."""

    agent: int
    other: Optional[tuple] = None   # envied agent (i,) or group
    good: Optional[int] = None
    partition: Optional[tuple] = None
    lhs: Fraction = Fraction(0)
    rhs: Fraction = Fraction(0)

    def to_doc(self) -> dict:
        doc = {"agent": self.agent, "lhs": str(self.lhs), "rhs": str(self.rhs)}
        if self.other is not None:
            doc["other"] = list(self.other)
        if self.good is not None:
            doc["good"] = self.good
        if self.partition is not None:
            doc["partition"] = [sorted(b) for b in self.partition]
        return doc


@dataclass(frozen=True, slots=True)
class FairnessReport:
    notion: Notion
    holds: bool
    witness: Optional[Violation] = None
    k: Optional[int] = None  # set for KWISE reports

    def to_doc(self) -> dict:
        doc = {"notion": self.notion.value, "holds": self.holds}
        if self.k is not None:
            doc["k"] = self.k
        if self.witness is not None:
            doc["witness"] = self.witness.to_doc()
        return doc


def _report(notion: Notion, witness: Optional[Violation], k=None) -> FairnessReport:
    """The report of a check whose first violation is `witness` (None: holds)."""
    return FairnessReport(notion, witness is None, witness, k)


def _own_values(rows, bundles):
    """Each agent's value of her own bundle, in the units of her row."""
    return [sum(map(row.__getitem__, b)) for row, b in zip(rows, bundles)]


def _envied(rows, bundles, own, agents=None):
    """(i, j, value), agent-major with bundles in order, for each bundle j
    that agent i values strictly above own[i], in the units of rows[i].
    Bundle j is summed only when agent i reaches it, so a check that stops
    at its first violation skips the rest. Every envy notion can fail only
    on these pairs. ``agents``, when given, walks only their rows, in
    their order."""
    for i in range(len(rows)) if agents is None else agents:
        row, mine = rows[i], own[i]
        for j, bundle in enumerate(bundles):
            if j != i:
                value = sum(map(row.__getitem__, bundle))  # [envied sum]
                if mine < value:
                    yield i, j, value


def _pair_violation(instance: Instance, allocation: Allocation,
                    test) -> Optional[Violation]:
    """The first envied pair (i, j) that `test` finds violated, as a
    Violation; test(row, own, value, bundle) gets agent i's integer row
    (see core.Instance._units), own and bundle values, and bundle j's goods
    ascending, and returns (good, rhs) for a violation, else None."""
    allocation.validate(instance, require_complete=True)
    units = instance._units
    rows = [ints for _, ints, _ in units]
    bundles = [sorted(b) for b in allocation.bundles]
    own = _own_values(rows, bundles)
    for i, j, value in _envied(rows, bundles, own):
        hit = test(rows[i], own[i], value, bundles[j])
        if hit is not None:
            denom = units[i][0]
            return Violation(i, (j,), good=hit[0], lhs=Fraction(own[i], denom),
                             rhs=Fraction(hit[1], denom))
    return None


def _top(row, bundle):
    """The good of `bundle` the agent values most; the lowest index on ties."""
    return max(bundle, key=lambda g: (row[g], -g))


def _ef1_hit(row, own, value, bundle):
    """The envy outlives removing the bundle's top good."""
    top = _top(row, bundle)
    return (top, value - row[top]) if own < value - row[top] else None


def _efx_hit(row, own, value, bundle):
    """The first positively valued good whose removal leaves the envy."""
    gap = value - own
    for g in bundle:
        if 0 < row[g] < gap:
            return g, value - row[g]
    return None


def _efl_hit(row, own, value, bundle):
    """Two or more positively valued goods, and none both kills the envy
    when removed and is worth at most the own value: the top good fails."""
    if (sum(row[g] > 0 for g in bundle) <= 1
            or any(own >= value - row[g] and own >= row[g] for g in bundle)):
        return None
    top = _top(row, bundle)
    return top, (value - row[top] if own < value - row[top] else row[top])


def is_envy_free(instance: Instance, allocation: Allocation) -> FairnessReport:
    """v_i(A_i) >= v_i(A_j) for all pairs: every envied pair violates it."""
    return _report(Notion.EF, _pair_violation(
        instance, allocation, lambda row, own, value, bundle: (None, value)))


def is_ef1(instance: Instance, allocation: Allocation) -> FairnessReport:
    """Some single good removed from the envied bundle kills the envy.

    Empty bundles are never envied: v_i(A_i) >= 0 = v_i(empty).
    """
    return _report(Notion.EF1, _pair_violation(instance, allocation, _ef1_hit))


def is_efx(instance: Instance, allocation: Allocation) -> FairnessReport:
    """Removing any positively valued good from the envied bundle kills the envy."""
    return _report(Notion.EFX, _pair_violation(instance, allocation, _efx_hit))


def is_efl(instance: Instance, allocation: Allocation) -> FairnessReport:
    """Either the envied bundle holds at most one positively valued good, or
    some good both kills the envy when removed and is worth no more than the
    envious agent's own bundle."""
    return _report(Notion.EFL, _pair_violation(instance, allocation, _efl_hit))


def _group_violation(instance: Instance, allocation: Allocation,
                     size: Optional[int] = None) -> Optional[Violation]:
    """First agent and group (of `size`, or of any size) whose pooled share
    exceeds the agent's own value, searched in her integer units (see
    core.Instance._units) in optimisation form from the own value, so one
    search gives the share and the witness maximin_share would give. Only
    groups whose bundles she values above her own on average are pooled."""
    own = _own_values([u[1] for u in instance._units], allocation.bundles)
    for i, (denom, ints, order) in enumerate(instance._units):
        for group, value, witness in _beating_groups(
                ints, order, allocation.bundles, i, own[i], size):
            return Violation(i, group, partition=witness,
                             lhs=Fraction(own[i], denom), rhs=Fraction(value, denom))
    return None


def is_mms(instance: Instance, allocation: Allocation) -> FairnessReport:
    """Every agent's bundle clears her grand-bundle maximin share: the group
    check at size n, whose only group pools every bundle."""
    allocation.validate(instance, require_complete=True)
    witness = _group_violation(instance, allocation, instance.num_agents)
    if witness is None:
        return FairnessReport(Notion.MMS, True)
    return FairnessReport(Notion.MMS, False, replace(witness, other=None))


def is_pmms(instance: Instance, allocation: Allocation) -> FairnessReport:
    """Every agent clears her 2-part share over her own plus any other bundle."""
    allocation.validate(instance, require_complete=True)
    witness = _group_violation(instance, allocation, 2)
    if witness is None:
        return FairnessReport(Notion.PMMS, True)
    other = tuple(j for j in witness.other if j != witness.agent)
    return FairnessReport(Notion.PMMS, False, replace(witness, other=other))


def is_kwise_fair(instance: Instance, allocation: Allocation, k: int) -> FairnessReport:
    """Every agent clears her k-part share over every size-k group's pool."""
    allocation.validate(instance, require_complete=True)
    _check_int("k", k, 1, instance.num_agents)
    return _report(Notion.KWISE, _group_violation(instance, allocation, k), k)


def is_gmms(instance: Instance, allocation: Allocation) -> FairnessReport:
    """Every agent clears her share for every group containing her.

    Groups with empty-bundle co-members are skipped: the reduced group pools
    the same goods into fewer parts, so its share dominates.
    """
    allocation.validate(instance, require_complete=True)
    return _report(Notion.GMMS, _group_violation(instance, allocation))


def gmms_factor(instance: Instance, allocation: Allocation) -> Optional[Fraction]:
    """min_i v_i(A_i) / threshold_i, skipping zero thresholds.

    Returns None for +infinity (every threshold is zero): the allocation is
    alpha-fair for every alpha.
    """
    allocation.validate(instance, require_complete=True)
    factor: Optional[Fraction] = None
    own = _own_values([u[1] for u in instance._units], allocation.bundles)
    # the threshold and the own value share agent i's units, so their ratio
    # is the ratio of the two integers
    for i, (_, ints, order) in enumerate(instance._units):
        threshold = _threshold_units(ints, order, allocation.bundles, i)[1]
        if threshold == 0:
            continue
        ratio = Fraction(own[i], threshold)
        if factor is None or ratio < factor:
            factor = ratio
    return factor


CHECKERS = {
    Notion.EF: is_envy_free,
    Notion.EF1: is_ef1,
    Notion.EFX: is_efx,
    Notion.EFL: is_efl,
    Notion.MMS: is_mms,
    Notion.PMMS: is_pmms,
    Notion.GMMS: is_gmms,
}
