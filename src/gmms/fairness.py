"""Verifiers for every fairness notion on complete allocations.

Each checker returns a FairnessReport; a failed report carries a violation
witness whose inequality re-evaluates exactly as reported.
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


def _value_matrix(rows, bundles):
    """Row i: agent i's value of every bundle, in the units of rows[i].
    Rows are computed as they are read, so a check that stops at its first
    violation skips the rest."""
    return ([sum(row[g] for g in b) for b in bundles] for row in rows)


def _envied(sums):
    """(i, j, own, value), agent-major, for each bundle j that agent i
    values strictly above her own; row i of `sums` is agent i's value of
    every bundle. Every envy notion can fail only on these pairs."""
    for i, row in enumerate(sums):
        for j, value in enumerate(row):
            if row[i] < value:
                yield i, j, row[i], value


def _scaled_envied(instance: Instance, bundles):
    """(i, j, own, value, denom, ints) for each pair that _envied yields, in
    agent i's integer units: ints is her row times denom (see
    core.Instance._units)."""
    units = instance._units
    for i, j, own, value in _envied(_value_matrix((u[1] for u in units), bundles)):
        yield (i, j, own, value) + units[i][:2]


def _efx_violation(rows, bundles, own):
    """First (i, j, g, own[i], rest), agent-major, goods in bundle order,
    where agent i values bundle j without its positively valued good g
    (rest) above own[i], her value of her own bundle; None if the
    allocation is EFX. Each bundle is summed only when it is reached, so a
    check that stops at its first violation skips the rest."""
    for i, row in enumerate(rows):
        mine = own[i]
        for j, bundle in enumerate(bundles):
            if j == i:
                continue
            value = sum(map(row.__getitem__, bundle))
            if mine < value:  # envied: a good worth less than the gap violates
                gap = value - mine
                for g in bundle:
                    if 0 < row[g] < gap:
                        return i, j, g, mine, value - row[g]
    return None


def is_envy_free(instance: Instance, allocation: Allocation) -> FairnessReport:
    """v_i(A_i) >= v_i(A_j) for all pairs."""
    allocation.validate(instance, require_complete=True)
    for i, j, own, value, denom, _ in _scaled_envied(instance, allocation.bundles):
        return FairnessReport(Notion.EF, False, Violation(
            i, (j,), lhs=Fraction(own, denom), rhs=Fraction(value, denom)))
    return FairnessReport(Notion.EF, True)


def is_ef1(instance: Instance, allocation: Allocation) -> FairnessReport:
    """Some single good removed from the envied bundle kills the envy.

    Empty bundles are never envied: v_i(A_i) >= 0 = v_i(empty).
    """
    allocation.validate(instance, require_complete=True)
    for i, j, own, value, denom, row in _scaled_envied(instance, allocation.bundles):
        top = max(allocation.bundles[j], key=lambda g: (row[g], -g))
        if own < value - row[top]:
            return FairnessReport(Notion.EF1, False, Violation(
                i, (j,), good=top, lhs=Fraction(own, denom),
                rhs=Fraction(value - row[top], denom)))
    return FairnessReport(Notion.EF1, True)


def is_efx(instance: Instance, allocation: Allocation) -> FairnessReport:
    """Removing any positively valued good from the envied bundle kills the envy."""
    allocation.validate(instance, require_complete=True)
    units = instance._units
    rows = [ints for _, ints, _ in units]
    found = _efx_violation(rows, [sorted(b) for b in allocation.bundles],
                           [sum(map(row.__getitem__, b))
                            for row, b in zip(rows, allocation.bundles)])
    if found is None:
        return FairnessReport(Notion.EFX, True)
    i, j, g, own, rest = found
    denom = units[i][0]
    return FairnessReport(Notion.EFX, False, Violation(
        i, (j,), good=g, lhs=Fraction(own, denom), rhs=Fraction(rest, denom)))


def is_efl(instance: Instance, allocation: Allocation) -> FairnessReport:
    """Either the envied bundle holds at most one positively valued good, or
    some good both kills the envy when removed and is worth no more than the
    envious agent's own bundle."""
    allocation.validate(instance, require_complete=True)
    for i, j, own, value, denom, row in _scaled_envied(instance, allocation.bundles):
        bundle = allocation.bundles[j]
        if sum(row[g] > 0 for g in bundle) <= 1:
            continue
        if not any(own >= value - row[g] and own >= row[g] for g in bundle):
            top = max(bundle, key=lambda g: (row[g], -g))
            rhs = value - row[top] if own < value - row[top] else row[top]
            return FairnessReport(Notion.EFL, False, Violation(
                i, (j,), good=top, lhs=Fraction(own, denom),
                rhs=Fraction(rhs, denom)))
    return FairnessReport(Notion.EFL, True)


def _group_violation(instance: Instance, allocation: Allocation,
                     size: Optional[int] = None) -> Optional[Violation]:
    """First agent and group (of `size`, or of any size) whose pooled share
    exceeds the agent's own value, searched in her integer units (see
    core.Instance._units) in optimisation form from the own value, so one
    search gives the share and the witness maximin_share would give. Only
    groups whose bundles she values above her own on average are pooled."""
    for i, (denom, ints, order) in enumerate(instance._units):
        own = sum(ints[g] for g in allocation.bundles[i])
        for group, value, witness in _beating_groups(
                ints, order, allocation.bundles, i, own, size):
            return Violation(i, group, partition=witness,
                             lhs=Fraction(own, denom), rhs=Fraction(value, denom))
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
    witness = _group_violation(instance, allocation, k)
    return FairnessReport(Notion.KWISE, witness is None, witness, k=k)


def is_gmms(instance: Instance, allocation: Allocation) -> FairnessReport:
    """Every agent clears her share for every group containing her.

    Groups with empty-bundle co-members are skipped: the reduced group pools
    the same goods into fewer parts, so its share dominates.
    """
    allocation.validate(instance, require_complete=True)
    witness = _group_violation(instance, allocation)
    return FairnessReport(Notion.GMMS, witness is None, witness)


def gmms_factor(instance: Instance, allocation: Allocation) -> Optional[Fraction]:
    """min_i v_i(A_i) / threshold_i, skipping zero thresholds.

    Returns None for +infinity (every threshold is zero): the allocation is
    alpha-fair for every alpha.
    """
    allocation.validate(instance, require_complete=True)
    factor: Optional[Fraction] = None
    # the threshold and the own value share agent i's units, so their ratio
    # is the ratio of the two integers
    for i, (_, ints, order) in enumerate(instance._units):
        threshold = _threshold_units(ints, order, allocation.bundles, i)[1]
        if threshold == 0:
            continue
        ratio = Fraction(sum(ints[g] for g in allocation.bundles[i]), threshold)
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
