"""Verifiers for every fairness notion on complete allocations.

Each checker returns a FairnessReport; a failed report carries a violation
witness whose inequality re-evaluates exactly as reported.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional

from .core import Allocation, InputError, Instance, bundle_value
from .maximin import (_agent_ints, _exceeds, _violated_group, gmms_threshold,
                      maximin_share, mms)


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


def _own_values(instance: Instance, allocation: Allocation):
    return [bundle_value(instance, i, allocation.bundles[i])
            for i in range(instance.num_agents)]


def _require_complete(instance: Instance, allocation: Allocation):
    allocation.validate(instance, require_complete=True)


def is_envy_free(instance: Instance, allocation: Allocation) -> FairnessReport:
    """v_i(A_i) >= v_i(A_j) for all pairs."""
    _require_complete(instance, allocation)
    own = _own_values(instance, allocation)
    for i in range(instance.num_agents):
        for j in range(instance.num_agents):
            if i == j:
                continue
            rhs = bundle_value(instance, i, allocation.bundles[j])
            if own[i] < rhs:
                return FairnessReport(Notion.EF, False,
                                      Violation(i, (j,), lhs=own[i], rhs=rhs))
    return FairnessReport(Notion.EF, True)


def is_ef1(instance: Instance, allocation: Allocation) -> FairnessReport:
    """Some single good removed from the envied bundle kills the envy.

    Empty envied bundles never violate: v_i(A_i) >= 0 = v_i(empty).
    """
    _require_complete(instance, allocation)
    own = _own_values(instance, allocation)
    for i in range(instance.num_agents):
        row = instance.valuations[i]
        for j in range(instance.num_agents):
            if i == j or not allocation.bundles[j]:
                continue
            total = bundle_value(instance, i, allocation.bundles[j])
            top = max(allocation.bundles[j], key=lambda g: (row[g], -g))
            if own[i] < total - row[top]:
                return FairnessReport(Notion.EF1, False,
                                      Violation(i, (j,), good=top,
                                                lhs=own[i], rhs=total - row[top]))
    return FairnessReport(Notion.EF1, True)


def is_efx(instance: Instance, allocation: Allocation) -> FairnessReport:
    """Removing any positively valued good from the envied bundle kills the envy."""
    _require_complete(instance, allocation)
    own = _own_values(instance, allocation)
    for i in range(instance.num_agents):
        row = instance.valuations[i]
        for j in range(instance.num_agents):
            if i == j:
                continue
            total = bundle_value(instance, i, allocation.bundles[j])
            for g in sorted(allocation.bundles[j]):
                if row[g] > 0 and own[i] < total - row[g]:
                    return FairnessReport(Notion.EFX, False,
                                          Violation(i, (j,), good=g,
                                                    lhs=own[i], rhs=total - row[g]))
    return FairnessReport(Notion.EFX, True)


def is_efl(instance: Instance, allocation: Allocation) -> FairnessReport:
    """Either the envied bundle holds at most one positively valued good, or
    some good both kills the envy when removed and is worth no more than the
    envious agent's own bundle."""
    _require_complete(instance, allocation)
    own = _own_values(instance, allocation)
    for i in range(instance.num_agents):
        row = instance.valuations[i]
        for j in range(instance.num_agents):
            if i == j:
                continue
            positives = [g for g in allocation.bundles[j] if row[g] > 0]
            if len(positives) <= 1:
                continue
            total = bundle_value(instance, i, allocation.bundles[j])
            ok = any(own[i] >= total - row[g] and own[i] >= row[g]
                     for g in allocation.bundles[j])
            if not ok:
                top = max(allocation.bundles[j], key=lambda g: (row[g], -g))
                rhs = total - row[top] if own[i] < total - row[top] else row[top]
                return FairnessReport(Notion.EFL, False,
                                      Violation(i, (j,), good=top,
                                                lhs=own[i], rhs=rhs))
    return FairnessReport(Notion.EFL, True)


def _int_own(instance: Instance, allocation: Allocation, agent: int):
    """(ints, order, own, lhs): the agent's integer row and positive goods in
    descending order (see maximin._agent_ints), and the agent's own value in
    those integer units and as a Fraction."""
    denom, ints, order = _agent_ints(instance, agent)
    own = sum(ints[g] for g in allocation.bundles[agent])
    return ints, order, own, Fraction(own, denom)


def _group_violation(instance: Instance, allocation: Allocation,
                     size: Optional[int] = None) -> Optional[Violation]:
    """First agent and group (of `size`, or of any size) whose pooled share
    exceeds the agent's own value; only that group's witness is computed."""
    for i in range(instance.num_agents):
        ints, order, own, lhs = _int_own(instance, allocation, i)
        found = _violated_group(ints, order, allocation.bundles, i, own, size)
        if found is not None:
            group, pooled = found
            result = maximin_share(instance, i, pooled, len(group))
            return Violation(i, group, partition=result.witness,
                             lhs=lhs, rhs=result.value)
    return None


def is_mms(instance: Instance, allocation: Allocation) -> FairnessReport:
    """Every agent's bundle clears her grand-bundle maximin share."""
    _require_complete(instance, allocation)
    everything = instance.all_goods()
    for i in range(instance.num_agents):
        ints, order, own, lhs = _int_own(instance, allocation, i)
        if _exceeds(ints, order, everything, instance.num_agents, own):
            result = mms(instance, i)
            return FairnessReport(Notion.MMS, False,
                                  Violation(i, partition=result.witness,
                                            lhs=lhs, rhs=result.value))
    return FairnessReport(Notion.MMS, True)


def is_pmms(instance: Instance, allocation: Allocation) -> FairnessReport:
    """Every agent clears her 2-part share over her own plus any other bundle."""
    _require_complete(instance, allocation)
    witness = _group_violation(instance, allocation, 2)
    if witness is None:
        return FairnessReport(Notion.PMMS, True)
    other = tuple(j for j in witness.other if j != witness.agent)
    return FairnessReport(Notion.PMMS, False, replace(witness, other=other))


def is_kwise_fair(instance: Instance, allocation: Allocation, k: int) -> FairnessReport:
    """Every agent clears her k-part share over every size-k group's pool."""
    _require_complete(instance, allocation)
    if not 1 <= k <= instance.num_agents:
        raise InputError(f"k must be in [1, {instance.num_agents}], got {k}")
    witness = _group_violation(instance, allocation, k)
    return FairnessReport(Notion.KWISE, witness is None, witness, k=k)


def is_gmms(instance: Instance, allocation: Allocation) -> FairnessReport:
    """Every agent clears her share for every group containing her.

    Groups with empty-bundle co-members are skipped: the reduced group pools
    the same goods into fewer parts, so its share dominates.
    """
    _require_complete(instance, allocation)
    witness = _group_violation(instance, allocation)
    return FairnessReport(Notion.GMMS, witness is None, witness)


def gmms_factor(instance: Instance, allocation: Allocation) -> Optional[Fraction]:
    """min_i v_i(A_i) / threshold_i, skipping zero thresholds.

    Returns None for +infinity (every threshold is zero): the allocation is
    alpha-fair for every alpha.
    """
    _require_complete(instance, allocation)
    own = _own_values(instance, allocation)
    factor: Optional[Fraction] = None
    for i in range(instance.num_agents):
        threshold = gmms_threshold(instance, allocation, i).value
        if threshold == 0:
            continue
        ratio = own[i] / threshold
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
