"""Exact-arithmetic domain types for fair-division instances and allocations.

All values are nonnegative rationals (``fractions.Fraction``); nothing in the
library ever rounds. Instances and allocations are immutable and safe to share
across workers.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

Value = Fraction
Bundle = frozenset


class InputError(ValueError):
    """An argument violates an operation's preconditions."""


class ParseError(ValueError):
    """An instance/allocation document is malformed."""


# Largest decimal exponent magnitude a value literal may carry; the same as
# Python's default int-string digit cap, which already bounds the digits.
MAX_EXPONENT = 4300
_EXPONENT = re.compile(r"[eE][-+]?([0-9_]+)")


def as_value(x) -> Fraction:
    """Convert an exact value literal to a nonnegative Fraction.

    Accepts ints, Fractions, decimal strings ("0.98" -> 49/50) and fraction
    strings ("3/4"). Floats are rejected: they are already rounded. A decimal
    exponent beyond MAX_EXPONENT in magnitude is rejected before any number
    is built, since "1e100000" alone would be a 332 k-bit integer.
    """
    if isinstance(x, bool):
        raise ParseError(f"boolean is not a value: {x!r}")
    if isinstance(x, Fraction):
        v = x
    elif isinstance(x, int):
        v = Fraction(x)
    elif isinstance(x, str):
        exponent = _EXPONENT.search(x)
        if exponent is not None:
            digits = exponent.group(1).replace("_", "").lstrip("0")
            # the length test keeps int() off a digit string of any size
            if len(digits) > len(str(MAX_EXPONENT)) or int(digits or 0) > MAX_EXPONENT:
                raise ParseError(f"value literal exponent beyond ±{MAX_EXPONENT}: "
                                 f"{x[:40]!r}")
        try:
            v = Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad value literal {x!r}: {exc}") from None
    elif isinstance(x, float):
        raise ParseError(f"float value {x!r} rejected; use a decimal string")
    else:
        raise ParseError(f"bad value literal {x!r}")
    if v < 0:
        raise ParseError(f"negative value {x!r}")
    return v


@dataclass(frozen=True)
class Instance:
    """A fair-division instance: n agents, m goods, additive valuations."""

    num_agents: int
    num_goods: int
    valuations: tuple  # n rows of m Fractions each

    def __post_init__(self):
        if self.num_agents < 1:
            raise InputError(f"need at least one agent, got {self.num_agents}")
        if self.num_goods < 0:
            raise InputError(f"negative number of goods: {self.num_goods}")
        if len(self.valuations) != self.num_agents:
            raise InputError(
                f"{len(self.valuations)} valuation rows for {self.num_agents} agents")
        for i, row in enumerate(self.valuations):
            if len(row) != self.num_goods:
                raise InputError(
                    f"valuations[{i}] has length {len(row)}, expected {self.num_goods}")
            for v in row:
                if not isinstance(v, Fraction) or v < 0:
                    raise InputError(f"valuations[{i}] contains a bad value: {v!r}")

    @staticmethod
    def from_rows(rows: Sequence[Sequence]) -> "Instance":
        vals = tuple(tuple(as_value(v) for v in row) for row in rows)
        m = len(vals[0]) if vals else 0
        return Instance(len(vals), m, vals)

    def value(self, agent: int, good: int) -> Fraction:
        if not 0 <= agent < self.num_agents:
            raise InputError(f"agent index {agent} out of range")
        if not 0 <= good < self.num_goods:
            raise InputError(f"good index {good} out of range")
        return self.valuations[agent][good]

    def all_goods(self) -> Bundle:
        return frozenset(range(self.num_goods))


def check_bundle(instance: Instance, bundle: Iterable[int]) -> Bundle:
    b = frozenset(bundle)
    for g in b:
        if not isinstance(g, int) or not 0 <= g < instance.num_goods:
            raise InputError(f"good index {g} out of range for {instance.num_goods} goods")
    return b


def bundle_value(instance: Instance, agent: int, bundle: Iterable[int]) -> Fraction:
    """Exact value of a bundle for an agent (additive; empty bundle -> 0)."""
    if not 0 <= agent < instance.num_agents:
        raise InputError(f"agent index {agent} out of range")
    row = instance.valuations[agent]
    total = Fraction(0)
    for g in bundle:
        if not 0 <= g < instance.num_goods:
            raise InputError(f"good index {g} out of range")
        total += row[g]
    return total


@dataclass(frozen=True)
class Allocation:
    """An ordered tuple of pairwise-disjoint bundles, one per agent.

    May be partial; completeness (union = all goods) is checked on demand.
    """

    bundles: tuple  # of Bundle

    def __post_init__(self):
        seen = set()
        for i, b in enumerate(self.bundles):
            if not isinstance(b, frozenset):
                raise InputError(f"bundles[{i}] is not a frozenset")
            overlap = seen & b
            if overlap:
                raise InputError(f"bundles overlap on goods {sorted(overlap)}")
            seen |= b

    @staticmethod
    def from_lists(bundles: Sequence[Iterable[int]]) -> "Allocation":
        return Allocation(tuple(frozenset(b) for b in bundles))

    @property
    def num_agents(self) -> int:
        return len(self.bundles)

    def assigned_goods(self) -> Bundle:
        out = set()
        for b in self.bundles:
            out |= b
        return frozenset(out)

    def is_complete(self, num_goods: int) -> bool:
        return self.assigned_goods() == frozenset(range(num_goods))

    def validate(self, instance: Instance, require_complete: bool = False) -> None:
        if self.num_agents != instance.num_agents:
            raise InputError(
                f"allocation has {self.num_agents} bundles for "
                f"{instance.num_agents} agents")
        for b in self.bundles:
            check_bundle(instance, b)
        if require_complete and not self.is_complete(instance.num_goods):
            raise InputError("allocation is not complete")


def _value_literal(v: Fraction):
    """Canonical JSON literal for an exact value: int, decimal string or p/q."""
    if v.denominator == 1:
        return v.numerator
    d = v.denominator
    while d % 2 == 0:
        d //= 2
    while d % 5 == 0:
        d //= 5
    if d == 1:  # exactly representable in decimal
        from decimal import Decimal
        return str(Decimal(v.numerator) / Decimal(v.denominator))
    return f"{v.numerator}/{v.denominator}"


def _is_json_int(x) -> bool:
    """A JSON integer; true/false decode to bool, which subclasses int."""
    return isinstance(x, int) and not isinstance(x, bool)


def parse_instance(text) -> Instance:
    """Parse an instance document: {"agents": n, "goods": m, "valuations": [[..]]}.

    Decimal literals convert exactly (0.5 -> 1/2); "p/q" strings are accepted.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    try:
        doc = json.loads(text, parse_float=str)
    except ValueError as exc:  # also an integer past the digit cap
        raise ParseError(f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ParseError("instance document must be a JSON object")
    for field in ("agents", "goods", "valuations"):
        if field not in doc:
            raise ParseError(f"missing field {field!r}")
    n, m, rows = doc["agents"], doc["goods"], doc["valuations"]
    if not _is_json_int(n) or n < 1:
        raise ParseError(f"field 'agents' must be a positive integer, got {n!r}")
    if not _is_json_int(m) or m < 0:
        raise ParseError(f"field 'goods' must be a nonnegative integer, got {m!r}")
    if not isinstance(rows, list) or len(rows) != n:
        raise ParseError(f"field 'valuations' must list {n} rows")
    vals = []
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != m:
            raise ParseError(f"valuations[{i}] must list {m} values")
        try:
            vals.append(tuple(as_value(v) for v in row))
        except ParseError as exc:
            raise ParseError(f"valuations[{i}]: {exc}") from None
    return Instance(n, m, tuple(vals))


def serialize_instance(instance: Instance) -> str:
    doc = {
        "agents": instance.num_agents,
        "goods": instance.num_goods,
        "valuations": [[_value_literal(v) for v in row] for row in instance.valuations],
    }
    return json.dumps(doc)


def parse_allocation(text) -> Allocation:
    """Parse an allocation document: {"bundles": [[good, ...], ...]}."""
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    try:
        doc = json.loads(text)
    except ValueError as exc:  # also an integer past the digit cap
        raise ParseError(f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict) or "bundles" not in doc:
        raise ParseError("allocation document must be an object with 'bundles'")
    bundles = doc["bundles"]
    if not isinstance(bundles, list):
        raise ParseError("field 'bundles' must be a list")
    for i, b in enumerate(bundles):
        if not isinstance(b, list) or not all(_is_json_int(g) and g >= 0 for g in b):
            raise ParseError(f"bundles[{i}] must list nonnegative good indices")
    try:
        return Allocation.from_lists(bundles)
    except InputError as exc:
        raise ParseError(str(exc)) from None


def serialize_allocation(allocation: Allocation) -> str:
    """Canonical allocation document: agent order, goods ascending."""
    doc = {"bundles": [sorted(b) for b in allocation.bundles]}
    return json.dumps(doc)
