"""Exact-arithmetic domain types for fair-division instances and allocations.

All values are nonnegative rationals (``fractions.Fraction``); nothing in the
library ever rounds. Instances and allocations are immutable and safe to share
across workers: an instance's one private integer view of its rows
(``Instance._units``) is built on first use, cached, and made of tuples, so
no reader can change what another reads; it takes no part in ``==``,
``hash`` or ``repr``.
"""

from __future__ import annotations

import json
import math
import re
import reprlib
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Iterable, Sequence

Value = Fraction
Bundle = frozenset


class InputError(ValueError):
    """An argument violates an operation's preconditions."""


class ParseError(ValueError):
    """An instance/allocation document is malformed."""


class BudgetError(InputError):
    """An enumeration reached its caller's budget before it finished."""


# Largest decimal exponent magnitude a value literal may carry; the same as
# Python's default int-string digit cap, which already bounds the digits.
MAX_EXPONENT = 4300
_EXPONENT = re.compile(r"[eE][-+]?([0-9_]+)")

# Most significant digits a value literal is written with as a decimal; a
# longer expansion is written as p/q instead.
DECIMAL_DIGITS = 28
_DECIMAL_LIMIT = 10 ** DECIMAL_DIGITS

# Quotes outside input in an error message, so that one message stays short
# whatever the size of the document: nested containers print as [...] and
# {...}, and at most four items and 20 characters of each item are shown.
_QUOTE = reprlib.Repr()
_QUOTE.maxlevel = 1
_QUOTE.maxlist = _QUOTE.maxdict = 4
_QUOTE.maxstring = _QUOTE.maxlong = _QUOTE.maxother = 20
_quote = _QUOTE.repr


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
            raise ParseError(f"bad value literal {_quote(x)}") from None
    elif isinstance(x, float):
        raise ParseError(f"float value {x!r} rejected; use a decimal string")
    else:
        raise ParseError(f"bad value literal {_quote(x)}")
    if v.numerator < 0:
        raise ParseError(f"negative value {_quote(x)}")
    return v


@dataclass(frozen=True)
class Instance:
    """A fair-division instance: n agents, m goods, additive valuations."""

    num_agents: int
    num_goods: int
    valuations: tuple  # n rows of m Fractions each

    def __post_init__(self):
        _check_int("num_agents", self.num_agents, 1)
        _check_int("num_goods", self.num_goods, 0)
        if len(self.valuations) != self.num_agents:
            raise InputError(
                f"{len(self.valuations)} valuation rows for {self.num_agents} agents")
        for i, row in enumerate(self.valuations):
            if len(row) != self.num_goods:
                raise InputError(
                    f"valuations[{i}] has length {len(row)}, expected {self.num_goods}")
            for v in row:
                if not isinstance(v, Fraction) or v.numerator < 0:
                    raise InputError(f"valuations[{i}] contains a bad value: {v!r}")

    @staticmethod
    def from_rows(rows: Sequence[Sequence]) -> "Instance":
        vals = tuple(tuple(as_value(v) for v in row) for row in rows)
        m = len(vals[0]) if vals else 0
        return Instance(len(vals), m, vals)

    def value(self, agent: int, good: int) -> Fraction:
        _check_int("agent", agent, 0, self.num_agents - 1)
        _check_int("good", good, 0, self.num_goods - 1)
        return self.valuations[agent][good]

    def all_goods(self) -> Bundle:
        return frozenset(range(self.num_goods))

    @cached_property
    def _units(self) -> tuple:
        """Every agent's row in integer units: one (D, ints, order) per agent.

        D is the lcm of the row's denominators, ``ints[g] = v_g * D`` exactly,
        and ``order`` lists the positively valued goods by descending value
        (index tiebreak). Every share of the agent, over any pool, is an
        integer multiple of 1/D, so shares of different pools compare as
        integers. Built once per instance, on first use, all of tuples.
        """
        units = []
        for row in self.valuations:
            denom = math.lcm(*(v.denominator for v in row))
            ints = tuple(v.numerator * (denom // v.denominator) for v in row)
            # a stable sort, so equal values keep ascending index
            order = sorted([g for g in range(len(ints)) if ints[g] > 0],
                           key=ints.__getitem__, reverse=True)
            units.append((denom, ints, tuple(order)))
        return tuple(units)


def check_bundle(instance: Instance, bundle: Iterable[int]) -> Bundle:
    b = frozenset(bundle)
    for g in b:
        _check_int("good index", g, 0, instance.num_goods - 1)
    return b


def bundle_value(instance: Instance, agent: int, bundle: Iterable[int]) -> Fraction:
    """Exact value of a bundle for an agent (additive; empty bundle -> 0).
    A good listed twice counts once, as in every entry point."""
    _check_int("agent", agent, 0, instance.num_agents - 1)
    row = instance.valuations[agent]
    return sum((row[g] for g in check_bundle(instance, bundle)), Fraction(0))


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
                raise InputError(f"bundles overlap on goods {_quote(sorted(overlap))}")
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


@lru_cache(maxsize=64)
def _decimal_places(den: int):
    """(places, 10**places // den) when 1/den ends after ``places`` decimal
    places, else None. A drawn instance has only a few denominators."""
    twos = (den & -den).bit_length() - 1
    rest, fives = den >> twos, 0
    while rest % 5 == 0:
        rest //= 5
        fives += 1
    if rest != 1:
        return None
    places = max(twos, fives)
    return places, 10 ** places // den


def _value_literal(v: Fraction):
    """Canonical JSON literal for an exact value: int, decimal string or p/q.

    A value whose decimal expansion ends within DECIMAL_DIGITS significant
    digits is printed as ``str(Decimal)`` prints it ("0.125", "1E-7"); any
    other value is printed as p/q, so every literal reads back exactly.
    """
    num, den = v.numerator, v.denominator
    if den == 1:
        return num
    decimal = _decimal_places(den)
    coefficient = None if decimal is None else num * decimal[1]
    if coefficient is None or coefficient >= _DECIMAL_LIMIT:
        return f"{num}/{den}"
    digits = str(coefficient)
    point = len(digits) - decimal[0]  # digits before the point; <= 0 pads zeros
    if point <= -6:  # Decimal's E-notation: adjusted exponent below -6
        mantissa = f"{digits[0]}.{digits[1:]}" if len(digits) > 1 else digits
        return f"{mantissa}E{point - 1}"
    if point <= 0:
        return "0." + "0" * -point + digits
    return f"{digits[:point]}.{digits[point:]}"


def _is_json_int(x) -> bool:
    """A JSON integer; true/false decode to bool, which subclasses int."""
    return isinstance(x, int) and not isinstance(x, bool)


def _check_int(name: str, x, low: int, high=None) -> None:
    """Refuse an integer argument (an index, a part or group count, a budget)
    that is not an int from `low` up to `high` (None: no upper end); a bool
    is refused too, though it subclasses int."""
    if not _is_json_int(x):
        raise InputError(f"{name} must be an int, got {_quote(x)}")
    if x < low or high is not None and x > high:
        span = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise InputError(f"{name} must be {span}, got {_quote(x)}")


def _json_doc(text, **kw):
    """Decode one JSON document from UTF-8 bytes or a str. Bad UTF-8, bad
    JSON, an integer past the digit cap and too deep nesting: a ParseError."""
    try:
        if isinstance(text, bytes):
            text = text.decode("utf-8")
        return json.loads(text, **kw)
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"invalid JSON: {exc}") from None


def parse_instance(text) -> Instance:
    """Parse an instance document: {"agents": n, "goods": m, "valuations": [[..]]}.

    Decimal literals convert exactly (0.5 -> 1/2); "p/q" strings are accepted.
    """
    doc = _json_doc(text, parse_float=str)
    if not isinstance(doc, dict):
        raise ParseError("instance document must be a JSON object")
    for field in ("agents", "goods", "valuations"):
        if field not in doc:
            raise ParseError(f"missing field {field!r}")
    n, m, rows = doc["agents"], doc["goods"], doc["valuations"]
    if not _is_json_int(n) or n < 1:
        raise ParseError(f"field 'agents' must be a positive integer, got {_quote(n)}")
    if not _is_json_int(m) or m < 0:
        raise ParseError(f"field 'goods' must be a nonnegative integer, got {_quote(m)}")
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
    doc = _json_doc(text)
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
