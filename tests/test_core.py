import json
import random
from decimal import Context, Decimal, localcontext
from fractions import Fraction

import pytest

from gmms import (Allocation, GenSpec, InputError, Instance, ParseError,
                  as_value, bundle_value, exact_gmms_search, gmms_threshold,
                  is_envy_free, is_kwise_fair, lexmax_allocation, maximin_exceeds,
                  maximin_share, maximin_share_naive, mms, parse_allocation,
                  parse_instance, serialize_allocation, serialize_instance)
from gmms.core import _value_literal
from gmms.generator import efl_tight, mms_not_ef1, mms_not_gmms


def test_bundle_value_unit_goods():
    inst, _ = mms_not_ef1()
    assert bundle_value(inst, 0, {0, 1, 2}) == 3


def test_bundle_value_counts_each_good_once():
    # a bundle is a set: the share oracle reads [2, 2, 0] as {0, 2}
    inst = Instance.from_rows([[1, 2, 3]])
    assert bundle_value(inst, 0, [2, 2, 0]) == 4
    assert maximin_share(inst, 0, [2, 2, 0], 1).value == 4


def test_bundle_value_empty_is_zero():
    inst, _ = mms_not_ef1()
    assert bundle_value(inst, 2, frozenset()) == 0


def test_bundle_value_tight_fixture_mixed_bundle():
    inst, _ = efl_tight(4)
    # large good 1 plus medium good 4: 1 + 3/4
    assert bundle_value(inst, 0, {1, 4}) == Fraction(7, 4)


def test_bundle_value_additivity_random():
    rng = random.Random(7)
    inst = Instance.from_rows(
        [[Fraction(rng.randrange(0, 20), rng.randrange(1, 9)) for _ in range(8)]
         for _ in range(3)])
    goods = list(range(8))
    for _ in range(50):
        rng.shuffle(goods)
        cut = rng.randrange(0, 9)
        b1, b2 = frozenset(goods[:cut]), frozenset(goods[cut:])
        for i in range(3):
            assert (bundle_value(inst, i, b1 | b2)
                    == bundle_value(inst, i, b1) + bundle_value(inst, i, b2))


def test_bundle_value_bad_indices():
    inst, _ = mms_not_ef1()
    with pytest.raises(InputError):
        bundle_value(inst, 3, {0})
    with pytest.raises(InputError):
        bundle_value(inst, 0, {5})


def test_parse_instance_minimal():
    inst = parse_instance('{"agents": 2, "goods": 1, "valuations": [[1], [1]]}')
    assert inst.num_agents == 2 and inst.num_goods == 1
    assert inst.valuations == ((Fraction(1),), (Fraction(1),))


def test_parse_decimal_exact():
    assert as_value("0.98") == Fraction(49, 50)
    inst = parse_instance('{"agents": 1, "goods": 1, "valuations": [[0.98]]}')
    assert inst.valuations[0][0] == Fraction(49, 50)


def test_parse_fraction_literal():
    assert as_value("3/4") == Fraction(3, 4)


def test_parse_rejects_bad_rows():
    with pytest.raises(ParseError):
        parse_instance('{"agents": 2, "goods": 2, "valuations": [[1, 2], [1]]}')
    with pytest.raises(ParseError):
        parse_instance('{"agents": 1, "goods": 1, "valuations": [[-1]]}')
    with pytest.raises(ParseError):
        parse_instance('not json')


def test_instance_roundtrip():
    inst, _ = efl_tight(7)  # has 1/7 entries, not decimal-representable
    again = parse_instance(serialize_instance(inst))
    assert again == inst


def test_allocation_roundtrip():
    alloc = Allocation.from_lists([[0], [1]])
    assert parse_allocation(serialize_allocation(alloc)) == alloc


def test_allocation_roundtrip_empty_bundle():
    alloc = Allocation.from_lists([[], [0, 1]])
    assert parse_allocation(serialize_allocation(alloc)) == alloc


def test_allocation_serialization_canonical():
    doc1 = serialize_allocation(Allocation.from_lists([[2, 0, 1], [3]]))
    doc2 = serialize_allocation(Allocation.from_lists([[1, 2, 0], [3]]))
    assert doc1 == doc2
    assert json.loads(doc1)["bundles"][0] == [0, 1, 2]


def test_allocation_rejects_overlap():
    with pytest.raises(InputError):
        Allocation.from_lists([[0, 1], [1]])


def test_allocation_completeness():
    alloc = Allocation.from_lists([[0], [2]])
    assert not alloc.is_complete(3)
    assert alloc.is_complete(3) is False
    assert Allocation.from_lists([[0], [1, 2]]).is_complete(3)


@pytest.mark.parametrize("doc,message", [
    ('[1, 2]', "instance document must be a JSON object"),
    ('{"agents": 1, "valuations": [[1]]}', "missing field 'goods'"),
    ('{"agents": 2, "goods": 1, "valuations": [[1]]}',
     "field 'valuations' must list 2 rows"),
])
def test_parse_instance_rejects_malformed_documents(doc, message):
    with pytest.raises(ParseError) as info:
        parse_instance(doc)
    assert str(info.value) == message


@pytest.mark.parametrize("doc,message", [
    ('[[0], [1]]', "allocation document must be an object with 'bundles'"),
    ('{"bundles": {"0": [1]}}', "field 'bundles' must be a list"),
])
def test_parse_allocation_rejects_malformed_documents(doc, message):
    with pytest.raises(ParseError) as info:
        parse_allocation(doc)
    assert str(info.value) == message


@pytest.mark.parametrize("n,m,rows,message", [
    (2, 1, [[1]], "1 valuation rows for 2 agents"),
    (2, 2, [[1, 1], [1]], "valuations[1] has length 1, expected 2"),
])
def test_instance_rejects_misshapen_rows(n, m, rows, message):
    vals = tuple(tuple(map(Fraction, row)) for row in rows)
    with pytest.raises(InputError) as info:
        Instance(n, m, vals)
    assert str(info.value) == message


def test_allocation_rejects_unfrozen_bundles():
    for bundle in ({0}, [0]):
        with pytest.raises(InputError) as info:
            Allocation((frozenset(), bundle))
        assert str(info.value) == "bundles[1] is not a frozenset"


@pytest.mark.parametrize("doc", [
    '{"agents": true, "goods": 1, "valuations": [[1]]}',
    '{"agents": 1, "goods": true, "valuations": [[1]]}',
    '{"agents": 1, "goods": false, "valuations": [[]]}',
])
def test_parse_instance_rejects_boolean_counts(doc):
    with pytest.raises(ParseError):
        parse_instance(doc)


def test_parse_allocation_rejects_boolean_goods():
    with pytest.raises(ParseError):
        parse_allocation('{"bundles": [[true], [0]]}')
    with pytest.raises(ParseError):
        parse_allocation('{"bundles": [[false]]}')


@pytest.mark.parametrize("literal", ["1e5000", "1e-5000", "2.5E+4301", "1e0_5000"])
def test_value_literal_exponent_capped(literal):
    with pytest.raises(ParseError, match="exponent"):
        as_value(literal)


def test_value_literal_exponent_within_cap():
    assert as_value("1e300") == 10 ** 300
    assert as_value("25e-3") == Fraction(1, 40)
    assert as_value("1e-0300") == Fraction(1, 10 ** 300)


def test_parse_instance_rejects_huge_exponent():
    with pytest.raises(ParseError, match="exponent"):
        parse_instance('{"agents": 1, "goods": 1, "valuations": [[1e5000]]}')


@pytest.mark.parametrize("parse", [parse_instance, parse_allocation])
@pytest.mark.parametrize("text", [b"[" * 100_000, '{"a": [' * 100_000, b"\xff\xfe{}",
                                  b'{"bundles": [[0]], "x": "\xe9"}'],
                         ids=["deep_bytes", "deep_str", "utf16_bom", "latin1"])
def test_parsers_reject_undecodable_documents(parse, text):
    # nesting past the recursion limit and bytes that are not UTF-8
    with pytest.raises(ParseError):
        parse(text)


def test_parse_rejects_integer_past_digit_cap():
    digits = "1" + "0" * 5000
    with pytest.raises(ParseError):
        parse_instance('{"agents": 1, "goods": 1, "valuations": [[%s]]}' % digits)
    with pytest.raises(ParseError):
        parse_allocation('{"bundles": [[%s]]}' % digits)


def _decimal_division_literal(v: Fraction):
    """The value literal as it was printed through a Decimal division in the
    default 28-digit context; kept as the oracle for every value it printed
    exactly."""
    if v.denominator == 1:
        return v.numerator
    d = v.denominator
    while d % 2 == 0:
        d //= 2
    while d % 5 == 0:
        d //= 5
    if d == 1:
        with localcontext(Context()):
            return str(Decimal(v.numerator) / Decimal(v.denominator))
    return f"{v.numerator}/{v.denominator}"


@pytest.mark.parametrize("value,literal", [
    (Fraction(1, 8), "0.125"),
    (Fraction(1, 10 ** 6), "0.000001"),
    (Fraction(1, 10 ** 7), "1E-7"),
    (Fraction(31144123, 10 ** 30), "3.1144123E-23"),
    (Fraction(625095, 10 ** 6), "0.625095"),
    (Fraction(25, 2), "12.5"),
    (Fraction(7), 7),
    (Fraction(0), 0),
    (Fraction(1, 3), "1/3"),
    (Fraction(10 ** 28 - 1, 10 ** 28), "0.9999999999999999999999999999"),
    (Fraction(10 ** 28 + 1, 10 ** 28), f"{10 ** 28 + 1}/{10 ** 28}"),
])
def test_value_literal_golden(value, literal):
    assert _value_literal(value) == literal


@pytest.mark.parametrize("value", [
    Fraction(48875563, 2 ** 38),
    Fraction(1, 2) - Fraction(1, 2 ** 38),
    Fraction(3, 2 ** 200),
    Fraction(10 ** 40 + 1, 5 ** 3),
])
def test_value_literal_exact_past_28_digits(value):
    literal = _value_literal(value)
    assert literal == f"{value.numerator}/{value.denominator}"
    assert as_value(literal) == value
    inst = Instance(1, 1, ((value,),))
    assert parse_instance(serialize_instance(inst)) == inst


def test_fixture_with_long_decimals_round_trips():
    inst, _ = mms_not_gmms(4, Fraction(1), Fraction(1, 274877906944))
    text = serialize_instance(inst)
    assert "0.4999999999963620211929082870" not in text
    assert parse_instance(text) == inst


def test_value_literal_matches_decimal_division():
    # every value the Decimal division printed exactly prints the same; the
    # rest (over 28 significant digits) now print as p/q
    rng = random.Random(13)
    exact = 0
    for _ in range(60_000):
        twos, fives = rng.randrange(40), rng.randrange(40)
        den = rng.choice([2 ** twos, 5 ** fives, 2 ** twos * 5 ** fives,
                          rng.randrange(1, 10 ** rng.randrange(1, 10))])
        value = Fraction(rng.randrange(10 ** rng.randrange(1, 36)), den)
        literal, reference = _value_literal(value), _decimal_division_literal(value)
        if as_value(reference) == value:
            exact += 1
            assert literal == reference, value
        else:
            assert literal == f"{value.numerator}/{value.denominator}", value
        assert as_value(literal) == value
    assert exact >= 30_000


@pytest.mark.parametrize("literal", ["-0.5", "-1/2", "-3", "-1e-7"])
def test_as_value_rejects_negative(literal):
    with pytest.raises(ParseError, match="negative"):
        as_value(literal)


def test_negative_values_rejected_in_documents_and_instances():
    with pytest.raises(ParseError, match="negative"):
        parse_instance('{"agents": 1, "goods": 2, "valuations": [[1, "-0.000001"]]}')
    with pytest.raises(InputError, match="bad value"):
        Instance(1, 1, ((Fraction(-1, 3),),))
    with pytest.raises(ParseError, match="negative"):
        as_value(Fraction(-1, 3))
    assert as_value("-0") == 0 and as_value("0.000") == 0


INT_INST = Instance.from_rows([[1, 2, 3], [3, 2, 1]])
INT_ALLOC = Allocation.from_lists([[0], [1, 2]])
INT_ARGUMENTS = {
    "Instance.value agent": lambda x: INT_INST.value(x, 0),
    "Instance.value good": lambda x: INT_INST.value(0, x),
    "bundle_value agent": lambda x: bundle_value(INT_INST, x, [0]),
    "bundle_value good": lambda x: bundle_value(INT_INST, 0, [x]),
    "maximin_share good": lambda x: maximin_share(INT_INST, 0, [x], 1),
    "maximin_exceeds good": lambda x: maximin_exceeds(INT_INST, 0, [x], 1, 0),
    # True stands for good 1 in a set, so this allocation looked complete
    "is_envy_free good": lambda x: is_envy_free(
        INT_INST, Allocation((frozenset({x, 0}), frozenset({2})))),
    "maximin_share agent": lambda x: maximin_share(INT_INST, x, range(3), 2),
    "maximin_share parts": lambda x: maximin_share(INT_INST, 0, range(3), x),
    "maximin_exceeds agent": lambda x: maximin_exceeds(INT_INST, x, range(3), 2, 1),
    "maximin_exceeds parts": lambda x: maximin_exceeds(INT_INST, 0, range(3), x, 1),
    "maximin_share_naive agent": lambda x: maximin_share_naive(INT_INST, x, range(3), 2),
    "maximin_share_naive parts": lambda x: maximin_share_naive(INT_INST, 0, range(3), x),
    "mms agent": lambda x: mms(INT_INST, x),
    "gmms_threshold agent": lambda x: gmms_threshold(INT_INST, INT_ALLOC, x),
    "is_kwise_fair k": lambda x: is_kwise_fair(INT_INST, INT_ALLOC, x),
    "exact_gmms_search budget": lambda x: exact_gmms_search(INT_INST, x),
    "lexmax_allocation budget": lambda x: lexmax_allocation(
        Instance.from_rows([[1, 2, 3]] * 2), x),
    # True and 1.0 pass for a count of 1 against one row of one value
    "Instance num_agents": lambda x: Instance(x, 1, ((Fraction(1),),)),
    "Instance num_goods": lambda x: Instance(1, x, ((Fraction(1),),)),
    "GenSpec num_agents": lambda x: GenSpec(x, 3),
    "GenSpec num_goods": lambda x: GenSpec(2, x),
    "GenSpec seed": lambda x: GenSpec(2, 3, seed=x),
    "GenSpec digits": lambda x: GenSpec(2, 3, digits=x),
}


@pytest.mark.parametrize("bad", [True, False, 1.0, 2.5, "0", Fraction(1)], ids=repr)
@pytest.mark.parametrize("entry", sorted(INT_ARGUMENTS))
def test_integer_arguments_must_be_ints(entry, bad):
    # a bool would pass for agent 0 or 1, a float would reach an index or a
    # report ("k": 2.0), so each is refused before any work is done
    with pytest.raises(InputError, match="must be an int"):
        INT_ARGUMENTS[entry](bad)
