import json
import random
from fractions import Fraction

import pytest

from gmms import (Allocation, InputError, Instance, ParseError, as_value,
                  bundle_value, parse_allocation, parse_instance,
                  serialize_allocation, serialize_instance)
from gmms.generator import efl_tight, mms_not_ef1


def test_bundle_value_unit_goods():
    inst, _ = mms_not_ef1()
    assert bundle_value(inst, 0, {0, 1, 2}) == 3


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
