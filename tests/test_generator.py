from fractions import Fraction

import pytest

from gmms import GenSpec, InputError, fixture, generate
from gmms.generator import (FIXTURES, efl_tight, kwise_boundary, mms_not_ef1,
                            mms_not_gmms, single_good_two_agents)


def test_generate_deterministic():
    spec = GenSpec(num_agents=3, num_goods=7, seed=42)
    assert generate(spec) == generate(spec)


def test_generate_seed_changes_instance():
    a = generate(GenSpec(num_agents=3, num_goods=7, seed=1))
    b = generate(GenSpec(num_agents=3, num_goods=7, seed=2))
    assert a != b


def test_generate_shape_and_range():
    inst = generate(GenSpec(num_agents=4, num_goods=6, seed=3))
    assert inst.num_agents == 4 and inst.num_goods == 6
    for row in inst.valuations:
        for v in row:
            assert 0 <= v <= 1


def test_gaussian_nonnegative():
    inst = generate(GenSpec(num_agents=5, num_goods=20,
                            distribution="gaussian", seed=7))
    assert all(v >= 0 for row in inst.valuations for v in row)


def test_quantization_denominators():
    for spec in (GenSpec(2, 5, seed=0), GenSpec(2, 5, distribution="gaussian", seed=0)):
        inst = generate(spec)
        for row in inst.valuations:
            for v in row:
                assert 10 ** 6 % v.denominator == 0


def test_fewer_digits_coarser_grid():
    inst = generate(GenSpec(num_agents=2, num_goods=4, seed=5, digits=2))
    for row in inst.valuations:
        for v in row:
            assert 100 % v.denominator == 0


def test_sop_rows_sorted_descending():
    inst = generate(GenSpec(num_agents=4, num_goods=8, sop=True, seed=11))
    for row in inst.valuations:
        assert list(row) == sorted(row, reverse=True)


def test_sop_preserves_row_multiset():
    plain = generate(GenSpec(num_agents=3, num_goods=9, seed=23))
    sop = generate(GenSpec(num_agents=3, num_goods=9, sop=True, seed=23))
    for r1, r2 in zip(plain.valuations, sop.valuations):
        assert sorted(r1) == sorted(r2)


def test_spec_validation():
    with pytest.raises(InputError):
        GenSpec(num_agents=0, num_goods=3)
    with pytest.raises(InputError):
        GenSpec(num_agents=2, num_goods=-1)
    with pytest.raises(InputError):
        GenSpec(num_agents=2, num_goods=3, distribution="pareto")
    with pytest.raises(InputError):
        GenSpec(num_agents=2, num_goods=3, digits=-1)
    with pytest.raises(InputError, match="seed"):
        GenSpec(num_agents=2, num_goods=3, seed=-1)


def test_fixture_dispatch():
    inst, ref = fixture("mms_not_ef1")
    assert inst.num_agents == 3 and ref is not None
    with pytest.raises(InputError):
        fixture("no_such_fixture")
    assert set(FIXTURES) == {"single_good_two_agents", "mms_not_ef1",
                             "kwise_boundary", "mms_not_gmms", "efl_tight"}


def test_single_good_fixture():
    inst, ref = single_good_two_agents()
    assert inst.num_goods == 1
    ref.validate(inst)


def test_mms_not_ef1_fixture_shape():
    inst, ref = mms_not_ef1()
    assert sorted(len(b) for b in ref.bundles) == [1, 1, 3]
    ref.validate(inst)


def test_kwise_boundary_shape_and_params():
    k, n = 5, 12
    inst, ref = kwise_boundary(k, n)
    assert inst.num_agents == n and inst.num_goods == 3 * k - 4
    ref.validate(inst)
    assert sum(1 for b in ref.bundles if not b) == n - k
    with pytest.raises(InputError):
        kwise_boundary(3, 10)
    with pytest.raises(InputError):
        kwise_boundary(4, 8)  # needs n > 3k-4 = 8


def test_mms_not_gmms_shape_and_params():
    inst, ref = mms_not_gmms(5, Fraction(1), Fraction(1, 100))
    assert inst.num_agents == 5 and inst.num_goods == 8
    ref.validate(inst)
    with pytest.raises(InputError):
        mms_not_gmms(3, Fraction(1), Fraction(1, 100))
    with pytest.raises(InputError):
        mms_not_gmms(4, Fraction(1), Fraction(1))  # eps must stay below big/2


def test_efl_tight_shape_and_params():
    inst, ref = efl_tight(6)
    assert inst.num_agents == 6 and inst.num_goods == 16
    ref.validate(inst)
    with pytest.raises(InputError):
        efl_tight(1)


def test_digits_capped_at_double_precision():
    with pytest.raises(InputError, match="digits"):
        GenSpec(num_agents=2, num_goods=3, digits=18)
    with pytest.raises(InputError, match="digits"):
        GenSpec(num_agents=2, num_goods=3, digits=400)
    inst = generate(GenSpec(num_agents=2, num_goods=3, seed=1, digits=17))
    assert all(v.denominator <= 10 ** 17 for row in inst.valuations for v in row)
