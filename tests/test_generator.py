import hashlib
from fractions import Fraction

import pytest

from gmms import GenSpec, InputError, fixture, generate
from gmms.cli import main
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


# sha256 of repr(valuations) at seed 0, recorded before the draw moved to
# integer arithmetic; any change to the drawn values changes one of these.
GENERATE_DIGESTS = [
    ((3, 7), "uniform", False, 0, "03ffae7b142acd16a444f1037c9ec3ef3dbed81bcf1abd105a8bb9a0d9eadcd8"),
    ((3, 7), "uniform", False, 1, "4f71d0f3c350c63c7f90488875cf11327a4cf2ac5faa6f19ec279257a7b4e1d6"),
    ((3, 7), "uniform", False, 6, "df5274b840d5f3af1610f7d3c88fed9f6dbb389740902e1cfffd7bfd5a0dbe4b"),
    ((3, 7), "uniform", False, 17, "54d8d86d9fefcf2235f5f050f90d8cfcaed062b481af7b65efd1258862fbb3fa"),
    ((3, 7), "uniform", True, 0, "160c592f7cc00f972612076750e5e4f02bf60772c9933a2c2af7932d98d0fc62"),
    ((3, 7), "uniform", True, 1, "8df44de29c12465d52c8b7a43bc02a90883e4e6536f7759e8dcb0b3e399546a3"),
    ((3, 7), "uniform", True, 6, "5ddae0e58ba0ddb7613b18afae198ab2db148c68a15b137d06cee0baf99696b7"),
    ((3, 7), "uniform", True, 17, "8e9e318fff1f928b7f27d5cfcf89123cb67b31dcad725982ad353d60a8300fe7"),
    ((3, 7), "gaussian", False, 0, "df0fa02521750d98ee446d14d5d274a854514eb9eb1314372d843d301ce89ce9"),
    ((3, 7), "gaussian", False, 1, "633486bc9560246611e81f258fdf5bfc67b3e6ac9465f3dccbc0bee5f6efae98"),
    ((3, 7), "gaussian", False, 6, "a5b7cc8c1e5b553fd272e6258cdd877dc0190e73a2d59e8fd385fbc06c22d5d0"),
    ((3, 7), "gaussian", False, 17, "7803247bdd20a950c698c4222a2219a7fa2d1e51646032379080bd3a922b6983"),
    ((3, 7), "gaussian", True, 0, "6993543e53ba83df5675b614b912e0f25d478224be0afa405311e698744966a0"),
    ((3, 7), "gaussian", True, 1, "407e2eab2053a950aafb22134cc27250c12345b3f7ff004bdeb2eb58e833eb0a"),
    ((3, 7), "gaussian", True, 6, "c5747977ebd7e50604e971e4e1c45de13a8d4fd74310b37a7e24b73a20c054df"),
    ((3, 7), "gaussian", True, 17, "36a8318c23934b01f6b6d9177a6fbbcf0f1f17985dbd2ffd8ff65d3f9be3f1c1"),
    ((20, 200), "uniform", False, 0, "6a6d1342c570f089daac8b71660737d4b145ac0ef2899d10baa47477b7399682"),
    ((20, 200), "uniform", False, 1, "2670869591b99883b3b11182ae73969ccdc95fadc5aeab52620d7a62b8b36f25"),
    ((20, 200), "uniform", False, 6, "b075fedac986e8daadd431ec2c69ccb51f7b93f5f066bfd6f9278ef21830edca"),
    ((20, 200), "uniform", False, 17, "817e8da9166f4b4e20ed770ad008959c26520b3f4f0ff4cc4d370f2ecbf6921c"),
    ((20, 200), "uniform", True, 0, "7ede2e9a0d2bbc3d1141e8028dce9faeba5852c9b41365c0bf309da76b29e99a"),
    ((20, 200), "uniform", True, 1, "7a339721d4ee823279d6335756a694ca670bb7d95026575d1331a1152e1b66ba"),
    ((20, 200), "uniform", True, 6, "00ab69395fbd16fbea886e2984c9a75bae480c9a5e9e3722a45db7fcf2f491f5"),
    ((20, 200), "uniform", True, 17, "1d94bcbe6c512503e2918be6190b83fafe483643e44ad09a16809e0717d75a64"),
    ((20, 200), "gaussian", False, 0, "35709d4e849eb8949b23893d18849fd50270648d87ee30a7c64473fe10faf2f1"),
    ((20, 200), "gaussian", False, 1, "bbf538221005fd302a49e07a72c45375c89db3fd463eeb867adb062ab804565a"),
    ((20, 200), "gaussian", False, 6, "33a8c912387f779720fc499d4428d8034ff3e5b9d36bdaf2e10f55b7c1b13274"),
    ((20, 200), "gaussian", False, 17, "993d7d91b9f7f3d480d8b3aca5ef3f36e39541e28c80aee15811d4fd3d8b3426"),
    ((20, 200), "gaussian", True, 0, "142de2bea505e6d5686c72b3e4cc3a36fd7eeed4fbf4726e1d946e3ee902248b"),
    ((20, 200), "gaussian", True, 1, "be6b212a07e6cd5b137dd57d9de0b93b10ff3b980acb242db1f384dd5caed5af"),
    ((20, 200), "gaussian", True, 6, "40291fe0729b38c8270ce2b85b5eb30238a1f091f48aed972d2b344993810608"),
    ((20, 200), "gaussian", True, 17, "fd59a976f58bc632168e2b2899e9eeee51f426911914b34872a46a7f9fef6460"),
]


@pytest.mark.parametrize("shape,dist,sop,digits,digest", GENERATE_DIGESTS, ids=[
    f"{n}x{m}-{dist}{'-sop' if sop else ''}-d{digits}"
    for (n, m), dist, sop, digits, _ in GENERATE_DIGESTS])
def test_generate_output_pinned(shape, dist, sop, digits, digest):
    inst = generate(GenSpec(shape[0], shape[1], dist, sop, 0, digits))
    assert hashlib.sha256(repr(inst.valuations).encode()).hexdigest() == digest


@pytest.mark.parametrize("flags,out", [
    ([], '{"agents": 3, "goods": 5, "valuations": [["0.625095", "0.897214", '
     '"0.775686", "0.225207", "0.300166"], ["0.873553", "0.005265", "0.821228", '
     '"0.797069", "0.467935"], ["0.303032", "0.278426", "0.25487", "0.445076", '
     '"0.504548"]]}\n'),
    (["--dist", "gaussian", "--sop", "--digits", "17"],
     '{"agents": 3, "goods": 5, "valuations": [["0.52987455375084704", '
     '"0.50012301533574824", "0.47258621446377824", "0.45453292148282776", '
     '"0.41094081612427256"], ["0.63402152455545336", "0.50601436025974392", '
     '"0.45077934814486704", "0.43795251001800592", "0.40083534450035376"], '
     '["0.54898420501851984", "0.53568870081600608", "0.51054142489978984", '
     '"0.49707481775367264", "0.40695319552917952"]]}\n'),
], ids=["uniform", "gaussian_sop_17"])
def test_gen_command_output_pinned(capsys, flags, out):
    assert main(["gen", "--agents", "3", "--goods", "5", "--seed", "7", *flags]) == 0
    assert capsys.readouterr().out == out
