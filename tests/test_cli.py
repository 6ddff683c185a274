import json
from fractions import Fraction

import pytest

from gmms import (Allocation, Instance, gmms_factor, parse_allocation,
                  parse_instance, serialize_allocation, serialize_instance)
from gmms.cli import main
from gmms.generator import mms_not_gmms


@pytest.fixture
def sec_paths(tmp_path):
    """Instance/allocation files for the MMS-holds / GMMS-fails example."""
    inst, ref = mms_not_gmms(4, Fraction(1), Fraction(1, 100))
    ipath = tmp_path / "instance.json"
    apath = tmp_path / "allocation.json"
    ipath.write_text(serialize_instance(inst) + "\n")
    apath.write_text(serialize_allocation(ref) + "\n")
    return str(ipath), str(apath)


def test_check_mms_holds(sec_paths, capsys):
    ipath, apath = sec_paths
    assert main(["check", ipath, apath, "--notion", "mms"]) == 0
    doc = json.loads(capsys.readouterr().out.splitlines()[0])
    assert doc["holds"] is True and doc["notion"] == "MMS"


def test_check_gmms_violated(sec_paths, capsys):
    ipath, apath = sec_paths
    assert main(["check", ipath, apath, "--notion", "gmms"]) == 1
    doc = json.loads(capsys.readouterr().out.splitlines()[0])
    assert doc["holds"] is False
    assert doc["witness"]["rhs"] == "101/100"


def test_check_kwise_needs_k(sec_paths, capsys):
    ipath, apath = sec_paths
    assert main(["check", ipath, apath, "--notion", "kwise"]) == 2
    assert main(["check", ipath, apath, "--notion", "kwise", "--k", "1"]) == 0
    assert main(["check", ipath, apath, "--notion", "kwise", "--k", "2"]) == 1


def test_check_missing_file(tmp_path):
    assert main(["check", str(tmp_path / "nope.json"),
                 str(tmp_path / "nope2.json"), "--notion", "ef"]) == 2


def test_bad_arguments_exit_usage():
    assert main([]) == 2
    assert main(["frobnicate"]) == 2


def test_mms_command(sec_paths, capsys):
    ipath, _ = sec_paths
    assert main(["mms", ipath, "--agent", "3"]) == 0
    doc = json.loads(capsys.readouterr().out.splitlines()[0])
    assert doc["value"] == "1/50"
    assert len(doc["witness"]) == 4


def test_gmms_threshold_command(sec_paths, capsys):
    ipath, apath = sec_paths
    assert main(["gmms-threshold", ipath, "--allocation", apath,
                 "--agent", "3"]) == 0
    doc = json.loads(capsys.readouterr().out.splitlines()[0])
    assert doc["value"] == "101/100" and doc["group"] == [1, 3]


def test_solve_efl_writes_allocation(tmp_path, capsys):
    inst = Instance.from_rows([[3, 2, 1], [1, 2, 3]])
    ipath = tmp_path / "i.json"
    opath = tmp_path / "a.json"
    ipath.write_text(serialize_instance(inst) + "\n")
    assert main(["solve-efl", str(ipath), "--out", str(opath)]) == 0
    alloc = parse_allocation(opath.read_text())
    alloc.validate(inst)
    out = capsys.readouterr().out
    assert "gmms_factor:" in out


def test_gmms_search_command(tmp_path, capsys):
    inst = Instance.from_rows([[1, 1, 1], [1, 1, 1]])
    ipath = tmp_path / "i.json"
    ipath.write_text(serialize_instance(inst) + "\n")
    assert main(["gmms-search", str(ipath)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "found"
    assert main(["gmms-search", str(ipath), "--budget", "1"]) == 3
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "budget"


def test_gen_command_deterministic(capsys):
    assert main(["gen", "--agents", "3", "--goods", "5", "--seed", "9"]) == 0
    first = capsys.readouterr().out
    assert main(["gen", "--agents", "3", "--goods", "5", "--seed", "9"]) == 0
    assert capsys.readouterr().out == first
    inst = parse_instance(first)
    assert inst.num_agents == 3 and inst.num_goods == 5


def test_fixture_command_round_trip(tmp_path, capsys):
    apath = tmp_path / "ref.json"
    ppath = tmp_path / "policy.json"
    assert main(["fixture", "efl_tight", "--n", "4",
                 "--allocation-out", str(apath),
                 "--policy-out", str(ppath)]) == 0
    inst = parse_instance(capsys.readouterr().out)
    ref = parse_allocation(apath.read_text())
    ref.validate(inst)
    assert gmms_factor(inst, ref) == Fraction(4, 7)
    policy = json.loads(ppath.read_text())
    assert policy["goods"][4:7] == [4, 5, 6]


def test_fixture_command_bad_params(capsys):
    assert main(["fixture", "kwise_boundary", "--k", "3", "--n", "10"]) == 2
    assert main(["fixture", "mms_not_ef1", "--n", "7"]) == 2
    assert main(["fixture", "mms_not_ef1", "--policy-out", "/dev/null"]) == 2


def test_fixture_value_literals(capsys):
    assert main(["fixture", "mms_not_gmms", "--n", "4",
                 "--value", "0.5", "--eps", "1/8"]) == 0
    inst = parse_instance(capsys.readouterr().out)
    assert inst.valuations[3][-1] == Fraction(1, 8)


def test_experiment_header_only(capsys):
    assert main(["experiment", "--n-min", "3", "--n-max", "3",
                 "--m-min", "4", "--m-max", "4", "--count", "0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("# schema v1 rng=numpy-pcg64")
    assert lines[1].split(",")[:3] == ["n", "m", "dist"]
    assert len(lines) == 2


def test_experiment_rows_and_summary(capsys):
    assert main(["experiment", "--n-min", "2", "--n-max", "2",
                 "--m-min", "3", "--m-max", "4", "--count", "3",
                 "--seed", "100"]) == 0
    lines = capsys.readouterr().out.splitlines()
    data = [l for l in lines if not l.startswith("#") and l[0].isdigit()]
    assert len(data) == 6
    summaries = [l for l in lines if l.startswith("# summary")]
    assert len(summaries) == 2
    # the recorded factor must match a direct library computation
    from gmms import efl_allocate
    from gmms.generator import GenSpec, generate
    row = dict(zip(lines[1].split(","), data[0].split(",")))
    inst = generate(GenSpec(int(row["n"]), int(row["m"]), row["dist"],
                            bool(int(row["sop"])), int(row["seed"])))
    factor = gmms_factor(inst, efl_allocate(inst))
    if row["efl_factor_den"] == "0":
        assert factor is None
    else:
        assert factor == Fraction(int(row["efl_factor_num"]),
                                  int(row["efl_factor_den"]))


def test_experiment_writes_rows_as_they_arrive(monkeypatch, capsys):
    from gmms import cli
    real_row, calls = cli.experiment_row, []

    def fail_on_third(*job):
        calls.append(job)
        if len(calls) == 3:
            raise RuntimeError("third row fails")
        return real_row(*job)

    monkeypatch.setattr(cli, "experiment_row", fail_on_third)
    with pytest.raises(RuntimeError, match="third row"):
        main(["experiment", "--n-min", "2", "--n-max", "2", "--m-min", "3",
              "--m-max", "3", "--count", "5", "--seed", "7"])
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("# schema")
    assert [l.split(",")[4] for l in lines[2:]] == ["7", "8"]


def test_huge_exponent_exits_usage(tmp_path, capsys):
    path = tmp_path / "i.json"
    path.write_text('{"agents": 1, "goods": 1, "valuations": [[1e5000]]}')
    assert main(["mms", str(path), "--agent", "0"]) == 2
    captured = capsys.readouterr()
    assert "exponent" in captured.err and captured.out == ""


def test_experiment_bad_range():
    assert main(["experiment", "--n-min", "5", "--n-max", "3"]) == 2


def test_boolean_documents_exit_usage(tmp_path, capsys):
    ipath = tmp_path / "i.json"
    apath = tmp_path / "a.json"
    ipath.write_text('{"agents": true, "goods": 1, "valuations": [[1]]}')
    assert main(["mms", str(ipath), "--agent", "0"]) == 2
    ipath.write_text('{"agents": 2, "goods": 2, "valuations": [[1, 1], [1, 1]]}')
    apath.write_text('{"bundles": [[0], [true]]}')
    assert main(["check", str(ipath), str(apath), "--notion", "ef"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["abc", "0"])
def test_experiment_bad_workers_exit_usage(monkeypatch, capsys, value):
    monkeypatch.setenv("GMMS_WORKERS", value)
    assert main(["experiment", "--n-min", "2", "--n-max", "2",
                 "--m-min", "2", "--m-max", "2", "--count", "1"]) == 2
    captured = capsys.readouterr()
    assert "GMMS_WORKERS" in captured.err
    assert captured.out == ""


def test_experiment_row_fails_loudly_on_non_efl(monkeypatch):
    from gmms import algorithms, is_efl
    from gmms.cli import experiment_row

    def everything_to_agent_0(instance, policy=None, debug=False):
        n, m = instance.num_agents, instance.num_goods
        return Allocation.from_lists([list(range(m))] + [[]] * (n - 1))

    monkeypatch.setattr(algorithms, "efl_allocate", everything_to_agent_0)
    from gmms.generator import GenSpec, generate
    inst = generate(GenSpec(3, 6, "uniform", False, 4))
    assert not is_efl(inst, everything_to_agent_0(inst)).holds
    with pytest.raises(RuntimeError, match="EFL"):
        experiment_row(3, 6, "uniform", False, 4, None)
