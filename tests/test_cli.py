import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from gmms import (Allocation, Instance, gmms_factor, parse_allocation,
                  parse_instance, serialize_allocation, serialize_instance)
from gmms.cli import experiment_row, main
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


@pytest.mark.parametrize("notion", ["ef", "mms", "pmms", "gmms"])
def test_check_k_rejected_for_other_notions(sec_paths, capsys, notion):
    # --k names a group size only for kwise; any other notion would ignore it
    ipath, apath = sec_paths
    assert main(["check", ipath, apath, "--notion", notion, "--k", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: --k only applies to --notion kwise"]


def test_check_kwise_without_k_is_refused_first(tmp_path, capsys):
    # the usage error comes before any file is read, so a missing file
    # does not mask it
    assert main(["check", str(tmp_path / "nope.json"),
                 str(tmp_path / "nope2.json"), "--notion", "kwise"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --notion kwise requires --k\n"


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


def test_solve_efl_prints_allocation(tmp_path, capsys):
    # with no --out, the allocation document goes to stdout before the factor
    ipath = tmp_path / "i.json"
    ipath.write_text(serialize_instance(Instance.from_rows([[2, 1], [1, 2]])) + "\n")
    assert main(["solve-efl", str(ipath)]) == 0
    assert capsys.readouterr().out == '{"bundles": [[0], [1]]}\ngmms_factor: 1 (1)\n'


def assert_one_error_line(captured, path):
    # a usage error: one line naming the file, no traceback, nothing printed
    assert captured.out == ""
    assert captured.err.startswith(f"error: {path}: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("where", ["directory", "missing parent"])
def test_solve_efl_unwritable_out_exits_usage(tmp_path, capsys, where):
    ipath = tmp_path / "i.json"
    ipath.write_text(serialize_instance(Instance.from_rows([[3, 2, 1], [1, 2, 3]])))
    opath = tmp_path if where == "directory" else tmp_path / "missing" / "a.json"
    assert main(["solve-efl", str(ipath), "--out", str(opath)]) == 2
    assert_one_error_line(capsys.readouterr(), opath)


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


def test_gmms_search_negative_budget_exits_usage(tmp_path, capsys):
    ipath = tmp_path / "i.json"
    ipath.write_text(serialize_instance(Instance.from_rows([[1, 1, 1], [1, 1, 1]])))
    assert main(["gmms-search", str(ipath), "--budget", "-1"]) == 2
    captured = capsys.readouterr()
    assert "budget" in captured.err and captured.out == ""
    assert main(["gmms-search", str(ipath), "--budget", "0"]) == 3
    assert json.loads(capsys.readouterr().out) == {"status": "budget", "examined": 0}


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


# each fixture family with every option it takes, and a value for each option
FIXTURE_RUNS = {
    "single_good_two_agents": {},
    "mms_not_ef1": {},
    "kwise_boundary": {"--k": "4", "--n": "9"},
    "mms_not_gmms": {"--n": "4", "--value": "1", "--eps": "1/8"},
    "efl_tight": {"--n": "3"},
}
OPTION_VALUES = {"--k": "4", "--n": "4", "--value": "1", "--eps": "1/8"}


def fixture_argv(name, options):
    return ["fixture", name, *(x for item in options.items() for x in item)]


@pytest.mark.parametrize("name", sorted(FIXTURE_RUNS))
def test_fixture_options_named_before_the_call(capsys, name):
    # a missing option and one the family does not take each exit 2 with
    # one line naming the CLI option, never a Python parameter
    full = FIXTURE_RUNS[name]
    assert main(fixture_argv(name, full)) == 0
    capsys.readouterr()
    cases = [({o: v for o, v in full.items() if o != option}, f"needs {option}")
             for option in full]
    cases += [({**full, option: value}, f"does not take {option}")
              for option, value in OPTION_VALUES.items() if option not in full]
    assert cases
    for options, message in cases:
        assert main(fixture_argv(name, options)) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err == f"error: fixture {name} {message}\n", options


def test_fixture_options_name_every_missing_one(capsys):
    assert main(["fixture", "mms_not_gmms", "--n", "5"]) == 2
    assert capsys.readouterr().err == "error: fixture mms_not_gmms needs --value, --eps\n"
    assert main(["fixture", "efl_tight", "--n", "3", "--k", "4", "--eps", "1"]) == 2
    assert capsys.readouterr().err == "error: fixture efl_tight does not take --k, --eps\n"


@pytest.mark.parametrize("argv, message", [
    (["mms_not_gmms", "--n", "4", "--value", "1", "--eps", "1"],
     "need 0 < --eps < --value/2, got --eps=1, --value=1"),
    (["kwise_boundary", "--k", "3", "--n", "10"], "need --k >= 4, got 3"),
    (["efl_tight", "--n", "1"], "need --n >= 2, got 1")])
def test_fixture_family_error_names_the_options(capsys, argv, message):
    # a family's own refusal exits 2 with one line in the CLI's option names
    assert main(["fixture", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: fixture {argv[0]}: {message}\n"


def test_fixture_options_cover_each_family():
    # the table the CLI checks against names each family's parameters
    import inspect
    from gmms import cli, generator
    assert set(cli._FIXTURE_OPTIONS) == set(generator.FIXTURES) == set(FIXTURE_RUNS)
    for name, takes in cli._FIXTURE_OPTIONS.items():
        params = inspect.signature(generator.FIXTURES[name]).parameters
        assert sorted(takes.values()) == sorted(params), name
        assert sorted(f"--{o}" for o in takes) == sorted(FIXTURE_RUNS[name]), name


def test_fixture_type_error_is_not_a_usage_error(monkeypatch):
    # a fault inside a family surfaces as itself, not as a usage error
    from gmms import generator

    def broken(n):
        raise TypeError("inside the family")

    monkeypatch.setitem(generator.FIXTURES, "efl_tight", broken)
    with pytest.raises(TypeError, match="inside the family"):
        main(["fixture", "efl_tight", "--n", "3"])


@pytest.mark.parametrize("option", ["--allocation-out", "--policy-out"])
def test_fixture_unwritable_side_file_exits_usage(tmp_path, capsys, option):
    # the side files are written before the instance is printed
    path = tmp_path / "missing" / "x.json"
    assert main(["fixture", "efl_tight", "--n", "3", option, str(path)]) == 2
    assert_one_error_line(capsys.readouterr(), path)


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


# sha256 of the non-timing fields of experiment_row for seeds 0-2 in each
# cell of the benchmark's grid (n 3-5 x m 5-7), recorded before the exact
# search read its EFX test from the stack: the search's answer, the
# allocator's factor and every other field stay the same.
EXPERIMENT_ROW_DIGESTS = [
    ((3, 5), "0b9a7dda16549ffd222b92853e82de05c5f73b45f04694980bdcb249e3ddcdca"),
    ((3, 6), "98004ddb2d536efb77ef9518fb0c4c764bbd8a07b6ab6d4743f661c7c3c3fb51"),
    ((3, 7), "cb5a98c9313ac572ee3b1a916c69015f0cbb0e07df9a861f0c75964a22e7996d"),
    ((4, 5), "30c5e783979afdc7e018e6e731218aecf7f7c585deb85ef1e5a4e2d8004f578a"),
    ((4, 6), "7fdcfd2c1f4d1e410d9f0e3d7e2de93c4e50895ecf92c7765978a434d596d035"),
    ((4, 7), "fc46ce5485bfab0a19956958a17a1dbd047a02826a2010684df58a4ffb716c10"),
    ((5, 5), "7d6e3121329e354f5a75557d93312d529ddbad8723809bf0179ad719942b2fbf"),
    ((5, 6), "d3382e3f2cbcacb416335e690a132db5b430e141f3731352d790755ff1d455ff"),
    ((5, 7), "56c2447ba2bbaf9d4cc6c6618683886bc8d70a40aecdcdf21bcafb7888f90a4a"),
]


@pytest.mark.parametrize("shape,digest", EXPERIMENT_ROW_DIGESTS,
                         ids=[f"n{n}m{m}" for (n, m), _ in EXPERIMENT_ROW_DIGESTS])
def test_experiment_row_fields_pinned(shape, digest):
    rows = [{k: v for k, v in experiment_row(*shape, "uniform", False, seed, None).items()
             if not k.startswith("t_")} for seed in range(3)]
    assert hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest() == digest


def test_experiment_rows_share_placements_pinned(placements):
    # the share kernel's placements over the 27 rows above. Pools with one
    # part or at most two values more than parts are decided without a
    # search: the count was 2646 while each of them was searched, and 1379
    # while only pools with at most one value more than parts were not
    def rows():
        for (n, m), _ in EXPERIMENT_ROW_DIGESTS:
            for seed in range(3):
                experiment_row(n, m, "uniform", False, seed, None)

    _, placed = placements(rows)
    assert placed == 452
    assert placed < 1379 < 2646


def test_experiment_summary_without_finite_factor(capsys):
    # with no goods every threshold is zero, so no row has a finite factor
    # and the cell's summary gives counts only
    assert main(["experiment", "--n-min", "2", "--n-max", "2", "--m-min", "0",
                 "--m-max", "0", "--count", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "# summary n=2 m=0 count=2 gmms_found=2 gmms_absent=0 budget=0"
    assert len(lines) == 2 + 2 + 1  # schema, header, rows, one summary


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


def test_experiment_bad_range(capsys):
    assert main(["experiment", "--n-min", "5", "--n-max", "3"]) == 2
    assert main(["experiment", "--n-min", "3", "--n-max", "3",
                 "--m-min", "4", "--m-max", "4", "--count", "-1"]) == 2
    assert main(["experiment", "--n-min", "3", "--n-max", "3",
                 "--m-min", "4", "--m-max", "4", "--seed", "-1"]) == 2
    assert main(["experiment", "--n-min", "2", "--n-max", "2",
                 "--m-min", "-1", "--m-max", "0", "--count", "1"]) == 2
    captured = capsys.readouterr()
    assert "count" in captured.err and captured.out == ""
    assert "seed" in captured.err and "ranges" in captured.err


def test_experiment_negative_budget_exits_usage(capsys):
    assert main(["experiment", "--n-min", "2", "--n-max", "2", "--m-min", "2",
                 "--m-max", "2", "--count", "1", "--budget", "-1"]) == 2
    captured = capsys.readouterr()
    assert "budget" in captured.err and captured.out == ""


def test_experiment_jobs_are_made_lazily(monkeypatch, capsys):
    import tracemalloc
    from gmms import cli

    def first_row_fails(*job):
        raise RuntimeError("first row fails")

    monkeypatch.setattr(cli, "experiment_row", first_row_fails)
    tracemalloc.start()
    try:
        with pytest.raises(RuntimeError, match="first row"):
            main(["experiment", "--n-min", "2", "--n-max", "2", "--m-min", "3",
                  "--m-max", "3", "--count", "200000"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a list of all 200000 jobs would take about 26 MB before the first row
    assert peak < 2 * 2 ** 20


def test_experiment_workers_match_serial(monkeypatch, capsys):
    from gmms import cli
    monkeypatch.setattr(cli, "_JOB_SLICE", 3)  # 8 jobs in three slices
    argv = ["experiment", "--n-min", "2", "--n-max", "3", "--m-min", "3",
            "--m-max", "4", "--count", "2", "--seed", "40"]

    def run(workers):
        monkeypatch.setenv("GMMS_WORKERS", workers)
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        header = lines[1].split(",")
        timing = {header.index("t_efl_us"), header.index("t_search_us")}
        return [line if line.startswith("#") else
                [f for i, f in enumerate(line.split(",")) if i not in timing]
                for line in lines]

    serial = run("1")
    assert len(serial) == 2 + 8 + 4  # schema, header, rows, one summary a cell
    monkeypatch.setattr(os, "cpu_count", lambda: 2)  # a pool on any machine
    assert run("2") == serial


@pytest.mark.parametrize("workers, count, cores, started", [
    ("8", 1, 8, None),  # one job: no pool
    ("1000000", 3, 64, 3),  # no more workers than jobs
    ("1000000", 40, 4, 4),  # no more than cores
    ("2", 40, 4, 2),
    ("8", 5, None, None)])  # core count unknown: one, so no pool
def test_experiment_pool_is_bounded(monkeypatch, capsys, workers, count, cores,
                                    started):
    # a fork pool starts all max_workers processes at its first submit; a
    # recording stand-in runs the map here and starts none
    import concurrent.futures
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, chunksize=1):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: cores)
    monkeypatch.setenv("GMMS_WORKERS", workers)
    assert main(["experiment", "--n-min", "2", "--n-max", "2", "--m-min", "2",
                 "--m-max", "2", "--count", str(count)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 + count + 1  # schema, header, rows, one summary
    assert sizes == ([] if started is None else [started])


def test_share_search_deeper_than_recursion_limit(tmp_path, capsys):
    row = [3, 3] + [2] * 1199
    ipath = tmp_path / "i.json"
    apath = tmp_path / "a.json"
    ipath.write_text(serialize_instance(Instance.from_rows([row, row])))
    apath.write_text(serialize_allocation(
        Allocation.from_lists([[0], list(range(1, 1201))])))
    assert main(["mms", str(ipath), "--agent", "0"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "value: 1202 (1202)"
    assert main(["check", str(ipath), str(apath), "--notion", "gmms"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["witness"]["rhs"] == "1202"


def test_boolean_documents_exit_usage(tmp_path, capsys):
    ipath = tmp_path / "i.json"
    apath = tmp_path / "a.json"
    ipath.write_text('{"agents": true, "goods": 1, "valuations": [[1]]}')
    assert main(["mms", str(ipath), "--agent", "0"]) == 2
    ipath.write_text('{"agents": 2, "goods": 2, "valuations": [[1, 1], [1, 1]]}')
    apath.write_text('{"bundles": [[0], [true]]}')
    assert main(["check", str(ipath), str(apath), "--notion", "ef"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["abc", "0", "x" * 100_000])
def test_experiment_bad_workers_exit_usage(monkeypatch, capsys, value):
    monkeypatch.setenv("GMMS_WORKERS", value)
    assert main(["experiment", "--n-min", "2", "--n-max", "2",
                 "--m-min", "2", "--m-max", "2", "--count", "1"]) == 2
    captured = capsys.readouterr()
    assert "GMMS_WORKERS" in captured.err and len(captured.err) < 300
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


@pytest.mark.parametrize("policy", ['[0, 1]', '{"sources": [true]}',
                                    '{"goods": [false, null]}', '7',
                                    '{"source": [1, 0]}'])
def test_malformed_policy_exits_usage(tmp_path, capsys, policy):
    ipath = tmp_path / "i.json"
    ppath = tmp_path / "p.json"
    ipath.write_text('{"agents": 2, "goods": 2, "valuations": [[1, 1], [1, 1]]}')
    ppath.write_text(policy)
    assert main(["solve-efl", str(ipath), "--policy", str(ppath)]) == 2
    captured = capsys.readouterr()
    assert "policy" in captured.err and captured.out == ""


@pytest.mark.parametrize("option,literal", [("--value", "abc"),
                                            ("--value", "1e99999999"),
                                            ("--eps", "1/0"),
                                            ("--eps", "-1")])
def test_fixture_bad_value_literal_exits_usage(capsys, option, literal):
    assert main(["fixture", "mms_not_gmms", "--n", "4", option, literal]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and captured.out == ""


def test_gen_too_many_digits_exits_usage(capsys):
    assert main(["gen", "--agents", "2", "--goods", "2", "--digits", "400"]) == 2
    captured = capsys.readouterr()
    assert "digits" in captured.err and captured.out == ""
    assert main(["gen", "--agents", "2", "--goods", "2", "--digits", "17"]) == 0


def test_decimal_str_past_float_range():
    from gmms.cli import decimal_str
    assert decimal_str(Fraction(10) ** 400) == "1e+400"
    assert decimal_str(Fraction(3, 2) * 10 ** 400) == "1.5e+400"
    assert decimal_str(Fraction(10 ** 400 - 1, 3)) == "3.33333e+399"
    # below the normal float range a float drops digits, or reads 0
    assert decimal_str(Fraction(1, 10 ** 320)) == "1e-320"
    assert decimal_str(Fraction(1, 10 ** 400)) == "1e-400"
    # in float range the rendering is the float's, byte for byte
    assert decimal_str(Fraction(10) ** 300) == "1e+300"
    assert decimal_str(Fraction(1, 3)) == "0.333333"
    assert decimal_str(Fraction(2)) == "2"
    assert decimal_str(None) == "inf"


def test_mms_prints_value_past_float_range(tmp_path, capsys):
    path = tmp_path / "i.json"
    path.write_text('{"agents": 1, "goods": 1, "valuations": [["1e400"]]}')
    assert main(["mms", str(path), "--agent", "0"]) == 0
    last = capsys.readouterr().out.splitlines()[-1]
    assert last == f"value: {10 ** 400} (1e+400)"


def test_value_past_digit_cap_exits_usage(tmp_path, capsys):
    path = tmp_path / "i.json"
    path.write_text('{"agents": 1, "goods": 1, "valuations": [["1e4300"]]}')
    assert main(["mms", str(path), "--agent", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and len(captured.err.splitlines()) == 1


HOSTILE = {"deep": b"[" * 100_000, "not_utf8": b"\xff\xfe{}",
           "truncated": b'{"bundles": [[0, 1], [2', "long_int": b"7" * 5000}


@pytest.mark.parametrize("bad", sorted(HOSTILE))
@pytest.mark.parametrize("door", ["instance", "allocation", "policy"])
def test_hostile_document_exits_usage(sec_paths, tmp_path, capsys, door, bad):
    # each kind of document file goes through the same loader and decoder
    ipath, _ = sec_paths
    path = tmp_path / "hostile.json"
    path.write_bytes(HOSTILE[bad])
    argv = {"instance": ["mms", str(path), "--agent", "0"],
            "allocation": ["check", ipath, str(path), "--notion", "mms"],
            "policy": ["solve-efl", ipath, "--policy", str(path)]}[door]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and len(captured.err.splitlines()) == 1
    assert str(path) in captured.err


BIG = 100_000
LONG_INPUT = {  # case: (door, document, the field the message must name)
    "list_value": ("instance", {"agents": 1, "goods": 1,
                                "valuations": [[[0] * BIG]]}, "valuations[0]"),
    "bad_string": ("instance", {"agents": 1, "goods": 1,
                                "valuations": [["x" * BIG]]}, "valuations[0]"),
    # Fraction() accepts surrounding blanks, so this literal parses as -1
    "negative": ("instance", {"agents": 1, "goods": 1,
                              "valuations": [["-1" + " " * BIG]]}, "valuations[0]"),
    "agents": ("instance", {"agents": [0] * BIG, "goods": 1, "valuations": []},
               "'agents'"),
    "goods": ("instance", {"agents": 1, "goods": [0] * BIG, "valuations": [[]]},
              "'goods'"),
    "overlap": ("allocation", {"bundles": [list(range(BIG))] * 2}, "overlap"),
    "good_index": ("allocation", {"bundles": [[10 ** 4000], [], [], []]},
                   "good index"),
    "policy_fields": ("policy", {f"field{i}": None for i in range(BIG)},
                      "unknown policy fields"),
}


@pytest.mark.parametrize("case", sorted(LONG_INPUT))
def test_long_input_gives_one_short_error_line(sec_paths, tmp_path, capsys, case):
    # an error message quotes outside input only in part, so its one line
    # does not grow with the document
    ipath, _ = sec_paths
    door, doc, field = LONG_INPUT[case]
    path = tmp_path / "long.json"
    path.write_text(json.dumps(doc))
    argv = {"instance": ["mms", str(path), "--agent", "0"],
            "allocation": ["check", ipath, str(path), "--notion", "mms"],
            "policy": ["solve-efl", ipath, "--policy", str(path)]}[door]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.splitlines()) == 1
    prefix = f"error: {path}: "
    assert captured.err.startswith(prefix)
    message = captured.err[len(prefix):]
    assert len(message) < 300 and field in message, message


def test_fixture_policy_out_rejected_before_any_output(tmp_path, capsys):
    apath, ppath = tmp_path / "ref.json", tmp_path / "policy.json"
    assert main(["fixture", "mms_not_ef1", "--allocation-out", str(apath),
                 "--policy-out", str(ppath)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--policy-out" in captured.err
    assert not apath.exists() and not ppath.exists()


def test_undecodable_document_exits_usage(tmp_path, capsys):
    path = tmp_path / "i.json"
    path.write_bytes(b"\xff\xfe{}")
    assert main(["mms", str(path), "--agent", "0"]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_python_dash_m_runs_the_cli(capsys):
    argv = ["gen", "--agents", "3", "--goods", "4", "--seed", "5"]
    assert main(argv) == 0
    expected = capsys.readouterr().out
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-m", "gmms", *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == expected


EXPERIMENT_ROWS = ["experiment", "--n-min", "1", "--n-max", "1", "--m-min", "0",
                   "--m-max", "1", "--count", "100000"]


@pytest.mark.parametrize("argv, workers", [
    (["gen", "--agents", "20", "--goods", "2000"], "1"),  # one line
    (EXPERIMENT_ROWS, "1"),  # rows in the main process
    (EXPERIMENT_ROWS, "2")])  # rows in a pool of two workers
def test_closed_stdout_exits_quietly(argv, workers):
    # a reader that stops early (`gmms ... | head -c 10`) ends the run with
    # 141, as SIGPIPE would, and no traceback. Both outputs are far larger
    # than a pipe holds, so the run meets the closed pipe. Every worker
    # holds the same stderr pipe, so its end of file means none is left
    # running
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, GMMS_WORKERS=workers, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    script = ("import os, sys\n"
              "os.cpu_count = lambda: 2  # a pool on any machine\n"
              "from gmms.cli import main\n"
              "sys.exit(main(sys.argv[1:]))\n")
    proc = subprocess.Popen([sys.executable, "-c", script, *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        assert len(proc.stdout.read(10)) == 10
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
    assert (proc.returncode, err.decode()) == (141, "")
