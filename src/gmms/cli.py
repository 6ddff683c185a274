"""Command-line front end.

Subcommands: solve-efl, check, mms, gmms-threshold, gmms-search, gen,
fixture, experiment. Exit codes: 0 success / notion holds, 1 notion violated,
2 usage error, 3 search budget exhausted, 141 stdout closed by its reader.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import os
import re
import sys
import time
from decimal import Context
from fractions import Fraction
from typing import Optional

from . import algorithms, fairness, generator, maximin
from .core import (InputError, _json_doc, _quote, as_value, parse_allocation,
                   parse_instance, serialize_allocation, serialize_instance)

EXIT_OK = 0
EXIT_VIOLATED = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

CSV_SCHEMA = "v1"
CSV_COLUMNS = ["n", "m", "dist", "sop", "seed", "gmms_exists",
               "efl_factor_num", "efl_factor_den", "efl_factor_dec",
               "t_efl_us", "t_search_us"]
_JOB_SLICE = 256  # experiment jobs per pool.map call, which submits all at once


class UsageError(ValueError):
    pass


def decimal_str(x: Optional[Fraction]) -> str:
    """Six-significant-digit rendering; display only, never fed back in.

    Values past the float range, and nonzero values below its normal range
    (where a float loses digits or reads 0), are rounded in decimal
    instead, in the same style ("1e+400", "1e-400").
    """
    if x is None:
        return "inf"
    if x == 0 or sys.float_info.min <= abs(x) <= sys.float_info.max:
        return f"{float(x):.6g}"
    rounded = Context(prec=6).divide(x.numerator, x.denominator)
    return format(rounded.normalize(), "g")


def _load(path: str, parse, instance=None):
    """Read one document file and parse it; an allocation is also checked to
    be complete for ``instance``. Any failure is a UsageError naming the file."""
    try:
        with open(path, "rb") as fh:
            doc = parse(fh.read())
        if instance is not None:
            doc.validate(instance, require_complete=True)
        return doc
    except (OSError, ValueError) as exc:
        raise UsageError(f"{path}: {exc}") from None


def _save(path: str, text: str) -> None:
    """Write `text` and a newline to one document file. Any failure is a
    UsageError naming the file."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    except OSError as exc:
        raise UsageError(f"{path}: {exc}") from None


def cmd_solve_efl(args) -> int:
    instance = _load(args.instance, parse_instance)
    policy = None if args.policy is None else _load(
        args.policy, lambda text: algorithms.TieBreakPolicy.from_doc(_json_doc(text)))
    allocation = algorithms.efl_allocate(instance, policy)
    factor = fairness.gmms_factor(instance, allocation)
    if factor is not None and factor < Fraction(1, 2):
        raise RuntimeError(
            "allocator fell below the guaranteed half of a groupwise share")
    doc = serialize_allocation(allocation)
    if args.out:
        _save(args.out, doc)
    else:
        print(doc)
    print(f"gmms_factor: {factor if factor is not None else 'inf'} "
          f"({decimal_str(factor)})")
    return EXIT_OK


def cmd_check(args) -> int:
    notion = args.notion.upper()
    if notion != "KWISE" and args.k is not None:
        raise UsageError("--k only applies to --notion kwise")
    instance = _load(args.instance, parse_instance)
    allocation = _load(args.allocation, parse_allocation, instance)
    if notion == "KWISE":
        if args.k is None:
            raise UsageError("--notion kwise requires --k")
        report = fairness.is_kwise_fair(instance, allocation, args.k)
    else:
        report = fairness.CHECKERS[fairness.Notion(notion)](instance, allocation)
    print(json.dumps(report.to_doc()))
    return EXIT_OK if report.holds else EXIT_VIOLATED


def cmd_mms(args) -> int:
    instance = _load(args.instance, parse_instance)
    result = maximin.mms(instance, args.agent)
    print(json.dumps(result.to_doc()))
    print(f"value: {result.value} ({decimal_str(result.value)})")
    return EXIT_OK


def cmd_gmms_threshold(args) -> int:
    instance = _load(args.instance, parse_instance)
    allocation = _load(args.allocation, parse_allocation, instance)
    threshold = maximin.gmms_threshold(instance, allocation, args.agent)
    print(json.dumps({"value": str(threshold.value),
                      "group": list(threshold.witness_group),
                      "witness": [sorted(b) for b in threshold.witness_partition]}))
    print(f"value: {threshold.value} ({decimal_str(threshold.value)})")
    return EXIT_OK


def cmd_gmms_search(args) -> int:
    instance = _load(args.instance, parse_instance)
    result = algorithms.exact_gmms_search(instance, args.budget)
    print(json.dumps(result.to_doc()))
    return EXIT_BUDGET if result.status == "budget" else EXIT_OK


def cmd_gen(args) -> int:
    spec = generator.GenSpec(args.agents, args.goods, args.dist,
                             args.sop, args.seed, args.digits)
    print(serialize_instance(generator.generate(spec)))
    return EXIT_OK


# the options each fixture family takes, each with the parameter it sets
_FIXTURE_OPTIONS = {
    "single_good_two_agents": {},
    "mms_not_ef1": {},
    "kwise_boundary": {"k": "k", "n": "n"},
    "mms_not_gmms": {"n": "n", "value": "big", "eps": "eps"},
    "efl_tight": {"n": "n"},
}


def cmd_fixture(args) -> int:
    if args.policy_out and args.name != "efl_tight":
        raise UsageError("--policy-out only applies to the efl_tight fixture")
    takes = _FIXTURE_OPTIONS[args.name]
    given = {option: getattr(args, option) for option in ("k", "n", "value", "eps")
             if getattr(args, option) is not None}
    extra = [f"--{option}" for option in given if option not in takes]
    if extra:
        raise UsageError(f"fixture {args.name} does not take {', '.join(extra)}")
    for option in ("value", "eps"):
        if option in given:
            given[option] = as_value(given[option])
    missing = [f"--{option}" for option in takes if option not in given]
    if missing:
        raise UsageError(f"fixture {args.name} needs {', '.join(missing)}")
    try:
        instance, reference = generator.fixture(
            args.name, **{takes[option]: x for option, x in given.items()})
    except InputError as exc:
        # the family's message names its parameters; name the options instead
        options = {param: f"--{option}" for option, param in takes.items()}
        text = re.sub(r"\w+", lambda word: options.get(word[0], word[0]), str(exc))
        raise UsageError(f"fixture {args.name}: {text}") from None
    # side files first, so a failed write leaves stdout empty
    if args.allocation_out and reference is not None:
        _save(args.allocation_out, serialize_allocation(reference))
    if args.policy_out:
        _save(args.policy_out,
              json.dumps(generator.efl_tight_policy(args.n).to_doc()))
    print(serialize_instance(instance))
    return EXIT_OK


def experiment_row(n: int, m: int, dist: str, sop: bool, seed: int,
                   budget: Optional[int]) -> dict:
    """One self-contained experiment record; pure given its arguments."""
    spec = generator.GenSpec(n, m, dist, sop, seed)
    instance = generator.generate(spec)
    t0 = time.perf_counter()
    allocation = algorithms.efl_allocate(instance)
    factor = fairness.gmms_factor(instance, allocation)
    efl = fairness.is_efl(instance, allocation)
    t_efl = int((time.perf_counter() - t0) * 1e6)
    # Both are guarantees of the allocator: a row breaking one is a bug to
    # report, never a data point.
    if not efl.holds:
        raise RuntimeError(f"efl_allocate broke EFL on {spec}: "
                           f"{json.dumps(efl.to_doc())}")
    if factor is not None and factor < Fraction(1, 2):
        raise RuntimeError(f"efl_allocate fell below half a groupwise share "
                           f"on {spec}: factor {factor}")
    t0 = time.perf_counter()
    search = algorithms.exact_gmms_search(instance, budget)
    t_search = int((time.perf_counter() - t0) * 1e6)
    exists = {"found": "true", "exhausted": "false", "budget": "budget"}[search.status]
    num, den = (1, 0) if factor is None else (factor.numerator, factor.denominator)
    return {"n": n, "m": m, "dist": dist, "sop": int(sop), "seed": seed,
            "gmms_exists": exists, "efl_factor_num": num, "efl_factor_den": den,
            "efl_factor_dec": decimal_str(factor),
            "t_efl_us": t_efl, "t_search_us": t_search}


def _workers() -> int:
    """Experiment worker processes from GMMS_WORKERS (default 1)."""
    text = os.environ.get("GMMS_WORKERS", "1")
    try:
        workers = int(text)
    except ValueError:
        workers = 0
    if workers < 1:
        raise UsageError(f"GMMS_WORKERS must be a positive integer, got {_quote(text)}")
    return workers


def cmd_experiment(args) -> int:
    # read before any output, so a bad value leaves no partial CSV
    workers = _workers()
    if (args.n_min < 1 or args.n_max < args.n_min or args.m_min < 0
            or args.m_max < args.m_min):
        raise UsageError("invalid n/m ranges")
    if args.count < 0 or args.seed < 0:
        raise UsageError(f"--count and --seed must be >= 0, "
                         f"got {args.count} and {args.seed}")
    if args.budget is not None and args.budget < 0:
        raise UsageError(f"--budget must be >= 0, got {args.budget}")
    cells = [(n, m) for n in range(args.n_min, args.n_max + 1)
             for m in range(args.m_min, args.m_max + 1)]
    # a fork pool starts all its workers at the first submit, so start no
    # more than there are jobs or cores
    workers = min(workers, len(cells) * args.count, os.cpu_count() or 1)
    seeds = itertools.count(args.seed)  # jobs are made only as they are taken
    jobs = ((n, m, args.dist, args.sop, next(seeds), args.budget)
            for n, m in cells for _ in range(args.count))
    out = sys.stdout
    out.write(f"# schema {CSV_SCHEMA} rng={generator.RNG_NAME}\n")
    writer = csv.DictWriter(out, fieldnames=CSV_COLUMNS)
    writer.writeheader()
    # each row is written as it arrives; only per-cell tallies are kept
    tallies = {cell: _CellTally() for cell in cells}

    def emit(rows):
        for row in rows:
            writer.writerow(row)
            tallies[row["n"], row["m"]].add(row)

    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            try:
                while chunk := list(itertools.islice(jobs, _JOB_SLICE)):
                    # rows come back in job order
                    emit(pool.map(experiment_row, *zip(*chunk), chunksize=8))
            except BaseException:
                # a failed row or a closed stdout: start no more of the slice
                pool.shutdown(cancel_futures=True)
                raise
    else:
        emit(itertools.starmap(experiment_row, jobs))
    # trailing per-cell summaries, recomputable from the rows above
    for (n, m), tally in tallies.items():
        if tally.count:
            out.write(f"# summary n={n} m={m} {tally.summary()}\n")
    return EXIT_OK


class _CellTally:
    """Running summary of one (n, m) cell's rows."""

    def __init__(self):
        self.count = self.found = self.absent = self.capped = 0
        self.factors = 0  # rows with a finite EFL factor
        self.factor_sum = Fraction(0)
        self.factor_min: Optional[Fraction] = None

    def add(self, row: dict) -> None:
        self.count += 1
        status = row["gmms_exists"]
        self.found += status == "true"
        self.absent += status == "false"
        self.capped += status == "budget"
        if row["efl_factor_den"] != 0:
            factor = Fraction(row["efl_factor_num"], row["efl_factor_den"])
            self.factors += 1
            self.factor_sum += factor
            if self.factor_min is None or factor < self.factor_min:
                self.factor_min = factor

    def summary(self) -> str:
        counts = (f"gmms_found={self.found} gmms_absent={self.absent} "
                  f"budget={self.capped}")
        if not self.factors:
            return f"count={self.count} {counts}"
        mean = self.factor_sum / self.factors
        return (f"count={self.count} mean_factor={mean} ({decimal_str(mean)}) "
                f"min_factor={self.factor_min} {counts}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gmms",
                                     description="Fair division of indivisible "
                                                 "goods under groupwise maximin "
                                                 "share thresholds.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve-efl", help="compute an EFL allocation")
    p.add_argument("instance")
    p.add_argument("--policy", help="scripted tie-break JSON")
    p.add_argument("--out", help="write the allocation document here")
    p.set_defaults(func=cmd_solve_efl)

    p = sub.add_parser("check", help="verify a fairness notion")
    p.add_argument("instance")
    p.add_argument("allocation")
    p.add_argument("--notion", required=True,
                   choices=["ef", "ef1", "efx", "efl", "mms", "pmms", "kwise", "gmms"])
    p.add_argument("--k", type=int, help="group size for --notion kwise")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("mms", help="grand-bundle maximin share of one agent")
    p.add_argument("instance")
    p.add_argument("--agent", type=int, required=True)
    p.set_defaults(func=cmd_mms)

    p = sub.add_parser("gmms-threshold", help="groupwise threshold of one agent")
    p.add_argument("instance")
    p.add_argument("--allocation", required=True)
    p.add_argument("--agent", type=int, required=True)
    p.set_defaults(func=cmd_gmms_threshold)

    p = sub.add_parser("gmms-search", help="exact search for a groupwise-fair allocation")
    p.add_argument("instance")
    p.add_argument("--budget", type=int,
                   help="cap on search nodes visited (exit 3 when reached)")
    p.set_defaults(func=cmd_gmms_search)

    p = sub.add_parser("gen", help="draw a random instance")
    p.add_argument("--agents", type=int, required=True)
    p.add_argument("--goods", type=int, required=True)
    p.add_argument("--dist", choices=list(generator.DISTRIBUTIONS), default="uniform")
    p.add_argument("--sop", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--digits", type=int, default=6)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("fixture", help="emit a worked-example instance")
    p.add_argument("name", choices=sorted(generator.FIXTURES))
    p.add_argument("--k", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--value", help="the large value (exact literal)")
    p.add_argument("--eps", help="the small value (exact literal)")
    p.add_argument("--allocation-out", help="write the reference allocation here")
    p.add_argument("--policy-out", help="write the scripted policy (efl_tight only)")
    p.set_defaults(func=cmd_fixture)

    p = sub.add_parser("experiment", help="run the random-instance grid to CSV")
    p.add_argument("--n-min", type=int, default=3)
    p.add_argument("--n-max", type=int, default=5)
    p.add_argument("--m-min", type=int, default=3)
    p.add_argument("--m-max", type=int, default=11)
    p.add_argument("--dist", choices=list(generator.DISTRIBUTIONS), default="uniform")
    p.add_argument("--sop", action="store_true")
    p.add_argument("--count", type=int, default=1000, help="instances per (n,m) cell")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=None,
                   help="node cap for the per-row exact search")
    p.set_defaults(func=cmd_experiment)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        code = args.func(args)
        sys.stdout.flush()  # so that a closed pipe is met here, not at exit
        return code
    except BrokenPipeError:
        # the reader stopped reading (`gmms ... | head`): write nothing more,
        # and leave the rest of the buffered output to os.devnull
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 128 + 13  # 141, as a process killed by SIGPIPE
    except ValueError as exc:
        # UsageError, InputError, ParseError and PolicyError, and Python's
        # refusal to print an exact value past its int-to-string digit cap
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
