"""Command-line front end.

Subcommands: solve-efl, check, mms, gmms-threshold, gmms-search, gen,
fixture, experiment. Exit codes: 0 success / notion holds, 1 notion violated,
2 usage error, 3 search budget exhausted.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from fractions import Fraction
from typing import Optional

from . import algorithms, fairness, generator, maximin
from .core import (Allocation, InputError, Instance, ParseError,
                   parse_allocation, parse_instance, serialize_allocation,
                   serialize_instance)

EXIT_OK = 0
EXIT_VIOLATED = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

CSV_SCHEMA = "v1"
CSV_COLUMNS = ["n", "m", "dist", "sop", "seed", "gmms_exists",
               "efl_factor_num", "efl_factor_den", "efl_factor_dec",
               "t_efl_us", "t_search_us"]


class UsageError(Exception):
    pass


def decimal_str(x: Optional[Fraction]) -> str:
    """Six-significant-digit rendering; display only, never fed back in."""
    if x is None:
        return "inf"
    return f"{float(x):.6g}"


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from None


def _load_instance(path: str) -> Instance:
    try:
        return parse_instance(_read(path))
    except ParseError as exc:
        raise UsageError(f"{path}: {exc}") from None


def _load_allocation(path: str, instance: Instance) -> Allocation:
    try:
        alloc = parse_allocation(_read(path))
        alloc.validate(instance, require_complete=True)
        return alloc
    except (ParseError, InputError) as exc:
        raise UsageError(f"{path}: {exc}") from None


def _load_policy(path: Optional[str]):
    if path is None:
        return None
    try:
        return algorithms.TieBreakPolicy.from_doc(json.loads(_read(path)))
    except (json.JSONDecodeError, algorithms.PolicyError) as exc:
        raise UsageError(f"{path}: {exc}") from None


def cmd_solve_efl(args) -> int:
    instance = _load_instance(args.instance)
    policy = _load_policy(args.policy)
    allocation = algorithms.efl_allocate(instance, policy)
    factor = fairness.gmms_factor(instance, allocation)
    assert factor is None or factor >= Fraction(1, 2), \
        "allocator fell below the guaranteed half of a groupwise share"
    doc = serialize_allocation(allocation)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(doc + "\n")
    else:
        print(doc)
    print(f"gmms_factor: {factor if factor is not None else 'inf'} "
          f"({decimal_str(factor)})")
    return EXIT_OK


def cmd_check(args) -> int:
    instance = _load_instance(args.instance)
    allocation = _load_allocation(args.allocation, instance)
    notion = args.notion.upper()
    if notion == "KWISE":
        if args.k is None:
            raise UsageError("--notion kwise requires --k")
        report = fairness.is_kwise_fair(instance, allocation, args.k)
    else:
        try:
            checker = fairness.CHECKERS[fairness.Notion(notion)]
        except ValueError:
            raise UsageError(f"unknown notion {args.notion!r}") from None
        report = checker(instance, allocation)
    print(json.dumps(report.to_doc()))
    return EXIT_OK if report.holds else EXIT_VIOLATED


def cmd_mms(args) -> int:
    instance = _load_instance(args.instance)
    result = maximin.mms(instance, args.agent)
    print(json.dumps(result.to_doc()))
    print(f"value: {result.value} ({decimal_str(result.value)})")
    return EXIT_OK


def cmd_gmms_threshold(args) -> int:
    instance = _load_instance(args.instance)
    if args.allocation is None:
        raise UsageError("gmms-threshold requires --allocation")
    allocation = _load_allocation(args.allocation, instance)
    threshold = maximin.gmms_threshold(instance, allocation, args.agent)
    print(json.dumps({"value": str(threshold.value),
                      "group": list(threshold.witness_group),
                      "witness": [sorted(b) for b in threshold.witness_partition]}))
    print(f"value: {threshold.value} ({decimal_str(threshold.value)})")
    return EXIT_OK


def cmd_gmms_search(args) -> int:
    instance = _load_instance(args.instance)
    result = algorithms.exact_gmms_search(instance, args.budget)
    print(json.dumps(result.to_doc()))
    return EXIT_BUDGET if result.status == "budget" else EXIT_OK


def cmd_gen(args) -> int:
    spec = generator.GenSpec(args.agents, args.goods, args.dist,
                             args.sop, args.seed, args.digits)
    print(serialize_instance(generator.generate(spec)))
    return EXIT_OK


def cmd_fixture(args) -> int:
    params = {}
    if args.k is not None:
        params["k"] = args.k
    if args.n is not None:
        params["n"] = args.n
    if args.value is not None:
        params["big"] = Fraction(args.value)
    if args.eps is not None:
        params["eps"] = Fraction(args.eps)
    try:
        instance, reference = generator.fixture(args.name, **params)
    except (InputError, TypeError) as exc:
        raise UsageError(str(exc)) from None
    print(serialize_instance(instance))
    if args.allocation_out and reference is not None:
        with open(args.allocation_out, "w", encoding="utf-8") as fh:
            fh.write(serialize_allocation(reference) + "\n")
    if args.policy_out:
        if args.name != "efl_tight":
            raise UsageError("--policy-out only applies to the efl_tight fixture")
        policy = generator.efl_tight_policy(args.n)
        with open(args.policy_out, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(policy.to_doc()) + "\n")
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
        raise UsageError(f"GMMS_WORKERS must be a positive integer, got {text!r}")
    return workers


def cmd_experiment(args) -> int:
    # read before any output, so a bad value leaves no partial CSV
    workers = _workers()
    if args.n_min < 1 or args.n_max < args.n_min or args.m_max < args.m_min:
        raise UsageError("invalid n/m ranges")
    cells = [(n, m) for n in range(args.n_min, args.n_max + 1)
             for m in range(args.m_min, args.m_max + 1)]
    jobs = []
    seed = args.seed
    for n, m in cells:
        for _ in range(args.count):
            jobs.append((n, m, args.dist, args.sop, seed, args.budget))
            seed += 1
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

    if workers > 1 and jobs:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            emit(pool.map(_row_star, jobs, chunksize=8))  # in job order
    else:
        emit(map(_row_star, jobs))
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


def _row_star(job):
    return experiment_row(*job)


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
    p.add_argument("--allocation")
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
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (InputError, ParseError, algorithms.PolicyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
