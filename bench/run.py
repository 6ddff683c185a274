"""gmms benchmark: one closed-loop workload per run.

    python3 bench/run.py --workload grid --seed 0 --seconds 35 --trace 0

Run from the repository root. One client runs items back to back in this
process (the next item starts when the previous one returns) for
``--seconds`` seconds, then checks every result outside the timed region.
Times are scaled to a reference machine speed by a calibration kernel run
between items (calibration.py); the printed lines also give the raw values.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs items
untraced for half the time, runs the same items again traced, and reports
the per-layer metrics. The last line of standard output is one JSON object;
the lines before it print every metric by name with its unit. See
bench/README.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import sys
import types
from collections import defaultdict
from time import perf_counter

import tracing
import workloads
from calibration import Calibration

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
OUT_DIR = os.path.join(ROOT, ".bench_out")
PACKAGE_MODULES = ("core", "generator", "maximin", "fairness", "algorithms", "cli")
DEFAULT_SEED = 0
SETUP_ROUNDS = 5
TAIL_BEYOND = 10

# Every shape label of every workload, for the per-layer input report.
SHAPES = [label for w in workloads.WORKLOADS.values() for label in w.labels]


def load_library():
    """Import the package from src/ afresh and return its modules."""
    for name in [n for n in sys.modules if n == "gmms" or n.startswith("gmms.")]:
        del sys.modules[name]
    package = importlib.import_module("gmms")
    if os.path.dirname(os.path.abspath(package.__file__)) != os.path.join(SRC, "gmms"):
        raise RuntimeError(f"imported gmms from {package.__file__}, not from {SRC}")
    return types.SimpleNamespace(
        **{m: importlib.import_module(f"gmms.{m}") for m in PACKAGE_MODULES})


def set_up(workload, seed):
    """SETUP_ROUNDS full set-ups (import, inputs, warm-up); keep the last.

    Returns (lib, pool, round times, calibration taken between rounds).
    """
    times, calibration = [], Calibration()
    for _ in range(SETUP_ROUNDS):
        t0 = perf_counter()
        lib = load_library()
        pool = workload.make_pool(lib, seed)
        workload.warm_up(lib)
        times.append(perf_counter() - t0)
        calibration.run(3)
    return lib, pool, times, calibration


def tail(samples):
    """(value, percentile, beyond): the highest order statistic with at least
    TAIL_BEYOND samples above it, or the maximum when there are too few."""
    xs = sorted(samples)
    k = len(xs) - TAIL_BEYOND - 1
    if k < 0:
        return xs[-1], 100.0, 0
    return xs[k], 100.0 * (k + 1) / len(xs), len(xs) - k - 1


def timed_loop(workload, lib, pool, seconds=None, count=None, tracer=None,
               calibration=None):
    """Closed loop over pool items, for ``seconds`` or for ``count`` items.

    Returns one (index, seconds, outcome) record per item. The outcome is
    the workload's per-unit list, or the exception the item raised; the loop
    goes on after a raise. A tracer, if given, tags each span with the index
    of the item that caused it. A calibration, if given, runs its kernel
    between items (outside the item times) for its share of the item time.
    """
    records = []
    deadline = perf_counter() + (seconds or 0.0)
    work_s = 0.0
    i = 0
    while (i < count) if count is not None else (perf_counter() < deadline):
        if tracer is not None:
            tracer.item = i
        t0 = perf_counter()
        try:
            outcome = workload.run(lib, pool[i % len(pool)])
        except Exception as exc:  # a failed item, counted below
            outcome = exc
        dt = perf_counter() - t0
        records.append((i, dt, outcome))
        work_s += dt
        if calibration is not None:
            calibration.keep_share(work_s)
        i += 1
    return records


def item_fields(workload, outcome):
    return [workload.fields(result) for _, result, _ in outcome]


def check_records(workload, lib, pool, records, reference):
    """{item index: failure messages}: a raise, a failed invariant, or (with
    a reference) result fields that differ from the reference."""
    failures = {}
    for i, _, outcome in records:
        if isinstance(outcome, Exception):
            failures[i] = [f"raised {outcome!r}"]
            continue
        errors = []
        for (_, payload), (_, result, _) in zip(pool[i % len(pool)], outcome):
            errors += workload.check(lib, payload, result)
        if reference is not None:
            got = workloads.digest(item_fields(workload, outcome))
            if got != reference[i % len(pool)]:
                errors.append(f"result fields differ from the reference ({got})")
        if errors:
            failures[i] = errors
    return failures


def load_reference(workload, seed):
    if seed != DEFAULT_SEED:
        return None
    with open(REFERENCE, encoding="utf-8") as fh:
        doc = json.load(fh)
    digests = doc["workloads"][workload.name]
    if doc["seed"] != seed or len(digests) != workload.pool_size:
        raise RuntimeError(f"{REFERENCE} does not match the {workload.name} pool")
    return digests


def unit_seconds(records):
    """{shape label: (units run, seconds spent in them)}."""
    out = defaultdict(lambda: [0, 0.0])
    for _, _, outcome in records:
        if not isinstance(outcome, Exception):
            for label, _, dt in outcome:
                out[label][0] += 1
                out[label][1] += dt
    return out


def end_to_end(records, failures, setup_times, setup_cal, loop_cal):
    """End-to-end metrics, times at reference speed; notes give raw values."""
    raw_ms = sorted(float("inf") if i in failures else dt * 1e3 for i, dt, _ in records)
    work_s = sum(dt for _, dt, _ in records)
    ok = len(records) - len(failures)
    units = sum(len(outcome) for i, _, outcome in records if i not in failures)
    f, fs = loop_cal.scale(), setup_cal.scale()
    value, pct, beyond = tail(raw_ms)
    metrics = {
        "items_per_s": (ok / (work_s * f), "1/s"),
        "item_p50_ms": (statistics.median(raw_ms) * f, "ms"),
        "item_tail_ms": (value * f, "ms"),
        "setup_s": (statistics.median(setup_times) * fs, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = {
        "items_per_s": f"raw {ok / work_s:.4g}; {units / (work_s * f):.4g} units/s; "
                       f"time scale {f:.4f} from {len(loop_cal.samples)} kernel runs",
        "item_p50_ms": f"raw {statistics.median(raw_ms):.4g}",
        "item_tail_ms": f"raw {value:.4g}; p{pct:.2f}, {beyond} of {len(records)} "
                        f"items beyond it",
        "setup_s": f"raw median of {', '.join(f'{t:.4f}' for t in setup_times)}; "
                   f"time scale {fs:.4f}",
    }
    return metrics, notes


def per_layer(tracer, records, scale, overhead):
    """Per-layer metrics of the traced pass, per item where it is a sum;
    times are multiplied by ``scale``."""
    n = len(records)
    item_s = sum(dt for _, dt, _ in records)
    spans = tracer.spans
    self_s, calls = defaultdict(float), defaultdict(int)
    for span, t in zip(spans, tracing.self_times(spans)):
        self_s[span[tracing.NAME]] += t * scale
        calls[span[tracing.NAME]] += 1
    incl = tracing.inclusive_times(spans)
    for (_, leaf), (c, t) in tracer.leaves.items():
        self_s[leaf] += t * scale
        calls[leaf] += c
    counters = tracer.counters
    search = "algorithms.exact_gmms_search"

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    for name in tracing.SPAN_FUNCTIONS + tracing.LEAF_FUNCTIONS:
        m[f"{name}.self_s"] = (self_s[name] / n, "s/item")
    for name in (search, "algorithms.efl_allocate", "maximin.maximin_share"):
        m[f"{name}.incl_frac"] = (ratio(incl[name], item_s), "frac")
    m[f"{search}.examined"] = (counters[f"{search}.examined"] / n, "leaves/item")
    m[f"{search}.found_frac"] = (ratio(counters[f"{search}.found"], calls[search]), "frac")
    m[f"{search}.exceeds_calls"] = (
        tracer.leaves[(search, "maximin.maximin_exceeds")][0] / n, "calls/item")
    for name in ("maximin.maximin_exceeds", "maximin.maximin_share", "core.bundle_value"):
        m[f"{name}.calls"] = (calls[name] / n, "calls/item")
    m["maximin.maximin_exceeds.true_frac"] = (
        ratio(counters["maximin.maximin_exceeds.true"], calls["maximin.maximin_exceeds"]),
        "frac")
    m["maximin.maximin_share.goods_mean"] = (
        ratio(counters["maximin.maximin_share.goods"], calls["maximin.maximin_share"]),
        "goods")
    m["trace.overhead_frac"] = (overhead, "frac")
    shapes = unit_seconds(records)
    unit_s = sum(s for _, s in shapes.values())
    for label in SHAPES:
        m[f"input.{label}.time_frac"] = (ratio(shapes[label][1], unit_s), "frac")
    return m


def write_trace(tracer, workload, seed, metrics):
    """Write the spans and leaf counts of a traced run under .bench_out/."""
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"trace_{workload.name}_seed{seed}.json")
    doc = {"workload": workload.name, "seed": seed,
           "metrics": {k: v for k, (v, _) in metrics.items()},
           "leaves": [[p, leaf, c, t] for (p, leaf), (c, t) in sorted(tracer.leaves.items())],
           "span_fields": ["name", "parent", "item", "start", "end", "leaf_s"],
           "spans": tracer.spans}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return os.path.relpath(path, ROOT)


def traced_run(workload, lib, pool, seconds, seed, reference):
    """Untraced for half the time, then the same items traced."""
    untraced_cal, traced_cal = Calibration(), Calibration()
    untraced = timed_loop(workload, lib, pool, seconds=seconds / 2,
                          calibration=untraced_cal)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        records = timed_loop(workload, lib, pool, count=len(untraced), tracer=tracer,
                             calibration=traced_cal)
    finally:
        tracer.uninstall()
    untraced_s = sum(dt for _, dt, _ in untraced) * untraced_cal.scale()
    traced_s = sum(dt for _, dt, _ in records) * traced_cal.scale()
    failures = check_records(workload, lib, pool, untraced, reference)
    for i, errors in check_records(workload, lib, pool, records, reference).items():
        failures[("traced", i)] = errors
    for (i, _, a), (_, _, b) in zip(untraced, records):
        if (not isinstance(a, Exception) and not isinstance(b, Exception)
                and item_fields(workload, a) != item_fields(workload, b)):
            failures.setdefault(("traced", i), []).append(
                "traced result differs from the untraced result")
    metrics = per_layer(tracer, records, traced_cal.scale(), 1 - untraced_s / traced_s)
    notes = {"trace.overhead_frac":
             f"{len(records)} items at reference speed: untraced {untraced_s:.3f} s, "
             f"traced {traced_s:.3f} s; spans in "
             f"{write_trace(tracer, workload, seed, metrics)}"}
    return records, len(untraced) + len(records), failures, metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(SRC, "gmms", "__init__.py")):
        print(f"error: no gmms package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    workload = workloads.WORKLOADS[args.workload]
    reference = load_reference(workload, args.seed)
    lib, pool, setup_times, setup_cal = set_up(workload, args.seed)
    print(f"workload {workload.name}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  reference check {'on' if reference else 'off'}")
    if args.trace:
        records, attempted, failures, metrics, notes = traced_run(
            workload, lib, pool, args.seconds, args.seed, reference)
    else:
        loop_cal = Calibration()
        records = timed_loop(workload, lib, pool, seconds=args.seconds, calibration=loop_cal)
        attempted = len(records)
        failures = check_records(workload, lib, pool, records, reference)
        metrics, notes = end_to_end(records, failures, setup_times, setup_cal, loop_cal)

    shapes = unit_seconds(records)
    unit_s = sum(s for _, s in shapes.values()) or 1.0
    for label, (units, s) in sorted(shapes.items()):
        print(f"  input {label:24s} {units:6d} units {100 * s / unit_s:6.1f} % of unit time")
    print(f"  failed_frac {len(failures) / attempted:.4f} frac "
          f"({len(failures)} of {attempted} items)")
    for key in list(failures)[:5]:
        print(f"  FAILED item {key}: {'; '.join(failures[key])}")
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:48s} {value:.6g} {unit}{note}")
    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
