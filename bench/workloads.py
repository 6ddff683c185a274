"""The three benchmark workloads: grid, allocate and audit.

Each workload turns a seed into a fixed pool of items during set-up. An item
is a short list of units (an experiment row, or one instance), each labelled
with its shape for the input-property report. ``run`` is the timed part; it
calls only the public functions of the package modules, looked up on the
module at call time so that the traced run can wrap them. ``check`` and
``fields`` run outside the timed region.

Why these workloads (numbers are in bench/README.md):

- grid is the ``gmms experiment`` path behind the paper's existence claim,
  and about 72 % of its time is the exact search with tiny decision-form
  oracle calls. m stops at 7: the (5, 8) cell alone has a per-row cost spread that
  makes the per-seed throughput spread about 2.5 times wider.
- allocate is parse -> envy-graph allocator -> EFL check -> serialize on one
  large instance. It never reaches the share oracle or the search, so it
  stays flat under oracle or search changes and moves under allocator and
  Fraction-arithmetic changes.
- audit is the checkers and ``gmms_factor`` on a fixed allocation: the share
  oracle in optimisation form, on a deep grand bundle (4, 13) and 448 times
  on small pools (7, 11). It never reaches the search or the allocator.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from time import perf_counter

# Seeds of different runs never overlap: pool unit j of run seed s is drawn
# from seed s * SEED_STRIDE + j.
SEED_STRIDE = 100_000

HALF = Fraction(1, 2)


def unit_seed(seed: int, j: int) -> int:
    return seed * SEED_STRIDE + j


def _timed(item, call):
    """Run ``call`` on every unit payload; return [(label, result, seconds)]."""
    out = []
    for label, payload in item:
        t0 = perf_counter()
        result = call(payload)
        out.append((label, result, perf_counter() - t0))
    return out


class Grid:
    """Three ``cli.experiment_row`` rows per cell of n in 3..5, m in 5..7."""

    name = "grid"
    pool_size = 160
    cells = [(n, m) for n in (3, 4, 5) for m in (5, 6, 7)]
    labels = [f"grid.n{n}m{m}" for n, m in cells]
    rows_per_cell = 3

    def make_pool(self, lib, seed):
        per_item = len(self.cells) * self.rows_per_cell
        pool = []
        for k in range(self.pool_size):
            item, j = [], k * per_item
            for label, (n, m) in zip(self.labels, self.cells):
                for _ in range(self.rows_per_cell):
                    item.append((label, (n, m, unit_seed(seed, j))))
                    j += 1
            pool.append(item)
        return pool

    def warm_up(self, lib):
        lib.cli.experiment_row(3, 5, "uniform", False, 0, None)

    def run(self, lib, item):
        return _timed(item, lambda u: lib.cli.experiment_row(
            u[0], u[1], "uniform", False, u[2], None))

    def check(self, lib, payload, row):
        n, m, seed = payload
        errors = []
        if (row["n"], row["m"], row["seed"]) != (n, m, seed):
            errors.append(f"row is for {(row['n'], row['m'], row['seed'])}")
        if row["gmms_exists"] not in ("true", "false"):
            errors.append(f"gmms_exists is {row['gmms_exists']!r}")
        num, den = row["efl_factor_num"], row["efl_factor_den"]
        if den == 0:
            if num != 1:
                errors.append(f"infinite factor encoded as {num}/0")
        elif Fraction(num, den) < HALF:
            errors.append(f"EFL factor {num}/{den} below 1/2")
        return errors

    def fields(self, row):
        return {k: v for k, v in row.items() if not k.startswith("t_")}


class Allocate:
    """parse_instance -> efl_allocate -> is_efl -> serialize_allocation at
    n=20, m=200, alternating uniform and gaussian same-order draws."""

    name = "allocate"
    pool_size = 40
    shape = (20, 200)
    labels = ["allocate.uniform", "allocate.gaussian_sop"]

    def make_pool(self, lib, seed):
        n, m = self.shape
        pool = []
        for j in range(self.pool_size):
            dist, sop = ("uniform", False) if j % 2 == 0 else ("gaussian", True)
            spec = lib.generator.GenSpec(n, m, dist, sop, unit_seed(seed, j))
            text = lib.core.serialize_instance(lib.generator.generate(spec))
            pool.append([(self.labels[j % 2], text)])
        return pool

    def warm_up(self, lib):
        spec = lib.generator.GenSpec(4, 12, "uniform", False, 0)
        self._one(lib, lib.core.serialize_instance(lib.generator.generate(spec)))

    @staticmethod
    def _one(lib, text):
        instance = lib.core.parse_instance(text)
        allocation = lib.algorithms.efl_allocate(instance)
        report = lib.fairness.is_efl(instance, allocation)
        # Keep only the instance's shape, so memory does not grow with the
        # number of items run.
        shape = (instance.num_agents, instance.num_goods)
        return shape, allocation, report, lib.core.serialize_allocation(allocation)

    def run(self, lib, item):
        return _timed(item, lambda payload: self._one(lib, payload))

    def check(self, lib, payload, result):
        (n, m), allocation, report, text = result
        errors = []
        if allocation.num_agents != n:
            errors.append(f"{allocation.num_agents} bundles for {n} agents")
        if not allocation.is_complete(m):
            errors.append("allocation is not complete")
        if not report.holds:
            errors.append(f"is_efl fails: {report.to_doc()}")
        if lib.core.parse_allocation(text).bundles != allocation.bundles:
            errors.append("serialize -> parse changed the bundles")
        return errors

    def fields(self, result):
        _, _, report, text = result
        return {"allocation": text, "efl": report.holds}


def _value(instance, agent, goods):
    row = instance.valuations[agent]
    return sum((row[g] for g in goods), Fraction(0))


def witness_errors(instance, allocation, report, group):
    """Re-evaluate a failed report's witness with plain Fraction sums.

    The witness must name an agent of ``group`` whose own bundle is worth
    ``lhs``, and a partition of the group's pooled goods into len(group)
    parts whose worst part is worth ``rhs`` > ``lhs`` to that agent.
    """
    w = report.witness
    if w is None:
        return [f"{report.notion.value} fails without a witness"]
    errors = []
    if w.agent not in group:
        errors.append(f"witness agent {w.agent} outside group {group}")
        return errors
    if w.lhs != _value(instance, w.agent, allocation.bundles[w.agent]):
        errors.append(f"witness lhs {w.lhs} is not the agent's own value")
    pooled = frozenset().union(*(allocation.bundles[j] for j in group))
    parts = w.partition or ()
    if (len(parts) != len(group) or frozenset().union(*parts) != pooled
            or sum(len(p) for p in parts) != len(pooled)):
        errors.append("witness partition does not partition the pooled goods")
    elif min(_value(instance, w.agent, p) for p in parts) != w.rhs:
        errors.append(f"witness partition is not worth rhs {w.rhs}")
    if not w.lhs < w.rhs:
        errors.append(f"witness does not violate: {w.lhs} >= {w.rhs}")
    return errors


def _report_fields(report):
    doc = report.to_doc()
    doc.get("witness", {}).pop("partition", None)  # not unique; re-evaluated instead
    return doc


class Audit:
    """is_mms, is_pmms, is_gmms and gmms_factor on a fixed EFL allocation of
    one (4, 13) and one (7, 11) uniform instance per item."""

    name = "audit"
    pool_size = 256
    shapes = ((4, 13), (7, 11))
    labels = [f"audit.n{n}m{m}" for n, m in shapes]

    def make_pool(self, lib, seed):
        pool, j = [], 0
        for _ in range(self.pool_size):
            item = []
            for label, (n, m) in zip(self.labels, self.shapes):
                spec = lib.generator.GenSpec(n, m, "uniform", False, unit_seed(seed, j))
                instance = lib.generator.generate(spec)
                item.append((label, (instance, lib.algorithms.efl_allocate(instance))))
                j += 1
            pool.append(item)
        return pool

    def warm_up(self, lib):
        instance = lib.generator.generate(lib.generator.GenSpec(3, 6, "uniform", False, 0))
        self._one(lib, (instance, lib.algorithms.efl_allocate(instance)))

    @staticmethod
    def _one(lib, payload):
        instance, allocation = payload
        f = lib.fairness
        return (f.is_mms(instance, allocation), f.is_pmms(instance, allocation),
                f.is_gmms(instance, allocation), f.gmms_factor(instance, allocation))

    def run(self, lib, item):
        return _timed(item, lambda payload: self._one(lib, payload))

    def check(self, lib, payload, result):
        instance, allocation = payload
        mms_r, pmms_r, gmms_r, factor = result
        everyone = tuple(range(instance.num_agents))
        errors = []
        if not mms_r.holds:
            errors += witness_errors(instance, allocation, mms_r, everyone)
        if not pmms_r.holds:
            w = pmms_r.witness
            pair = (w.agent,) + tuple(w.other or ()) if w is not None else ()
            errors += witness_errors(instance, allocation, pmms_r, pair)
        if not gmms_r.holds:
            group = tuple(gmms_r.witness.other or ()) if gmms_r.witness else ()
            errors += witness_errors(instance, allocation, gmms_r, group)
        if gmms_r.holds != (factor is None or factor >= 1):
            errors.append(f"is_gmms={gmms_r.holds} but gmms_factor={factor}")
        if gmms_r.holds and not (mms_r.holds and pmms_r.holds):
            errors.append("GMMS holds but MMS or PMMS fails")
        return errors

    def fields(self, result):
        *reports, factor = result
        return {"reports": [_report_fields(r) for r in reports],
                "factor": None if factor is None else str(factor)}


WORKLOADS = {w.name: w for w in (Grid(), Allocate(), Audit())}


def digest(fields) -> str:
    """Short stable digest of JSON-able result fields."""
    text = json.dumps(fields, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]
