"""Per-layer tracing from outside the package.

A ``Tracer`` replaces chosen package functions with timing wrappers at every
module-level binding. The package imports several of them by name
(``from .maximin import maximin_share``), so rebinding only the defining
module would let those calls escape the trace.

Span functions record one span per call: name, parent span, item, start,
end. Leaf functions (called 10^5+ times per item) keep only a call count and
total time per (parent name, leaf name), and add their time to the open
parent span so that its self time excludes them.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter

SPAN_FUNCTIONS = (
    "core.parse_instance", "core.serialize_allocation", "generator.generate",
    "cli.experiment_row", "algorithms.efl_allocate",
    "algorithms.exact_gmms_search", "fairness.is_mms", "fairness.is_pmms",
    "fairness.is_gmms", "fairness.gmms_factor", "fairness.is_efl",
    "maximin.mms", "maximin.gmms_threshold", "maximin.maximin_share",
)
LEAF_FUNCTIONS = ("core.bundle_value", "maximin.maximin_exceeds")

# Span record fields.
NAME, PARENT, ITEM, START, END, LEAF_S = range(6)


def _observe_search(counters, args, result):
    counters["algorithms.exact_gmms_search.examined"] += result.examined
    counters["algorithms.exact_gmms_search.found"] += result.status == "found"


def _observe_share(counters, args, result):
    counters["maximin.maximin_share.goods"] += len(args[2])


def _observe_exceeds(counters, args, result):
    counters["maximin.maximin_exceeds.true"] += bool(result)


OBSERVERS = {
    "algorithms.exact_gmms_search": _observe_search,
    "maximin.maximin_share": _observe_share,
    "maximin.maximin_exceeds": _observe_exceeds,
}


class Tracer:
    """Wraps package functions while installed; keeps spans in memory."""

    def __init__(self):
        self.spans = []          # [name, parent index or -1, item, start, end, leaf_s]
        self.leaves = defaultdict(lambda: [0, 0.0])  # (parent name, leaf) -> [calls, s]
        self.counters = defaultdict(int)
        self.item = -1
        self._stack = []
        self._restore = []

    def install(self):
        modules = [m for name, m in sys.modules.items()
                   if name == "gmms" or name.startswith("gmms.")]
        for qualname in SPAN_FUNCTIONS + LEAF_FUNCTIONS:
            module_name, func_name = qualname.split(".")
            original = getattr(sys.modules[f"gmms.{module_name}"], func_name)
            make = self._leaf if qualname in LEAF_FUNCTIONS else self._span
            wrapper = make(qualname, original, OBSERVERS.get(qualname))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._restore.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def _span(self, name, fn, observe):
        spans, stack, counters = self.spans, self._stack, self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, stack[-1] if stack else -1, self.item, 0.0, 0.0, 0.0]
            spans.append(record)
            stack.append(len(spans) - 1)
            record[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = perf_counter()
                stack.pop()
            if observe is not None:
                observe(counters, args, result)
            return result
        return wrapper

    def _leaf(self, name, fn, observe):
        spans, stack, leaves, counters = self.spans, self._stack, self.leaves, self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                if stack:
                    parent = spans[stack[-1]]
                    parent[LEAF_S] += dt
                    agg = leaves[(parent[NAME], name)]
                else:
                    agg = leaves[("-", name)]
                agg[0] += 1
                agg[1] += dt
            if observe is not None:
                observe(counters, args, result)
            return result
        return wrapper


def covered_length(intervals, lo, hi):
    """Length of the union of (start, end) intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans):
    """Per span: its duration minus what its child spans cover and minus
    the time of leaf calls made directly inside it; never negative."""
    children = defaultdict(list)
    for k, s in enumerate(spans):
        if s[PARENT] >= 0:
            children[s[PARENT]].append((s[START], s[END]))
    out = []
    for k, s in enumerate(spans):
        covered = covered_length(children.get(k, ()), s[START], s[END])
        out.append(max(0.0, s[END] - s[START] - covered - s[LEAF_S]))
    return out


def inclusive_times(spans):
    """Per name: total duration of its spans not nested in a span of the
    same name (so recursion is not counted twice)."""
    total = defaultdict(float)
    for s in spans:
        parent = s[PARENT]
        while parent >= 0 and spans[parent][NAME] != s[NAME]:
            parent = spans[parent][PARENT]
        if parent < 0:
            total[s[NAME]] += s[END] - s[START]
    return total
