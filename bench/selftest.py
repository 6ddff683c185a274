"""Self-test of the benchmark's own arithmetic and tracing.

    python3 bench/selftest.py

Checks self time and the tail percentile on synthetic spans and samples,
the calibration scale, and that the tracer wraps every binding of a
function and restores them.
"""

import sys
import unittest

import calibration
import run
import tracing


def span(name, parent, start, end, leaf_s=0.0):
    return [name, parent, 0, start, end, leaf_s]


class SelfTime(unittest.TestCase):
    def test_covered_length_merges_and_clips(self):
        self.assertEqual(tracing.covered_length([], 0, 10), 0.0)
        self.assertEqual(tracing.covered_length([(1, 3), (2, 5)], 0, 10), 4)
        self.assertEqual(tracing.covered_length([(1, 5), (2, 3)], 0, 10), 4)
        self.assertEqual(tracing.covered_length([(-2, 1), (8, 12)], 0, 10), 3)
        self.assertEqual(tracing.covered_length([(4, 6), (1, 2)], 0, 10), 3)

    def test_self_time_subtracts_children_and_leaves(self):
        spans = [
            span("root", -1, 0.0, 10.0, leaf_s=1.0),
            span("a", 0, 1.0, 3.0),
            span("b", 0, 2.0, 5.0, leaf_s=0.5),  # overlaps a
            span("c", 0, 8.0, 12.0),             # runs past the parent
            span("d", 2, 2.5, 3.5),
        ]
        got = tracing.self_times(spans)
        # root: 10 - |[1,5] u [8,10]| - 1 = 10 - 6 - 1
        self.assertEqual(got, [3.0, 2.0, 1.5, 4.0, 1.0])

    def test_self_time_never_negative(self):
        spans = [span("p", -1, 0.0, 1.0, leaf_s=2.0)]
        self.assertEqual(tracing.self_times(spans), [0.0])

    def test_inclusive_time_counts_recursion_once(self):
        spans = [
            span("f", -1, 0.0, 4.0),
            span("g", 0, 1.0, 3.0),
            span("f", 1, 1.5, 2.5),  # f inside g inside f
            span("f", -1, 5.0, 6.0),
        ]
        got = tracing.inclusive_times(spans)
        self.assertEqual(got["f"], 5.0)
        self.assertEqual(got["g"], 2.0)


class Tail(unittest.TestCase):
    def test_ten_beyond(self):
        self.assertEqual(run.tail(list(range(1, 26))), (15, 60.0, 10))
        self.assertEqual(run.tail(list(range(100, 0, -1))), (90, 90.0, 10))

    def test_smallest_sample_with_ten_beyond(self):
        value, pct, beyond = run.tail(list(range(11)))
        self.assertEqual((value, beyond), (0, 10))
        self.assertAlmostEqual(pct, 100 / 11)

    def test_too_few_samples_give_the_maximum(self):
        self.assertEqual(run.tail([3.0, 1.0, 2.0]), (3.0, 100.0, 0))


class Scale(unittest.TestCase):
    def test_kernel_keeps_its_share_and_scales_by_the_median(self):
        c = calibration.Calibration()
        c.keep_share(0.05)
        self.assertGreaterEqual(c.total, calibration.KERNEL_SHARE * 0.05)
        c.samples = [0.02, 0.005, 0.04]
        self.assertAlmostEqual(c.scale(), calibration.KERNEL_REF_S / 0.02)


class Wrapping(unittest.TestCase):
    def test_every_binding_is_wrapped_and_restored(self):
        sys.path.insert(0, run.SRC)
        lib = run.load_library()
        original = lib.maximin.maximin_share
        instance = lib.generator.generate(lib.generator.GenSpec(3, 6, seed=1))
        allocation = lib.algorithms.efl_allocate(instance)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            self.assertIsNot(lib.fairness.maximin_share, original)
            self.assertIs(lib.fairness.maximin_share, lib.maximin.maximin_share)
            factor = lib.fairness.gmms_factor(instance, allocation)
        finally:
            tracer.uninstall()
        self.assertIs(lib.fairness.maximin_share, original)
        self.assertEqual(factor, lib.fairness.gmms_factor(instance, allocation))
        names = [s[tracing.NAME] for s in tracer.spans]
        self.assertEqual(names[0], "fairness.gmms_factor")
        self.assertEqual(names.count("maximin.gmms_threshold"), 3)
        shares = [s for s in tracer.spans if s[tracing.NAME] == "maximin.maximin_share"]
        self.assertTrue(shares)
        for s in shares:
            self.assertEqual(tracer.spans[s[tracing.PARENT]][tracing.NAME],
                             "maximin.gmms_threshold")
        self.assertGreater(tracer.leaves[("fairness.gmms_factor", "core.bundle_value")][0], 0)


if __name__ == "__main__":
    unittest.main()
