"""Checks the span arithmetic on a synthetic list of nested spans.

    python3 perfbench/test_spans.py
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import spans  # noqa: E402
from spans import Span  # noqa: E402

# One campaign of 2 iterations, 1000 ns long:
#   0 campaign.run                 0..1000
#   1   minimpi.launch            100..300   2 ranks, 150 us user, 50 us sys
#   2   solver.solve              300..350   10 nodes, sat
#   3   compi.session.checkpoint  400..600
#   4     obs.journal.flush       450..500
#   5   sandbox.fork_server       600..900   the child reports 0.1 us
#   6     sandbox.run_sandboxed   650..850   (cold fallback, nested)
#   7   minimpi.launch            900..950   4 ranks, 30 us user, 10 us sys
SYNTHETIC = [
    Span("campaign.run", -1, 0, 1000),
    Span("minimpi.launch", 0, 100, 300, 2, 150, 50),
    Span("solver.solve", 0, 300, 350, 10, 1, 0),
    Span("compi.session.checkpoint", 0, 400, 600),
    Span("obs.journal.flush", 3, 450, 500),
    Span("sandbox.fork_server", 0, 600, 900, 0.1),
    Span("sandbox.run_sandboxed", 5, 650, 850, 0.05),
    Span("minimpi.launch", 0, 900, 950, 4, 30, 10),
]


class SpanArithmetic(unittest.TestCase):
    def test_parse_round_trip(self):
        lines = ["%s %d %d %d %r %r %r" % tuple(s) for s in SYNTHETIC]
        self.assertEqual(spans.parse(lines + [""]), SYNTHETIC)

    def test_self_time_subtracts_direct_children_only(self):
        own = spans.self_times(SYNTHETIC)
        # root: 1000 - (200 + 50 + 200 + 300 + 50); the nested flush and
        # run_sandboxed belong to their own parents, not to the root.
        self.assertEqual(own[0], 200)
        self.assertEqual(own[3], 150)
        self.assertEqual(own[5], 100)
        self.assertEqual(own[6], 200)
        self.assertEqual(sum(own), 1000)

    def test_percentile_interpolates_between_order_statistics(self):
        self.assertEqual(spans.percentile([], 50), 0.0)
        self.assertEqual(spans.percentile([7], 99), 7)
        self.assertEqual(spans.percentile([4, 1, 3, 2], 50), 2.5)
        self.assertEqual(spans.percentile([4, 1, 3, 2], 0), 1)
        self.assertEqual(spans.percentile([4, 1, 3, 2], 100), 4)
        self.assertAlmostEqual(spans.percentile(list(range(101)), 99), 99)
        self.assertAlmostEqual(spans.percentile([0, 10], 99), 9.9)

    def test_layer_metrics(self):
        m = spans.layer_metrics(SYNTHETIC, iterations=2)
        self.assertAlmostEqual(m["minimpi.launch_share"], 0.25)
        self.assertAlmostEqual(m["minimpi.launch_us_p50"], 0.125)
        self.assertAlmostEqual(m["minimpi.launch_cpu_us_p50"], 120)
        self.assertAlmostEqual(m["minimpi.launch_sys_share"], 60 / 240)
        self.assertAlmostEqual(m["minimpi.ranks_per_launch"], 3)
        # Only the outer sandbox span counts; its overhead is its duration
        # (0.3 us) minus the 0.1 us the child reported.
        self.assertAlmostEqual(m["sandbox.run_share"], 0.3)
        self.assertAlmostEqual(m["sandbox.run_us_p99"], 0.3)
        self.assertAlmostEqual(m["sandbox.spawn_overhead_us_p50"], 0.2)
        self.assertAlmostEqual(m["sandbox.first_run_us"], 0.3)
        self.assertAlmostEqual(m["solver.calls_per_iter"], 0.5)
        self.assertAlmostEqual(m["solver.nodes_per_call"], 10)
        self.assertAlmostEqual(m["solver.sat_ratio"], 1)
        self.assertAlmostEqual(m["compi.session.share"], 0.2)
        self.assertAlmostEqual(m["compi.session.checkpoint_us_last"], 0.2)
        self.assertAlmostEqual(m["obs.journal.flush_share"], 0.05)
        self.assertAlmostEqual(m["compi.driver.residual_share"], 0.2)

    def test_layer_metrics_needs_one_root(self):
        with self.assertRaises(ValueError):
            spans.layer_metrics(SYNTHETIC[1:3], iterations=1)


if __name__ == "__main__":
    unittest.main()
