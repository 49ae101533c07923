"""Tests for the result-set statistics and verdicts in compare.py.

    python3 -m unittest discover -s flowbench -p 'test_*.py'
"""

import statistics
import unittest

from compare import change, failures, quartiles, report, spread, verdict, win_share


class QuartileTests(unittest.TestCase):
    def test_quartiles_match_the_statistics_module(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0]
        q1, med, q3 = quartiles(values)
        self.assertEqual([q1, med, q3], statistics.quantiles(values, n=4))
        self.assertEqual(med, statistics.median(values))

    def test_single_value_has_no_spread(self):
        self.assertEqual(quartiles([3.0]), (3.0, 3.0, 3.0))
        self.assertEqual(spread([3.0]), 0.0)

    def test_spread_is_quartile_distance_over_median(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
        q1, med, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(spread(values), (q3 - q1) / med)

    def test_zero_median(self):
        self.assertEqual(spread([0.0, 0.0, 0.0]), 0.0)
        self.assertEqual(spread([-1.0, 0.0, 1.0]), float("inf"))
        self.assertEqual(change([0.0, 0.0], [0.0, 0.0]), 0.0)

    def test_change_is_relative_to_the_base_median(self):
        self.assertAlmostEqual(change([10.0, 10.0, 10.0], [11.0, 11.0, 11.0]), 0.1)


class VerdictTests(unittest.TestCase):
    base = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]

    def test_same_distribution_is_no_worse(self):
        self.assertEqual(verdict(self.base, list(self.base), "lower", 0.1), "no worse")

    def test_small_slowdown_within_bound_is_no_worse(self):
        new = [v * 1.05 for v in self.base]
        self.assertEqual(verdict(self.base, new, "lower", 0.1), "no worse")

    def test_slowdown_beyond_bound_is_worse(self):
        new = [v * 1.2 for v in self.base]
        self.assertEqual(verdict(self.base, new, "lower", 0.1), "worse")

    def test_every_run_better_is_improved(self):
        new = [v * 0.9 for v in self.base]
        self.assertEqual(verdict(self.base, new, "lower", 0.1), "improved")
        self.assertEqual(verdict(self.base, new, "higher", 0.05), "worse")

    def test_direction_follows_better(self):
        new = [v * 1.2 for v in self.base]
        self.assertEqual(verdict(self.base, new, "higher", 0.1), "improved")

    def test_spread_above_bound_is_unresolved(self):
        noisy = [50.0, 150.0, 80.0, 120.0, 100.0, 60.0, 140.0, 90.0, 110.0, 100.0]
        shifted = [v * 1.5 for v in noisy]
        self.assertEqual(verdict(noisy, shifted, "lower", 0.1), "unresolved")
        self.assertEqual(verdict(self.base, noisy, "lower", 0.1), "unresolved")

    def test_overlapping_gain_beyond_base_spread_is_improved(self):
        new = list(self.base)
        new[0] = 80.0
        new[1:] = [v * 0.95 for v in self.base[1:]]
        new[2] = 120.0
        self.assertEqual(verdict(self.base, new, "lower", 0.25), "improved")

    def test_noisy_shift_without_consistent_wins_is_no_worse(self):
        base = [2.8, 3.0, 2.9, 3.1, 2.7, 3.0, 2.95, 2.85, 3.05, 2.9]
        new = [2.5, 2.85, 2.45, 3.0, 2.6, 2.9, 2.5, 2.75, 3.1, 2.65]
        self.assertLess(win_share(base, new, "lower"), 0.9)
        self.assertGreater(-change(base, new), spread(base))
        self.assertEqual(verdict(base, new, "lower", 0.25), "no worse")

    def test_win_share_counts_pairs_in_the_better_direction(self):
        self.assertEqual(win_share([2.0, 4.0], [1.0, 3.0], "lower"), 0.75)
        self.assertEqual(win_share([2.0, 4.0], [1.0, 3.0], "higher"), 0.25)


def result_set(scale, failed=0):
    """Workloads a and b, five seeds each, traced and untraced; b's
    values are multiplied by `scale`, and every untraced run of b
    reports `failed` failed operations."""
    runs = []
    for w in ("a", "b"):
        for i in range(5):
            for trace, metric in ((0, "wall_s"), (1, "cluster.map_s")):
                value = (10.0 + i * 0.01) * (scale if w == "b" else 1.0)
                runs.append({"workload": w, "seed": i, "trace": trace, "result": {
                    "correct": True, "attempted": 10,
                    "failed": failed if (w, trace) == ("b", 0) else 0,
                    "metrics": {metric: {"value": value, "unit": "s"}}}})
    return {"runs": runs}


BENCH = {
    "workloads": [{"name": "a"}, {"name": "b"}],
    "end_to_end": [{"name": "wall_s", "better": "lower", "bound": 0.1}],
}


class ReportTests(unittest.TestCase):
    def test_rows_are_grouped_per_workload_with_verdicts(self):
        lines = report(result_set(1.0), result_set(2.0), BENCH)
        self.assertEqual([l.split("  ")[0] for l in lines if l.startswith("==")],
                         ["== a (end-to-end)", "== b (end-to-end)",
                          "== a (per-layer)", "== b (per-layer)"])
        self.assertIn("failed ops base 0/100 new 0/100, failed-check runs base 0 new 0", lines[0])
        self.assertTrue(lines[1].endswith("  no worse"))
        self.assertTrue(lines[3].endswith("  worse"), lines[3])
        self.assertNotIn("no worse", lines[3])
        self.assertNotIn("bound", lines[5])

    def test_failures_sum_over_all_runs_of_a_workload(self):
        bad = result_set(1.0, failed=3)
        bad["runs"][-1]["result"]["correct"] = False
        self.assertEqual(failures(bad), {"a": (0, 100, 0), "b": (15, 100, 1)})

    def test_more_failures_overrides_an_improvement(self):
        # Failing runs skip work, so b looks twice as fast.
        lines = report(result_set(1.0), result_set(0.5, failed=2), BENCH)
        self.assertNotIn("MORE FAILURES", lines[0])
        self.assertTrue(lines[1].endswith("  no worse"))
        self.assertIn("failed ops base 0/100 new 10/100", lines[2])
        self.assertTrue(lines[2].endswith("  MORE FAILURES"), lines[2])
        self.assertTrue(lines[3].endswith("  more failures"), lines[3])
        self.assertNotIn("improved", "\n".join(lines))
        # The same failures on both sides compare as usual.
        lines = report(result_set(1.0, failed=2), result_set(0.5, failed=2), BENCH)
        self.assertTrue(lines[3].endswith("  improved"), lines[3])

    def test_more_runs_failing_their_checks_is_more_failures(self):
        new = result_set(1.0)
        new["runs"][-2]["result"]["correct"] = False
        lines = report(result_set(1.0), new, BENCH)
        self.assertTrue(lines[2].endswith("  MORE FAILURES"), lines[2])


if __name__ == "__main__":
    unittest.main()
