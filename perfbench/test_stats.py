"""Self-test of the benchmark's statistics: python3 perfbench/test_stats.py"""

import os
import statistics
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import stats  # noqa: E402


class MedianQuartiles(unittest.TestCase):
    def test_median_odd_and_even(self):
        self.assertEqual(stats.median([3, 1, 2]), 2)
        self.assertEqual(stats.median([4, 1, 3, 2]), 2.5)

    def test_quartiles_match_statistics_quantiles(self):
        values = [7.0, 1.0, 3.0, 9.0, 5.0, 2.0, 8.0, 4.0, 6.0, 10.0]
        q = statistics.quantiles(values, n=4)
        self.assertEqual(stats.quartiles(values), (q[0], q[2]))
        # Exclusive method on 1..10: q1 = 2.75, q3 = 8.25.
        self.assertAlmostEqual(stats.quartiles(values)[0], 2.75)
        self.assertAlmostEqual(stats.quartiles(values)[1], 8.25)

    def test_spread_is_iqr_over_median(self):
        values = [float(v) for v in range(1, 11)]
        self.assertAlmostEqual(stats.spread(values), (8.25 - 2.75) / 5.5)
        self.assertEqual(stats.spread([2.0] * 10), 0.0)


class Tail(unittest.TestCase):
    def test_highest_percentile_with_ten_beyond(self):
        values = list(range(1, 101))  # 1..100
        pct, value = stats.tail(values)
        self.assertEqual(pct, 90.0)
        self.assertEqual(value, 90)
        self.assertEqual(sum(v > value for v in values), 10)

    def test_unsorted_input_and_odd_count(self):
        values = [float(v) for v in reversed(range(25))]  # 24..0
        pct, value = stats.tail(values)
        self.assertAlmostEqual(pct, 60.0)
        self.assertEqual(value, 14.0)
        self.assertEqual(sum(v > value for v in values), 10)

    def test_smallest_sample_that_has_a_tail(self):
        pct, value = stats.tail(list(range(11)))
        self.assertAlmostEqual(pct, 100.0 / 11)
        self.assertEqual(value, 0)

    def test_too_few_samples(self):
        with self.assertRaises(ValueError):
            stats.tail(list(range(10)))


class WindowedTail(unittest.TestCase):
    def test_short_run_is_one_window(self):
        values = list(range(1, 101))
        self.assertEqual(stats.windowed_tail(values), (90.0, 90, 1))

    def test_median_over_windows_ignores_one_stall(self):
        window = list(range(1, 101))  # tail p90 = 90
        stalled = window[:85] + [900] * 10 + [1000] * 5  # window tail 900
        values = window + stalled + window
        pct, value, k = stats.windowed_tail(values, window=100)
        self.assertEqual((pct, value, k), (90.0, 90, 3))

    def test_remainder_joins_the_last_window(self):
        values = list(range(250))
        pct, value, k = stats.windowed_tail(values, window=100)
        self.assertEqual(k, 2)
        self.assertEqual(pct, 92.0)
        # windows 0..124 (tail 114) and 125..249 (tail 239)
        self.assertEqual(value, (114 + 239) / 2)


class BoundComparison(unittest.TestCase):
    def test_worse_by_direction(self):
        self.assertAlmostEqual(stats.worse_by(100, 110, "lower"), 0.10)
        self.assertAlmostEqual(stats.worse_by(100, 90, "lower"), -0.10)
        self.assertAlmostEqual(stats.worse_by(100, 90, "higher"), 0.10)
        self.assertAlmostEqual(stats.worse_by(100, 110, "higher"), -0.10)
        with self.assertRaises(ValueError):
            stats.worse_by(1, 2, "faster")

    def test_regressed_uses_medians_and_bound(self):
        base = [100, 101, 99, 100, 150]  # median 100
        self.assertFalse(stats.regressed(base, [109, 108, 110], 0.10, "lower"))
        self.assertTrue(stats.regressed(base, [112, 111, 113], 0.10, "lower"))
        self.assertTrue(stats.regressed(base, [85, 88, 86], 0.10, "higher"))
        self.assertFalse(stats.regressed(base, [95, 91, 93], 0.10, "higher"))

    def test_exactly_at_bound_is_not_a_regression(self):
        self.assertFalse(stats.regressed([100], [125], 0.25, "lower"))


if __name__ == "__main__":
    unittest.main()
