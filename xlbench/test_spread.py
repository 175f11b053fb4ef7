"""Unit tests of spread.py's helpers: python3 -m unittest test_spread (from xlbench/)."""
import statistics
import unittest

from spread import iqr_share, parse_seeds, worse_by


class IqrShareTest(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [10.0, 12.0, 11.0, 13.0, 9.0, 10.5, 11.5, 12.5, 9.5, 10.0]
        q1, _, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(iqr_share(values), (q3 - q1) / statistics.median(values))

    def test_constant_values_have_no_spread(self):
        self.assertEqual(iqr_share([4.0] * 10), 0.0)

    def test_known_quartiles(self):
        # Exclusive method on 1..9: q1 = 2.5, q3 = 7.5, median 5.
        self.assertAlmostEqual(iqr_share(list(range(1, 10))), 1.0)

    def test_zero_median_is_infinite(self):
        self.assertEqual(iqr_share([-1.0, 0.0, 0.0, 1.0]), float("inf"))


class WorseByTest(unittest.TestCase):
    def test_direction(self):
        self.assertAlmostEqual(worse_by(100.0, 110.0, "lower"), 0.10)
        self.assertAlmostEqual(worse_by(100.0, 110.0, "higher"), -0.10)
        self.assertAlmostEqual(worse_by(100.0, 80.0, "higher"), 0.20)


class ParseSeedsTest(unittest.TestCase):
    def test_forms(self):
        self.assertEqual(parse_seeds("1-4"), [1, 2, 3, 4])
        self.assertEqual(parse_seeds("3,7,11"), [3, 7, 11])


if __name__ == "__main__":
    unittest.main()
