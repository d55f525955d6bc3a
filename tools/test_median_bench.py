"""Tests for median_bench.py: repetition collapse, aggregate filtering."""

import json
import os
import tempfile
import unittest

import median_bench


def entry(name, cpu, run_type="iteration"):
    e = {"name": name, "cpu_time": cpu, "time_unit": "ns"}
    if run_type != "iteration":
        e["run_type"] = run_type
    return e


class MedianBenchTest(unittest.TestCase):
    def test_picks_median_repetition(self):
        out = median_bench.median_entries(
            [entry("BM_A", t) for t in (5.0, 1.0, 3.0, 9.0, 7.0)])
        self.assertEqual([(e["name"], e["cpu_time"]) for e in out],
                         [("BM_A", 5.0)])

    def test_even_count_takes_lower_median(self):
        out = median_bench.median_entries(
            [entry("BM_A", t) for t in (4.0, 2.0, 8.0, 6.0)])
        self.assertEqual(out[0]["cpu_time"], 4.0)

    def test_aggregates_dropped_and_names_sorted(self):
        out = median_bench.median_entries([
            entry("BM_B", 2.0),
            entry("BM_A_mean", 99.0, run_type="aggregate"),
            entry("BM_A", 1.0),
        ])
        self.assertEqual([e["name"] for e in out], ["BM_A", "BM_B"])

    def test_main_round_trips_context(self):
        with tempfile.TemporaryDirectory() as d:
            raw = os.path.join(d, "raw.json")
            out = os.path.join(d, "out.json")
            with open(raw, "w") as f:
                json.dump({"context": {"host_name": "vm"},
                           "benchmarks": [entry("BM_A", t)
                                          for t in (3.0, 1.0, 2.0)]}, f)
            self.assertEqual(median_bench.main([raw, out]), 0)
            with open(out) as f:
                doc = json.load(f)
            self.assertEqual(doc["context"]["host_name"], "vm")
            self.assertEqual(len(doc["benchmarks"]), 1)
            self.assertEqual(doc["benchmarks"][0]["cpu_time"], 2.0)

    def test_union_batch_names_collapse_like_any_other(self):
        # The baseline-refresh job feeds these exact names through the
        # collapse; pin them so a rename shows up here, not as a silently
        # skipped --strict gate.
        out = median_bench.median_entries(
            [entry("BM_UnionCheckBatch/1", t) for t in (3.0, 1.0, 2.0)]
            + [entry("BM_FindViolationCanonical", 5.0)])
        self.assertEqual([(e["name"], e["cpu_time"]) for e in out],
                         [("BM_FindViolationCanonical", 5.0),
                          ("BM_UnionCheckBatch/1", 2.0)])

    def test_bad_argv_is_usage_error(self):
        self.assertEqual(median_bench.main(["only-one"]), 2)


if __name__ == "__main__":
    unittest.main()
