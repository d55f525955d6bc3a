"""Tests for compare_bench.py: exit codes, one-sided skips, tolerances.

unittest-style so it runs under `python3 -m unittest` or `python3 -m pytest`
(CI uses pytest); stdlib only, like the tool itself.
"""

import io
import json
import os
import re
import tempfile
import unittest
from contextlib import redirect_stdout

import compare_bench


def bench_json(times):
    """A minimal google-benchmark JSON document: {name: cpu_time_ns}."""
    return {
        "benchmarks": [
            {"name": name, "cpu_time": t, "time_unit": "ns"}
            for name, t in times.items()
        ]
    }


class CompareBenchTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.addCleanup(self.dir.cleanup)

    def write(self, filename, doc):
        path = os.path.join(self.dir.name, filename)
        with open(path, "w") as f:
            json.dump(doc, f)
        return path

    def run_main(self, baseline, current, *extra):
        base = self.write("base.json", bench_json(baseline))
        cur = self.write("cur.json", bench_json(current))
        out = io.StringIO()
        with redirect_stdout(out):
            rc = compare_bench.main([base, cur, *extra])
        return rc, out.getvalue()

    def test_identical_runs_pass(self):
        rc, out = self.run_main({"BM_A": 100.0}, {"BM_A": 100.0})
        self.assertEqual(rc, 0)
        self.assertIn("all 1 compared", out)

    def test_real_regression_fails(self):
        rc, out = self.run_main({"BM_A": 100.0}, {"BM_A": 250.0})
        self.assertEqual(rc, 1)
        self.assertIn("FAIL", out)
        self.assertIn("2.50x", out)

    def test_exactly_at_threshold_passes(self):
        # The contract is strictly-greater-than: 2.00x is not a regression.
        rc, _ = self.run_main({"BM_A": 100.0}, {"BM_A": 200.0})
        self.assertEqual(rc, 0)

    def test_just_over_threshold_fails(self):
        rc, _ = self.run_main({"BM_A": 100.0}, {"BM_A": 201.0})
        self.assertEqual(rc, 1)

    def test_custom_threshold(self):
        rc, _ = self.run_main({"BM_A": 100.0}, {"BM_A": 140.0},
                              "--threshold", "1.5")
        self.assertEqual(rc, 0)
        rc, _ = self.run_main({"BM_A": 100.0}, {"BM_A": 160.0},
                              "--threshold", "1.5")
        self.assertEqual(rc, 1)

    def test_baseline_only_name_warns_and_skips(self):
        rc, out = self.run_main({"BM_A": 100.0, "BM_GONE": 1.0},
                                {"BM_A": 100.0})
        self.assertEqual(rc, 0)
        self.assertIn("warn BM_GONE", out)
        self.assertIn("skipped", out)

    def test_strict_fails_on_baseline_only_name(self):
        rc, out = self.run_main({"BM_A": 100.0, "BM_GONE": 1.0},
                                {"BM_A": 100.0}, "--strict")
        self.assertEqual(rc, 1)
        self.assertIn("FAIL BM_GONE", out)
        self.assertIn("missing from current run (--strict)", out)

    def test_strict_passes_when_all_baseline_names_present(self):
        rc, out = self.run_main({"BM_A": 100.0}, {"BM_A": 100.0}, "--strict")
        self.assertEqual(rc, 0)
        self.assertIn("all 1 compared", out)

    def test_strict_still_allows_current_only_names(self):
        # --strict gates the baseline set only; a fresh benchmark that is not
        # yet in the committed baseline must not fail the ratchet.
        rc, out = self.run_main({"BM_A": 100.0},
                                {"BM_A": 100.0, "BM_NEW": 9e9}, "--strict")
        self.assertEqual(rc, 0)
        self.assertIn("new  BM_NEW", out)

    def test_strict_reports_regressions_and_missing_together(self):
        rc, out = self.run_main({"BM_A": 100.0, "BM_GONE": 1.0},
                                {"BM_A": 300.0}, "--strict")
        self.assertEqual(rc, 1)
        self.assertIn("FAIL BM_A", out)
        self.assertIn("FAIL BM_GONE", out)
        self.assertIn("2 failure(s)", out)

    def test_current_only_name_reported_not_failed(self):
        rc, out = self.run_main({"BM_A": 100.0},
                                {"BM_A": 100.0, "BM_NEW": 9e9})
        self.assertEqual(rc, 0)
        self.assertIn("new  BM_NEW", out)

    def test_no_names_in_common_passes_with_warning(self):
        rc, out = self.run_main({"BM_A": 100.0}, {"BM_B": 100.0})
        self.assertEqual(rc, 0)
        self.assertIn("nothing compared", out)

    def test_empty_baseline_is_an_error(self):
        rc, out = self.run_main({}, {"BM_A": 100.0})
        self.assertEqual(rc, 2)
        self.assertIn("no benchmarks in baseline", out)

    def test_improvement_passes(self):
        rc, out = self.run_main({"BM_A": 100.0}, {"BM_A": 10.0})
        self.assertEqual(rc, 0)
        self.assertIn("0.10x", out)

    def test_aggregate_entries_ignored(self):
        base = self.write("base.json", bench_json({"BM_A": 100.0}))
        doc = bench_json({"BM_A": 100.0})
        doc["benchmarks"].append({
            "name": "BM_A_mean", "cpu_time": 9e9,
            "time_unit": "ns", "run_type": "aggregate",
        })
        cur = self.write("cur.json", doc)
        out = io.StringIO()
        with redirect_stdout(out):
            rc = compare_bench.main([base, cur])
        self.assertEqual(rc, 0)
        self.assertNotIn("BM_A_mean", out.getvalue())

    def test_zero_baseline_time_is_a_regression_when_current_nonzero(self):
        rc, _ = self.run_main({"BM_A": 0.0}, {"BM_A": 5.0})
        self.assertEqual(rc, 1)


class SummaryTableTest(unittest.TestCase):
    """format_summary and the --summary flag: the CI job-summary table."""

    def times(self, d):
        return {name: (t, "ns") for name, t in d.items()}

    def test_top_movers_ranked_and_truncated(self):
        baseline = {f"BM_{i}": 100.0 for i in range(8)}
        # BM_0..BM_7 at ratios 0.1, 0.2, ..., 0.8 — all improvements.
        current = {f"BM_{i}": 100.0 * (i + 1) / 10 for i in range(8)}
        md = compare_bench.format_summary(
            self.times(baseline), self.times(current))
        self.assertIn("Top 5 improvements", md)
        # Best five make the table, in ratio order; sixth-best does not.
        for i in range(5):
            self.assertIn(f"`BM_{i}`", md)
        self.assertNotIn("`BM_5`", md)
        self.assertLess(md.index("`BM_0`"), md.index("`BM_1`"))
        self.assertIn("0.10x", md)

    def test_regressions_ranked_worst_first(self):
        baseline = {"BM_A": 100.0, "BM_B": 100.0, "BM_C": 100.0}
        current = {"BM_A": 150.0, "BM_B": 300.0, "BM_C": 100.0}
        md = compare_bench.format_summary(
            self.times(baseline), self.times(current))
        self.assertIn("Top 5 regressions", md)
        self.assertLess(md.index("`BM_B`"), md.index("`BM_A`"))
        # Unchanged benchmarks (ratio == 1) are neither movers nor losers.
        self.assertNotIn("`BM_C`", md)

    def test_one_sided_names_left_out(self):
        md = compare_bench.format_summary(
            self.times({"BM_A": 100.0, "BM_GONE": 1.0}),
            self.times({"BM_A": 50.0, "BM_NEW": 1.0}))
        self.assertNotIn("BM_GONE", md)
        self.assertNotIn("BM_NEW", md)

    def test_empty_sections_say_none(self):
        md = compare_bench.format_summary(
            self.times({"BM_A": 100.0}), self.times({"BM_A": 100.0}))
        self.assertEqual(md.count("_none_"), 2)

    def test_summary_flag_appends_to_file(self):
        dir = tempfile.TemporaryDirectory()
        self.addCleanup(dir.cleanup)

        def write(filename, doc):
            path = os.path.join(dir.name, filename)
            with open(path, "w") as f:
                json.dump(doc, f)
            return path

        base = write("base.json", bench_json({"BM_A": 100.0, "BM_B": 100.0}))
        cur = write("cur.json", bench_json({"BM_A": 40.0, "BM_B": 100.0}))
        summary = os.path.join(dir.name, "summary.md")
        with open(summary, "w") as f:
            f.write("prior content\n")
        out = io.StringIO()
        with redirect_stdout(out):
            rc = compare_bench.main([base, cur, "--summary", summary])
        self.assertEqual(rc, 0)
        with open(summary) as f:
            text = f.read()
        # Appended, GITHUB_STEP_SUMMARY-style, not overwritten.
        self.assertTrue(text.startswith("prior content\n"))
        self.assertIn("## Benchmark comparison", text)
        self.assertIn("`BM_A`", text)
        self.assertIn("0.40x", text)


class BaselineCoverageTest(unittest.TestCase):
    """The committed engine-perf baseline must line up with the CI filter.

    A baseline entry whose name no longer matches the perf-smoke
    --benchmark_filter would silently lose its regression gate: --strict
    only flags names missing from the *run*, and the run only contains
    names the filter let through. Keep FILTER in sync with the perf-smoke
    and baseline-refresh jobs in .github/workflows/ci.yml.
    """

    FILTER = re.compile(
        r"BM_EvalPrepared|BM_EvalCompileEveryCall|BM_UnionCheckBatch|"
        r"BM_MonotonicityCheck|BM_FindViolation|BM_Ladder|BM_RunToQuiescence|"
        r"BM_ToInstance|BM_DedupInsert|BM_FuzzClassifyProgram")

    def baseline_names(self):
        path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            os.pardir, "bench", "baselines",
                            "BENCH_engine_perf.json")
        with open(path) as f:
            return [e["name"] for e in json.load(f)["benchmarks"]]

    def test_every_baseline_name_matches_ci_filter(self):
        for name in self.baseline_names():
            self.assertRegex(name, self.FILTER)

    def test_deleted_benchmarks_left_the_baseline(self):
        # --strict fails on a baseline name the run no longer produces, so
        # the benchmarks of deleted code paths — the overlay route and the
        # morsel lanes — must leave with them.
        names = set(self.baseline_names())
        self.assertNotIn("BM_EvalIncrementalOverlay/8", names)
        self.assertNotIn("BM_EvalIncrementalOverlay/32", names)
        for lanes in (1, 2, 8):
            self.assertNotIn(
                f"BM_EvalPreparedThreads/{lanes}/process_time/real_time",
                names)
        self.assertIn("BM_FindViolationCanonical", names)


if __name__ == "__main__":
    unittest.main()
