"""Unit tests for compare_bench.py's handling of repeated benchmarks.

    python3 -m unittest discover -s tools

stdlib only, like the script. Each case writes Google Benchmark JSON
snapshots into a temporary directory and runs the script's main on them.
"""

import contextlib
import io
import json
import tempfile
import unittest
from pathlib import Path

import compare_bench


def snapshot(times_ns, name="bm_kernel"):
    """A snapshot with one iteration entry per repetition of `name`, plus
    the aggregate rows --benchmark_repetitions writes after them."""
    runs = [{"name": name, "run_type": "iteration", "repetitions": len(times_ns),
             "repetition_index": i, "real_time": t, "time_unit": "ns"}
            for i, t in enumerate(times_ns)]
    mean = sum(times_ns) / len(times_ns)
    runs.append({"name": f"{name}_mean", "run_type": "aggregate",
                 "aggregate_name": "mean", "real_time": mean,
                 "time_unit": "ns"})
    return {"context": {"qkd_build_type": "Release", "qkd_cxx_flags": ""},
            "benchmarks": runs}


class CompareRepetitions(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.root = Path(self.dir.name)

    def tearDown(self):
        self.dir.cleanup()

    def compare(self, base_ns, cand_ns):
        """Runs compare_bench --strict on two snapshots; returns (exit
        status, printed report)."""
        files = []
        for label, times in (("base", base_ns), ("cand", cand_ns)):
            directory = self.root / label
            directory.mkdir()
            path = directory / "BENCH_bench_x.json"
            path.write_text(json.dumps(snapshot(times)))
            files.append(str(path))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = compare_bench.main(files + ["--strict"])
        return status, out.getvalue()

    def test_loads_every_repetition_and_skips_aggregates(self):
        path = self.root / "BENCH_bench_x.json"
        path.write_text(json.dumps(snapshot([200.0, 100.0, 900.0])))
        results, _ = compare_bench.load_snapshots(path)
        self.assertEqual(results, {("BENCH_bench_x", "bm_kernel"):
                                   [200.0, 100.0, 900.0]})

    def test_median_not_last_repetition_decides(self):
        # The last repetition is 4.5x the baseline and the mean 2.2x, but
        # the median is 5% slower: inside the 10% threshold.
        status, report = self.compare([200.0], [190.0, 210.0, 900.0])
        self.assertEqual(status, 0, report)
        self.assertIn("no regressions past threshold", report)

    def test_median_regression_fails_strict_with_spread(self):
        # The last repetition alone would read as a 50% improvement.
        status, report = self.compare([200.0, 190.0, 210.0],
                                      [250.0, 240.0, 100.0])
        self.assertEqual(status, 1, report)
        self.assertIn("REGRESSED", report)
        self.assertIn("+20.0%", report)
        self.assertIn("200ns [190-210, n=3] -> 240ns [100-250, n=3]", report)

    def test_single_repetition_prints_no_spread(self):
        status, report = self.compare([100.0], [150.0])
        self.assertEqual(status, 1, report)
        self.assertIn("(100ns -> 150ns)", report)

    def test_series_takes_each_args_median(self):
        # Two Args of three repetitions each: one row per Arg, the speedup
        # taken between medians (100 and 60 ns).
        runs = []
        for arg, times in ((1, [100.0, 150.0, 80.0]), (2, [60.0, 90.0, 48.0])):
            runs += snapshot(times, name=f"bm_sweep/{arg}")["benchmarks"]
        path = self.root / "BENCH_bench_x.json"
        path.write_text(json.dumps({"context": {}, "benchmarks": runs}))
        self.assertEqual(compare_bench.load_series(path, "bm_sweep"),
                         [(1, 100.0, None, True), (2, 60.0, None, True)])
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            self.assertEqual(compare_bench.print_series(path, "bm_sweep"), 0)
        self.assertIn("(2 points)", out.getvalue())
        self.assertIn("1.67x", out.getvalue())


if __name__ == "__main__":
    unittest.main()
