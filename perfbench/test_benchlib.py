"""Self-tests of the benchmark's own logic.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

Covers the percentile rule, self-time arithmetic, metric-name validation
(and that BENCHMARK.json matches benchlib's tables), op-stream determinism
for a fixed seed, and that run.py fails cleanly without the repository's
sources.
"""

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import benchlib  # noqa: E402


class PercentileRuleTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(benchlib.percentile(values, 50), 50)
        self.assertEqual(benchlib.percentile(values, 90), 90)
        self.assertEqual(benchlib.percentile(values, 99), 99)
        self.assertEqual(benchlib.percentile([7.0], 99), 7.0)

    def test_highest_percentile_with_ten_samples_beyond(self):
        self.assertIsNone(benchlib.tail_percentile(19))
        self.assertEqual(benchlib.tail_percentile(20), 50)
        self.assertEqual(benchlib.tail_percentile(99), 50)
        self.assertEqual(benchlib.tail_percentile(100), 90)
        self.assertEqual(benchlib.tail_percentile(999), 90)
        self.assertEqual(benchlib.tail_percentile(1000), 99)
        self.assertEqual(benchlib.tail_percentile(9999), 99)
        self.assertEqual(benchlib.tail_percentile(10000), 99.9)
        self.assertEqual(benchlib.samples_beyond(1000, 99), 10)
        self.assertEqual(benchlib.samples_beyond(100, 90), 10)

    def test_each_workload_reaches_its_tail_percentile(self):
        for name, spec in benchlib.WORKLOADS.items():
            self.assertGreaterEqual(
                benchlib.tail_percentile(spec["min_ops"]), spec["tail_pct"],
                name)


class SelfTimeTest(unittest.TestCase):
    def test_children_are_subtracted_once_and_clipped(self):
        spans = [
            ["engine.solve", 0, 100, -1, 0],
            ["a.x", 10, 30, 0, 0],     # covered 10..30
            ["a.y", 20, 50, 0, 0],     # overlaps: adds 30..50
            ["a.z", 90, 120, 0, 0],    # clipped to 90..100
            ["b.w", 25, 28, 2, 0],     # grandchild: only its parent pays
        ]
        self.assertEqual(benchlib.self_times(spans), [50, 20, 27, 30, 3])

    def test_leaf_self_time_is_its_duration(self):
        self.assertEqual(benchlib.self_times([["x", 5, 9, -1, 3]]), [4])


class MetricTablesTest(unittest.TestCase):
    def test_tables_obey_the_contract(self):
        self.assertEqual(benchlib.validate_metric_tables(), [])

    def test_benchmark_json_matches_tables(self):
        benchmark = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual(
            benchlib.validate_metric_tables(benchmark=benchmark), [])

    def test_bad_names_units_and_bounds_are_caught(self):
        e2e = list(benchlib.END_TO_END)
        bad = [
            e2e + [("bad name", "s", "lower", 0.1)],
            e2e + [("x" * 65, "s", "lower", 0.1)],
            e2e + [("ok_name", "no spaces", "lower", 0.1)],
            e2e + [("ok_name", "s", "lower", 0.3)],
            e2e + [("ok_name", "s", "sideways", 0.1)],
            e2e + [e2e[1]],
            [m for m in e2e if m[0] != "setup_s"],
        ]
        for table in bad:
            self.assertNotEqual(
                benchlib.validate_metric_tables(end_to_end=table), [], table)


class OpStreamTest(unittest.TestCase):
    def test_inputs_are_a_pure_function_of_the_seed(self):
        for name in benchlib.WORKLOADS:
            first = benchlib.make_inputs(name, 7)
            self.assertEqual(first, benchlib.make_inputs(name, 7), name)
            self.assertNotEqual(first, benchlib.make_inputs(name, 8), name)

    def test_oneshot_alternates_in_equal_shares(self):
        ops = benchlib.op_stream("oneshot-paper", 3)
        for i in range(0, len(ops), 2):
            self.assertEqual(sorted([ops[i][0], ops[i + 1][0]]),
                             ["easyim", "osim"])

    def test_serving_requests_are_in_range(self):
        spec = benchlib.WORKLOADS["serving-zipf"]
        ops = benchlib.op_stream("serving-zipf", 3)
        self.assertEqual(len(ops), spec["stream"])
        for tenant, model, k in ops:
            self.assertLess(int(tenant), spec["tenants"])
            self.assertIn(model, spec["models"])
            self.assertIn(int(k), spec["ks"])
        # Zipf: tenant 0 is the most requested.
        counts = [sum(op[0] == str(t) for op in ops)
                  for t in range(spec["tenants"])]
        self.assertEqual(counts, sorted(counts, reverse=True))


class MetricsFromRawTest(unittest.TestCase):
    RAW = {
        "attempted": 100, "failed": 0, "problems": [],
        "setup_s": [0.3, 0.1, 0.2], "latency_ms": [float(i) for i in
                                                   range(1, 101)],
        "measured_s": 10.0, "cpu_s": 5.0, "peak_rss_mb": 20.0,
        "answer_spread": 42.0, "answers_scored": 2,
        "spans": [["harness.op", 0, 10_000_000, -1, 0],
                  ["engine.solve", 1_000_000, 9_000_000, 0, 0]],
        "counters": [[0, "engine.select_ms", 7.0]],
    }

    def test_end_to_end(self):
        values, detail = benchlib.end_to_end_metrics(self.RAW, "oneshot-paper")
        self.assertEqual(set(values), {m[0] for m in benchlib.END_TO_END})
        self.assertEqual(values["setup_s"], 0.2)
        self.assertEqual(values["ops_per_s"], 10.0)
        self.assertEqual(values["latency_tail_ms"], 90.0)
        self.assertEqual(values["cpu_s_per_op"], 0.05)
        self.assertEqual(detail["failed_frac"], 0.0)

    def test_per_layer(self):
        values = benchlib.per_layer_metrics(self.RAW, self.RAW)
        self.assertEqual(list(values), [m[0] for m in benchlib.PER_LAYER])
        self.assertEqual(values["engine.solve_ms"], 8.0)
        self.assertEqual(values["engine.self_ms"], 0.08)
        self.assertEqual(values["harness.self_ms"], 0.02)
        self.assertEqual(values["trace.overhead_frac"], 0.0)


class RunWithoutSourcesTest(unittest.TestCase):
    @unittest.skipUnless(shutil.which("cmake"), "needs cmake")
    def test_fails_without_printing_a_result(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(HERE, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(HERE.parent / "BENCHMARK.json", tmp)
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "serving-zipf", "--seed", "1", "--seconds", "1",
                 "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=170)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
