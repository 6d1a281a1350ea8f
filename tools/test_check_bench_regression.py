#!/usr/bin/env python3
"""Self-test for tools/check_bench_regression.py (the CI bench gate).

Drives the checker's command line on the committed BENCH_*.json baselines
and on edited copies of them. The expected verdicts are the per-bench
checker's that the bound table replaced, except for the cases marked
TIGHTENED: the table gates those and the per-bench checker did not.

Usage: python3 -m unittest discover -s tools -p 'test_*.py'
"""

import copy
import json
import pathlib
import subprocess
import sys
import tempfile
import unittest

TOOLS = pathlib.Path(__file__).resolve().parent
REPO = TOOLS.parent
CHECKER = TOOLS / "check_bench_regression.py"
DROP = object()


def baseline(name):
    return json.loads((REPO / name).read_text(encoding="utf-8"))


def edit(doc, path, value):
    """A copy of doc with the dotted path set to value (a callable maps the
    old value; DROP deletes it). Numeric parts index lists."""
    doc = copy.deepcopy(doc)
    *parents, last = [int(p) if p.isdigit() else p for p in path.split(".")]
    obj = doc
    for part in parents:
        obj = obj[part]
    if value is DROP:
        del obj[last]
    else:
        obj[last] = value(obj[last]) if callable(value) else value
    return doc


def scaled(factor):
    return lambda v: v * factor


class BenchGateTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)
        self.files = 0

    def dump(self, doc):
        self.files += 1
        path = pathlib.Path(self.tmp.name) / f"{self.files}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)

    def gate(self, base, *runs, flags=()):
        argv = [sys.executable, str(CHECKER), "--baseline", self.dump(base)]
        for run in runs:
            argv += ["--run", self.dump(run)]
        return subprocess.run(argv + list(flags), capture_output=True,
                              text=True, check=False)

    def assertPasses(self, base, *runs, flags=()):
        result = self.gate(base, *runs, flags=flags)
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)
        return result

    def assertFails(self, base, *runs, message="", flags=()):
        result = self.gate(base, *runs, flags=flags)
        self.assertEqual(result.returncode, 1, result.stdout + result.stderr)
        self.assertIn(message, result.stderr)
        return result

    def test_every_committed_baseline_passes_against_itself(self):
        names = sorted(p.name for p in REPO.glob("BENCH_*.json"))
        self.assertEqual(len(names), 7)
        for name in names:
            with self.subTest(name):
                doc = baseline(name)
                self.assertPasses(doc, doc, doc)

    # --- deterministic lower / higher --------------------------------------
    def test_deterministic_lower_drift(self):
        base = baseline("BENCH_rr_engine.json")
        worse = edit(base, "results.1.bytes_per_set", scaled(1.2))
        self.assertFails(base, worse, worse,
                         message="results[arena_serial].bytes_per_set: 72.48")
        self.assertPasses(base, *[edit(base, "results.1.bytes_per_set",
                                       scaled(0.8))] * 2)
        self.assertPasses(base, worse, worse, flags=["--threshold", "0.3"])

    def test_deterministic_higher_drift(self):
        base = baseline("BENCH_scoring.json")
        path = "incremental_rescore.osim.work_ratio"
        self.assertFails(base, *[edit(base, path, scaled(0.8))] * 2,
                         message=path)
        self.assertPasses(base, *[edit(base, path, scaled(1.2))] * 2)

    def test_deterministic_runs_disagree(self):
        base = baseline("BENCH_spread.json")
        path = "arena.bytes_per_snapshot"
        self.assertFails(base, base, edit(base, path, scaled(1.01)),
                         message=f"{path}: differs across runs")
        self.assertPasses(base, base, edit(base, path, scaled(1.0001)))

    def test_status_line_names_only_the_failing_metric(self):
        base = baseline("BENCH_rr_engine.json")
        run = edit(base, "results.1.bytes_per_set", scaled(1.5))
        lines = self.gate(base, run).stdout.splitlines()
        status = {line.split()[0]: line.split()[-1] for line in lines
                  if line.startswith("results[")}
        self.assertEqual(status["results[arena_serial].bytes_per_set"],
                         "[FAIL]")
        self.assertEqual(status["results[nested_serial_seed].bytes_per_set"],
                         "[ok]")

    # --- timing ratio ------------------------------------------------------
    def test_timing_ratio_below_bar(self):
        base = baseline("BENCH_rr_engine.json")
        path = "incremental_select.select_speedup"
        slow = edit(base, path, scaled(0.8))
        self.assertFails(base, slow, slow, message=f"{path} best-of-2")
        # Best of the runs: one run at the baseline carries the pair.
        self.assertPasses(base, slow, base)

    def test_timing_ratio_jitter_over_limit(self):
        base = baseline("BENCH_query.json")
        path = "budgeted.lazy_speedup"
        self.assertFails(base, base, edit(base, path, scaled(0.4)),
                         message=f"{path} jitter 60% exceeds 50%")
        self.assertPasses(base, base, edit(base, path, scaled(0.4)),
                          flags=["--jitter-limit", "0.7"])

    def test_streaming_absolute_floor(self):
        # Lower the baseline so the relative bar (2.72) sits under the 3.0
        # floor: only the floor can fail the run.
        base = edit(baseline("BENCH_streaming.json"), "solve.speedup", 3.2)
        self.assertFails(base, edit(base, "solve.speedup", 2.9),
                         message="solve.speedup best-of-1 2.90 < 3.00")
        self.assertPasses(base, edit(base, "solve.speedup", 3.1))

    def test_serving_absolute_floor(self):
        base = edit(baseline("BENCH_serving.json"), "speedup.qps_ratio", 2.1)
        self.assertFails(base, edit(base, "speedup.qps_ratio", 1.9),
                         message="speedup.qps_ratio best-of-1 1.90 < 2.00")
        self.assertPasses(base, edit(base, "speedup.qps_ratio", 2.05))

    def test_rr_speedup_has_no_absolute_floor(self):
        base = edit(baseline("BENCH_streaming.json"), "rr.speedup", 1.1)
        self.assertPasses(base, base)

    # --- missing rows and sections -----------------------------------------
    def test_missing_row_or_section_in_a_run(self):
        rr = baseline("BENCH_rr_engine.json")
        self.assertFails(rr, edit(rr, "results.3", DROP),
                         message="results[arena_parallel_2t].bytes_per_set: "
                                 "missing")
        scoring = baseline("BENCH_scoring.json")
        self.assertFails(scoring, edit(scoring, "incremental_rescore.easyim",
                                       DROP),
                         message="incremental_rescore.easyim.work_ratio: "
                                 "missing")
        spread = baseline("BENCH_spread.json")
        self.assertFails(spread, spread, edit(spread, "celf", DROP),
                         message="celf.celf_speedup_vs_mc: missing")

    def test_missing_field_in_the_baseline(self):
        base = baseline("BENCH_scoring.json")
        self.assertFails(edit(base, "incremental_rescore.osim.work_ratio",
                              DROP), base,
                         message="resolves to nothing")

    # --- exact counters and parity booleans --------------------------------
    def test_exact_counter_off_by_one(self):
        for name, path, delta in (
                ("BENCH_engine.json", "batch.warm_sketch_builds", 1),
                ("BENCH_serving.json", "heat.builds", -1),
                ("BENCH_streaming.json", "artifacts.patched", 1),
                ("BENCH_query.json", "explain.contribution_sum_parity", 1)):
            with self.subTest(path):
                base = baseline(name)
                run = edit(base, path, lambda v, d=delta: v + d)
                # Exact contracts ignore the threshold.
                self.assertFails(base, base, run, message=f"{path}: ",
                                 flags=["--threshold", "0.9"])

    def test_parity_boolean_false_or_one(self):
        for name, path in (("BENCH_streaming.json", "solve.parity"),
                           ("BENCH_streaming.json", "rr.arena_match"),
                           ("BENCH_serving.json",
                            "speedup.seeds_match_baseline")):
            base = baseline(name)
            for value in (False, 1):
                with self.subTest(path=path, value=value):
                    self.assertFails(base, edit(base, path, value),
                                     message=f"{path}: {value} != true")

    # --- bench kind and geometry -------------------------------------------
    def test_bench_kind_mismatch(self):
        result = self.assertFails(baseline("BENCH_rr_engine.json"),
                                  baseline("BENCH_scoring.json"))
        self.assertIn("is a 'scoring' bench but the baseline is 'rr_engine'",
                      result.stderr)

    def test_geometry_mismatch(self):
        base = baseline("BENCH_spread.json")
        result = self.assertFails(base, edit(base, "candidates", 100))
        self.assertIn("ran with candidates=100", result.stderr)

    # --- TIGHTENED: each of these passed under the per-bench checker -------
    def test_tightened_baseline_without_gated_rows(self):
        base = baseline("BENCH_rr_engine.json")
        result = self.assertFails(edit(base, "results", DROP), base)
        self.assertIn("'results[engine].bytes_per_set' resolves to nothing",
                      result.stderr)

    def test_tightened_geometry_key_absent_everywhere(self):
        base = edit(baseline("BENCH_engine.json"), "queries", DROP)
        result = self.assertFails(base, base)
        self.assertIn("'queries' resolves to nothing", result.stderr)

    def test_tightened_model_edges_and_streaming_keys(self):
        for name, key, value in (
                ("BENCH_rr_engine.json", "model", "IC"),
                ("BENCH_engine.json", "model", "LT"),
                ("BENCH_spread.json", "model", "IC"),
                ("BENCH_streaming.json", "model", "WC"),
                ("BENCH_scoring.json", "edges", 1),
                ("BENCH_query.json", "edges", 1),
                ("BENCH_streaming.json", "rr_model", "IC"),
                ("BENCH_streaming.json", "algorithm", "degree")):
            with self.subTest(name=name, key=key):
                base = baseline(name)
                result = self.assertFails(base, edit(base, key, value))
                self.assertIn(f"ran with {key}={value}", result.stderr)

    def test_tightened_engine_warm_seeds_match_cold(self):
        base = baseline("BENCH_engine.json")
        self.assertFails(base, edit(base, "warm.seeds_match_cold", False),
                         message="warm.seeds_match_cold: False != true")


if __name__ == "__main__":
    unittest.main()
