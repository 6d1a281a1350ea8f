#!/usr/bin/env python3
"""The repository benchmark: one workload, one run.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Builds the harness (perfbench/CMakeLists.txt: the holim library from
src/ plus perfbench/harness) into .bench_build/perfbench on first use,
generates the workload's inputs from --seed, runs the harness in its own
process and prints the metrics, one per line with unit, then a last line
of JSON:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json. --trace 1
runs the workload's fixed-length op stream twice, untraced and traced,
and reports the per-layer metrics, including the tracing overhead.
Exits 1 without a result line when the build or the harness fails.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import benchlib  # noqa: E402

ROOT = HERE.parent
OUT = ROOT / ".bench_build" / "perfbench"
BUILD = OUT / "build"
BINARY = BUILD / "perfbench"
BUILD_JOBS = "2"
HARNESS_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures and builds the harness (a no-op when up to date)."""
    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (BUILD / "CMakeCache.txt").exists():
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                            "-DCMAKE_BUILD_TYPE=Release", *generator],
                           check=True, stdout=sys.stderr)
        subprocess.run(["cmake", "--build", str(BUILD), "-j", BUILD_JOBS],
                       check=True, stdout=sys.stderr)


def run_harness(workload, seed, seconds, trace, fixed_ops, tag):
    """Runs the harness once; returns its raw result dict."""
    work = OUT / "work" / f"{workload}-{seed}-{os.getpid()}-{tag}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        inputs = work / "inputs.txt"
        inputs.write_text(benchlib.make_inputs(workload, seed))
        out = work / "raw.json"
        cmd = [str(BINARY), "--inputs", str(inputs), "--workdir", str(work),
               "--out", str(out), "--seconds", str(seconds),
               "--trace", "1" if trace else "0",
               "--fixed-ops", "1" if fixed_ops else "0"]
        subprocess.run(cmd, check=True, timeout=HARNESS_TIMEOUT_S,
                       stdout=sys.stderr)
        return json.loads(out.read_text())
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(benchlib.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        log(f"perfbench: build failed: {err}")
        return 1

    started = time.monotonic()
    workload = args.workload
    print(f"perfbench workload={workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"why: {benchlib.WORKLOAD_WHY[workload]}")
    try:
        if args.trace:
            untraced = run_harness(workload, args.seed, args.seconds,
                                   False, True, "untraced")
            raw = run_harness(workload, args.seed, args.seconds,
                              True, True, "traced")
        else:
            raw = run_harness(workload, args.seed, args.seconds,
                              False, False, "run")
    except (OSError, ValueError, subprocess.SubprocessError) as err:
        log(f"perfbench: harness failed: {err}")
        return 1
    print("env " + " ".join(f"{k}={v}" for k, v in raw["env"].items()))

    values, detail = benchlib.end_to_end_metrics(raw, workload)
    rule_ok = (detail["tail_rule_pct"] is not None
               and detail["tail_rule_pct"] >= detail["tail_pct"])
    correct = raw["failed"] == 0 and raw["answers_scored"] > 0 and rule_ok
    for problem in raw["problems"]:
        print(f"FAILED CHECK: {problem}")
    if not rule_ok:
        print(f"FAILED CHECK: p{detail['tail_pct']} needs "
              f"{benchlib.MIN_BEYOND} samples beyond it; "
              f"{detail['samples']} samples allow p{detail['tail_rule_pct']}")

    if args.trace:
        metrics = benchlib.per_layer_metrics(raw, untraced)
        units = {n: u for n, u, *_ in benchlib.PER_LAYER}
        for name, unit, _, source, moves in benchlib.PER_LAYER:
            print(f"{name:38s} {metrics[name]:14.6g} {unit:6s} "
                  f"[{source}] -> {moves}")
    else:
        metrics = values
        units = {n: u for n, u, *_ in benchlib.END_TO_END}
        n, tail = detail["samples"], detail["tail_pct"]
        notes = {
            "setup_s": f"median of {detail['setup_runs']} set-ups",
            "ops_per_s": f"{n} ops in {raw['measured_s']:.2f} s",
            "latency_p50_ms": f"n={n}",
            "latency_p90_ms": f"n={n}, "
                              f"{benchlib.samples_beyond(n, 90)} beyond",
            "latency_tail_ms": f"p{tail}, n={n}, "
                               f"{benchlib.samples_beyond(n, tail)} beyond",
            "answer_spread": f"mean over {raw['answers_scored']} answers",
        }
        for name, unit, _, _ in benchlib.END_TO_END:
            print(f"{name:16s} {metrics[name]:14.6g} {unit:6s} "
                  f"{notes.get(name, '')}")
        if "latency_p99_ms" in detail:
            print(f"{'latency_p99_ms':16s} {detail['latency_p99_ms']:14.6g} "
                  f"ms     n={n}, {benchlib.samples_beyond(n, 99)} beyond")
        print(f"{'failed_frac':16s} {detail['failed_frac']:14.6g} 1      "
              f"{raw['failed']}/{raw['attempted']}")
    print(f"wall {time.monotonic() - started:.1f} s")
    if not all(benchlib.is_finite(v) for v in metrics.values()):
        log("perfbench: non-finite metric")
        return 1
    print(benchlib.result_line(correct, max(1, raw["attempted"]),
                               raw["failed"], metrics, units))
    return 0


if __name__ == "__main__":
    sys.exit(main())
