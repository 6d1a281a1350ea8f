#!/usr/bin/env python3
"""CI bench-regression gate for the committed BENCH_*.json baselines.

One loop over TABLE. The baseline's "bench" field picks an entry: the
geometry keys every run must share with the baseline exactly, and a list
of (path, rule[, absolute floor]) metric entries. Rules:

  lower / higher  deterministic metric (depends on the binary, never the
                  machine): every run within --threshold of the baseline
                  in the bad direction, and runs agree within 0.1%.
  ratio           timing ratio of two legs on the same machine: the best
                  of the runs must reach baseline * (1 - threshold), and
                  the optional absolute floor. Run-to-run jitter above
                  --jitter-limit fails distinctly: the environment is too
                  noisy for the timing gate to mean anything, so rerun
                  instead of letting a lucky pair mask a regression.
  exact           equals the baseline value, regardless of threshold.
  true            is the JSON literal true in every run.

Paths: "a.b" nests; "a.*.b" ranges over the object-valued keys of a;
"a[id].b" ranges over the list rows of a, matched by their id field. A
path, wildcard or geometry key that resolves to nothing in the baseline
is an error, never a skipped gate.

Usage:
  tools/check_bench_regression.py --baseline BENCH_rr_engine.json \\
      --run run1.json --run run2.json [--threshold 0.15] [--jitter-limit 0.5]
"""

import argparse
import json
import re
import sys

LOWER, HIGHER, RATIO, EXACT, TRUE = "lower", "higher", "ratio", "exact", "true"

# bench kind -> (geometry keys, [(metric path, rule[, absolute floor])]).
TABLE = {
    "rr_engine": (("nodes", "edges", "model", "sets"), [
        # Fixed seeds and growth policy: deterministic given the build.
        ("results[engine].bytes_per_set", LOWER),
        # Rebuild-the-index-per-round vs the incremental index.
        ("incremental_select.select_speedup", RATIO),
    ]),
    # seed included: work_ratio is only deterministic for identical seeds.
    "scoring": (("graph", "nodes", "edges", "l", "k", "seed"), [
        # Node-level Delta evaluations full / incremental: integer counts.
        ("incremental_rescore.*.work_ratio", HIGHER),
        ("incremental_rescore.*.rescore_speedup", RATIO),
    ]),
    "spread_oracle": (("nodes", "edges", "model", "snapshots", "mc", "k",
                       "candidates", "seed"), [
        # Fixed sampling seeds, exact capacity accounting.
        ("arena.bytes_per_snapshot", LOWER),
        # Nodes touched one-shot vs session: from integer reach counts.
        ("session.session_work_ratio", HIGHER),
        # MC spread of sketch-picked vs MC-picked seeds, fixed-seed estimator.
        ("celf.spread_parity_vs_mc", HIGHER),
        ("celf.celf_speedup_vs_mc", RATIO),
        ("celf.incremental_vs_oneshot_speedup", RATIO),
        # Scalar session vs 64-world bit-parallel session, identical seeds.
        ("bitparallel.speedup_vs_scalar_session", RATIO),
    ]),
    "engine": (("nodes", "edges", "model", "queries", "k", "snapshots",
                "seed", "algorithms"), [
        # 8 cold builds vs 1 warm build: any drift means Workspace keying
        # or the cold/warm protocol changed.
        ("batch.cold_sketch_builds", EXACT),
        ("batch.warm_sketch_builds", EXACT),
        # Capacity-based footprint of the warm Workspace, fixed seeds.
        ("warm.workspace_bytes", LOWER),
        # Warm seeds bitwise == cold; the bench HOLIM_CHECKs it too.
        ("warm.seeds_match_cold", TRUE),
        # 8-query batch, warm vs cold wall time.
        ("batch.batch_speedup", RATIO),
    ]),
    "query_family": (("nodes", "edges", "k", "snapshots", "seed", "model"), [
        # Exactly 1.0 by construction (bitwise-equality booleans and a
        # dyadic telescoping sum at the power-of-two snapshot count).
        ("budgeted.uniform_parity", EXACT),
        ("budgeted.lazy_eager_seed_match", EXACT),
        ("targeted.allones_parity", EXACT),
        ("explain.contribution_sum_parity", EXACT),
        # Weighted spread targeted / untargeted, fixed sampling seeds.
        ("targeted.topic_gain_ratio", HIGHER),
        ("budgeted.lazy_speedup", RATIO),
        ("explain.explain_speedup_vs_solve", RATIO),
    ]),
    "streaming": (("nodes", "edges", "model", "p", "rr_model", "snapshots",
                   "k", "batches", "ops_per_batch", "rr_ops_per_batch",
                   "theta", "seed", "algorithm"), [
        # The bench HOLIM_CHECKs both per churn step; re-asserted here.
        ("solve.parity", TRUE),
        ("rr.arena_match", TRUE),
        # Per-sequence artifact migration counts: patching/eviction protocol.
        ("artifacts.patched", EXACT),
        ("artifacts.evicted", EXACT),
        # Incremental vs rebuild; below 3x rebuilding wins once noise counts.
        ("solve.speedup", RATIO, 3.0),
        # No absolute floor: hub-touching churn degrades toward resampling.
        ("rr.speedup", RATIO),
    ]),
    "serving": (("tenants", "tenant_nodes", "snapshots", "requests",
                 "queue_depth", "budget_factor", "algo", "seed"), [
        # Per-leg counters are a pure function of the closed-loop workload.
        *((f"{leg}.{key}", EXACT) for leg in ("baseline", "heat")
          for key in ("served", "builds", "warm_sketch_hits", "coalesced",
                      "prewarms", "expired_in_queue")),
        # Scheduling must never change answers.
        ("speedup.seeds_match_baseline", TRUE),
        # Heat+affinity vs FIFO+LRU QPS on the same binary, 2x floor.
        ("speedup.qps_ratio", RATIO, 2.0),
        ("speedup.p99_ratio", RATIO),
    ]),
}

MISSING = object()
ROW = re.compile(r"(\w+)\[(\w+)\]")


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            data = json.load(f)
    except (OSError, ValueError) as e:
        sys.exit(f"error: cannot load {path}: {e}")
    if not isinstance(data, dict):
        sys.exit(f"error: {path}: top level is {type(data).__name__}, "
                 "expected a JSON object (corrupt bench JSON)")
    return data


def expand(baseline, path, source):
    """[(name, steps, baseline value)] for every instance of a table path.
    A step is a key, or (list key, id field, id value) selecting a row."""
    found = [("", [], baseline)]
    for part in path.split("."):
        row = ROW.fullmatch(part)
        grown = []
        for name, steps, obj in found:
            obj = obj if isinstance(obj, dict) else {}
            if part == "*":
                more = [(f"{name}{k}.", steps + [k], v)
                        for k, v in sorted(obj.items()) if isinstance(v, dict)]
            elif row:
                key, id_field = row.groups()
                rows = obj.get(key) if isinstance(obj.get(key), list) else []
                more = [(f"{name}{key}[{r[id_field]}].",
                         steps + [(key, id_field, r[id_field])], r)
                        for r in rows if isinstance(r, dict) and id_field in r]
                more = more if len(more) == len(rows) else []
            else:
                more = [(f"{name}{part}.", steps + [part], obj[part])] \
                    if part in obj else []
            if not more:
                sys.exit(f"error: {source}: '{path}' resolves to nothing at "
                         f"'{name}{part}'; the gate would be skipped. "
                         "Regenerate the baseline with the current bench "
                         "binary")
            grown += more
        found = grown
    return [(name[:-1], steps, value) for name, steps, value in found]


def lookup(doc, steps):
    for step in steps:
        if isinstance(step, tuple):
            key, id_field, ident = step
            rows = doc.get(key) if isinstance(doc, dict) else None
            doc = next((r for r in rows or [] if isinstance(r, dict)
                        and r.get(id_field) == ident), MISSING)
        elif isinstance(doc, dict) and step in doc:
            doc = doc[step]
        else:
            return MISSING
        if doc is MISSING:
            return MISSING
    return doc


def deterministic(name, base, values, args, higher):
    """Within threshold of the baseline, and runs agree within 0.1%."""
    if higher:
        limit, op = base * (1.0 - args.threshold), "<"
        bad = [v for v in values if v < limit]
    else:
        limit, op = base * (1.0 + args.threshold), ">"
        bad = [v for v in values if v > limit]
    fails = [f"{name}: {v:.2f} {op} {limit:.2f} "
             f"(baseline {base:.2f} ±{args.threshold:.0%})" for v in bad]
    if values and max(values) - min(values) > \
            0.001 * max(abs(v) for v in values):
        fails.append(f"{name}: differs across runs {values} — it is "
                     "deterministic; the binary or config changed between "
                     "runs")
    return fails, ""


def timing_ratio(name, base, values, args, floor=None):
    """Best of the runs against the baseline band and the absolute floor."""
    if not values:
        return [], ""
    best, fails = max(values), []
    bar = base * (1.0 - args.threshold)
    jitter = (max(values) - min(values)) / max(values)
    if jitter > args.jitter_limit:
        fails.append(f"{name} jitter {jitter:.0%} exceeds "
                     f"{args.jitter_limit:.0%}: runs too noisy to gate on; "
                     "rerun")
    elif best < bar:
        fails.append(f"{name} best-of-{len(values)} {best:.2f} < {bar:.2f} "
                     f"(baseline {base:.2f} -{args.threshold:.0%})")
    if floor is not None and best < floor:
        fails.append(f"{name} best-of-{len(values)} {best:.2f} < "
                     f"{floor:.2f} (absolute floor)")
    floors = f"{bar:.2f}" + ("" if floor is None else f" abs {floor:.2f}")
    return fails, f"jitter {jitter:.0%}  floor {floors}"


RULES = {
    LOWER: lambda n, b, v, a: deterministic(n, b, v, a, higher=False),
    HIGHER: lambda n, b, v, a: deterministic(n, b, v, a, higher=True),
    RATIO: timing_ratio,
    EXACT: lambda n, b, v, a: ([f"{n}: {x} != {b} (exact contract)"
                                for x in v if x != b], ""),
    TRUE: lambda n, b, v, a: ([f"{n}: {x} != true (exact parity contract)"
                               for x in v if x is not True], ""),
}


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--baseline", required=True,
                        help="committed BENCH_*.json baseline")
    parser.add_argument("--run", action="append", required=True,
                        dest="runs", help="fresh bench JSON (repeatable)")
    parser.add_argument("--threshold", type=float, default=0.15,
                        help="allowed fractional regression (default 0.15)")
    parser.add_argument("--jitter-limit", type=float, default=0.5,
                        help="max run-to-run timing-ratio spread before the "
                             "timing gate is declared unusable (default 0.5)")
    args = parser.parse_args(argv)

    baseline = load(args.baseline)
    runs = [(path, load(path)) for path in args.runs]
    kind = baseline.get("bench")
    for path, run in runs:
        if run.get("bench") != kind:
            sys.exit(f"error: {path} is a '{run.get('bench')}' bench but the "
                     f"baseline is '{kind}'")
    if kind not in TABLE:
        sys.exit(f"error: unknown bench kind '{kind}' in {args.baseline}")
    geometry, metrics = TABLE[kind]

    # The comparison only makes sense on identical workload geometry.
    for key in geometry:
        expand(baseline, key, args.baseline)
        for path, run in runs:
            if run.get(key) != baseline[key]:
                sys.exit(f"error: {path} ran with {key}={run.get(key)} but "
                         f"baseline has {key}={baseline[key]}; regenerate "
                         "the baseline or fix the CI invocation")

    failures = []
    for path, rule, *floor in metrics:
        for name, steps, base in expand(baseline, path, args.baseline):
            values, fails = [], []
            for run_path, run in runs:
                value = lookup(run, steps)
                if value is MISSING:
                    fails.append(f"{run_path}: {name}: missing")
                else:
                    values.append(value)
            rule_fails, note = RULES[rule](name, base, values, args, *floor)
            fails += rule_fails
            print(f"{name:<44} {rule:<6} baseline {base!s:>10}  runs "
                  f"{values}  {note}  [{'FAIL' if fails else 'ok'}]")
            failures += fails

    if failures:
        print("\nbench-gate FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        return 1
    print("\nbench-gate passed.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
