"""Pure helpers of the repository benchmark (no I/O, no subprocesses).

* Workload definitions and input generation: ``make_inputs(workload, seed)``
  turns the workload seed into the text the harness reads (graph sizes and
  generator seeds, request knobs, the op stream). The harness derives
  nothing from the seed itself.
* Statistics: the nearest-rank percentile, the tail-percentile rule (the
  highest percentile with at least ten samples beyond it) and span self
  time.
* Metric tables: the end-to-end metrics of BENCHMARK.json, the per-layer
  metrics with their source and the end-to-end metric each should move,
  and the functions that compute both from the harness's raw output.
"""

import hashlib
import json
import math
import random
import re
import statistics
from collections import defaultdict

# ----------------------------------------------------------------- workloads

# Why each workload exists (also printed by run.py and in README.md).
WORKLOAD_WHY = {
    "oneshot-paper": "EaSyIM and OSIM run cold per op as a holim_cli user "
                     "runs them: bundle load and score sweep carry the time",
    "churn-baselines": "CELF over a patched sketch arena plus IMM after each "
                       "streaming delta batch: delta patching, sketch and RR",
    "serving-zipf": "holimd's closed loop over 3 tenants with Zipf traffic: "
                    "dispatch, Workspace eviction and cold sketch builds",
}

# Fixed shape of each workload. Only the generator seeds and the op stream
# depend on the workload seed.
WORKLOADS = {
    "oneshot-paper": {
        # DBLP stand-in at scale 0.025 (datasets.cc shape: n and m/n of
        # Table 2's DBLP row), IC p=0.1, k=50, path horizon l=3. About
        # 50 ms per op on one core; the graph (0.76 MB bundle) stays near
        # one core's L2. At scale 0.05 run-to-run spread on a shared box
        # reached 17%.
        "nodes": 7925, "per_node": 6.62, "k": 50, "l": 3,
        "min_ops": 100, "warmup_ops": 2, "setup_repeats": 3,
        "tail_pct": 90, "stream": 400,
    },
    "churn-baselines": {
        # Directed Erdos-Renyi graph, 2500 nodes of mean out-degree 6,
        # uniform IC p=0.1. MakeRandomDelta inserts uniform random edges,
        # removes uniform existing ones and draws p in [0.01, 0.2), so
        # this graph keeps its shape under churn and step cost does not
        # drift over a run (a preferential-attachment graph loses its hubs
        # and gets cheaper every step). ApplyDelta, CELF and IMM each take
        # at least a fifth of a step (about 9/11/23 ms of 43 ms on one
        # core). The step's working set (sketch arena about 1.2 MB, RR
        # sets about 1.9 MB) is kept near one core's L2: at 8000 nodes and
        # R=128 (about 15 MB) run-to-run spread on a shared box was 20%.
        "nodes": 2500, "per_node": 6.0, "ic_p": 0.1, "k": 20,
        "epsilon": 0.3, "sketches": 64, "delta_ops": 1024,
        "score_every": 20,
        "min_ops": 100, "warmup_ops": 0, "setup_repeats": 3,
        "tail_pct": 90, "stream": 400,
    },
    "serving-zipf": {
        # 3 tenants of 2000 nodes, degreediscount (a cheap selector), a
        # fixed per-tenant cache budget in bytes, queue depth 32.
        "nodes": 2000, "per_node": 6.0, "tenants": 3,
        "algo": "degreediscount", "queue_depth": 32,
        "cache_bytes": 3 * 1024 * 1024,
        "tenant_exponent": 1.1, "model_exponent": 0.9,
        "models": ["IC", "WC", "LT"], "ks": [5, 10],
        "min_ops": 1000, "warmup_ops": 64, "setup_repeats": 3,
        "tail_pct": 99, "stream": 8000,
    },
}

# Seconds one run measures (BENCHMARK.json run_seconds).
RUN_SECONDS = 20

# The benchmark's own answer evaluator (a SketchOracle with its own R and
# seed, distinct from every R and seed a workload solves with).
EVAL_SKETCHES = 128
EVAL_SEED = 0x5EED5C0DE


def derive_seed(seed, label):
    """A 62-bit seed for `label`, a pure function of (seed, label)."""
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 2


def zipf_cdf(n, exponent):
    weights = [1.0 / (i + 1) ** exponent for i in range(n)]
    total = sum(weights)
    cdf, acc = [], 0.0
    for w in weights:
        acc += w
        cdf.append(acc / total)
    cdf[-1] = 1.0
    return cdf


def zipf_draw(cdf, u):
    for i, edge in enumerate(cdf):
        if u < edge:
            return i
    return len(cdf) - 1


def op_stream(workload, seed):
    """The workload's op stream: one list of string fields per op."""
    spec = WORKLOADS[workload]
    rng = random.Random(derive_seed(seed, "ops"))
    ops = []
    if workload == "oneshot-paper":
        # EaSyIM and OSIM in equal shares, order shuffled within each pair.
        while len(ops) < spec["stream"]:
            pair = ["easyim", "osim"]
            rng.shuffle(pair)
            ops.extend([a] for a in pair)
    elif workload == "churn-baselines":
        ops = [[str(rng.getrandbits(62))] for _ in range(spec["stream"])]
    else:
        tenants = zipf_cdf(spec["tenants"], spec["tenant_exponent"])
        models = zipf_cdf(len(spec["models"]), spec["model_exponent"])
        for _ in range(spec["stream"]):
            tenant = zipf_draw(tenants, rng.random())
            model = spec["models"][zipf_draw(models, rng.random())]
            k = spec["ks"][rng.randrange(len(spec["ks"]))]
            ops.append([str(tenant), model, str(k)])
    return ops


def make_inputs(workload, seed):
    """The harness input text for (workload, seed)."""
    spec = WORKLOADS[workload]
    lines = [f"workload {workload}"]
    keys = ["nodes", "per_node", "ic_p", "k", "l", "epsilon", "sketches",
            "delta_ops", "score_every", "algo", "queue_depth", "cache_bytes",
            "min_ops", "warmup_ops", "setup_repeats"]
    lines += [f"{key} {spec[key]}" for key in keys if key in spec]
    lines.append(f"eval_sketches {EVAL_SKETCHES}")
    lines.append(f"eval_seed {EVAL_SEED}")
    if workload == "serving-zipf":
        seeds = [derive_seed(seed, f"tenant{t}")
                 for t in range(spec["tenants"])]
        lines.append("tenant_seeds " + " ".join(map(str, seeds)))
    else:
        lines.append(f"graph_seed {derive_seed(seed, 'graph')}")
        lines.append(f"opinion_seed {derive_seed(seed, 'opinions')}")
    lines += ["op " + " ".join(op) for op in op_stream(workload, seed)]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------- statistics

PERCENTILE_LADDER = (50, 90, 99, 99.9)
MIN_BEYOND = 10


def _rank(n, pct):
    """Nearest rank (1-based) of percentile `pct` among n samples."""
    permille = round(pct * 10)
    return max(1, -(-permille * n // 1000))


def percentile(values, pct):
    ordered = sorted(values)
    return ordered[_rank(len(ordered), pct) - 1]


def samples_beyond(n, pct):
    return n - _rank(n, pct)


def tail_percentile(n, ladder=PERCENTILE_LADDER):
    """The highest ladder percentile with at least MIN_BEYOND samples
    beyond it among n samples, or None when even the lowest has fewer."""
    ok = [p for p in ladder if samples_beyond(n, p) >= MIN_BEYOND]
    return max(ok) if ok else None


def self_times(spans):
    """Self time of every span: its duration minus the part of its
    interval covered by its children. `spans` are [name, start, end,
    parent, op] rows; returns a list of self durations (same units)."""
    children = defaultdict(list)
    for index, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(index)
    out = []
    for index, (_, start, end, _, _) in enumerate(spans):
        covered, cursor = 0, start
        intervals = sorted((spans[c][1], spans[c][2]) for c in children[index])
        for lo, hi in intervals:
            lo, hi = max(lo, cursor), min(hi, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - start) - covered)
    return out


# ------------------------------------------------------------ metric tables

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

# (name, unit, better, bound). failed_frac is not here: it is 0 on every
# correct run and the benchmark contract forbids metrics that read 0; the
# failure share is the result line's failed/attempted, and run.py prints
# failed_frac beside the metrics.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("latency_p50_ms", "ms", "lower", 0.25),
    ("latency_p90_ms", "ms", "lower", 0.25),
    ("latency_tail_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("cpu_s_per_op", "s", "lower", 0.25),
    ("answer_spread", "nodes", "higher", 0.1),
]

# (name, unit, better, source, should move). Each row's prediction on the other
# workloads is "no change".
PER_LAYER = [
    ("graph.load_ms", "ms", "lower", "span around ReadGraphBundle",
     "latency_p50_ms/ops_per_s on oneshot-paper; setup_s elsewhere"),
    ("graph.bundle_mb", "MB", "lower", "bundle file size at ReadGraphBundle",
     "latency_p50_ms/ops_per_s on oneshot-paper; setup_s elsewhere"),
    ("model.params_ms", "ms", "lower",
     "span around MakeUniformIc + MakeRandomOpinions",
     "latency on oneshot-paper"),
    ("engine.solve_ms", "ms", "lower", "span around HolimEngine::Solve",
     "latency on oneshot-paper and churn-baselines"),
    ("engine.artifact_ms", "ms", "lower",
     "SolveResult.artifact_seconds (program-reported)",
     "latency where it dominates"),
    ("engine.select_ms", "ms", "lower",
     "SolveResult.select_seconds (program-reported)",
     "latency where it dominates"),
    ("engine.spread_ms", "ms", "lower",
     "SolveResult.spread_seconds (program-reported)",
     "latency where it dominates"),
    ("engine.warm_sketch_frac", "1", "higher",
     "SolveResult/ProtocolReply warm_sketch",
     "ops_per_s on serving-zipf"),
    ("engine.cache_hits", "count", "higher",
     "Workspace::hits() around each call",
     "ops_per_s on serving-zipf"),
    ("engine.cache_misses", "count", "lower",
     "Workspace::misses() around each call",
     "ops_per_s on serving-zipf"),
    ("engine.evictions", "count", "lower",
     "Workspace::evictions() around each call",
     "ops_per_s on serving-zipf"),
    ("engine.workspace_mb", "MB", "lower", "SolveResult.workspace_bytes (max)",
     "peak_rss_mb on churn-baselines"),
    ("engine.delta_ms", "ms", "lower", "span around HolimEngine::ApplyDelta",
     "latency on churn-baselines"),
    ("engine.delta_patched", "count", "lower", "DeltaReport.patched_sketches",
     "latency on churn-baselines"),
    ("engine.delta_evicted", "count", "lower", "DeltaReport.evicted_artifacts",
     "latency on churn-baselines"),
    ("algo.easyim.select_ms", "ms", "lower",
     "SolveResult.select_seconds, EaSyIM",
     "latency on oneshot-paper"),
    ("algo.osim.select_ms", "ms", "lower", "SolveResult.select_seconds, OSIM",
     "latency on oneshot-paper"),
    ("algo.scratch_mb", "MB", "lower", "SolveResult.scratch_bytes (max)",
     "peak_rss_mb on oneshot-paper"),
    ("algo.imm.select_ms", "ms", "lower", "SolveResult.select_seconds, IMM",
     "latency on churn-baselines"),
    ("algo.rr.theta", "count", "lower", "SolveResult stat theta, IMM",
     "latency and peak_rss_mb on churn-baselines"),
    ("algo.rr.mb", "MB", "lower", "SolveResult stat rr_memory_bytes, IMM",
     "peak_rss_mb on churn-baselines"),
    ("algo.rr.generate_ms", "ms", "lower",
     "probe span around RrCollection::Generate",
     "latency on churn-baselines"),
    ("algo.rr.coverage_ms", "ms", "lower",
     "probe span around SelectMaxCoverage",
     "latency on churn-baselines"),
    ("algo.rr.entries_per_set", "count", "lower",
     "probe: total_entries / num_sets",
     "latency on churn-baselines"),
    ("algo.celf.select_ms", "ms", "lower", "SolveResult.select_seconds, CELF",
     "latency on churn-baselines"),
    ("algo.celf.evaluations_per_seed", "count", "lower",
     "probe: CelfSelector::last_evaluation_count / k",
     "latency on churn-baselines"),
    ("diffusion.sketch.build_ms", "ms", "lower",
     "probe span around SketchOracle()",
     "ops_per_s/peak_rss_mb on serving-zipf; setup_s on churn-baselines"),
    ("diffusion.sketch.bytes_per_snapshot", "bytes", "lower",
     "probe: ArenaBytes() / R",
     "ops_per_s/peak_rss_mb on serving-zipf; setup_s on churn-baselines"),
    ("diffusion.sketch.estimate_ms", "ms", "lower",
     "probe span around Estimate",
     "latency_p50_ms on serving-zipf"),
    ("serving.submit_us", "us", "lower", "span around HolimServer::Submit",
     "latency_tail_ms on serving-zipf"),
    ("serving.dispatch_ms", "ms", "lower",
     "span around HolimServer::DispatchNext",
     "latency_tail_ms on serving-zipf"),
    ("serving.dispatch_self_ms", "ms", "lower",
     "dispatch span - ProtocolReply.solve_ms",
     "latency_tail_ms on serving-zipf"),
    ("serving.wait_ms_p50", "ms", "lower", "ProtocolReply.wait_ms",
     "latency on serving-zipf"),
    ("serving.wait_ms_p99", "ms", "lower", "ProtocolReply.wait_ms",
     "latency on serving-zipf"),
    ("serving.service_ms_p50", "ms", "lower", "ProtocolReply.solve_ms",
     "latency on serving-zipf"),
    ("serving.service_ms_p99", "ms", "lower", "ProtocolReply.solve_ms",
     "latency on serving-zipf"),
    ("serving.queue_len_mean", "count", "lower",
     "queue_size() before each dispatch",
     "latency on serving-zipf"),
    ("serving.builds", "count", "lower", "ServerStats.sketch_builds delta",
     "ops_per_s and latency_tail_ms on serving-zipf"),
    ("serving.warm_hit_frac", "1", "higher",
     "ServerStats.warm_sketch_hits / served",
     "ops_per_s and latency_tail_ms on serving-zipf"),
    ("serving.coalesced", "count", "higher", "ServerStats.coalesced delta",
     "ops_per_s and latency_tail_ms on serving-zipf"),
    ("serving.prewarms", "count", "lower", "ServerStats.prewarms delta",
     "ops_per_s and latency_tail_ms on serving-zipf"),
    ("serving.rejected", "count", "lower", "ServerStats.rejected delta",
     "ops_per_s and latency_tail_ms on serving-zipf"),
    ("serving.failed", "count", "lower", "ServerStats.failed delta",
     "ops_per_s and latency_tail_ms on serving-zipf"),
    ("harness.self_ms", "ms/op", "lower",
     "self time of the benchmark's op span",
     "none (benchmark overhead)"),
    ("graph.self_ms", "ms/op", "lower", "self time of graph spans per op",
     "latency on oneshot-paper"),
    ("model.self_ms", "ms/op", "lower", "self time of model spans per op",
     "latency on oneshot-paper"),
    ("engine.self_ms", "ms/op", "lower", "self time of engine spans per op",
     "latency on oneshot-paper and churn-baselines"),
    ("serving.self_ms", "ms/op", "lower", "self time of serving spans per op",
     "latency on serving-zipf"),
    ("trace.ops", "count", "lower", "ops in each fixed-length traced pass",
     "none"),
    ("trace.ops_per_s_untraced", "1/s", "higher", "untraced pass, same ops",
     "none (overhead base)"),
    ("trace.ops_per_s_traced", "1/s", "higher", "traced pass", "none"),
    ("trace.overhead_frac", "1", "lower", "1 - traced / untraced ops_per_s",
     "none"),
]

SELF_LAYERS = ("harness", "graph", "model", "engine", "serving")


def validate_metric_tables(end_to_end=END_TO_END, per_layer=PER_LAYER,
                           benchmark=None):
    """Problems with the metric tables (and a BENCHMARK.json dict when
    given); an empty list means they obey the benchmark contract."""
    problems = []
    names = [m[0] for m in end_to_end] + [m[0] for m in per_layer]
    for name in names:
        if not NAME_RE.match(name):
            problems.append(f"bad metric name {name!r}")
    if len(set(names)) != len(names):
        problems.append("duplicate metric names")
    for row in end_to_end + per_layer:
        if not UNIT_RE.match(row[1]):
            problems.append(f"bad unit {row[1]!r} of {row[0]}")
    for name, _, better, bound in end_to_end:
        if better not in ("lower", "higher") or not 0 < bound <= 0.25:
            problems.append(f"bad better/bound of {name}")
    for name, _, better, _, _ in per_layer:
        if better not in ("lower", "higher"):
            problems.append(f"bad better of {name}")
    largest = max((m[3] for m in end_to_end), default=None)
    if ("setup_s", "s", "lower", largest) not in end_to_end:
        problems.append("setup_s must be in s, lower, with the largest bound")
    if benchmark is not None and benchmark != benchmark_json():
        problems.append("BENCHMARK.json differs from benchlib's tables")
    return problems


def benchmark_json():
    """The BENCHMARK.json this module's tables define."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w, "why": WORKLOAD_WHY[w]} for w in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": d}
                       for n, u, b, d in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b, _, _ in PER_LAYER],
    }


# ------------------------------------------------------ metrics from raw data

def completed_ops(raw):
    return raw["attempted"] - raw["failed"]


def end_to_end_metrics(raw, workload):
    """{name: value} of every END_TO_END metric, plus the sample counts
    and percentiles run.py prints beside them."""
    latency = raw["latency_ms"]
    n = len(latency)
    done = max(1, completed_ops(raw))
    tail = WORKLOADS[workload]["tail_pct"]
    values = {
        "setup_s": statistics.median(raw["setup_s"]),
        "ops_per_s": completed_ops(raw) / raw["measured_s"],
        "latency_p50_ms": percentile(latency, 50),
        "latency_p90_ms": percentile(latency, 90),
        "latency_tail_ms": percentile(latency, tail),
        "peak_rss_mb": raw["peak_rss_mb"],
        "cpu_s_per_op": raw["cpu_s"] / done,
        "answer_spread": raw["answer_spread"],
    }
    detail = {
        "samples": n,
        "tail_pct": tail,
        "tail_rule_pct": tail_percentile(n),
        "failed_frac": raw["failed"] / max(1, raw["attempted"]),
        "setup_runs": len(raw["setup_s"]),
    }
    if tail_percentile(n) is not None and tail_percentile(n) >= 99:
        detail["latency_p99_ms"] = percentile(latency, 99)
    return values, detail


def _by_name(rows, key_index, value_fn, measured_only):
    out = defaultdict(list)
    for row in rows:
        op = row[4] if len(row) == 5 else row[0]
        if measured_only and op < 0:
            continue
        out[row[key_index]].append(value_fn(row))
    return out


def per_layer_metrics(traced, untraced):
    """{name: value} of every PER_LAYER metric from a traced raw result
    and the untraced pass over the same fixed op stream. A metric whose
    layer does no work on the workload reads 0."""
    spans, counters = traced["spans"], traced["counters"]
    ms = lambda s: (s[2] - s[1]) / 1e6
    dur_all = _by_name(spans, 0, ms, False)
    dur = _by_name(spans, 0, ms, True)
    cnt_all = _by_name(counters, 1, lambda c: c[2], False)
    cnt = _by_name(counters, 1, lambda c: c[2], True)
    med = lambda xs: statistics.median(xs) if xs else 0.0
    mean = lambda xs: statistics.mean(xs) if xs else 0.0
    ops = max(1, len(traced["latency_ms"]))

    m = {
        "graph.load_ms": med(dur_all["graph.load"]),
        "graph.bundle_mb": med(cnt_all["graph.bundle_mb"]),
        "model.params_ms": med(dur_all["model.params"]),
        "engine.solve_ms": med(dur["engine.solve"]),
        "engine.artifact_ms": med(cnt["engine.artifact_ms"]),
        "engine.select_ms": med(cnt["engine.select_ms"]),
        "engine.spread_ms": med(cnt["engine.spread_ms"]),
        "engine.warm_sketch_frac": mean(cnt["engine.warm_sketch"]),
        "engine.cache_hits": sum(cnt["engine.cache_hits"]),
        "engine.cache_misses": sum(cnt["engine.cache_misses"]),
        "engine.evictions": sum(cnt["engine.evictions"]),
        "engine.workspace_mb": max(cnt["engine.workspace_mb"], default=0.0),
        "engine.delta_ms": med(dur["engine.delta"]),
        "engine.delta_patched": sum(cnt["engine.delta_patched"]),
        "engine.delta_evicted": sum(cnt["engine.delta_evicted"]),
        "algo.scratch_mb": max(cnt["algo.scratch_mb"], default=0.0),
        "algo.rr.theta": med(cnt["algo.rr.theta"]),
        "algo.rr.mb": med(cnt["algo.rr.mb"]),
        "algo.rr.generate_ms": med(dur_all["algo.rr.generate"]),
        "algo.rr.coverage_ms": med(dur_all["algo.rr.coverage"]),
        "algo.rr.entries_per_set": med(cnt_all["algo.rr.entries_per_set"]),
        "algo.celf.evaluations_per_seed":
            med(cnt_all["algo.celf.evaluations_per_seed"]),
        "diffusion.sketch.build_ms": med(dur_all["diffusion.sketch.build"]),
        "diffusion.sketch.bytes_per_snapshot":
            med(cnt_all["diffusion.sketch.bytes_per_snapshot"]),
        "diffusion.sketch.estimate_ms":
            med(dur_all["diffusion.sketch.estimate"]),
        "serving.submit_us": med(dur["serving.submit"]) * 1e3,
        "serving.dispatch_ms": med(dur["serving.dispatch"]),
        "serving.queue_len_mean": mean(cnt_all["serving.queue_len"]),
    }
    for algo in ("easyim", "osim", "imm", "celf"):
        m[f"algo.{algo}.select_ms"] = med(cnt[f"algo.{algo}.select_ms"])
    for name in ("wait_ms", "service_ms"):
        values = cnt[f"serving.{name}"]
        for pct in (50, 99):
            m[f"serving.{name}_p{pct}"] = (percentile(values, pct)
                                            if values else 0.0)
    for name in ("builds", "warm_hit_frac", "coalesced", "prewarms",
                 "rejected", "failed"):
        m[f"serving.{name}"] = sum(cnt_all[f"serving.{name}"])

    # dispatch self time: the dispatch span minus the engine's own Solve
    # time the reply reports, matched by request id.
    service = {c[0]: c[2] for c in counters if c[1] == "serving.service_ms"}
    own = [ms(s) - service[s[4]] for s in spans
           if s[0] == "serving.dispatch" and s[4] in service]
    m["serving.dispatch_self_ms"] = med(own)

    selfs = self_times(spans)
    per_layer = defaultdict(float)
    for span, own_ns in zip(spans, selfs):
        if span[4] >= 0:
            per_layer[span[0].split(".")[0]] += own_ns / 1e6
    for layer in SELF_LAYERS:
        m[f"{layer}.self_ms"] = per_layer[layer] / ops

    traced_rate = completed_ops(traced) / traced["measured_s"]
    untraced_rate = completed_ops(untraced) / untraced["measured_s"]
    m["trace.ops"] = len(traced["latency_ms"])
    m["trace.ops_per_s_untraced"] = untraced_rate
    m["trace.ops_per_s_traced"] = traced_rate
    m["trace.overhead_frac"] = 1.0 - traced_rate / untraced_rate
    return {name: float(m[name]) for name, *_ in PER_LAYER}


def result_line(correct, attempted, failed, values, units):
    """The benchmark's last stdout line."""
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in values},
    })


def is_finite(x):
    return isinstance(x, (int, float)) and math.isfinite(x)
