// perfbench: runs one workload of the repository benchmark against the
// holim library's public API and writes its raw measurements as JSON.
//
//   perfbench --inputs <file> --workdir <dir> --out <file>
//             --seconds <s> --trace 0|1 --fixed-ops 0|1
//
// The inputs file is generated from the workload seed by perfbench/run.py
// (see benchlib.make_inputs): graph sizes and generator seeds, request
// knobs and the op stream. This binary derives nothing from the seed
// itself, so the program under test receives only generated inputs.
//
// Each workload:
//   * sets up `setup_repeats` times (graph bundles written and read,
//     engines or tenants built, warm-up prefix run) and records each
//     set-up time;
//   * runs ops until at least `min_ops` completed and `--seconds` elapsed
//     (exactly `min_ops` with --fixed-ops, as both passes of a traced run
//     do, so traced counts are exact);
//   * records per-op latency, process CPU time and peak RSS;
//   * checks every answer, outside the timed region, and scores the
//     answers with its own SketchOracle evaluator;
//   * when tracing, replays its distinct inputs once through the diffusion
//     and algo entry points the engine hides (the layer probes).
// All statistics (percentiles, self time, per-layer metrics) are computed
// from the raw output by run.py.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "algo/celf.h"
#include "algo/greedy.h"
#include "algo/rr_sets.h"
#include "diffusion/sketch_oracle.h"
#include "engine/holim_engine.h"
#include "graph/binary_io.h"
#include "graph/delta.h"
#include "graph/generators.h"
#include "harness/trace.h"
#include "model/influence_params.h"
#include "model/opinion_params.h"
#include "serving/holim_server.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/timer.h"

using namespace holim;
using perfbench::Tracer;

namespace {

// ------------------------------------------------------------------ inputs

/// The generated inputs: `key value...` lines plus `op ...` lines.
class Inputs {
 public:
  static Result<Inputs> Load(const std::string& path) {
    std::ifstream file(path);
    if (!file) return Status::IOError("cannot read inputs " + path);
    Inputs inputs;
    std::string line;
    while (std::getline(file, line)) {
      std::istringstream tokens(line);
      std::string key;
      if (!(tokens >> key)) continue;
      std::vector<std::string> values;
      for (std::string v; tokens >> v;) values.push_back(v);
      if (key == "op") {
        inputs.ops_.push_back(std::move(values));
      } else {
        inputs.values_[key] = std::move(values);
      }
    }
    if (inputs.ops_.empty()) {
      return Status::InvalidArgument("no ops in inputs");
    }
    return inputs;
  }

  std::string Str(const std::string& key) const { return List(key).at(0); }
  long long Int(const std::string& key) const { return std::stoll(Str(key)); }
  uint64_t U64(const std::string& key) const { return std::stoull(Str(key)); }
  double Double(const std::string& key) const { return std::stod(Str(key)); }
  const std::vector<std::string>& List(const std::string& key) const {
    const auto it = values_.find(key);
    if (it == values_.end()) {
      std::fprintf(stderr, "perfbench: inputs lack '%s'\n", key.c_str());
      std::exit(2);
    }
    return it->second;
  }
  /// The op stream, cycled when a run outlasts it.
  const std::vector<std::string>& Op(uint64_t index) const {
    return ops_[index % ops_.size()];
  }

 private:
  std::map<std::string, std::vector<std::string>> values_;
  std::vector<std::vector<std::string>> ops_;
};

// ------------------------------------------------------------------ report

struct RunConfig {
  std::string workdir;
  double seconds = 10.0;
  bool trace = false;
  bool fixed_ops = false;  // run exactly min_ops ops
};

/// What a workload hands back; serialized by WriteReport.
struct Report {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> problems;  // first few failed-check messages
  std::vector<double> setup_s;
  double measured_s = 0.0;
  double cpu_s = 0.0;
  double peak_rss_mb = 0.0;
  std::vector<double> latency_ms;
  double answer_spread = 0.0;
  uint64_t answers_scored = 0;

  void Fail(const std::string& what) {
    ++failed;
    if (problems.size() < 8) problems.push_back(what);
  }
};

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Wall and CPU time of the measured loop, minus the stretches the
/// benchmark spends generating inputs inside it (Pause/Resume).
class LoopClock {
 public:
  LoopClock() : cpu_start_(CpuSeconds()) {}
  void Pause() {
    paused_wall_ = timer_.ElapsedSeconds();
    paused_cpu_ = CpuSeconds();
  }
  void Resume() {
    excluded_wall_ += timer_.ElapsedSeconds() - paused_wall_;
    excluded_cpu_ += CpuSeconds() - paused_cpu_;
  }
  double Wall() const { return timer_.ElapsedSeconds() - excluded_wall_; }
  double Cpu() const { return CpuSeconds() - cpu_start_ - excluded_cpu_; }

 private:
  Timer timer_;
  double cpu_start_;
  double paused_wall_ = 0.0, paused_cpu_ = 0.0;
  double excluded_wall_ = 0.0, excluded_cpu_ = 0.0;
};

/// Runs until `min_ops` are done and `seconds` have elapsed, or exactly
/// `min_ops` with fixed_ops (the traced passes: every traced count is
/// then a function of the seed alone).
bool WantMore(uint64_t done, uint64_t min_ops, const RunConfig& config,
              const LoopClock& clock) {
  if (done < min_ops) return true;
  return !config.fixed_ops && clock.Wall() < config.seconds;
}

std::string JoinSeeds(const std::vector<NodeId>& seeds) {
  std::string out;
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    if (i) out += ',';
    out += std::to_string(seeds[i]);
  }
  return out;
}

/// "" when `seeds` are k distinct ids below n, else what is wrong.
std::string SeedProblem(const std::vector<NodeId>& seeds, uint32_t k,
                        NodeId n) {
  if (seeds.size() != k) {
    return "got " + std::to_string(seeds.size()) + " seeds, want " +
           std::to_string(k);
  }
  std::set<NodeId> distinct(seeds.begin(), seeds.end());
  if (distinct.size() != seeds.size()) return "duplicate seeds";
  if (*distinct.rbegin() >= n) return "seed out of range";
  return "";
}

/// Records the SolveResult split and flags of one engine solve.
void CountSolve(Tracer& tracer, int64_t op, const SolveResult& result,
                const std::string& algo) {
  if (!tracer.enabled()) return;
  tracer.Count(op, "engine.artifact_ms", result.artifact_seconds * 1e3);
  tracer.Count(op, "engine.select_ms", result.select_seconds * 1e3);
  tracer.Count(op, "engine.spread_ms", result.spread_seconds * 1e3);
  if (result.sketch_arena_bytes != 0) {  // the solve used a sketch arena
    tracer.Count(op, "engine.warm_sketch", result.warm_sketch ? 1.0 : 0.0);
  }
  tracer.Count(op, "engine.workspace_mb",
               static_cast<double>(result.workspace_bytes) / 1e6);
  tracer.Count(op, "algo." + algo + ".select_ms", result.select_seconds * 1e3);
  tracer.Count(op, "algo.scratch_mb",
               static_cast<double>(result.scratch_bytes) / 1e6);
  if (algo == "imm") {
    tracer.Count(op, "algo.rr.theta", result.Stat("theta"));
    tracer.Count(op, "algo.rr.mb", result.Stat("rr_memory_bytes") / 1e6);
  }
}

/// Workspace hit/miss/eviction counters, summed over engines.
struct CacheCounters {
  uint64_t hits = 0, misses = 0, evictions = 0;
  void Add(const Workspace& ws) {
    hits += ws.hits();
    misses += ws.misses();
    evictions += ws.evictions();
  }
};

void CountCacheDelta(Tracer& tracer, int64_t op, const CacheCounters& before,
                     const CacheCounters& after) {
  tracer.Count(op, "engine.cache_hits",
               static_cast<double>(after.hits - before.hits));
  tracer.Count(op, "engine.cache_misses",
               static_cast<double>(after.misses - before.misses));
  tracer.Count(op, "engine.evictions",
               static_cast<double>(after.evictions - before.evictions));
}

/// Generates a graph and writes it as a bundle: the social-graph stand-in
/// shape (undirected preferential attachment), or a directed Erdos-Renyi
/// graph when `erdos_renyi` is set.
Status WriteBundle(const std::string& path, NodeId nodes, double per_node,
                   uint64_t seed, bool erdos_renyi = false) {
  HOLIM_ASSIGN_OR_RETURN(
      Graph graph, erdos_renyi ? GenerateErdosRenyi(nodes, per_node, seed)
                               : GenerateSocialGraph(nodes, per_node, seed));
  return WriteGraphBundle(path, graph);
}

Result<GraphBundle> LoadBundle(Tracer& tracer, const std::string& path,
                               int64_t op) {
  const int span = tracer.Begin("graph.load", op);
  Result<GraphBundle> bundle = ReadGraphBundle(path);
  tracer.End(span);
  if (tracer.enabled()) {
    std::ifstream file(path, std::ios::binary | std::ios::ate);
    tracer.Count(op, "graph.bundle_mb",
                 static_cast<double>(file.tellg()) / 1e6);
  }
  return bundle;
}

/// Sketch probe: build one oracle and time Estimate on `seeds`.
void ProbeSketch(Tracer& tracer, const Graph& graph,
                 const InfluenceParams& params, uint32_t sketches,
                 uint64_t seed, const std::vector<NodeId>& seeds) {
  SketchOptions options;
  options.num_snapshots = sketches;
  options.seed = seed;
  std::unique_ptr<SketchOracle> oracle;
  {
    Tracer::Scope span(tracer, "diffusion.sketch.build", -1);
    oracle = std::make_unique<SketchOracle>(graph, params, options);
  }
  tracer.Count(-1, "diffusion.sketch.bytes_per_snapshot",
               static_cast<double>(oracle->ArenaBytes()) / sketches);
  for (int i = 0; i < 5; ++i) {
    Tracer::Scope span(tracer, "diffusion.sketch.estimate", -1);
    (void)oracle->Estimate(seeds);
  }
}

// ------------------------------------------------------------ oneshot-paper

/// The paper's algorithms run cold, as a holim_cli user runs them: every
/// op reads the bundle, builds params, makes a fresh engine and solves.
Status RunOneshot(const Inputs& in, const RunConfig& config, Tracer& tracer,
                  Report* report) {
  const NodeId nodes = static_cast<NodeId>(in.Int("nodes"));
  const double per_node = in.Double("per_node");
  const uint64_t graph_seed = in.U64("graph_seed");
  const uint64_t opinion_seed = in.U64("opinion_seed");
  const uint32_t k = static_cast<uint32_t>(in.Int("k"));
  const uint32_t l = static_cast<uint32_t>(in.Int("l"));
  const uint64_t min_ops = in.U64("min_ops");
  const uint64_t warmup = in.U64("warmup_ops");
  const std::string bundle_path = config.workdir + "/oneshot.bundle";

  // One cold op. Its answer lands in *seeds.
  auto run_op = [&](const std::string& algo, int64_t op,
                    std::vector<NodeId>* seeds) -> Status {
    Tracer::Scope op_span(tracer, "harness.op", op);
    HOLIM_ASSIGN_OR_RETURN(GraphBundle bundle,
                           LoadBundle(tracer, bundle_path, op));
    InfluenceParams params;
    OpinionParams opinions;
    {
      Tracer::Scope span(tracer, "model.params", op);
      params = MakeUniformIc(bundle.graph);
      if (algo == "osim") {
        opinions = MakeRandomOpinions(
            bundle.graph, OpinionDistribution::kStandardNormal, opinion_seed);
      }
    }
    const int create = tracer.Begin("engine.create", op);
    HolimEngine engine(bundle.graph);
    tracer.End(create);
    SolveRequest request;
    request.algorithm = algo;
    request.k = k;
    request.l = l;
    request.params = &params;
    request.opinions = algo == "osim" ? &opinions : nullptr;
    request.threads = 1;
    request.evaluate_spread = false;
    CacheCounters before;
    before.Add(engine.workspace());
    const int solve = tracer.Begin("engine.solve", op);
    Result<SolveResult> result = engine.Solve(request);
    tracer.End(solve);
    HOLIM_RETURN_NOT_OK(result.status());
    if (tracer.enabled()) {
      CacheCounters after;
      after.Add(engine.workspace());
      CountCacheDelta(tracer, op, before, after);
      CountSolve(tracer, op, *result, algo);
    }
    *seeds = std::move(result->seeds);
    return Status::OK();
  };

  for (long long r = 0; r < in.Int("setup_repeats"); ++r) {
    Timer setup;
    HOLIM_RETURN_NOT_OK(WriteBundle(bundle_path, nodes, per_node, graph_seed));
    std::vector<NodeId> ignored;
    for (uint64_t w = 0; w < warmup; ++w) {
      HOLIM_RETURN_NOT_OK(run_op(in.Op(w)[0], -1, &ignored));
    }
    report->setup_s.push_back(setup.ElapsedSeconds());
  }

  std::map<std::string, std::vector<NodeId>> first_answer;  // by algorithm
  LoopClock clock;
  uint64_t done = 0;
  while (WantMore(done, min_ops, config, clock)) {
    const std::string& algo = in.Op(warmup + done)[0];
    std::vector<NodeId> seeds;
    Timer latency;
    const Status status = run_op(algo, static_cast<int64_t>(done), &seeds);
    report->latency_ms.push_back(latency.ElapsedMillis());
    ++report->attempted;
    ++done;
    if (!status.ok()) {
      report->Fail(algo + ": " + status.ToString());
      continue;
    }
    std::string problem = SeedProblem(seeds, k, nodes);
    const auto first = first_answer.emplace(algo, seeds);
    if (problem.empty() && !first.second && first.first->second != seeds) {
      problem = "answer changed on a repeated input";
    }
    if (!problem.empty()) report->Fail(algo + " op " + std::to_string(done) +
                                       ": " + problem);
  }
  report->measured_s = clock.Wall();
  report->cpu_s = clock.Cpu();
  report->peak_rss_mb = PeakRssMb();

  // Score each distinct input's answer (every algorithm ran within the
  // first min_ops ops) with the benchmark's own evaluator.
  HOLIM_ASSIGN_OR_RETURN(GraphBundle bundle, ReadGraphBundle(bundle_path));
  const InfluenceParams params = MakeUniformIc(bundle.graph);
  SketchOptions eval;
  eval.num_snapshots = static_cast<uint32_t>(in.Int("eval_sketches"));
  eval.seed = in.U64("eval_seed");
  const SketchOracle evaluator(bundle.graph, params, eval);
  for (const auto& [algo, seeds] : first_answer) {
    report->answer_spread += evaluator.Estimate(seeds);
    ++report->answers_scored;
  }
  return Status::OK();
}

// ---------------------------------------------------------- churn-baselines

/// The best-known baselines kept fresh under streaming edits: one engine,
/// each step applies a random delta batch, then re-answers with CELF over
/// the patched sketch arena and with IMM.
Status RunChurn(const Inputs& in, const RunConfig& config, Tracer& tracer,
                Report* report) {
  const NodeId nodes = static_cast<NodeId>(in.Int("nodes"));
  const double per_node = in.Double("per_node");
  const uint64_t graph_seed = in.U64("graph_seed");
  const double ic_p = in.Double("ic_p");
  const uint32_t k = static_cast<uint32_t>(in.Int("k"));
  const double epsilon = in.Double("epsilon");
  const uint32_t sketches = static_cast<uint32_t>(in.Int("sketches"));
  const std::size_t delta_ops = static_cast<std::size_t>(in.Int("delta_ops"));
  const uint64_t min_ops = in.U64("min_ops");
  const uint64_t score_every = in.U64("score_every");
  const std::string bundle_path = config.workdir + "/churn.bundle";

  auto celf_request = [&](const InfluenceParams& params) {
    SolveRequest request;
    request.algorithm = "celf";
    request.k = k;
    request.params = &params;
    request.oracle = SpreadOracle::kSketch;
    request.num_sketches = sketches;
    request.threads = 1;
    request.evaluate_spread = false;
    return request;
  };
  auto imm_request = [&](const InfluenceParams& params) {
    SolveRequest request;
    request.algorithm = "imm";
    request.k = k;
    request.epsilon = epsilon;
    request.params = &params;
    request.threads = 1;
    request.evaluate_spread = false;
    return request;
  };
  auto delta_for = [&](const Graph& graph, uint64_t step) {
    Rng rng(std::stoull(in.Op(step)[0]));
    return MakeRandomDelta(graph, delta_ops, rng);
  };

  // Set-up: write and read the bundle, build params and the engine, and
  // warm it with one CELF and one IMM answer (the sketch arena is built
  // here). The last set-up's engine serves the measured steps.
  GraphBundle bundle;
  InfluenceParams params;
  std::unique_ptr<HolimEngine> engine;
  for (long long r = 0; r < in.Int("setup_repeats"); ++r) {
    engine.reset();
    Timer setup;
    HOLIM_RETURN_NOT_OK(WriteBundle(bundle_path, nodes, per_node, graph_seed,
                                    /*erdos_renyi=*/true));
    HOLIM_ASSIGN_OR_RETURN(bundle, LoadBundle(tracer, bundle_path, -1));
    {
      Tracer::Scope span(tracer, "model.params", -1);
      params = MakeUniformIc(bundle.graph, ic_p);
    }
    engine = std::make_unique<HolimEngine>(bundle.graph);
    HOLIM_RETURN_NOT_OK(engine->Solve(celf_request(params)).status());
    HOLIM_RETURN_NOT_OK(engine->Solve(imm_request(params)).status());
    report->setup_s.push_back(setup.ElapsedSeconds());
  }

  // Every score_every-th step below min_ops keeps its graph, params and
  // answers for the evaluator. By then the churn has redrawn a good part
  // of the graph, so the mean sigma averages several different graphs.
  struct Scored {
    Graph graph;
    InfluenceParams params;
    std::vector<NodeId> celf, imm;
  };
  std::vector<Scored> scored;
  std::vector<NodeId> first_celf, last_celf;
  uint64_t last_theta = 0;
  auto solve = [&](const SolveRequest& request, const std::string& algo,
                   int64_t op, std::vector<NodeId>* seeds) -> Status {
    const int span = tracer.Begin("engine.solve", op);
    Result<SolveResult> result = engine->Solve(request);
    tracer.End(span);
    HOLIM_RETURN_NOT_OK(result.status());
    CountSolve(tracer, op, *result, algo);
    if (algo == "imm") {
      last_theta = static_cast<uint64_t>(result->Stat("theta"));
    }
    *seeds = std::move(result->seeds);
    return Status::OK();
  };
  LoopClock clock;
  uint64_t done = 0;
  while (WantMore(done, min_ops, config, clock)) {
    const int64_t op = static_cast<int64_t>(done);
    clock.Pause();  // making the batch is input generation
    const GraphDelta delta = delta_for(engine->graph(), done);
    clock.Resume();
    Timer latency;
    Status status;
    std::vector<NodeId> celf_seeds, imm_seeds;
    {
      Tracer::Scope op_span(tracer, "harness.op", op);
      CacheCounters before;
      before.Add(engine->workspace());
      const int delta_span = tracer.Begin("engine.delta", op);
      Result<HolimEngine::DeltaReport> applied =
          engine->ApplyDelta(delta, params);
      tracer.End(delta_span);
      status = applied.status();
      if (status.ok()) {
        params = std::move(applied->params);
        tracer.Count(op, "engine.delta_patched",
                     static_cast<double>(applied->patched_sketches));
        tracer.Count(op, "engine.delta_evicted",
                     static_cast<double>(applied->evicted_artifacts));
        status = solve(celf_request(params), "celf", op, &celf_seeds);
        if (status.ok()) {
          status = solve(imm_request(params), "imm", op, &imm_seeds);
        }
      }
      if (tracer.enabled()) {
        CacheCounters after;
        after.Add(engine->workspace());
        CountCacheDelta(tracer, op, before, after);
      }
    }
    report->latency_ms.push_back(latency.ElapsedMillis());
    ++report->attempted;
    ++done;
    if (!status.ok()) {
      report->Fail("step " + std::to_string(op) + ": " + status.ToString());
      return Status::OK();  // the engine's graph is now unknown; stop here
    }
    const NodeId n = engine->graph().num_nodes();
    std::string problem = SeedProblem(celf_seeds, k, n);
    if (problem.empty()) problem = SeedProblem(imm_seeds, k, n);
    if (!problem.empty()) {
      report->Fail("step " + std::to_string(op) + ": " + problem);
    }
    if (op == 0) first_celf = celf_seeds;
    if (done <= min_ops && op % score_every == 0) {
      clock.Pause();
      scored.push_back({engine->graph(), params, celf_seeds, imm_seeds});
      clock.Resume();
    }
    last_celf = std::move(celf_seeds);
  }
  report->measured_s = clock.Wall();
  report->cpu_s = clock.Cpu();
  report->peak_rss_mb = PeakRssMb();

  // Patched == rebuilt, last step: a cold engine on the engine's current
  // graph must give the warm CELF answer.
  {
    HolimEngine cold(engine->graph());
    HOLIM_ASSIGN_OR_RETURN(SolveResult result,
                           cold.Solve(celf_request(params)));
    if (result.seeds != last_celf) {
      report->Fail("last step: warm CELF [" + JoinSeeds(last_celf) +
                   "] != cold [" + JoinSeeds(result.seeds) + "]");
    }
  }

  // Layer probes on the final graph: the sketch arena, CELF's evaluation
  // count and the RR engine, which the engine's SolveResult hides.
  if (tracer.enabled()) {
    ProbeSketch(tracer, engine->graph(), params, sketches, 42, last_celf);
    SketchOptions options;
    options.num_snapshots = sketches;
    auto oracle = std::make_shared<const SketchOracle>(engine->graph(), params,
                                                       options);
    CelfSelector celf(engine->graph(),
                      std::make_shared<SketchSpreadObjective>(oracle),
                      /*plus_plus=*/false, "CELF");
    HOLIM_RETURN_NOT_OK(celf.Select(k).status());
    tracer.Count(-1, "algo.celf.evaluations_per_seed",
                 static_cast<double>(celf.last_evaluation_count()) / k);
    RrCollection rr(engine->graph(), params);
    Rng rng(42);
    {
      Tracer::Scope span(tracer, "algo.rr.generate", -1);
      rr.Generate(last_theta, rng);
    }
    tracer.Count(-1, "algo.rr.entries_per_set",
                 static_cast<double>(rr.total_entries()) /
                     static_cast<double>(
                         std::max<std::size_t>(1, rr.num_sets())));
    Tracer::Scope span(tracer, "algo.rr.coverage", -1);
    (void)rr.SelectMaxCoverage(k);
  }
  engine.reset();

  // Patched == rebuilt, first step: rebuild the step-0 graph from the base
  // bundle without the engine's streaming path and solve it cold.
  HOLIM_ASSIGN_OR_RETURN(GraphBundle base, ReadGraphBundle(bundle_path));
  const InfluenceParams base_params = MakeUniformIc(base.graph, ic_p);
  const GraphDelta delta0 = delta_for(base.graph, 0);
  HOLIM_ASSIGN_OR_RETURN(ResolvedDelta resolved,
                         ResolveDelta(base.graph, delta0));
  HOLIM_ASSIGN_OR_RETURN(Graph graph0,
                         ApplyDeltaToGraph(base.graph, resolved));
  HOLIM_ASSIGN_OR_RETURN(
      InfluenceParams params0,
      ApplyDeltaToParams(base.graph, base_params, graph0, resolved));
  {
    HolimEngine cold(graph0);
    HOLIM_ASSIGN_OR_RETURN(SolveResult result,
                           cold.Solve(celf_request(params0)));
    if (result.seeds != first_celf) {
      report->Fail("first step: warm CELF [" + JoinSeeds(first_celf) +
                   "] != cold [" + JoinSeeds(result.seeds) + "]");
    }
  }
  SketchOptions eval;
  eval.num_snapshots = static_cast<uint32_t>(in.Int("eval_sketches"));
  eval.seed = in.U64("eval_seed");
  for (const Scored& step : scored) {
    const SketchOracle evaluator(step.graph, step.params, eval);
    for (const auto* seeds : {&step.celf, &step.imm}) {
      report->answer_spread += evaluator.Estimate(*seeds);
      ++report->answers_scored;
    }
  }
  return Status::OK();
}

// ------------------------------------------------------------- serving-zipf

InfluenceParams ModelParams(const Graph& graph, const std::string& model) {
  if (model == "WC") return MakeWeightedCascade(graph);
  if (model == "LT") return MakeLinearThreshold(graph);
  return MakeUniformIc(graph);
}

/// holimd's loop in-process: one closed-loop client keeps the admission
/// queue full through HolimServer::Submit / DispatchNext.
Status RunServing(const Inputs& in, const RunConfig& config, Tracer& tracer,
                  Report* report) {
  const NodeId nodes = static_cast<NodeId>(in.Int("nodes"));
  const double per_node = in.Double("per_node");
  const std::vector<std::string>& tenant_seeds = in.List("tenant_seeds");
  const std::string algo = in.Str("algo");
  const uint64_t min_ops = in.U64("min_ops");
  const uint64_t warmup = in.U64("warmup_ops");

  ServerOptions options;  // production defaults: affinity, heat, prewarm
  options.queue_depth = static_cast<std::size_t>(in.Int("queue_depth"));
  options.max_cache_bytes = static_cast<std::size_t>(in.Int("cache_bytes"));

  auto request_for = [&](uint64_t id) {
    const std::vector<std::string>& op = in.Op(id);
    ProtocolRequest request;
    request.id = id;
    request.tenant = static_cast<uint32_t>(std::stoul(op[0]));
    request.model = op[1];
    request.k = static_cast<uint32_t>(std::stoul(op[2]));
    request.algo = algo;
    return request;
  };

  std::unique_ptr<HolimServer> server;
  std::vector<std::string> answers;     // seeds by request id
  std::vector<int> times_answered;      // by request id
  std::vector<int64_t> submit_nanos;    // by request id
  uint64_t next_id = 0;

  // Submits request `next_id`; a rejection counts as a failed op.
  auto submit = [&](bool timed) {
    const uint64_t id = next_id++;
    submit_nanos.resize(next_id);
    answers.resize(next_id);
    times_answered.resize(next_id, 0);
    submit_nanos[id] = perfbench::NowNanos();
    const int span = tracer.Begin("serving.submit", timed ? int64_t(id) : -1);
    const Status status = server->Submit(request_for(id));
    tracer.End(span);
    if (timed) ++report->attempted;
    if (!status.ok() && timed) {
      report->Fail("request " + std::to_string(id) + " rejected: " +
                   status.ToString());
    }
  };
  auto cache_counters = [&] {
    CacheCounters counters;
    for (uint32_t t = 0; t < server->num_tenants(); ++t) {
      counters.Add(server->tenant_engine(t).workspace());
    }
    return counters;
  };
  // Dispatches one request and records its reply.
  auto dispatch = [&](bool timed) {
    const bool traced = tracer.enabled() && timed;
    CacheCounters before;
    if (traced) {
      tracer.Count(-1, "serving.queue_len",
                   static_cast<double>(server->queue_size()));
      before = cache_counters();
    }
    const int span = tracer.Begin("serving.dispatch", -1);
    Result<ProtocolReply> reply = server->DispatchNext();
    const int64_t id = reply.ok() ? static_cast<int64_t>(reply->id) : -1;
    tracer.End(span, timed ? id : -1);
    if (!reply.ok()) {
      if (timed) report->Fail("dispatch: " + reply.status().ToString());
      return;
    }
    answers[reply->id] = reply->seeds_csv;
    ++times_answered[reply->id];
    if (!timed) return;
    report->latency_ms.push_back(
        static_cast<double>(perfbench::NowNanos() - submit_nanos[reply->id]) /
        1e6);
    if (traced) {
      CountCacheDelta(tracer, id, before, cache_counters());
      tracer.Count(id, "serving.wait_ms", reply->wait_ms);
      tracer.Count(id, "serving.service_ms", reply->solve_ms);
      tracer.Count(id, "engine.warm_sketch", reply->warm_sketch ? 1.0 : 0.0);
    }
  };

  // Set-up: write and read the tenant bundles, build the server, and run
  // the warm-up prefix of the stream through it.
  for (long long r = 0; r < in.Int("setup_repeats"); ++r) {
    server.reset();
    next_id = 0;
    answers.clear();
    times_answered.clear();
    submit_nanos.clear();
    Timer setup;
    server = std::make_unique<HolimServer>(options);
    for (std::size_t t = 0; t < tenant_seeds.size(); ++t) {
      const std::string path =
          config.workdir + "/tenant" + std::to_string(t) + ".bundle";
      HOLIM_RETURN_NOT_OK(
          WriteBundle(path, nodes, per_node, std::stoull(tenant_seeds[t])));
      HOLIM_ASSIGN_OR_RETURN(GraphBundle bundle, LoadBundle(tracer, path, -1));
      HOLIM_RETURN_NOT_OK(server->AddTenant(std::move(bundle.graph)));
    }
    while (next_id < warmup) {
      while (next_id < warmup && !server->queue_full()) submit(false);
      dispatch(false);
    }
    while (server->queue_size() > 0) dispatch(false);
    report->setup_s.push_back(setup.ElapsedSeconds());
  }

  const ServerStats start = server->stats();
  LoopClock clock;
  auto more = [&] {
    return WantMore(next_id - warmup, min_ops, config, clock);
  };
  while (more() && !server->queue_full()) submit(true);
  while (server->queue_size() > 0) {
    dispatch(true);
    if (more()) submit(true);
  }
  report->measured_s = clock.Wall();
  report->cpu_s = clock.Cpu();
  report->peak_rss_mb = PeakRssMb();

  const ServerStats& end = server->stats();
  const double served = static_cast<double>(end.served - start.served);
  tracer.Count(-1, "serving.builds",
               static_cast<double>(end.sketch_builds - start.sketch_builds));
  tracer.Count(-1, "serving.warm_hit_frac",
               static_cast<double>(end.warm_sketch_hits -
                                   start.warm_sketch_hits) /
                   std::max(1.0, served));
  tracer.Count(-1, "serving.coalesced",
               static_cast<double>(end.coalesced - start.coalesced));
  tracer.Count(-1, "serving.prewarms",
               static_cast<double>(end.prewarms - start.prewarms));
  tracer.Count(-1, "serving.rejected",
               static_cast<double>(end.rejected - start.rejected));
  tracer.Count(-1, "serving.failed",
               static_cast<double>(end.failed - start.failed));

  // Every measured id answered exactly once, with the answer a direct
  // cold solve gives for its (tenant, model, k).
  std::map<std::string, std::string> cold_answers;  // "t model k" -> seeds
  std::map<std::string, std::vector<NodeId>> scored;  // first min_ops ids
  for (uint64_t id = warmup; id < next_id; ++id) {
    if (times_answered[id] != 1) {
      report->Fail("request " + std::to_string(id) + " answered " +
                   std::to_string(times_answered[id]) + " times");
      continue;
    }
    const ProtocolRequest request = request_for(id);
    const std::string key = std::to_string(request.tenant) + " " +
                            request.model + " " + std::to_string(request.k);
    auto it = cold_answers.find(key);
    if (it == cold_answers.end()) {
      const Graph& graph = server->tenant_engine(request.tenant).graph();
      const InfluenceParams params = ModelParams(graph, request.model);
      HolimEngine cold(graph);
      SolveRequest solve;
      solve.algorithm = algo;
      solve.k = std::min<uint32_t>(request.k, graph.num_nodes());
      solve.params = &params;
      solve.oracle = SpreadOracle::kSketch;
      solve.num_sketches = options.num_sketches;
      solve.mc = options.num_sketches;
      solve.seed = options.seed;
      solve.threads = 1;
      HOLIM_ASSIGN_OR_RETURN(SolveResult result, cold.Solve(solve));
      it = cold_answers.emplace(key, JoinSeeds(result.seeds)).first;
      if (id < warmup + min_ops) scored.emplace(key, result.seeds);
    }
    if (answers[id] != it->second) {
      report->Fail("request " + std::to_string(id) + " (" + key + ") [" +
                   answers[id] + "] != cold [" + it->second + "]");
    }
  }

  // Score each distinct (tenant, model, k) of the first min_ops requests.
  SketchOptions eval;
  eval.num_snapshots = static_cast<uint32_t>(in.Int("eval_sketches"));
  eval.seed = in.U64("eval_seed");
  std::map<std::string, std::unique_ptr<SketchOracle>> evaluators;
  std::map<std::string, InfluenceParams> eval_params;
  for (const auto& [key, seeds] : scored) {
    std::istringstream fields(key);
    uint32_t tenant = 0;
    std::string model;
    fields >> tenant >> model;
    const std::string oracle_key = std::to_string(tenant) + " " + model;
    auto& evaluator = evaluators[oracle_key];
    if (!evaluator) {
      const Graph& graph = server->tenant_engine(tenant).graph();
      const InfluenceParams& params =
          eval_params.emplace(oracle_key, ModelParams(graph, model))
              .first->second;
      evaluator = std::make_unique<SketchOracle>(graph, params, eval);
      if (tracer.enabled()) {
        ProbeSketch(tracer, graph, params, options.num_sketches, options.seed,
                    seeds);
      }
    }
    report->answer_spread += evaluator->Estimate(seeds);
    ++report->answers_scored;
  }
  return Status::OK();
}

// -------------------------------------------------------------- environment

/// Spin-loop rate in millions of iterations per second with `threads`
/// threads spinning at once (aggregate), over about `seconds`.
double SpinRate(unsigned threads, double seconds) {
  std::vector<uint64_t> counts(threads, 0);
  std::vector<std::thread> pool;
  Timer timer;
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      uint64_t x = t + 1, n = 0;
      Timer local;
      while (local.ElapsedSeconds() < seconds) {
        for (int i = 0; i < 100000; ++i) x = x * 6364136223846793005ULL + 1;
        n += 100000;
      }
      counts[t] = n + (x & 1);
    });
  }
  for (std::thread& th : pool) th.join();
  uint64_t total = 0;
  for (uint64_t c : counts) total += c;
  return static_cast<double>(total) / timer.ElapsedSeconds() / 1e6;
}

void WriteEnv(std::FILE* out) {
  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  const unsigned spin_threads = static_cast<unsigned>(std::max(1L, nproc));
  std::fprintf(out,
               "\"env\": {\"nproc\": %ld, \"spin_mops_1\": %.1f, "
               "\"spin_mops_all\": %.1f, \"threads\": \"SolveRequest.threads=1"
               "; holimd solves use the server default\", \"compiler\": "
               "\"%s\", \"build_type\": \"%s\"}",
               nproc, SpinRate(1, 0.05), SpinRate(spin_threads, 0.05),
               PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE);
}

void WriteReport(std::FILE* out, const std::string& workload,
                 const Report& report, const Tracer& tracer) {
  std::fprintf(out, "{\"workload\": \"%s\",\n", workload.c_str());
  std::fprintf(out, "\"attempted\": %llu, \"failed\": %llu,\n",
               static_cast<unsigned long long>(report.attempted),
               static_cast<unsigned long long>(report.failed));
  std::fprintf(out, "\"problems\": [");
  for (std::size_t i = 0; i < report.problems.size(); ++i) {
    std::string text = report.problems[i];
    std::replace(text.begin(), text.end(), '"', '\'');
    std::replace(text.begin(), text.end(), '\\', '/');
    std::fprintf(out, "%s\"%s\"", i ? ", " : "", text.c_str());
  }
  auto list = [&](const char* name, const std::vector<double>& values) {
    std::fprintf(out, "\"%s\": [", name);
    for (std::size_t i = 0; i < values.size(); ++i) {
      std::fprintf(out, "%s%.6f", i ? ", " : "", values[i]);
    }
    std::fprintf(out, "],\n");
  };
  std::fprintf(out, "],\n");
  list("setup_s", report.setup_s);
  list("latency_ms", report.latency_ms);
  std::fprintf(out,
               "\"measured_s\": %.6f, \"cpu_s\": %.6f, "
               "\"peak_rss_mb\": %.3f,\n"
               "\"answer_spread\": %.6f, \"answers_scored\": %llu,\n",
               report.measured_s, report.cpu_s, report.peak_rss_mb,
               report.answers_scored
                   ? report.answer_spread /
                         static_cast<double>(report.answers_scored)
                   : 0.0,
               static_cast<unsigned long long>(report.answers_scored));
  WriteEnv(out);
  std::fprintf(out, ",\n");
  tracer.WriteJson(out);
  std::fprintf(out, "}\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) args[argv[i]] = argv[i + 1];
  for (const char* flag : {"--inputs", "--workdir", "--out"}) {
    if (!args.count(flag)) {
      std::fprintf(stderr,
                   "usage: perfbench --inputs F --workdir D --out F "
                   "[--seconds S] [--trace 0|1] [--fixed-ops 0|1]\n");
      return 2;
    }
  }
  RunConfig config;
  config.workdir = args["--workdir"];
  if (args.count("--seconds")) config.seconds = std::stod(args["--seconds"]);
  config.trace = args.count("--trace") && args["--trace"] == "1";
  config.fixed_ops = args.count("--fixed-ops") && args["--fixed-ops"] == "1";

  Result<Inputs> inputs = Inputs::Load(args["--inputs"]);
  if (!inputs.ok()) {
    std::fprintf(stderr, "perfbench: %s\n",
                 inputs.status().ToString().c_str());
    return 2;
  }
  const std::string workload = inputs->Str("workload");
  Tracer tracer(config.trace);
  Report report;
  Status status;
  if (workload == "oneshot-paper") {
    status = RunOneshot(*inputs, config, tracer, &report);
  } else if (workload == "churn-baselines") {
    status = RunChurn(*inputs, config, tracer, &report);
  } else if (workload == "serving-zipf") {
    status = RunServing(*inputs, config, tracer, &report);
  } else {
    status = Status::InvalidArgument("unknown workload " + workload);
  }
  if (!status.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", status.ToString().c_str());
    return 1;
  }
  std::FILE* out = std::fopen(args["--out"].c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "perfbench: cannot write %s\n",
                 args["--out"].c_str());
    return 1;
  }
  WriteReport(out, workload, report, tracer);
  std::fclose(out);
  return 0;
}
