// Engine batch-amortization microbenchmark: an 8-query algorithm-
// comparison batch on the 100k-node WC benchmark graph, solved through
// HolimEngine twice — COLD (the Workspace is cleared before every query,
// so each query resamples its sketch-oracle worlds and rebuilds selector
// state) versus WARM (one shared Workspace across the batch, so the
// arena is sampled once and reused). Emits BENCH_engine.json; the CI
// bench-gate (tools/check_bench_regression.py, "engine" table entry) fails
// the job when the batch speedup or the deterministic workspace footprint
// regresses against the committed baseline.
//
// Every query asks for --oracle=sketch spread evaluation of its selected
// seeds over the same R live-edge worlds (same params fingerprint + seed
// + R => same Workspace key), which is the realistic serving shape: many
// algorithm/query variations against one prepared graph. Warm-vs-cold
// seed sets are HOLIM_CHECKed identical — reuse must be bitwise-free.
//
// Single-thread on purpose (serial solves, serial sampling): the
// reference bench host is single-core and the speedup is a ratio of
// single-thread times, which transfers across machines.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_support/engine_support.h"
#include "common.h"
#include "graph/generators.h"
#include "util/timer.h"

using namespace holim;

namespace {

struct QueryOutcome {
  std::vector<NodeId> seeds;
  double spread = 0.0;
};

Status Run(const BenchArgs& args) {
  const NodeId nodes = static_cast<NodeId>(args.GetInt("nodes", 100000));
  const uint32_t snapshots =
      static_cast<uint32_t>(args.GetInt("snapshots", 200));
  const uint32_t k = static_cast<uint32_t>(args.GetInt("k", 10));
  const uint64_t seed = static_cast<uint64_t>(args.GetInt("seed", 42));
  const std::string json_path = args.GetString("json", "BENCH_engine.json");
  if (nodes == 0 || snapshots == 0 || k == 0) {
    return Status::InvalidArgument(
        "--nodes/--snapshots/--k must be positive");
  }

  HOLIM_ASSIGN_OR_RETURN(Graph graph, GenerateBarabasiAlbert(nodes, 4, seed));
  InfluenceParams params = MakeWeightedCascade(graph);

  // The 8-query comparison batch: fast selectors spanning the scoring,
  // snapshot, rank, and degree families, each judged on the shared sketch
  // worlds. (The heavyweights — TIM+/IMM/CELF — have their own gated
  // micro benches; here the artifact amortization is the subject.)
  const char* algorithms[] = {"degree",   "singlediscount", "degreediscount",
                              "pagerank", "random",         "imrank",
                              "asim",     "easyim"};
  constexpr std::size_t kQueries = sizeof(algorithms) / sizeof(algorithms[0]);

  std::printf("graph: n=%u m=%llu, WC weights, R=%u snapshots, %zu-query "
              "batch, k=%u\n",
              graph.num_nodes(),
              static_cast<unsigned long long>(graph.num_edges()), snapshots,
              kQueries, k);

  auto make_request = [&](const char* algorithm) {
    SolveRequest request;
    request.algorithm = algorithm;
    request.k = k;
    request.params = &params;
    request.l = 1;  // EaSyIM/ASIM horizon; keeps solve cost << sampling
    request.mc = snapshots;
    request.seed = seed;
    request.oracle = SpreadOracle::kSketch;
    request.num_sketches = snapshots;
    request.evaluate_spread = true;
    return request;
  };

  auto run_batch = [&](HolimEngine& engine, bool clear_between,
                       std::vector<QueryOutcome>* outcomes,
                       uint64_t* sketch_builds) -> Status {
    outcomes->clear();
    const uint64_t misses_before = engine.workspace().misses();
    for (const char* algorithm : algorithms) {
      if (clear_between) engine.workspace().Clear();
      HOLIM_ASSIGN_OR_RETURN(SolveResult result,
                             engine.Solve(make_request(algorithm)));
      outcomes->push_back({std::move(result.seeds), result.spread});
    }
    // Sketch builds = misses on the one sketch key (selector misses are
    // counted too, so subtract the per-query selector miss).
    *sketch_builds = engine.workspace().misses() - misses_before - kQueries;
    return Status::OK();
  };

  // COLD: every query pays its own sampling (Workspace cleared per query).
  HolimEngine cold_engine(graph);
  std::vector<QueryOutcome> cold_outcomes;
  uint64_t cold_sketch_builds = 0;
  Timer cold_timer;
  HOLIM_RETURN_NOT_OK(run_batch(cold_engine, /*clear_between=*/true,
                                &cold_outcomes, &cold_sketch_builds));
  const double cold_seconds = cold_timer.ElapsedSeconds();

  // WARM: one Workspace across the batch.
  HolimEngine warm_engine(graph);
  std::vector<QueryOutcome> warm_outcomes;
  uint64_t warm_sketch_builds = 0;
  Timer warm_timer;
  HOLIM_RETURN_NOT_OK(run_batch(warm_engine, /*clear_between=*/false,
                                &warm_outcomes, &warm_sketch_builds));
  const double warm_seconds = warm_timer.ElapsedSeconds();

  // Reuse must be bitwise-free: warm and cold pick identical seeds and
  // report identical spreads, query by query.
  for (std::size_t q = 0; q < kQueries; ++q) {
    HOLIM_CHECK(warm_outcomes[q].seeds == cold_outcomes[q].seeds)
        << "warm/cold seed divergence in query " << algorithms[q];
    HOLIM_CHECK(warm_outcomes[q].spread == cold_outcomes[q].spread)
        << "warm/cold spread divergence in query " << algorithms[q];
  }

  const double batch_speedup = cold_seconds / warm_seconds;
  const std::size_t workspace_bytes =
      warm_engine.workspace().MemoryFootprintBytes();
  std::printf("\nbatch (%zu queries):\n"
              "  cold  %.3fs  (%llu sketch builds)\n"
              "  warm  %.3fs  (%llu sketch builds)\n"
              "  -> %.2fx amortization, warm workspace %.1f MiB "
              "(%zu artifacts)\n",
              kQueries, cold_seconds,
              static_cast<unsigned long long>(cold_sketch_builds),
              warm_seconds,
              static_cast<unsigned long long>(warm_sketch_builds),
              batch_speedup, MemoryMeter::ToMiB(workspace_bytes),
              warm_engine.workspace().num_artifacts());

  FILE* f = std::fopen(json_path.c_str(), "w");
  if (!f) return Status::IOError("cannot write " + json_path);
  std::string algo_list;
  for (const char* algorithm : algorithms) {
    if (!algo_list.empty()) algo_list += "\", \"";
    algo_list += algorithm;
  }
  std::fprintf(
      f,
      "{\n  \"bench\": \"engine\",\n  \"nodes\": %u,\n  \"edges\": %llu,\n"
      "  \"model\": \"WC\",\n  \"queries\": %zu,\n  \"k\": %u,\n"
      "  \"snapshots\": %u,\n  \"seed\": %llu,\n"
      "  \"algorithms\": [\"%s\"],\n"
      "  \"batch\": {\n    \"cold_seconds\": %.6f,\n"
      "    \"warm_seconds\": %.6f,\n    \"batch_speedup\": %.4f,\n"
      "    \"cold_sketch_builds\": %llu,\n"
      "    \"warm_sketch_builds\": %llu\n  },\n"
      "  \"warm\": {\n    \"workspace_bytes\": %zu,\n"
      "    \"artifacts\": %zu,\n    \"seeds_match_cold\": true\n  }\n}\n",
      graph.num_nodes(), static_cast<unsigned long long>(graph.num_edges()),
      kQueries, k, snapshots, static_cast<unsigned long long>(seed),
      algo_list.c_str(), cold_seconds, warm_seconds, batch_speedup,
      static_cast<unsigned long long>(cold_sketch_builds),
      static_cast<unsigned long long>(warm_sketch_builds), workspace_bytes,
      warm_engine.workspace().num_artifacts());
  std::fclose(f);
  std::printf("wrote %s\n", json_path.c_str());
  return Status::OK();
}

}  // namespace

int main(int argc, char** argv) {
  return BenchMain(
      argc, argv,
      "Engine batch-amortization microbenchmark (warm vs cold Workspace)",
      Run, [](BenchArgs* args) {
        args->Declare("nodes", "graph size (default 100000)");
        args->Declare("snapshots",
                      "sketch-oracle live-edge worlds R shared by the batch "
                      "(default 200)");
        args->Declare("k", "seeds per query (default 10)");
        args->Declare("json", "output JSON path (default BENCH_engine.json)");
      });
}
