// Query-family microbenchmark: the four non-topk query kinds solved
// through HolimEngine on one prepared BA/WC graph, emitting
// BENCH_query.json for the CI bench-gate (tools/check_bench_regression.py,
// "query_family" table entry).
//
// Deterministic parity metrics (gated exactly — they are contracts, not
// timings):
//   * budgeted.uniform_parity        — uniform-cost budgeted CELF at
//     budget == k is bitwise-identical to plain top-k CELF (1.0 = equal);
//   * budgeted.lazy_eager_seed_match — lazy (CELF) and eager (greedy)
//     budgeted selection agree seed-for-seed under degree costs;
//   * targeted.allones_parity        — all-ones targeted selection is
//     bitwise-identical to untargeted (weighted kernels reproduce the
//     integer path);
//   * targeted.topic_gain_ratio      — weighted spread of the targeted
//     solve over the untargeted winner rescored on the same Twitter-topic
//     weights (>= 1.0: targeting must not lose to not targeting);
//   * explain.contribution_sum_parity — sum of explain's per-seed
//     contributions over the evaluate spread (exactly 1.0 at the
//     power-of-two snapshot count used here).
//
// Timing ratios (best-of-two in CI, machine-transferable):
//   * budgeted.lazy_speedup          — eager budgeted greedy seconds over
//     lazy budgeted CELF seconds on the same session oracle;
//   * explain.explain_speedup_vs_solve — selecting k seeds vs explaining
//     the same k seeds (attribution must cost far less than search).
//
// Single-thread on purpose: ratios of single-thread times transfer.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_support/engine_support.h"
#include "bench_support/query_support.h"
#include "common.h"
#include "graph/generators.h"
#include "util/timer.h"

using namespace holim;

namespace {

Status Run(const BenchArgs& args) {
  const NodeId nodes = static_cast<NodeId>(args.GetInt("nodes", 30000));
  const uint32_t snapshots =
      static_cast<uint32_t>(args.GetInt("snapshots", 256));
  const uint32_t k = static_cast<uint32_t>(args.GetInt("k", 10));
  const uint64_t seed = static_cast<uint64_t>(args.GetInt("seed", 42));
  const std::string json_path = args.GetString("json", "BENCH_query.json");
  if (nodes == 0 || snapshots == 0 || k == 0) {
    return Status::InvalidArgument(
        "--nodes/--snapshots/--k must be positive");
  }

  HOLIM_ASSIGN_OR_RETURN(Graph graph, GenerateBarabasiAlbert(nodes, 4, seed));
  InfluenceParams params = MakeWeightedCascade(graph);
  std::printf("graph: n=%u m=%llu, WC weights, R=%u snapshots, k=%u\n",
              graph.num_nodes(),
              static_cast<unsigned long long>(graph.num_edges()), snapshots,
              k);

  HolimEngine engine(graph);
  auto make_request = [&](const char* algorithm) {
    SolveRequest request;
    request.algorithm = algorithm;
    request.k = k;
    request.params = &params;
    request.mc = snapshots;
    request.seed = seed;
    request.oracle = SpreadOracle::kSketch;
    request.num_sketches = snapshots;  // power of two: exact telescoping
    request.evaluate_spread = true;
    return request;
  };

  // --- top-k reference (also warms the shared arena) ---------------------
  SolveRequest topk = make_request("celf");
  HOLIM_ASSIGN_OR_RETURN(SolveResult plain, engine.Solve(topk));
  const double solve_seconds = plain.select_seconds;
  std::printf("topk celf: spread %.2f in %.3fs\n", plain.spread,
              solve_seconds);

  // --- budgeted: uniform parity + lazy-vs-eager under degree costs -------
  SolveRequest uniform = make_request("celf");
  uniform.query = QueryKind::kBudgeted;
  uniform.budget = static_cast<double>(k);
  HOLIM_ASSIGN_OR_RETURN(SolveResult capped, engine.Solve(uniform));
  const bool uniform_parity = capped.seeds == plain.seeds &&
                              capped.seed_scores == plain.seed_scores &&
                              capped.spread == plain.spread;

  HOLIM_ASSIGN_OR_RETURN(std::vector<double> degree_costs,
                         MaterializeCosts("degree", graph));
  double total_cost = 0.0;
  for (const double c : degree_costs) total_cost += c;
  // A budget around k average costs: several seeds fit, hubs force the
  // benefit-per-cost trade-off (and the drop rule) to matter.
  const double budget = k * total_cost / graph.num_nodes();

  SolveRequest lazy = make_request("celf");
  lazy.query = QueryKind::kBudgeted;
  lazy.node_costs = degree_costs;
  lazy.budget = budget;
  HOLIM_ASSIGN_OR_RETURN(SolveResult lazy_result, engine.Solve(lazy));

  SolveRequest eager = make_request("greedy");
  eager.query = QueryKind::kBudgeted;
  eager.node_costs = degree_costs;
  eager.budget = budget;
  HOLIM_ASSIGN_OR_RETURN(SolveResult eager_result, engine.Solve(eager));

  const bool lazy_eager_match = lazy_result.seeds == eager_result.seeds;
  const double lazy_speedup =
      eager_result.select_seconds /
      std::max(1e-9, lazy_result.select_seconds);
  std::printf("budgeted (budget %.1f, degree costs): %zu seeds, cost %.1f, "
              "lazy %.3fs vs eager %.3fs -> %.1fx\n",
              budget, lazy_result.seeds.size(), lazy_result.total_cost,
              lazy_result.select_seconds, eager_result.select_seconds,
              lazy_speedup);

  // --- targeted: all-ones parity + Twitter-topic gain --------------------
  SolveRequest allones = make_request("celf");
  allones.query = QueryKind::kTargeted;
  allones.target_weights.assign(graph.num_nodes(), 1.0);
  HOLIM_ASSIGN_OR_RETURN(SolveResult aimed_uniform, engine.Solve(allones));
  const bool allones_parity =
      aimed_uniform.seeds == plain.seeds &&
      aimed_uniform.seed_scores == plain.seed_scores &&
      aimed_uniform.targeted_spread == aimed_uniform.spread;

  HOLIM_ASSIGN_OR_RETURN(std::vector<double> topic_weights,
                         MaterializeTargets("twitter-topic:1", graph, seed));
  SolveRequest targeted = make_request("celf");
  targeted.query = QueryKind::kTargeted;
  targeted.target_weights = topic_weights;
  HOLIM_ASSIGN_OR_RETURN(SolveResult aimed, engine.Solve(targeted));

  SolveRequest rescored = make_request("celf");
  rescored.query = QueryKind::kEvaluate;
  rescored.given_seeds = plain.seeds;
  rescored.target_weights = topic_weights;
  HOLIM_ASSIGN_OR_RETURN(SolveResult baseline, engine.Solve(rescored));
  const double topic_gain_ratio =
      aimed.targeted_spread / std::max(1e-9, baseline.targeted_spread);
  std::printf("targeted (twitter-topic:1): sigma_w %.2f vs untargeted "
              "winner %.2f -> %.2fx\n",
              aimed.targeted_spread, baseline.targeted_spread,
              topic_gain_ratio);

  // --- explain: exact telescoping + attribution cost ---------------------
  SolveRequest evaluate = make_request("celf");
  evaluate.query = QueryKind::kEvaluate;
  evaluate.given_seeds = plain.seeds;
  HOLIM_ASSIGN_OR_RETURN(SolveResult scored, engine.Solve(evaluate));

  SolveRequest explain = make_request("celf");
  explain.query = QueryKind::kExplain;
  explain.given_seeds = plain.seeds;
  constexpr int kExplainReps = 20;
  double explain_seconds = 0.0;
  double contribution_sum = 0.0;
  for (int rep = 0; rep < kExplainReps; ++rep) {
    HOLIM_ASSIGN_OR_RETURN(SolveResult attributed, engine.Solve(explain));
    explain_seconds += attributed.spread_seconds;
    contribution_sum = 0.0;
    for (const double c : attributed.seed_contributions) {
      contribution_sum += c;
    }
  }
  explain_seconds /= kExplainReps;
  const double contribution_sum_parity =
      contribution_sum / std::max(1e-9, scored.spread);
  const double explain_speedup =
      solve_seconds / std::max(1e-9, explain_seconds);
  std::printf("explain: contributions sum %.4f vs evaluate %.4f "
              "(parity %.6f), %.4fs vs solve %.3fs -> %.0fx\n",
              contribution_sum, scored.spread, contribution_sum_parity,
              explain_seconds, solve_seconds, explain_speedup);

  HOLIM_CHECK(uniform_parity) << "uniform-cost budgeted != topk";
  HOLIM_CHECK(allones_parity) << "all-ones targeted != untargeted";
  HOLIM_CHECK(contribution_sum == scored.spread)
      << "explain contributions do not telescope to the evaluate spread";

  FILE* f = std::fopen(json_path.c_str(), "w");
  if (!f) return Status::IOError("cannot write " + json_path);
  std::fprintf(
      f,
      "{\n  \"bench\": \"query_family\",\n  \"nodes\": %u,\n"
      "  \"edges\": %llu,\n  \"model\": \"WC\",\n  \"k\": %u,\n"
      "  \"snapshots\": %u,\n  \"seed\": %llu,\n"
      "  \"budgeted\": {\n    \"uniform_parity\": %.1f,\n"
      "    \"lazy_eager_seed_match\": %.1f,\n"
      "    \"budget\": %.4f,\n    \"lazy_seconds\": %.6f,\n"
      "    \"eager_seconds\": %.6f,\n    \"lazy_speedup\": %.4f\n  },\n"
      "  \"targeted\": {\n    \"allones_parity\": %.1f,\n"
      "    \"topic_gain_ratio\": %.4f\n  },\n"
      "  \"explain\": {\n    \"contribution_sum_parity\": %.6f,\n"
      "    \"explain_seconds\": %.6f,\n    \"solve_seconds\": %.6f,\n"
      "    \"explain_speedup_vs_solve\": %.4f\n  }\n}\n",
      graph.num_nodes(), static_cast<unsigned long long>(graph.num_edges()),
      k, snapshots, static_cast<unsigned long long>(seed),
      uniform_parity ? 1.0 : 0.0, lazy_eager_match ? 1.0 : 0.0, budget,
      lazy_result.select_seconds, eager_result.select_seconds, lazy_speedup,
      allones_parity ? 1.0 : 0.0, topic_gain_ratio, contribution_sum_parity,
      explain_seconds, solve_seconds, explain_speedup);
  std::fclose(f);
  std::printf("wrote %s\n", json_path.c_str());
  return Status::OK();
}

}  // namespace

int main(int argc, char** argv) {
  return BenchMain(
      argc, argv,
      "Query-family microbenchmark (budgeted / targeted / explain)", Run,
      [](BenchArgs* args) {
        args->Declare("nodes", "graph size (default 30000)");
        args->Declare("snapshots",
                      "sketch-oracle live-edge worlds R (default 256 — a "
                      "power of two so explain telescopes exactly)");
        args->Declare("k", "seeds per query (default 10)");
        args->Declare("json", "output JSON path (default BENCH_query.json)");
      });
}
