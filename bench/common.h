#ifndef HOLIM_BENCH_COMMON_H_
#define HOLIM_BENCH_COMMON_H_

// Shared setup helpers for bench_repro (the paper's figures and tables:
// each prints a fixed-width table and writes a CSV copy under results/)
// and the micro benches.

#include <memory>
#include <string>
#include <vector>

#include "bench_support/bench_main.h"
#include "bench_support/experiment.h"
#include "data/datasets.h"
#include "diffusion/sketch_oracle.h"
#include "diffusion/spread_estimator.h"
#include "graph/stats.h"
#include "model/influence_params.h"
#include "model/opinion_params.h"
#include "util/logging.h"
#include "util/memory.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace holim {
namespace bench {

/// A loaded dataset + first-layer parameters.
struct Workload {
  std::string dataset;
  Graph graph;
  InfluenceParams params;
};

inline Result<Workload> LoadWorkload(const std::string& dataset, double scale,
                                     DiffusionModel model) {
  Workload w;
  w.dataset = dataset;
  HOLIM_ASSIGN_OR_RETURN(w.graph, LoadSyntheticDataset(dataset, scale));
  // Note: callers that replay cascades (OI opinion estimation) should call
  // w.graph.BuildEdgeSourceIndex() for O(1) EdgeSource; it is not built
  // here so the memory-figure binaries keep the bare CSR footprint.
  switch (model) {
    case DiffusionModel::kIndependentCascade:
      w.params = MakeUniformIc(w.graph, 0.1);
      break;
    case DiffusionModel::kWeightedCascade:
      w.params = MakeWeightedCascade(w.graph);
      break;
    case DiffusionModel::kLinearThreshold:
      w.params = MakeLinearThreshold(w.graph);
      break;
  }
  return w;
}

/// The k values at which a "vs seeds" figure is sampled.
inline std::vector<uint32_t> SeedGrid(uint32_t max_k) {
  std::vector<uint32_t> grid;
  for (uint32_t k : {1u, max_k / 4, max_k / 2, 3 * max_k / 4, max_k}) {
    if (k >= 1 && (grid.empty() || k > grid.back())) grid.push_back(k);
  }
  return grid;
}

/// Evaluates expected spread of seed prefixes at each k in `grid`.
inline std::vector<double> SpreadAtPrefixes(
    const Graph& graph, const InfluenceParams& params,
    const std::vector<NodeId>& seeds, const std::vector<uint32_t>& grid,
    uint32_t mc, uint64_t seed) {
  std::vector<double> out;
  McOptions options;
  options.num_simulations = mc;
  options.seed = seed;
  for (uint32_t k : grid) {
    const std::size_t take = std::min<std::size_t>(k, seeds.size());
    std::vector<NodeId> prefix(seeds.begin(), seeds.begin() + take);
    out.push_back(EstimateSpread(graph, params, prefix, options));
  }
  return out;
}

/// One-stop sketch-oracle construction for the bench binaries: R
/// snapshots seeded from the common config (serial sampling — the figure
/// binaries are single-thread by methodology). `record_edge_offsets` is
/// needed only by the opinion-replay benches.
inline std::shared_ptr<const SketchOracle> MakeSketchOracle(
    const Graph& graph, const InfluenceParams& params, uint32_t snapshots,
    uint64_t seed, bool record_edge_offsets = false) {
  SketchOptions options;
  options.num_snapshots = snapshots;
  options.seed = seed;
  options.record_edge_offsets = record_edge_offsets;
  return std::make_shared<const SketchOracle>(graph, params, options);
}

/// Sketch-oracle twin of SpreadAtPrefixes: evaluates sigma at each seed
/// prefix over the oracle's frozen snapshots through ONE incremental
/// session — each grid point extends the previous prefix, so the whole
/// sweep activates every (snapshot, node) pair at most once instead of
/// re-walking reach(S) per prefix.
inline std::vector<double> SpreadAtPrefixesSketch(
    const SketchOracle& oracle, const std::vector<NodeId>& seeds,
    const std::vector<uint32_t>& grid) {
  SketchOracle::Session session(oracle);
  std::vector<double> out;
  std::size_t committed = 0;
  for (uint32_t k : grid) {
    const std::size_t take = std::min<std::size_t>(k, seeds.size());
    for (; committed < take; ++committed) session.Commit(seeds[committed]);
    out.push_back(session.Spread());
  }
  return out;
}

/// Sketch-oracle twin of OpinionSpreadAtPrefixes (IC base): expected-alpha
/// opinion replay over the oracle's frozen snapshots (exact estimand at
/// lambda == 1; the oracle must be built with record_edge_offsets). The
/// replay is path-dependent, so prefixes are evaluated one-shot — the
/// reuse win is sampling the worlds once across all prefixes/selectors.
inline std::vector<double> OpinionSpreadAtPrefixesSketch(
    const SketchOracle& oracle, const OpinionParams& opinions,
    const std::vector<NodeId>& seeds, const std::vector<uint32_t>& grid,
    double lambda) {
  std::vector<double> out;
  for (uint32_t k : grid) {
    const std::size_t take = std::min<std::size_t>(k, seeds.size());
    std::vector<NodeId> prefix(seeds.begin(), seeds.begin() + take);
    out.push_back(oracle
                      .EstimateOpinion(opinions, OiBase::kIndependentCascade,
                                       prefix, lambda)
                      .effective_opinion_spread);
  }
  return out;
}

/// Evaluates expected effective opinion spread of seed prefixes.
inline std::vector<double> OpinionSpreadAtPrefixes(
    const Graph& graph, const InfluenceParams& params,
    const OpinionParams& opinions, OiBase base,
    const std::vector<NodeId>& seeds, const std::vector<uint32_t>& grid,
    double lambda, uint32_t mc, uint64_t seed) {
  std::vector<double> out;
  McOptions options;
  options.num_simulations = mc;
  options.seed = seed;
  for (uint32_t k : grid) {
    const std::size_t take = std::min<std::size_t>(k, seeds.size());
    std::vector<NodeId> prefix(seeds.begin(), seeds.begin() + take);
    out.push_back(EstimateOpinionSpread(graph, params, opinions, base, prefix,
                                        lambda, options)
                      .effective_opinion_spread);
  }
  return out;
}

inline std::string CsvPath(const std::string& name) {
  return ResultsDir() + "/" + name + ".csv";
}

}  // namespace bench
}  // namespace holim

#endif  // HOLIM_BENCH_COMMON_H_
