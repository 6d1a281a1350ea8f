#include "algo/icn_objective.h"

#include "util/rng.h"
#include "util/thread_pool.h"

namespace holim {

double EstimateIcnPositiveSpread(const Graph& graph,
                                 const InfluenceParams& params,
                                 double quality_factor,
                                 const std::vector<NodeId>& seeds,
                                 const McOptions& options) {
  if (seeds.empty()) return 0.0;
  ThreadPool& pool = options.pool ? *options.pool : DefaultThreadPool();
  const std::size_t shards =
      std::max<std::size_t>(1, std::min<std::size_t>(pool.num_threads() * 2,
                                                     options.num_simulations));
  std::vector<double> partial(shards, 0.0);
  const uint32_t per = options.num_simulations / shards;
  const uint32_t rem = options.num_simulations % shards;
  pool.ParallelFor(shards, [&](std::size_t s) {
    const uint32_t count = per + (s < rem ? 1 : 0);
    uint64_t state = options.seed + 0x51ED5EEDULL * (s + 1);
    Rng rng(Rng::SplitMix64(state));
    IcnSimulator sim(graph, params, quality_factor);
    double acc = 0.0;
    for (uint32_t i = 0; i < count; ++i) {
      acc += static_cast<double>(sim.Run(seeds, rng).PositiveSpread());
    }
    partial[s] = acc;
  });
  double total = 0.0;
  for (double p : partial) total += p;
  return total / options.num_simulations;
}

IcnPositiveSpreadObjective::IcnPositiveSpreadObjective(
    const Graph& graph, const InfluenceParams& params, double quality_factor,
    const McOptions& options, std::shared_ptr<const SketchOracle> sketch)
    : graph_(graph),
      params_(params),
      quality_factor_(quality_factor),
      options_(options),
      sketch_(std::move(sketch)) {}

double IcnPositiveSpreadObjective::Evaluate(const std::vector<NodeId>& seeds) {
  if (sketch_) {
    return sketch_->EstimateIcnPositive(seeds, quality_factor_);
  }
  return EstimateIcnPositiveSpread(graph_, params_, quality_factor_, seeds,
                                   options_);
}

}  // namespace holim
