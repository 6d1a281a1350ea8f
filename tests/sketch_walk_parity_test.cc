// One-shot lane walk parity: SketchOracle::Estimate / EstimateWeighted
// against a test-side copy of the branchy FIFO walk they replaced, which
// credits popcount(fresh) (times the target's weight) per entry that
// carries fresh lanes and re-zeroes a touch list at the end. The
// production walk scans rows without a data-dependent branch and counts
// the unweighted total once from the worklist; both must give bitwise
// equal results, weighted sums with non-integer and negative weights
// included (the weighted walk must add the same terms in the same order).
//
// Graphs: dedup-off multigraphs (parallel edges, i.e. repeated targets in
// one row, and self-loops) and a 2000-node social graph at R = 64, the
// holimd tenant shape, where the worklist grows to several times n.
// EstimateIcnPositive calls are interleaved on the same oracle: it shares
// the lane state/pending scratch, so each walk must leave it zeroed.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "algo/heuristics.h"
#include "diffusion/sketch_oracle.h"
#include "graph/generators.h"
#include "graph/graph_builder.h"
#include "model/influence_params.h"
#include "util/rng.h"

namespace holim {
namespace {

constexpr uint32_t kSnapshotCounts[] = {1, 63, 64, 65, 128};

struct ReferenceWalk {
  double estimate = 0.0;
  double weighted = 0.0;  // only when weights were given
  std::size_t max_worklist = 0;
};

/// The branchy one-shot walk as it stood before the row-scan rewrite:
/// per lane group, seed credit, then a FIFO worklist over pending words
/// that credits every entry with fresh lanes, then a touch-list clear.
ReferenceWalk ReferenceEstimate(const SketchOracle& oracle,
                                std::span<const NodeId> seeds,
                                std::span<const double> weights) {
  ReferenceWalk out;
  if (seeds.empty()) return out;
  const NodeId n = oracle.graph().num_nodes();
  const bool weighted = !weights.empty();
  std::vector<uint64_t> state(n, 0), pending(n, 0);
  std::vector<NodeId> queue, touched;
  int64_t count = 0;
  double weight = 0.0;
  auto credit = [&](uint64_t fresh, NodeId node) {
    count += std::popcount(fresh);
    if (weighted) weight += std::popcount(fresh) * weights[node];
  };
  for (uint32_t g = 0; g < oracle.num_lane_groups(); ++g) {
    const uint64_t full = oracle.LaneMaskAll(g);
    queue.clear();
    touched.clear();
    for (NodeId seed : seeds) {
      const uint64_t fresh = full & ~state[seed];
      if (fresh == 0) continue;
      credit(fresh, seed);
      if (state[seed] == 0) touched.push_back(seed);
      state[seed] |= fresh;
      if (pending[seed] == 0) queue.push_back(seed);
      pending[seed] |= fresh;
    }
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const NodeId v = queue[head];
      const uint64_t active = pending[v];
      if (active == 0) continue;
      pending[v] = 0;
      const SketchOracle::LaneAdjacency adj = oracle.LaneTargets(g, v);
      for (uint32_t j = 0; j < adj.size; ++j) {
        const NodeId t = adj.targets[j];
        const uint64_t fresh = adj.masks[j] & active & ~state[t];
        if (fresh == 0) continue;
        credit(fresh, t);
        if (state[t] == 0) touched.push_back(t);
        state[t] |= fresh;
        if (pending[t] == 0) queue.push_back(t);
        pending[t] |= fresh;
      }
    }
    out.max_worklist = std::max(out.max_worklist, queue.size());
    for (NodeId t : touched) state[t] = 0;
  }
  const uint32_t r = oracle.num_snapshots();
  out.estimate = static_cast<double>(
                     count - static_cast<int64_t>(r) *
                                 static_cast<int64_t>(seeds.size())) /
                 r;
  if (weighted) {
    double seed_weight = 0.0;
    for (const NodeId seed : seeds) seed_weight += weights[seed];
    out.weighted = (weight - static_cast<double>(r) * seed_weight) / r;
  }
  return out;
}

void ExpectBitwiseEqual(double got, double want, const std::string& what) {
  EXPECT_EQ(std::bit_cast<uint64_t>(got), std::bit_cast<uint64_t>(want))
      << what << ": got " << got << ", want " << want;
}

/// Checks Estimate and EstimateWeighted on `oracle` against the reference;
/// returns the reference's longest worklist.
std::size_t CheckSeeds(const SketchOracle& oracle,
                       std::span<const NodeId> seeds,
                       std::span<const double> weights) {
  const ReferenceWalk want = ReferenceEstimate(oracle, seeds, weights);
  ExpectBitwiseEqual(oracle.Estimate(seeds), want.estimate, "Estimate");
  ExpectBitwiseEqual(oracle.EstimateWeighted(seeds, weights), want.weighted,
                     "EstimateWeighted");
  return want.max_worklist;
}

/// Random multigraph: dedup off, so rows carry parallel edges (repeated
/// targets in one row) and self-loops; a hub row reaches a third of the
/// nodes.
Graph RandomMultigraph(NodeId n, std::size_t m, uint64_t seed) {
  Rng rng(seed);
  GraphBuilder builder(n);
  builder.set_deduplicate(false);
  for (std::size_t i = 0; i < m; ++i) {
    const NodeId u = static_cast<NodeId>(rng.NextBounded(n));
    const NodeId v = static_cast<NodeId>(rng.NextBounded(n));
    builder.AddEdge(u, v);
    if (i % 5 == 0) builder.AddEdge(u, v);  // parallel edge
    if (i % 9 == 0) builder.AddEdge(u, u);  // self-loop
  }
  for (NodeId v = 0; v < n; v += 3) builder.AddEdge(0, v);  // hub row
  return std::move(builder).Build().ValueOrDie();
}

std::vector<InfluenceParams> AllModels(const Graph& g) {
  return {MakeUniformIc(g, 0.3), MakeWeightedCascade(g),
          MakeLinearThreshold(g)};
}

/// Non-integer weights, about a third of them negative, with a few exact
/// zeros: partial sums round, so any change of term order shows.
std::vector<double> OddWeights(NodeId n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> weights(n);
  for (double& w : weights) {
    const uint64_t pick = rng.NextBounded(8);
    w = pick == 0 ? 0.0 : (rng.NextDouble() - 0.35) * 3.7;
  }
  return weights;
}

/// Seed sets: random sets with duplicates, a duplicate-only set, and the
/// whole node set.
std::vector<std::vector<NodeId>> SeedSets(NodeId n, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<NodeId>> sets;
  for (const std::size_t size : {1u, 3u, 10u}) {
    std::vector<NodeId> set;
    for (std::size_t i = 0; i < size; ++i) {
      set.push_back(static_cast<NodeId>(rng.NextBounded(n)));
    }
    set.push_back(set.front());  // duplicate seed
    sets.push_back(std::move(set));
  }
  sets.push_back({0, 0, 0});
  std::vector<NodeId> all(n);
  for (NodeId v = 0; v < n; ++v) all[v] = v;
  sets.push_back(std::move(all));
  return sets;
}

SketchOptions Opts(uint32_t snapshots, uint64_t seed = 11) {
  SketchOptions options;
  options.num_snapshots = snapshots;
  options.seed = seed;
  return options;
}

TEST(SketchWalkParityTest, MultigraphsMatchBranchyWalk) {
  const Graph g = RandomMultigraph(120, 300, 5);
  const NodeId n = g.num_nodes();
  const std::vector<double> weights = OddWeights(n, 9);
  for (const InfluenceParams& params : AllModels(g)) {
    for (const uint32_t r : kSnapshotCounts) {
      SCOPED_TRACE("model=" + std::to_string(static_cast<int>(params.model)) +
                   " R=" + std::to_string(r));
      const SketchOracle oracle(g, params, Opts(r));
      for (const std::vector<NodeId>& seeds : SeedSets(n, r)) {
        CheckSeeds(oracle, seeds, weights);
      }
      // Every node as a single seed.
      for (NodeId v = 0; v < n; ++v) {
        const NodeId seed[] = {v};
        CheckSeeds(oracle, seed, weights);
      }
    }
  }
}

TEST(SketchWalkParityTest, AllOnesWeightsStayEqualToEstimate) {
  const Graph g = RandomMultigraph(80, 200, 3);
  const std::vector<double> ones(g.num_nodes(), 1.0);
  for (const InfluenceParams& params : AllModels(g)) {
    const SketchOracle oracle(g, params, Opts(65));
    for (const std::vector<NodeId>& seeds : SeedSets(g.num_nodes(), 4)) {
      ExpectBitwiseEqual(oracle.EstimateWeighted(seeds, ones),
                         oracle.Estimate(seeds), "all-ones weights");
    }
  }
}

TEST(SketchWalkParityTest, SocialTenantWorklistGrowsPastN) {
  // The holimd tenant shape: 2000-node social graph, R = 64, k = 10
  // degree-discount seeds, plus larger random sets.
  const NodeId n = 2000;
  const Graph g = GenerateSocialGraph(n, 6.0, 17).ValueOrDie();
  const std::vector<double> weights = OddWeights(n, 23);
  DegreeDiscountSelector selector(g, 0.1);
  const std::vector<NodeId> dd_seeds = selector.Select(10).ValueOrDie().seeds;
  std::size_t longest = 0;
  for (const InfluenceParams& params : AllModels(g)) {
    SCOPED_TRACE("model=" + std::to_string(static_cast<int>(params.model)));
    const SketchOracle oracle(g, params, Opts(64, 3));
    longest = std::max(longest, CheckSeeds(oracle, dd_seeds, weights));
    for (const std::vector<NodeId>& seeds : SeedSets(n, 29)) {
      longest = std::max(longest, CheckSeeds(oracle, seeds, weights));
    }
  }
  // Rows are rescanned once per lane wave, so the worklist outgrows n.
  EXPECT_GT(longest, 3 * static_cast<std::size_t>(n));
}

TEST(SketchWalkParityTest, InterleavedIcnCallsLeaveScratchZeroed) {
  // EstimateIcnPositive shares the lane state/pending words with the
  // one-shot walk. A fresh oracle per call gives the uncontaminated
  // answers; the shared oracle must reproduce them in any call order.
  const Graph g = RandomMultigraph(150, 400, 8);
  const std::vector<double> weights = OddWeights(g.num_nodes(), 2);
  for (const InfluenceParams& params : AllModels(g)) {
    for (const uint32_t r : {63u, 128u}) {
      SCOPED_TRACE("model=" + std::to_string(static_cast<int>(params.model)) +
                   " R=" + std::to_string(r));
      const SketchOracle shared(g, params, Opts(r, 4));
      for (const std::vector<NodeId>& seeds : SeedSets(g.num_nodes(), 6)) {
        const SketchOracle fresh_icn(g, params, Opts(r, 4));
        const double want_icn = fresh_icn.EstimateIcnPositive(seeds, 0.7);
        CheckSeeds(shared, seeds, weights);
        ExpectBitwiseEqual(shared.EstimateIcnPositive(seeds, 0.7), want_icn,
                           "EstimateIcnPositive after Estimate");
        CheckSeeds(shared, seeds, weights);
        ExpectBitwiseEqual(shared.EstimateIcnPositive(seeds, 0.7), want_icn,
                           "EstimateIcnPositive after EstimateWeighted");
      }
    }
  }
}

}  // namespace
}  // namespace holim
