#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "algo/celf.h"
#include "algo/greedy.h"
#include "bench_support/sketch_reference.h"
#include "diffusion/sketch_oracle.h"
#include "diffusion/spread_estimator.h"
#include "graph/generators.h"
#include "graph/graph_builder.h"
#include "model/influence_params.h"
#include "model/opinion_params.h"

namespace holim {
namespace {

SketchOptions Opts(uint32_t snapshots, uint64_t seed = 7,
                   ThreadPool* pool = nullptr,
                   bool record_edge_offsets = false) {
  SketchOptions options;
  options.num_snapshots = snapshots;
  options.seed = seed;
  options.pool = pool;
  options.record_edge_offsets = record_edge_offsets;
  return options;
}

// Reachability count over one snapshot's live adjacency.
int64_t BruteForceReach(const ScalarSketchReference& worlds, uint32_t s,
                        const std::vector<NodeId>& seeds, NodeId n) {
  std::vector<char> seen(n, 0);
  std::vector<NodeId> stack;
  int64_t reached = 0;
  for (NodeId seed : seeds) {
    if (seen[seed]) continue;
    seen[seed] = 1;
    stack.push_back(seed);
    ++reached;
  }
  while (!stack.empty()) {
    const NodeId v = stack.back();
    stack.pop_back();
    for (NodeId t : worlds.LiveTargets(s, v)) {
      if (seen[t]) continue;
      seen[t] = 1;
      stack.push_back(t);
      ++reached;
    }
  }
  return reached;
}

double BruteForceSigma(const ScalarSketchReference& worlds,
                       const std::vector<NodeId>& seeds, NodeId n) {
  int64_t total = 0;
  for (uint32_t s = 0; s < worlds.num_snapshots(); ++s) {
    total += BruteForceReach(worlds, s, seeds, n);
  }
  const int64_t spread =
      total - static_cast<int64_t>(worlds.num_snapshots()) *
                  static_cast<int64_t>(seeds.size());
  return static_cast<double>(spread) / worlds.num_snapshots();
}

// Snapshot s's live out-targets of u in the lane arena: u's union row in
// lane group s / 64, filtered by lane bit s % 64.
std::vector<NodeId> LaneWorldRow(const SketchOracle& oracle, uint32_t s,
                                 NodeId u) {
  const auto adj = oracle.LaneTargets(s / SketchOracle::kLanesPerGroup, u);
  const uint64_t bit = uint64_t{1} << (s % SketchOracle::kLanesPerGroup);
  std::vector<NodeId> row;
  for (uint32_t j = 0; j < adj.size; ++j) {
    if (adj.masks[j] & bit) row.push_back(adj.targets[j]);
  }
  return row;
}

// The lane-only byte count recomputed from the public views: 12 bytes per
// union entry (+4 with edge offsets), G (n + 1) uint32 offsets and G + 1
// group extents — no other storage.
std::size_t LaneOnlyBytes(const SketchOracle& oracle, bool edge_offsets) {
  const NodeId n = oracle.graph().num_nodes();
  std::size_t entries = 0;
  for (uint32_t g = 0; g < oracle.num_lane_groups(); ++g) {
    for (NodeId u = 0; u < n; ++u) entries += oracle.LaneTargets(g, u).size;
  }
  const std::size_t groups = oracle.num_lane_groups();
  return entries * (sizeof(NodeId) + sizeof(uint64_t) +
                    (edge_offsets ? sizeof(uint32_t) : 0)) +
         groups * (n + 1) * sizeof(uint32_t) +
         (groups + 1) * sizeof(std::size_t);
}

// Hand-built 5-node world, IC with p = 1: every snapshot is the full graph,
// so the sketch estimate equals exact reachability.
TEST(SketchOracleTest, MatchesReachabilityOnDeterministicIcWorld) {
  GraphBuilder b(5);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.AddEdge(0, 3);
  Graph g = std::move(b).Build().ValueOrDie();
  auto params = MakeUniformIc(g, 1.0);
  SketchOracle oracle(g, params, Opts(7));
  EXPECT_DOUBLE_EQ(oracle.Estimate(std::vector<NodeId>{0}), 3.0);
  EXPECT_DOUBLE_EQ(oracle.Estimate(std::vector<NodeId>{1}), 1.0);
  EXPECT_DOUBLE_EQ(oracle.Estimate(std::vector<NodeId>{4}), 0.0);
  EXPECT_DOUBLE_EQ(oracle.Estimate(std::vector<NodeId>{0, 1}), 2.0);

  auto zero = MakeUniformIc(g, 0.0);
  SketchOracle empty_oracle(g, zero, Opts(7));
  EXPECT_DOUBLE_EQ(empty_oracle.Estimate(std::vector<NodeId>{0}), 0.0);
}

// WC on a chain: every node has in-degree 1, so every edge is live with
// probability 1 and the sketch equals chain reachability.
TEST(SketchOracleTest, MatchesReachabilityOnDeterministicWcWorld) {
  GraphBuilder b(5);
  for (NodeId u = 0; u < 4; ++u) b.AddEdge(u, u + 1);
  Graph g = std::move(b).Build().ValueOrDie();
  auto params = MakeWeightedCascade(g);
  SketchOracle oracle(g, params, Opts(5));
  EXPECT_DOUBLE_EQ(oracle.Estimate(std::vector<NodeId>{0}), 4.0);
  EXPECT_DOUBLE_EQ(oracle.Estimate(std::vector<NodeId>{3}), 1.0);
}

// LT on a chain: the single in-edge has weight 1 and is always picked.
TEST(SketchOracleTest, MatchesReachabilityOnDeterministicLtWorld) {
  GraphBuilder b(5);
  for (NodeId u = 0; u < 4; ++u) b.AddEdge(u, u + 1);
  Graph g = std::move(b).Build().ValueOrDie();
  auto params = MakeLinearThreshold(g);
  SketchOracle oracle(g, params, Opts(5));
  EXPECT_DOUBLE_EQ(oracle.Estimate(std::vector<NodeId>{0}), 4.0);
  EXPECT_DOUBLE_EQ(oracle.Estimate(std::vector<NodeId>{2}), 2.0);
}

// On a random graph the packed-arena BFS must agree with a naive
// reachability sweep over the same snapshots, for every model.
TEST(SketchOracleTest, EstimateMatchesBruteForceOnRandomGraph) {
  Graph g = GenerateBarabasiAlbert(80, 3, 11).ValueOrDie();
  const std::vector<NodeId> seeds = {0, 7, 33};
  for (auto params : {MakeUniformIc(g, 0.3), MakeWeightedCascade(g),
                      MakeLinearThreshold(g)}) {
    SketchOracle oracle(g, params, Opts(13));
    const ScalarSketchReference worlds(g, params, 13, 7);
    EXPECT_DOUBLE_EQ(oracle.Estimate(seeds),
                     BruteForceSigma(worlds, seeds, g.num_nodes()));
  }
}

// The lane arena holds exactly the reference's per-snapshot worlds, for
// every model, word-boundary snapshot count, edge-offset setting and
// sampling pool (serial, 1 and 8 threads — the arena is bitwise identical
// for any thread count, the same contract as the RR engine's
// GenerateParallel), and it is the oracle's only storage.
TEST(SketchOracleTest, ArenaDeterministicAcrossThreadCounts) {
  Graph g = GenerateBarabasiAlbert(200, 3, 5).ValueOrDie();
  ThreadPool pool1(1), pool8(8);
  for (const auto& params : {MakeUniformIc(g, 0.3), MakeWeightedCascade(g),
                             MakeLinearThreshold(g)}) {
    for (uint32_t r : {1u, 63u, 64u, 65u, 200u}) {
      const ScalarSketchReference worlds(g, params, r, 21);
      for (bool offsets : {false, true}) {
        SCOPED_TRACE("model=" + std::to_string(static_cast<int>(params.model)) +
                     " R=" + std::to_string(r) +
                     " offsets=" + std::to_string(offsets));
        SketchOracle serial(g, params, Opts(r, 21, nullptr, offsets));
        SketchOracle one(g, params, Opts(r, 21, &pool1, offsets));
        SketchOracle eight(g, params, Opts(r, 21, &pool8, offsets));
        ASSERT_EQ(serial.ArenaBytes(), LaneOnlyBytes(serial, offsets));
        ASSERT_EQ(serial.ArenaBytes(), one.ArenaBytes());
        ASSERT_EQ(serial.ArenaBytes(), eight.ArenaBytes());
        for (uint32_t grp = 0; grp < serial.num_lane_groups(); ++grp) {
          for (NodeId u = 0; u < g.num_nodes(); ++u) {
            const auto a = serial.LaneTargets(grp, u);
            for (const SketchOracle* other : {&one, &eight}) {
              const auto b = other->LaneTargets(grp, u);
              ASSERT_EQ(a.size, b.size);
              ASSERT_TRUE(std::equal(a.targets, a.targets + a.size,
                                     b.targets));
              ASSERT_TRUE(std::equal(a.masks, a.masks + a.size, b.masks));
            }
            ASSERT_EQ(a.edge_offsets != nullptr, offsets);
            for (uint32_t j = 0; offsets && j < a.size; ++j) {
              ASSERT_EQ(g.OutNeighbors(u)[a.edge_offsets[j]], a.targets[j]);
            }
          }
        }
        for (uint32_t s = 0; s < r; ++s) {
          for (NodeId u = 0; u < g.num_nodes(); ++u) {
            const auto expected = worlds.LiveTargets(s, u);
            ASSERT_EQ(LaneWorldRow(serial, s, u),
                      std::vector<NodeId>(expected.begin(), expected.end()))
                << "snapshot " << s << " node " << u;
          }
        }
      }
    }
  }
}

// Incremental session spread is bitwise equal to one-shot Estimate on the
// same prefix across a full k=8 CELF run (R a power of two so every value
// is exactly representable — but the contract holds for any R because both
// sides divide the same integer once).
TEST(SketchOracleTest, SessionBitwiseEqualsOneShotAcrossCelfRun) {
  Graph g = GenerateBarabasiAlbert(64, 2, 9).ValueOrDie();
  auto params = MakeWeightedCascade(g);
  auto oracle = std::make_shared<const SketchOracle>(g, params, Opts(8));
  auto objective = std::make_shared<SketchSpreadObjective>(oracle);
  CelfSelector celf(g, objective, /*plus_plus=*/true, "CELF-sketch");
  auto selection = celf.Select(8).ValueOrDie();
  ASSERT_EQ(selection.seeds.size(), 8u);

  SketchOracle::Session session(*oracle);
  std::vector<NodeId> prefix;
  for (std::size_t i = 0; i < selection.seeds.size(); ++i) {
    const NodeId u = selection.seeds[i];
    const double gain = session.MarginalGain(u);
    EXPECT_EQ(gain, session.Commit(u));
    EXPECT_EQ(gain, selection.seed_scores[i]);
    prefix.push_back(u);
    EXPECT_EQ(session.Spread(), oracle->Estimate(prefix));
  }
}

// CELF over the frozen snapshots picks exactly the seeds of eager greedy
// over the same snapshots: gains on a static sample are exactly
// submodular, and both paths break ties toward the smaller node id.
TEST(SketchOracleTest, CelfSketchMatchesEagerFrozenGreedy) {
  Graph g = GenerateBarabasiAlbert(70, 2, 15).ValueOrDie();
  auto params = MakeUniformIc(g, 0.25);
  auto oracle = std::make_shared<const SketchOracle>(g, params, Opts(8, 3));

  // Eager reference: legacy GreedySelector over one-shot evaluations of
  // the same frozen snapshot set (no session).
  auto eager_objective =
      std::make_shared<SketchSpreadObjective>(oracle, /*use_session=*/false);
  GreedySelector eager(g, eager_objective, "eager-frozen");
  auto eager_sel = eager.Select(6).ValueOrDie();

  auto session_objective = std::make_shared<SketchSpreadObjective>(oracle);
  CelfSelector celf(g, session_objective, /*plus_plus=*/false, "CELF-sketch");
  auto celf_sel = celf.Select(6).ValueOrDie();
  EXPECT_EQ(eager_sel.seeds, celf_sel.seeds);

  // The session-driven greedy walks the same hill.
  auto greedy_objective = std::make_shared<SketchSpreadObjective>(oracle);
  GreedySelector greedy(g, greedy_objective, "greedy-sketch");
  auto greedy_sel = greedy.Select(6).ValueOrDie();
  EXPECT_EQ(eager_sel.seeds, greedy_sel.seeds);
  EXPECT_EQ(eager_sel.seed_scores, greedy_sel.seed_scores);

  // Laziness still skips work: far fewer evaluations than eager's k * n.
  EXPECT_LT(celf.last_evaluation_count(), 6u * g.num_nodes() / 2);
  EXPECT_GE(celf.last_evaluation_count(), g.num_nodes());
}

// IC-N over deterministic worlds: chain 0 -> 1 -> 2 with p = 1 and
// q = 0.5 gives positive spread q^2 + q^3 = 0.375 exactly.
TEST(SketchOracleTest, IcnPositiveMatchesHandComputedWorld) {
  GraphBuilder b(3);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  Graph g = std::move(b).Build().ValueOrDie();
  auto params = MakeUniformIc(g, 1.0);
  SketchOracle oracle(g, params, Opts(6));
  EXPECT_DOUBLE_EQ(oracle.EstimateIcnPositive(std::vector<NodeId>{0}, 0.5),
                   0.375);
  EXPECT_DOUBLE_EQ(oracle.EstimateIcnPositive(std::vector<NodeId>{0}, 0.0),
                   0.0);
  EXPECT_DOUBLE_EQ(oracle.EstimateIcnPositive(std::vector<NodeId>{0}, 1.0),
                   2.0);
}

// OI opinion replay over deterministic worlds (p = 1): expected opinions
// follow the paper's recurrence exactly; with phi = 1 the MC estimator is
// deterministic too, so both agree to rounding.
TEST(SketchOracleTest, OpinionReplayMatchesDeterministicOi) {
  GraphBuilder b(3);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  Graph g = std::move(b).Build().ValueOrDie();
  auto params = MakeUniformIc(g, 1.0);
  OpinionParams opinions;
  opinions.opinion = {0.8, 0.6, -1.0};
  opinions.interaction = {1.0, 1.0};
  SketchOptions options = Opts(4);
  options.record_edge_offsets = true;
  SketchOracle oracle(g, params, options);

  // o'_1 = (0.6 + 0.8)/2 = 0.7; o'_2 = (-1.0 + 0.7)/2 = -0.15.
  auto estimate = oracle.EstimateOpinion(opinions, OiBase::kIndependentCascade,
                                         std::vector<NodeId>{0}, 1.0);
  EXPECT_NEAR(estimate.opinion_spread, 0.55, 1e-12);
  EXPECT_NEAR(estimate.effective_opinion_spread, 0.55, 1e-12);
  EXPECT_NEAR(estimate.plain_spread, 2.0, 1e-12);

  McOptions mc;
  mc.num_simulations = 50;
  auto reference = EstimateOpinionSpread(g, params, opinions,
                                         OiBase::kIndependentCascade,
                                         std::vector<NodeId>{0}, 1.0, mc);
  EXPECT_NEAR(estimate.opinion_spread, reference.opinion_spread, 1e-9);

  // phi = 0.5: the signed-parent term vanishes in expectation, so
  // o'_1 = 0.3 and o'_2 = -0.5.
  OpinionParams half = opinions;
  half.interaction = {0.5, 0.5};
  auto mixed = oracle.EstimateOpinion(half, OiBase::kIndependentCascade,
                                      std::vector<NodeId>{0}, 1.0);
  EXPECT_NEAR(mixed.opinion_spread, -0.2, 1e-12);
}

// The sketch estimate converges to the MC estimate (both are unbiased
// estimators of sigma).
TEST(SketchOracleTest, AgreesWithMonteCarloWithinTolerance) {
  Graph g = GenerateBarabasiAlbert(150, 3, 23).ValueOrDie();
  auto params = MakeWeightedCascade(g);
  const std::vector<NodeId> seeds = {0, 1, 2};
  SketchOracle oracle(g, params, Opts(4000));
  McOptions mc;
  mc.num_simulations = 4000;
  mc.seed = 12;
  const double mc_value = EstimateSpread(g, params, seeds, mc);
  EXPECT_NEAR(oracle.Estimate(seeds), mc_value, 0.15 * mc_value + 0.5);
}

}  // namespace
}  // namespace holim
