#include <gtest/gtest.h>

#include <set>

#include "algo/score_greedy.h"
#include "graph/generators.h"
#include "graph/graph_builder.h"
#include "model/influence_params.h"
#include "model/opinion_params.h"

namespace holim {
namespace {

TEST(ScoreGreedyTest, PicksArgmaxEachRound) {
  // Custom score function: node id as score, excluding picked ones.
  Graph g = GenerateErdosRenyi(10, 2.0, 1).ValueOrDie();
  ScoreGreedyOptions options;
  options.activation = ActivationStrategy::kSeedsOnly;
  ScoreGreedy driver(
      g,
      [](const EpochSet& excluded, const std::vector<NodeId>*,
         std::vector<double>* scores) {
        scores->resize(10);
        for (NodeId u = 0; u < 10; ++u) {
          (*scores)[u] = excluded.Contains(u) ? -1e30 : u;
        }
      },
      options);
  auto selection = driver.Select(3).ValueOrDie();
  ASSERT_EQ(selection.seeds.size(), 3u);
  EXPECT_EQ(selection.seeds[0], 9u);
  EXPECT_EQ(selection.seeds[1], 8u);
  EXPECT_EQ(selection.seeds[2], 7u);
}

TEST(ScoreGreedyTest, SeedsAreDistinct) {
  Graph g = GenerateBarabasiAlbert(200, 3, 2).ValueOrDie();
  auto params = MakeUniformIc(g, 0.1);
  EasyImSelector selector(g, params, 3);
  auto selection = selector.Select(20).ValueOrDie();
  std::set<NodeId> unique(selection.seeds.begin(), selection.seeds.end());
  EXPECT_EQ(unique.size(), 20u);
}

TEST(ScoreGreedyTest, RejectsBadK) {
  Graph g = GenerateErdosRenyi(10, 2.0, 3).ValueOrDie();
  auto params = MakeUniformIc(g, 0.1);
  EasyImSelector selector(g, params, 2);
  EXPECT_FALSE(selector.Select(0).ok());
  EXPECT_FALSE(selector.Select(11).ok());
}

TEST(ScoreGreedyTest, ActivationStrategiesAllProduceValidSeeds) {
  Graph g = GenerateBarabasiAlbert(300, 3, 4).ValueOrDie();
  auto params = MakeUniformIc(g, 0.1);
  for (auto strategy :
       {ActivationStrategy::kSeedsOnly, ActivationStrategy::kMonteCarloMajority,
        ActivationStrategy::kExpectedReach}) {
    ScoreGreedyOptions options;
    options.activation = strategy;
    EasyImSelector selector(g, params, 3, options);
    auto selection = selector.Select(5).ValueOrDie();
    EXPECT_EQ(selection.seeds.size(), 5u)
        << ActivationStrategyName(strategy);
    std::set<NodeId> unique(selection.seeds.begin(), selection.seeds.end());
    EXPECT_EQ(unique.size(), 5u);
  }
}

TEST(ScoreGreedyTest, McMajorityBlocksSaturatedRegions) {
  // Chain with p=1: first seed deterministically activates everything to
  // its right; MC-majority must mark all of them activated, so the second
  // seed comes from outside the chain suffix.
  Graph g = GeneratePath(10).ValueOrDie();
  auto params = MakeUniformIc(g, 1.0);
  ScoreGreedyOptions options;
  options.activation = ActivationStrategy::kMonteCarloMajority;
  options.mc_rounds = 8;
  EasyImSelector selector(g, params, 9, options);
  auto selection = selector.Select(2).ValueOrDie();
  // First pick: node 0 (longest chain). Everything downstream activated ->
  // second pick is forced to have score 0, but it must not be an activated
  // chain member... all non-0 nodes are activated, so selection stops at 1.
  EXPECT_EQ(selection.seeds[0], 0u);
  EXPECT_LE(selection.seeds.size(), 2u);
}

TEST(ScoreGreedyTest, SelectionDeterministicInSeed) {
  Graph g = GenerateBarabasiAlbert(200, 3, 5).ValueOrDie();
  auto params = MakeUniformIc(g, 0.1);
  ScoreGreedyOptions options;
  options.seed = 1234;
  EasyImSelector a(g, params, 3, options), b(g, params, 3, options);
  auto sa = a.Select(10).ValueOrDie();
  auto sb = b.Select(10).ValueOrDie();
  EXPECT_EQ(sa.seeds, sb.seeds);
}

TEST(ScoreGreedyTest, TimingRecorded) {
  Graph g = GenerateBarabasiAlbert(500, 3, 6).ValueOrDie();
  auto params = MakeUniformIc(g, 0.1);
  EasyImSelector selector(g, params, 3);
  auto selection = selector.Select(5).ValueOrDie();
  EXPECT_GE(selection.elapsed_seconds, 0.0);
  EXPECT_EQ(selection.seed_scores.size(), selection.seeds.size());
}

TEST(OsimSelectorTest, SelectsOpinionAwareSeeds) {
  // One hub spreads negative opinion, the other positive; OSIM must prefer
  // the positive hub even though degrees are equal.
  GraphBuilder b(6);
  b.AddEdge(0, 2);
  b.AddEdge(0, 3);
  b.AddEdge(1, 4);
  b.AddEdge(1, 5);
  Graph g = std::move(b).Build().ValueOrDie();
  auto influence = MakeUniformIc(g, 0.5);
  OpinionParams opinions;
  opinions.opinion = {0.5, 0.5, -0.9, -0.9, 0.9, 0.9};
  opinions.interaction.assign(g.num_edges(), 1.0);
  OsimSelector selector(g, influence, opinions, OiBase::kIndependentCascade, 2);
  auto selection = selector.Select(1).ValueOrDie();
  EXPECT_EQ(selection.seeds[0], 1u);
}

TEST(OsimSelectorTest, LtBaseWorks) {
  Graph g = GenerateBarabasiAlbert(100, 2, 7).ValueOrDie();
  auto influence = MakeLinearThreshold(g);
  auto opinions = MakeRandomOpinions(g, OpinionDistribution::kUniform, 8);
  OsimSelector selector(g, influence, opinions, OiBase::kLinearThreshold, 3);
  auto selection = selector.Select(4).ValueOrDie();
  EXPECT_EQ(selection.seeds.size(), 4u);
}

TEST(ScoreGreedyTest, McMajorityActuallyGrowsActivatedSet) {
  // Regression: the MC rounds used to run with the new seed itself in the
  // blocked set, producing empty cascades and never growing V(a). On a
  // deterministic chain, the second pick must therefore differ from the
  // naive score order.
  // Chain A: 0->1->...->4 (p=1). Chain B: 5->6 (p=1), disconnected.
  GraphBuilder b(7);
  for (NodeId u = 0; u < 4; ++u) b.AddEdge(u, u + 1);
  b.AddEdge(5, 6);
  Graph g = std::move(b).Build().ValueOrDie();
  auto params = MakeUniformIc(g, 1.0);
  ScoreGreedyOptions options;
  options.activation = ActivationStrategy::kMonteCarloMajority;
  options.mc_rounds = 4;
  EasyImSelector selector(g, params, 6, options);
  auto selection = selector.Select(2).ValueOrDie();
  ASSERT_EQ(selection.seeds.size(), 2u);
  EXPECT_EQ(selection.seeds[0], 0u);
  // With V(a) = {0..4} after the first pick, the only productive second
  // seed is 5 (node 1 would score higher if blocking were broken).
  EXPECT_EQ(selection.seeds[1], 5u);
}

TEST(ScoreGreedyTest, SaturationFallbackStillReturnsKSeeds) {
  // When the first seed's cascade covers the graph, the fallback must pad
  // the selection to k distinct seeds instead of stopping early.
  Graph g = GeneratePath(10).ValueOrDie();
  auto params = MakeUniformIc(g, 1.0);
  ScoreGreedyOptions options;
  options.activation = ActivationStrategy::kMonteCarloMajority;
  options.mc_rounds = 4;
  EasyImSelector selector(g, params, 9, options);
  auto selection = selector.Select(4).ValueOrDie();
  ASSERT_EQ(selection.seeds.size(), 4u);
  std::set<NodeId> unique(selection.seeds.begin(), selection.seeds.end());
  EXPECT_EQ(unique.size(), 4u);
  EXPECT_EQ(selection.seeds[0], 0u);
}

TEST(ScoreGreedyTest, StrategyNames) {
  EXPECT_STREQ(ActivationStrategyName(ActivationStrategy::kSeedsOnly),
               "seeds-only");
  EXPECT_STREQ(ActivationStrategyName(ActivationStrategy::kMonteCarloMajority),
               "mc-majority");
  EXPECT_STREQ(ActivationStrategyName(ActivationStrategy::kExpectedReach),
               "expected-reach");
}

}  // namespace
}  // namespace holim
