// The paper's memory claims behind Figs. 5h, 6i and 7j, asserted instead
// of printed: EaSyIM/OSIM run in O(n) extra space on the paper's
// full-recompute path — two rolling per-node buffers whatever k is — and
// only the incremental rescore trades that for an O(l n) level table.
//
// The stand-ins (social graphs of 1,500 and 3,000 nodes, IC p = 0.1,
// N(0,1) opinions, l = 3, k in {1, 8, 32}) are fixed up front; a claim
// that fails here is a finding about the code, not a bound to retune.

#include <gtest/gtest.h>

#include <utility>

#include "algo/easyim.h"
#include "algo/osim.h"
#include "algo/score_greedy.h"
#include "graph/generators.h"
#include "model/influence_params.h"
#include "model/opinion_params.h"

namespace holim {
namespace {

constexpr uint32_t kL = 3;
constexpr NodeId kSizes[] = {1500, 3000};
constexpr uint32_t kBudgets[] = {1, 8, 32};

struct StandIn {
  Graph graph;
  InfluenceParams params;
  OpinionParams opinions;
};

StandIn MakeStandIn(NodeId n) {
  StandIn s;
  s.graph = GenerateSocialGraph(n, 6.0, 11).ValueOrDie();
  s.params = MakeUniformIc(s.graph, 0.1);
  s.opinions =
      MakeRandomOpinions(s.graph, OpinionDistribution::kStandardNormal, 5);
  return s;
}

ScoreGreedyOptions Rescore(bool incremental) {
  ScoreGreedyOptions options;
  options.incremental_rescore = incremental;
  return options;
}

/// Scratch bytes a fresh selector reports after Select(k).
template <typename Selector, typename... Args>
std::size_t ScratchAfterSelect(uint32_t k, Args&&... args) {
  Selector selector(std::forward<Args>(args)...);
  return selector.Select(k).ValueOrDie().scratch_bytes;
}

TEST(PaperClaimsTest, FullRecomputeScratchDoesNotDependOnK) {
  const StandIn s = MakeStandIn(kSizes[0]);
  for (uint32_t k : kBudgets) {
    EXPECT_EQ(ScratchAfterSelect<EasyImSelector>(k, s.graph, s.params, kL,
                                                 Rescore(false)),
              ScratchAfterSelect<EasyImSelector>(1, s.graph, s.params, kL,
                                                 Rescore(false)))
        << "EaSyIM k=" << k;
    EXPECT_EQ(ScratchAfterSelect<OsimSelector>(
                  k, s.graph, s.params, s.opinions,
                  OiBase::kIndependentCascade, kL, Rescore(false)),
              ScratchAfterSelect<OsimSelector>(
                  1, s.graph, s.params, s.opinions,
                  OiBase::kIndependentCascade, kL, Rescore(false)))
        << "OSIM k=" << k;
  }
}

TEST(PaperClaimsTest, FullRecomputeScratchIsTwoRollingBuffersOfN) {
  for (NodeId n : kSizes) {
    const StandIn s = MakeStandIn(n);
    EXPECT_EQ(ScratchAfterSelect<EasyImSelector>(kBudgets[1], s.graph,
                                                 s.params, kL,
                                                 Rescore(false)),
              2 * n * sizeof(EasyImSweepPolicy::Value))
        << "EaSyIM n=" << n;
    EXPECT_EQ(ScratchAfterSelect<OsimSelector>(
                  kBudgets[1], s.graph, s.params, s.opinions,
                  OiBase::kIndependentCascade, kL, Rescore(false)),
              2 * n * sizeof(OsimSweepPolicy::Value))
        << "OSIM n=" << n;
  }
}

TEST(PaperClaimsTest, IncrementalRescoreAddsTheLevelTable) {
  for (NodeId n : kSizes) {
    const StandIn s = MakeStandIn(n);
    EasyImSelector easyim(s.graph, s.params, kL, Rescore(true));
    ASSERT_TRUE(easyim.Select(kBudgets[1]).ok());
    OsimSelector osim(s.graph, s.params, s.opinions,
                      OiBase::kIndependentCascade, kL, Rescore(true));
    ASSERT_TRUE(osim.Select(kBudgets[1]).ok());
    // (l + 1) levels of per-node state plus the persistent score vector,
    // on top of the unchanged rolling buffers.
    const ScoreSweepStats& e = easyim.scorer().stats();
    EXPECT_EQ(e.rolling_bytes, 2 * n * sizeof(EasyImSweepPolicy::Value));
    EXPECT_EQ(e.level_bytes,
              (kL + 1) * n * sizeof(EasyImSweepPolicy::Value) +
                  n * sizeof(double))
        << "EaSyIM n=" << n;
    const ScoreSweepStats& o = osim.scorer().stats();
    EXPECT_EQ(o.rolling_bytes, 2 * n * sizeof(OsimSweepPolicy::Value));
    EXPECT_EQ(o.level_bytes, (kL + 1) * n * sizeof(OsimSweepPolicy::Value) +
                                 n * sizeof(double))
        << "OSIM n=" << n;
    EXPECT_GE(easyim.scorer().ScratchBytes(),
              e.rolling_bytes + e.level_bytes);
  }
}

// Fig. 5h's OSIM row: the MC-majority bookkeeping is O(n) too — four
// per-node stamp/count arrays (V(a), seed set, hit counts, the cascade's
// active set) plus buffers bounded by n and the largest row — and it is
// the same number on every run.
TEST(PaperClaimsTest, ActivationWorkingSetIsLinearAndReproducible) {
  for (NodeId n : kSizes) {
    const StandIn s = MakeStandIn(n);
    auto select = [&] {
      OsimSelector osim(s.graph, s.params, s.opinions,
                        OiBase::kIndependentCascade, kL, Rescore(false));
      return osim.Select(kBudgets[1]).ValueOrDie().activation_bytes;
    };
    const std::size_t bytes = select();
    EXPECT_EQ(bytes, select()) << "n=" << n;
    EXPECT_GE(bytes, 4 * n * sizeof(uint32_t)) << "n=" << n;
    EXPECT_LE(bytes, 8 * n * sizeof(uint32_t)) << "n=" << n;
  }
}

}  // namespace
}  // namespace holim
