// Differential tests pinning the bit-parallel lane-mask oracle to the
// scalar per-snapshot reference (bench_support/sketch_reference.h): both
// sample the SAME worlds from the same RNG contract, so every estimator
// must agree BITWISE (integer reach counts and level counts divided once;
// the opinion replay visits the identical (v, e) sequence). Snapshot counts
// straddle the 64-lane word boundary on purpose: R = 1 (single partial
// word), 63/64/65 (full word +/- one lane), and 200 (the bench workload's
// multi-group shape, 3 full words + partial). Every oracle is built with
// and without edge offsets and with a serial, 1-thread and 8-thread
// sampling pool; none of that may change a result bit.

#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "algo/celf.h"
#include "algo/greedy.h"
#include "bench_support/sketch_reference.h"
#include "diffusion/sketch_oracle.h"
#include "graph/generators.h"
#include "model/influence_params.h"
#include "model/opinion_params.h"

namespace holim {
namespace {

constexpr uint32_t kWordBoundaryCounts[] = {1, 63, 64, 65, 200};

SketchOptions Opts(uint32_t snapshots, uint64_t seed = 7,
                   bool record_edge_offsets = false,
                   ThreadPool* pool = nullptr) {
  SketchOptions options;
  options.num_snapshots = snapshots;
  options.seed = seed;
  options.record_edge_offsets = record_edge_offsets;
  options.pool = pool;
  return options;
}

std::vector<InfluenceParams> AllModels(const Graph& g) {
  return {MakeUniformIc(g, 0.3), MakeWeightedCascade(g),
          MakeLinearThreshold(g)};
}

// Calls fn(oracle) for every build variant of one (graph, params, R, seed):
// edge offsets off/on (only on when `need_offsets`) x pool serial/1/8.
template <typename Fn>
void ForEachBuild(const Graph& g, const InfluenceParams& params, uint32_t r,
                  uint64_t seed, bool need_offsets, Fn&& fn) {
  ThreadPool pool1(1), pool8(8);
  for (const bool offsets : {false, true}) {
    if (need_offsets && !offsets) continue;
    for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &pool1,
                             &pool8}) {
      SCOPED_TRACE("model=" + std::to_string(static_cast<int>(params.model)) +
                   " R=" + std::to_string(r) +
                   " offsets=" + std::to_string(offsets) + " threads=" +
                   std::to_string(pool ? pool->num_threads() : 0));
      const SketchOracle oracle(g, params, Opts(r, seed, offsets, pool));
      fn(oracle);
    }
  }
}

// Integer weights keep every partial sum exact, so the lane kernel's
// popcount-batched accumulation and the reference's per-discovery one
// agree bitwise.
std::vector<double> IntegerWeights(const Graph& g) {
  std::vector<double> weights(g.num_nodes());
  for (NodeId u = 0; u < g.num_nodes(); ++u) weights[u] = u % 3;
  return weights;
}

// One-shot Estimate and EstimateWeighted: every model, every word-boundary
// snapshot count, several seed-set shapes (singleton, spread-out set,
// duplicates — the reference dedups seeds via its visited set, the lanes
// path via all-zero fresh masks; both must subtract R * |seeds|
// identically).
TEST(SketchBitParallelTest, EstimateBitwiseEqualsScalar) {
  Graph g = GenerateBarabasiAlbert(120, 3, 11).ValueOrDie();
  const std::vector<std::vector<NodeId>> seed_sets = {
      {0}, {5, 41, 99}, {7, 7, 23}, {119}};
  const std::vector<double> weights = IntegerWeights(g);
  const std::vector<double> ones(g.num_nodes(), 1.0);
  for (const auto& params : AllModels(g)) {
    for (uint32_t r : kWordBoundaryCounts) {
      const ScalarSketchReference reference(g, params, r, 7);
      ForEachBuild(g, params, r, 7, false, [&](const SketchOracle& oracle) {
        for (const auto& seeds : seed_sets) {
          EXPECT_EQ(oracle.Estimate(seeds), reference.Estimate(seeds));
          EXPECT_EQ(oracle.EstimateWeighted(seeds, weights),
                    reference.EstimateWeighted(seeds, weights));
          EXPECT_EQ(oracle.EstimateWeighted(seeds, ones),
                    oracle.Estimate(seeds));
        }
      });
    }
  }
}

// Persistent sessions: an oracle session and a reference session driven
// through the same probe/commit script must report bitwise-equal marginal
// gains, commit gains, and running spreads — and both must stay bitwise
// equal to one-shot Estimate of the committed prefix (the activate-once
// pruning may never change a value). Weighted sessions (integer weights)
// run the same script.
TEST(SketchBitParallelTest, SessionBitwiseEqualsScalarSession) {
  Graph g = GenerateBarabasiAlbert(100, 3, 19).ValueOrDie();
  const std::vector<NodeId> commits = {4, 17, 52, 4, 88};  // incl. re-commit
  const std::vector<NodeId> probes = {0, 9, 33, 61, 99};
  const std::vector<double> weights = IntegerWeights(g);
  for (const auto& params : AllModels(g)) {
    for (uint32_t r : kWordBoundaryCounts) {
      const ScalarSketchReference reference(g, params, r, 13);
      ForEachBuild(g, params, r, 13, false, [&](const SketchOracle& oracle) {
        for (const bool weighted : {false, true}) {
          const std::span<const double> w =
              weighted ? std::span<const double>(weights)
                       : std::span<const double>{};
          SketchOracle::Session lanes(oracle, w);
          ScalarSketchReference::Session scalar(reference, w);
          std::vector<NodeId> prefix;
          for (NodeId u : commits) {
            for (NodeId p : probes) {
              EXPECT_EQ(lanes.MarginalGain(p), scalar.MarginalGain(p));
            }
            EXPECT_EQ(lanes.Commit(u), scalar.Commit(u));
            prefix.push_back(u);
            const double spread = lanes.Spread();
            EXPECT_EQ(spread, scalar.Spread());
            EXPECT_EQ(spread, weighted ? oracle.EstimateWeighted(prefix, w)
                                       : oracle.Estimate(prefix));
            EXPECT_EQ(spread, weighted ? reference.EstimateWeighted(prefix, w)
                                       : reference.Estimate(prefix));
          }
          EXPECT_EQ(lanes.total_activated(), scalar.total_activated());
          lanes.Reset();
          scalar.Reset();
          EXPECT_EQ(lanes.MarginalGain(commits[0]),
                    scalar.MarginalGain(commits[0]));
        }
      });
    }
  }
}

// IC-N positive spread: both accumulate the same integer per-distance
// activation counts and share one q-polynomial fold.
TEST(SketchBitParallelTest, IcnPositiveBitwiseEqualsScalar) {
  Graph g = GenerateBarabasiAlbert(90, 3, 29).ValueOrDie();
  const std::vector<NodeId> seeds = {2, 31, 74};
  for (const auto& params : AllModels(g)) {
    for (uint32_t r : kWordBoundaryCounts) {
      const ScalarSketchReference reference(g, params, r, 5);
      ForEachBuild(g, params, r, 5, false, [&](const SketchOracle& oracle) {
        for (double q : {0.0, 0.37, 0.5, 1.0}) {
          EXPECT_EQ(oracle.EstimateIcnPositive(seeds, q),
                    reference.EstimateIcnPositive(seeds, q))
              << "q=" << q;
        }
      });
    }
  }
}

// Opinion replay (IC base): the lane arena stores union entries in the
// same EdgeId-ascending per-source order the reference stores each
// snapshot's entries, so the lane-filtered replay visits the identical
// (v, e) sequence and all three accumulated figures match bitwise.
TEST(SketchBitParallelTest, OpinionReplayBitwiseEqualsScalar) {
  Graph g = GenerateBarabasiAlbert(80, 3, 37).ValueOrDie();
  auto params = MakeUniformIc(g, 0.35);
  OpinionParams opinions = MakeRandomOpinions(
      g, OpinionDistribution::kStandardNormal, /*seed=*/17);
  const std::vector<NodeId> seeds = {1, 40, 66};
  for (uint32_t r : kWordBoundaryCounts) {
    const ScalarSketchReference reference(g, params, r, 3);
    ForEachBuild(g, params, r, 3, true, [&](const SketchOracle& oracle) {
      for (double lambda : {0.5, 1.0}) {
        auto lanes = oracle.EstimateOpinion(
            opinions, OiBase::kIndependentCascade, seeds, lambda);
        auto scalar = reference.EstimateOpinion(opinions, seeds, lambda);
        EXPECT_EQ(lanes.opinion_spread, scalar.opinion_spread);
        EXPECT_EQ(lanes.effective_opinion_spread,
                  scalar.effective_opinion_spread);
        EXPECT_EQ(lanes.plain_spread, scalar.plain_spread);
      }
    });
  }
}

// McObjective over the reference's scalar session, so the stock
// CelfSelector can hill-climb the reference worlds.
class ScalarSessionObjective : public McObjective {
 public:
  explicit ScalarSessionObjective(const ScalarSketchReference& reference)
      : reference_(reference), session_(reference) {}
  std::string name() const override { return "sigma_sketch_scalar"; }
  double Evaluate(const std::vector<NodeId>& seeds) override {
    return reference_.Estimate(seeds);
  }
  bool StartSession() override {
    session_.Reset();
    return true;
  }
  double SessionMarginalGain(NodeId u) override {
    return session_.MarginalGain(u);
  }
  double SessionCommit(NodeId u) override { return session_.Commit(u); }

 private:
  const ScalarSketchReference& reference_;
  ScalarSketchReference::Session session_;
};

// Session-CELF under the bit-parallel kernel picks exactly the seeds of
// eager frozen greedy (one-shot evaluations, no session) — gains on the
// static sample stay exactly submodular integers, so CELF's lazy bound
// never misranks — and exactly the seeds of CELF over the reference's
// scalar session.
TEST(SketchBitParallelTest, CelfBitParallelMatchesEagerFrozenGreedy) {
  Graph g = GenerateBarabasiAlbert(70, 2, 15).ValueOrDie();
  auto params = MakeUniformIc(g, 0.25);
  auto oracle = std::make_shared<const SketchOracle>(g, params, Opts(65, 3));

  auto eager_objective =
      std::make_shared<SketchSpreadObjective>(oracle, /*use_session=*/false);
  GreedySelector eager(g, eager_objective, "eager-frozen");
  auto eager_sel = eager.Select(6).ValueOrDie();

  auto lanes_objective =
      std::make_shared<SketchSpreadObjective>(oracle, /*use_session=*/true);
  CelfSelector lanes_celf(g, lanes_objective, /*plus_plus=*/false,
                          "CELF-bitparallel");
  auto lanes_sel = lanes_celf.Select(6).ValueOrDie();
  EXPECT_EQ(eager_sel.seeds, lanes_sel.seeds);

  const ScalarSketchReference reference(g, params, 65, 3);
  auto scalar_objective = std::make_shared<ScalarSessionObjective>(reference);
  CelfSelector scalar_celf(g, scalar_objective, /*plus_plus=*/false,
                           "CELF-scalar");
  auto scalar_sel = scalar_celf.Select(6).ValueOrDie();
  EXPECT_EQ(scalar_sel.seeds, lanes_sel.seeds);
  EXPECT_EQ(scalar_sel.seed_scores, lanes_sel.seed_scores);
  // Identical gains mean identical lazy-queue behavior, evaluation for
  // evaluation.
  EXPECT_EQ(scalar_celf.last_evaluation_count(),
            lanes_celf.last_evaluation_count());
}

}  // namespace
}  // namespace holim
