// Fault-injection units and the randomized mid-solve fault fuzz.
//
// The fuzz learns a solve's failure surface with ScopedFaultRecorder,
// then re-runs the scenario failing each recorded site (and each deadline
// checkpoint) in turn, asserting the three survival invariants: the solve
// returns a Status instead of crashing, the engine remains usable, and
// the next clean solve is bitwise equal to a fresh engine's. Run under
// ASan/UBSan in CI, this is also the leak/UB gate for every early-exit
// path the deadline layer added.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "engine/holim_engine.h"
#include "graph/generators.h"
#include "model/influence_params.h"
#include "util/fault_injection.h"
#include "util/rng.h"

namespace holim {
namespace {

TEST(FaultInjectionUnitTest, UnarmedHitIsOkAndCheap) {
  EXPECT_FALSE(FaultInjection::armed());
  EXPECT_TRUE(FaultInjection::Hit("anything/at/all").ok());
}

TEST(FaultInjectionUnitTest, FailsExactlyTheNthMatchingHit) {
  ScopedFaultInjection plan("alloc/", 2, StatusCode::kResourceExhausted);
  EXPECT_TRUE(FaultInjection::armed());
  EXPECT_TRUE(FaultInjection::Hit("alloc/a").ok());   // 1st: passes
  EXPECT_TRUE(FaultInjection::Hit("other/b").ok());   // prefix mismatch
  const Status second = FaultInjection::Hit("alloc/b");
  EXPECT_EQ(second.code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(FaultInjection::Hit("alloc/c").ok());   // one-shot plan
  EXPECT_EQ(plan.hits(), 3u);
  EXPECT_TRUE(plan.fired());
}

TEST(FaultInjectionUnitTest, DisarmsAtScopeExit) {
  {
    ScopedFaultInjection plan("x/", 1, StatusCode::kIOError);
    EXPECT_FALSE(FaultInjection::Hit("x/y").ok());
  }
  EXPECT_FALSE(FaultInjection::armed());
  EXPECT_TRUE(FaultInjection::Hit("x/y").ok());
}

TEST(FaultInjectionUnitTest, RecorderCapturesHitOrder) {
  ScopedFaultRecorder recorder;
  EXPECT_TRUE(FaultInjection::Hit("a").ok());  // recording injects nothing
  EXPECT_TRUE(FaultInjection::Hit("b").ok());
  EXPECT_TRUE(FaultInjection::Hit("a").ok());
  const std::vector<std::string> expected = {"a", "b", "a"};
  EXPECT_EQ(recorder.sites(), expected);
}

class FaultFuzzTest : public ::testing::Test {
 protected:
  void SetUp() override {
    graph_ = GenerateBarabasiAlbert(150, 2, 7).ValueOrDie();
    params_ = MakeUniformIc(graph_, 0.1);
  }

  SolveRequest MakeRequest(const std::string& algorithm,
                           SpreadOracle oracle) const {
    SolveRequest request;
    request.algorithm = algorithm;
    request.k = 3;
    request.params = &params_;
    request.l = 2;
    request.epsilon = 0.3;
    request.max_theta = 20000;
    request.mc = 16;
    request.seed = 7;
    request.oracle = oracle;
    request.num_sketches = 32;
    return request;
  }

  /// The three survival invariants after any injected failure.
  void ExpectEngineSurvives(HolimEngine& engine, const SolveRequest& clean) {
    auto after = engine.Solve(clean);
    ASSERT_TRUE(after.ok()) << after.status().ToString();
    HolimEngine fresh(graph_);
    auto expected = fresh.Solve(clean);
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();
    EXPECT_EQ(after->seeds, expected->seeds);
    EXPECT_EQ(after->seed_scores, expected->seed_scores);
    EXPECT_EQ(after->spread, expected->spread);
  }

  Graph graph_;
  InfluenceParams params_;
};

// Enumerate each scenario's failure surface, then fail every site in turn.
TEST_F(FaultFuzzTest, EverySiteFailureLeavesEngineUsableAndClean) {
  struct Scenario {
    const char* algorithm;
    SpreadOracle oracle;
    QueryKind query = QueryKind::kTopK;
  };
  const Scenario scenarios[] = {
      {"celf", SpreadOracle::kSketch},
      {"greedy", SpreadOracle::kSketch},
      {"easyim", SpreadOracle::kMonteCarlo},
      {"tim+", SpreadOracle::kMonteCarlo},
      {"static-greedy", SpreadOracle::kMonteCarlo},
      // The given-seeds endpoints fetch their arena outside any selector
      // factory; a failed build there must be a typed error too.
      {"celf", SpreadOracle::kSketch, QueryKind::kEvaluate},
      {"celf", SpreadOracle::kSketch, QueryKind::kExplain},
  };
  for (const Scenario& s : scenarios) {
    SCOPED_TRACE(std::string(s.algorithm) + " " + QueryKindName(s.query));
    SolveRequest request = MakeRequest(s.algorithm, s.oracle);
    request.query = s.query;
    if (s.query != QueryKind::kTopK) request.given_seeds = {0, 1, 2};

    std::vector<std::string> sites;
    {
      ScopedFaultRecorder recorder;
      HolimEngine probe(graph_);
      auto ok = probe.Solve(request);
      ASSERT_TRUE(ok.ok()) << ok.status().ToString();
      sites = recorder.sites();
    }
    ASSERT_FALSE(sites.empty()) << "scenario has no failure sites";

    for (std::size_t i = 0; i < sites.size(); ++i) {
      SCOPED_TRACE("failing hit " + std::to_string(i + 1) + " (" +
                   sites[i] + ")");
      HolimEngine engine(graph_);
      {
        ScopedFaultInjection plan("", i + 1,
                                  StatusCode::kResourceExhausted);
        auto result = engine.Solve(request);
        ASSERT_TRUE(plan.fired());
        // No crash, and the failure surfaces as the injected typed error.
        ASSERT_FALSE(result.ok());
        EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
      }
      ExpectEngineSurvives(engine, request);
    }
  }
}

// Randomized variant: random deadline checkpoints fire mid-solve across
// the registry's deadline-aware algorithms; any outcome is legal except a
// crash, a malformed degraded result, or a poisoned engine.
TEST_F(FaultFuzzTest, RandomDeadlineFaultsMidSolveAcrossRegistry) {
  const char* algorithms[] = {"greedy", "celf",   "celf++",       "easyim",
                              "tim+",   "imm",    "static-greedy"};
  Rng rng(0xFA11FA11ULL);
  for (int trial = 0; trial < 60; ++trial) {
    const char* algorithm =
        algorithms[rng.Next64() % (sizeof(algorithms) / sizeof(*algorithms))];
    const SpreadOracle oracle = (rng.Next64() & 1) != 0
                                    ? SpreadOracle::kSketch
                                    : SpreadOracle::kMonteCarlo;
    SolveRequest request = MakeRequest(algorithm, oracle);
    request.work_budget = 1 + rng.Next64() % 64;
    SCOPED_TRACE(std::string(algorithm) + " budget=" +
                 std::to_string(request.work_budget) +
                 (oracle == SpreadOracle::kSketch ? " sketch" : " mc"));

    HolimEngine engine(graph_);
    auto result = engine.Solve(request);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    if (result->degraded) {
      EXPECT_NE(result->tier, ResultTier::kFull);
      EXPECT_FALSE(result->degradation_reason.empty());
      if (result->tier == ResultTier::kHeuristic) {
        EXPECT_EQ(result->rounds_completed, 0u);
      } else {
        EXPECT_EQ(result->rounds_completed, result->seeds.size());
      }
      for (const NodeId seed : result->seeds) {
        EXPECT_LT(seed, graph_.num_nodes());
      }
    }

    SolveRequest clean = MakeRequest(algorithm, oracle);
    ExpectEngineSurvives(engine, clean);
  }
}

}  // namespace
}  // namespace holim
