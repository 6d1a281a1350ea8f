// IcSimulator kernel parity: the compact-then-draw row scan against a
// test-side copy of the single-pass loop it replaced. The two must agree
// on every Cascade record (node, via_edge, step) and leave the caller's
// Rng in the same state (the next draw is compared), on graphs with
// parallel edges and self-loops (dedup off), p in {0, 1, mixed}, with and
// without a blocked set, over many runs on one simulator.
//
// The EaSyIM/OSIM engine seeds and MC spreads at the bottom were captured
// from the single-pass kernel; they pin the MC-majority step end to end.

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "diffusion/independent_cascade.h"
#include "engine/holim_engine.h"
#include "graph/generators.h"
#include "graph/graph_builder.h"
#include "model/influence_params.h"
#include "model/opinion_params.h"
#include "util/rng.h"

namespace holim {
namespace {

/// The single-pass IC loop as it stood before the row-scan rewrite:
/// one branchy skip per active/blocked neighbour, one coin per remaining
/// edge, in row order.
class ReferenceIc {
 public:
  ReferenceIc(const Graph& graph, const InfluenceParams& params)
      : graph_(graph), params_(params), active_(graph.num_nodes()) {}

  const Cascade& Run(std::span<const NodeId> seeds, Rng& rng,
                     const EpochSet* blocked) {
    active_.Reset(graph_.num_nodes());
    cascade_.order.clear();
    for (NodeId s : seeds) {
      if (active_.Contains(s)) continue;
      if (blocked && blocked->Contains(s)) continue;
      active_.Insert(s);
      cascade_.order.push_back({s, kSeedActivation, 0});
    }
    std::size_t head = 0;
    while (head < cascade_.order.size()) {
      const Activation current = cascade_.order[head++];
      const NodeId u = current.node;
      const EdgeId base = graph_.OutEdgeBegin(u);
      auto neighbors = graph_.OutNeighbors(u);
      for (std::size_t i = 0; i < neighbors.size(); ++i) {
        const NodeId v = neighbors[i];
        if (active_.Contains(v)) continue;
        if (blocked && blocked->Contains(v)) continue;
        const EdgeId e = base + i;
        if (rng.NextBernoulli(params_.p(e))) {
          active_.Insert(v);
          cascade_.order.push_back({v, e, current.step + 1});
        }
      }
    }
    return cascade_;
  }

 private:
  const Graph& graph_;
  const InfluenceParams& params_;
  Cascade cascade_;
  EpochSet active_;
};

/// Random multigraph: dedup off, so rows carry parallel edges and
/// self-loops; a few hub rows make the candidate buffer grow mid-run.
Graph RandomMultigraph(NodeId n, std::size_t m, uint64_t seed) {
  Rng rng(seed);
  GraphBuilder builder(n);
  builder.set_deduplicate(false);
  for (std::size_t i = 0; i < m; ++i) {
    const NodeId u = static_cast<NodeId>(rng.NextBounded(n));
    const NodeId v = static_cast<NodeId>(rng.NextBounded(n));
    builder.AddEdge(u, v);
    if (i % 7 == 0) builder.AddEdge(u, v);  // parallel edge
    if (i % 11 == 0) builder.AddEdge(u, u);  // self-loop
  }
  for (NodeId v = 0; v < n; v += 3) builder.AddEdge(0, v);  // hub row
  return std::move(builder).Build().ValueOrDie();
}

enum class Prob { kZero, kOne, kMixed };

InfluenceParams MakeParams(const Graph& graph, Prob prob, uint64_t seed) {
  InfluenceParams params;
  params.probability.resize(graph.num_edges());
  Rng rng(seed);
  for (double& p : params.probability) {
    switch (prob) {
      case Prob::kZero: p = 0.0; break;
      case Prob::kOne: p = 1.0; break;
      case Prob::kMixed: {
        // Exact 0 and 1 mixed in with interior values.
        const uint64_t pick = rng.NextBounded(4);
        p = pick == 0 ? 0.0 : pick == 1 ? 1.0 : rng.NextDouble();
        break;
      }
    }
  }
  return params;
}

void ExpectSameCascade(const Cascade& got, const Cascade& want) {
  ASSERT_EQ(got.order.size(), want.order.size());
  for (std::size_t i = 0; i < got.order.size(); ++i) {
    EXPECT_EQ(got.order[i].node, want.order[i].node) << "record " << i;
    EXPECT_EQ(got.order[i].via_edge, want.order[i].via_edge) << "record " << i;
    EXPECT_EQ(got.order[i].step, want.order[i].step) << "record " << i;
  }
}

/// Many runs on one simulator (and one reference): random seed lists with
/// duplicates, a fresh random blocked set every few runs when `use_blocked`.
void CheckParity(const Graph& graph, const InfluenceParams& params,
                 bool use_blocked, uint64_t seed) {
  IcSimulator sim(graph, params);
  ReferenceIc ref(graph, params);
  const NodeId n = graph.num_nodes();
  Rng case_rng(seed);
  Rng kernel_rng(seed ^ 0xABCDEFULL);
  Rng ref_rng = kernel_rng;
  EpochSet blocked(n);
  blocked.Reset(n);
  std::size_t activations = 0;
  for (int run = 0; run < 60; ++run) {
    SCOPED_TRACE("run " + std::to_string(run));
    if (use_blocked && run % 5 == 0) {
      blocked.Reset(n);
      for (NodeId v = 0; v < n; ++v) {
        if (case_rng.NextBounded(10) == 0) blocked.Insert(v);
      }
    }
    std::vector<NodeId> seeds(1 + case_rng.NextBounded(4));
    for (NodeId& s : seeds) s = static_cast<NodeId>(case_rng.NextBounded(n));
    if (run % 3 == 0) seeds.push_back(seeds.front());  // duplicate seed
    const Cascade& got =
        use_blocked ? sim.RunWithBlocked(seeds, kernel_rng, blocked)
                    : sim.Run(seeds, kernel_rng);
    const Cascade& want =
        ref.Run(seeds, ref_rng, use_blocked ? &blocked : nullptr);
    ExpectSameCascade(got, want);
    activations += want.order.size();
    ASSERT_EQ(kernel_rng.Next64(), ref_rng.Next64());
  }
  EXPECT_GT(activations, 0u);
}

TEST(IcKernelParityTest, MultigraphAllProbabilitiesWithAndWithoutBlocked) {
  for (uint64_t g = 0; g < 3; ++g) {
    const Graph graph = RandomMultigraph(400, 1600, 100 + g);
    for (Prob prob : {Prob::kZero, Prob::kOne, Prob::kMixed}) {
      const InfluenceParams params = MakeParams(graph, prob, 7 + g);
      for (bool use_blocked : {false, true}) {
        SCOPED_TRACE("graph " + std::to_string(g) + " prob " +
                     std::to_string(static_cast<int>(prob)) + " blocked " +
                     std::to_string(use_blocked));
        CheckParity(graph, params, use_blocked, 31 * g + 5);
      }
    }
  }
}

TEST(IcKernelParityTest, DedupedGeneratedGraphs) {
  const Graph ba = GenerateBarabasiAlbert(2000, 4, 3).ValueOrDie();
  const Graph social = GenerateSocialGraph(1500, 6.0, 11).ValueOrDie();
  for (const Graph* graph : {&ba, &social}) {
    for (const InfluenceParams& params :
         {MakeUniformIc(*graph, 0.1), MakeWeightedCascade(*graph),
          MakeTrivalency(*graph, 4)}) {
      CheckParity(*graph, params, false, 9);
      CheckParity(*graph, params, true, 10);
    }
  }
}

TEST(IcKernelParityTest, EverySeedBlockedOrEmptyLeavesRngUntouched) {
  const Graph graph = RandomMultigraph(50, 200, 1);
  const InfluenceParams params = MakeParams(graph, Prob::kMixed, 2);
  IcSimulator sim(graph, params);
  EpochSet blocked(graph.num_nodes());
  blocked.Reset(graph.num_nodes());
  blocked.Insert(3);
  Rng rng(77);
  Rng untouched = rng;
  const NodeId seeds[] = {3, 3};
  EXPECT_TRUE(sim.RunWithBlocked(seeds, rng, blocked).order.empty());
  EXPECT_TRUE(sim.Run({}, rng).order.empty());
  EXPECT_EQ(rng.Next64(), untouched.Next64());
}

TEST(IcKernelParityTest, ScratchCountsTheCandidateBuffer) {
  // One seed whose row is the 0 -> {0, 3, 6, ...} hub: the candidate
  // buffer grows to at least that row's length.
  const Graph graph = RandomMultigraph(300, 600, 4);
  const InfluenceParams params = MakeParams(graph, Prob::kZero, 1);
  IcSimulator sim(graph, params);
  const std::size_t before = sim.ScratchBytes();
  EXPECT_EQ(before, graph.num_nodes() * sizeof(uint32_t));
  Rng rng(1);
  const NodeId seeds[] = {0};
  sim.Run(seeds, rng);
  EXPECT_GE(sim.ScratchBytes(),
            before + graph.OutDegree(0) * sizeof(uint32_t));
}

// EaSyIM and OSIM through HolimEngine at k = 20 with the default
// MC-majority activation (20 IC cascades per pick) and a 200-run MC spread
// estimate: both run the IC kernel, so any drift in its draw order moves
// these values.
struct PinnedSolve {
  const char* algorithm;
  std::vector<NodeId> seeds;
  double spread;
};

TEST(IcKernelParityTest, EngineSeedsArePinned) {
  const Graph graph = GenerateSocialGraph(1500, 6.0, 11).ValueOrDie();
  const InfluenceParams params = MakeUniformIc(graph, 0.1);
  const OpinionParams opinions =
      MakeRandomOpinions(graph, OpinionDistribution::kStandardNormal, 5);
  const PinnedSolve pinned[] = {
      {"easyim",
       {33, 124, 400, 625, 278, 709, 1015, 253, 519, 920, 206, 1126, 750,
        797, 913, 752, 295, 923, 791, 1161},
       0x1.2df8f5c28f5c3p+9},
      {"osim",
       {957, 764, 40, 699, 1223, 519, 850, 111, 838, 1124, 308, 76, 938,
        397, 1206, 278, 1484, 1179, 1405, 1342},
       0x1.2dbc28f5c28f6p+9},
  };
  for (const PinnedSolve& want : pinned) {
    SCOPED_TRACE(want.algorithm);
    HolimEngine engine(graph);
    SolveRequest request;
    request.algorithm = want.algorithm;
    request.k = 20;
    request.params = &params;
    if (std::string(want.algorithm) == "osim") request.opinions = &opinions;
    auto result = engine.Solve(request);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->seeds, want.seeds);
    EXPECT_EQ(result->spread, want.spread);
  }
}

}  // namespace
}  // namespace holim
