// Randomized churn fuzzing for the streaming-delta layer: a long seeded
// sequence of random batches (some of them growing the node set) is
// applied incrementally while a shadow oracle of every artifact is rebuilt
// from scratch each step; any divergence — in the graph, the sketch arena
// (patched vs cold vs the scalar reference's worlds), or the RR arena —
// fails the step it first appears at. Degenerate batch shapes (empty, duplicate
// edge, delete-then-reinsert, self-loop, remove-absent) get explicit
// cases of their own.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "algo/rr_sets.h"
#include "bench_support/sketch_reference.h"
#include "diffusion/sketch_oracle.h"
#include "graph/delta.h"
#include "graph/generators.h"
#include "graph/graph_builder.h"
#include "model/influence_params.h"
#include "util/rng.h"

namespace holim {
namespace {

SketchOptions Opts(uint32_t snapshots, uint64_t seed = 7) {
  SketchOptions options;
  options.num_snapshots = snapshots;
  options.seed = seed;
  return options;
}

// Shadow model of the edited graph: a plain (src, dst) -> p map mutated
// by naive op replay, rebuilt through GraphBuilder each step.
struct ShadowState {
  std::map<std::pair<NodeId, NodeId>, double> edges;

  void Replay(const GraphDelta& delta) {
    for (const GraphDeltaOp& op : delta.ops) {
      if (op.kind == GraphDeltaOp::Kind::kUpsert) {
        edges[{op.src, op.dst}] = op.probability;
      } else {
        edges.erase({op.src, op.dst});
      }
    }
  }

  Graph Rebuild(NodeId min_nodes) const {
    NodeId n = min_nodes;
    for (const auto& [edge, p] : edges) {
      n = std::max(n, std::max(edge.first, edge.second) + 1);
    }
    GraphBuilder builder(n);
    for (const auto& [edge, p] : edges) {
      builder.AddEdge(edge.first, edge.second);
    }
    return std::move(builder).Build().ValueOrDie();
  }
};

void ExpectGraphsEqual(const Graph& a, const Graph& b, int step) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes()) << "step " << step;
  ASSERT_EQ(a.num_edges(), b.num_edges()) << "step " << step;
  for (NodeId u = 0; u < a.num_nodes(); ++u) {
    ASSERT_EQ(a.OutEdgeBegin(u), b.OutEdgeBegin(u))
        << "step " << step << " node " << u;
    const auto ra = a.OutNeighbors(u);
    const auto rb = b.OutNeighbors(u);
    ASSERT_EQ(std::vector<NodeId>(ra.begin(), ra.end()),
              std::vector<NodeId>(rb.begin(), rb.end()))
        << "step " << step << " node " << u;
    const auto ia = a.InEdgeIds(u);
    const auto ib = b.InEdgeIds(u);
    ASSERT_EQ(std::vector<EdgeId>(ia.begin(), ia.end()),
              std::vector<EdgeId>(ib.begin(), ib.end()))
        << "step " << step << " node " << u;
  }
}

// patched == cold lane rows (targets and masks), every world == the
// scalar reference's, and Estimate patched == cold == reference.
void ExpectSketchEqual(const SketchOracle& patched, const SketchOracle& cold,
                       const ScalarSketchReference& reference, int step) {
  ASSERT_EQ(patched.ArenaBytes(), cold.ArenaBytes()) << "step " << step;
  const NodeId n = cold.graph().num_nodes();
  ASSERT_EQ(patched.graph().num_nodes(), n) << "step " << step;
  for (uint32_t g = 0; g < cold.num_lane_groups(); ++g) {
    for (NodeId u = 0; u < n; ++u) {
      const auto a = patched.LaneTargets(g, u);
      const auto b = cold.LaneTargets(g, u);
      ASSERT_EQ(std::vector<NodeId>(a.targets, a.targets + a.size),
                std::vector<NodeId>(b.targets, b.targets + b.size))
          << "step " << step << " group " << g << " node " << u;
      ASSERT_EQ(std::vector<uint64_t>(a.masks, a.masks + a.size),
                std::vector<uint64_t>(b.masks, b.masks + b.size))
          << "step " << step << " group " << g << " node " << u;
    }
  }
  for (uint32_t s = 0; s < cold.num_snapshots(); ++s) {
    const uint32_t g = s / SketchOracle::kLanesPerGroup;
    const uint64_t bit = uint64_t{1} << (s % SketchOracle::kLanesPerGroup);
    for (NodeId u = 0; u < n; ++u) {
      const auto adj = patched.LaneTargets(g, u);
      std::vector<NodeId> world;
      for (uint32_t j = 0; j < adj.size; ++j) {
        if (adj.masks[j] & bit) world.push_back(adj.targets[j]);
      }
      const auto expected = reference.LiveTargets(s, u);
      ASSERT_EQ(world, std::vector<NodeId>(expected.begin(), expected.end()))
          << "step " << step << " snapshot " << s << " node " << u;
    }
  }
  Rng probe(step + 1);
  for (int trial = 0; trial < 4; ++trial) {
    std::vector<NodeId> seeds;
    for (int i = 0; i < 4; ++i) {
      seeds.push_back(static_cast<NodeId>(probe.NextBounded(n)));
    }
    const double value = reference.Estimate(seeds);
    EXPECT_EQ(patched.Estimate(seeds), value) << "step " << step;
    EXPECT_EQ(cold.Estimate(seeds), value) << "step " << step;
  }
}

void ExpectRrEqual(const RrCollection& patched, const RrCollection& fresh,
                   int step) {
  ASSERT_EQ(patched.num_sets(), fresh.num_sets()) << "step " << step;
  ASSERT_EQ(patched.total_entries(), fresh.total_entries()) << "step " << step;
  ASSERT_EQ(patched.total_width(), fresh.total_width()) << "step " << step;
  for (std::size_t s = 0; s < fresh.num_sets(); ++s) {
    const auto a = patched.set(s);
    const auto b = fresh.set(s);
    ASSERT_EQ(std::vector<NodeId>(a.begin(), a.end()),
              std::vector<NodeId>(b.begin(), b.end()))
        << "step " << step << " set " << s;
  }
  const auto sel_a = patched.SelectMaxCoverage(5);
  const auto sel_b = fresh.SelectMaxCoverage(5);
  EXPECT_EQ(sel_a.seeds, sel_b.seeds) << "step " << step;
  EXPECT_EQ(sel_a.covered_fraction, sel_b.covered_fraction) << "step " << step;
}

class StreamingFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(StreamingFuzzTest, RandomChurnMatchesShadowRebuild) {
  const int model_index = GetParam();
  const Graph base = GenerateErdosRenyi(120, 5.0, 17).ValueOrDie();
  InfluenceParams params;
  switch (model_index) {
    case 0: params = MakeUniformIc(base, 0.08); break;
    case 1: params = MakeWeightedCascade(base); break;
    default: params = MakeLinearThreshold(base); break;
  }

  ShadowState shadow;
  for (NodeId u = 0; u < base.num_nodes(); ++u) {
    const auto row = base.OutNeighbors(u);
    const EdgeId e = base.OutEdgeBegin(u);
    for (std::size_t i = 0; i < row.size(); ++i) {
      shadow.edges[{u, row[i]}] = params.p(e + i);
    }
  }

  StreamingGraph streaming(base);
  SketchOracle patched_sketch(base, params, Opts(64));
  RrCollection patched_rr(base, params, /*track_widths=*/true);
  patched_rr.GenerateParallel(800, 5);

  Rng rng(1000 + model_index);
  constexpr int kSteps = 30;
  for (int step = 0; step < kSteps; ++step) {
    const std::size_t batch = 1 + rng.NextBounded(24);
    GraphDelta delta = MakeRandomDelta(streaming.graph(), batch, rng);
    if (step % 5 == 2) {
      // Grow the node set: a fresh node wired to and from existing ones
      // (new rows and, for LT, a new in-row all resample).
      const NodeId n = streaming.graph().num_nodes();
      delta.Upsert(static_cast<NodeId>(rng.NextBounded(n)), n, 0.15);
      delta.Upsert(n, static_cast<NodeId>(rng.NextBounded(n)), 0.15);
    }
    auto resolved = streaming.Apply(delta);
    ASSERT_TRUE(resolved.ok()) << "step " << step << ": "
                               << resolved.status().message();
    shadow.Replay(delta);
    if (resolved->Empty()) continue;

    // Graph vs shadow GraphBuilder rebuild.
    const Graph expected = shadow.Rebuild(base.num_nodes());
    ExpectGraphsEqual(streaming.graph(), expected, step);

    auto next_params = ApplyDeltaToParams(streaming.previous(), params,
                                          streaming.graph(), *resolved);
    ASSERT_TRUE(next_params.ok()) << "step " << step;
    params = std::move(*next_params);
    // Params vs the shadow edge map (probabilities travel with edges).
    for (NodeId u = 0; u < streaming.graph().num_nodes(); ++u) {
      const auto row = streaming.graph().OutNeighbors(u);
      const EdgeId e = streaming.graph().OutEdgeBegin(u);
      for (std::size_t i = 0; i < row.size(); ++i) {
        ASSERT_EQ(params.p(e + i), shadow.edges.at({u, row[i]}))
            << "step " << step << " edge " << u << "->" << row[i];
      }
    }

    // Incremental sketch vs cold shadow rebuild.
    const Status sketch_status =
        patched_sketch.ApplyDelta(streaming.graph(), params);
    ASSERT_TRUE(sketch_status.ok()) << "step " << step << ": "
                                    << sketch_status.message();
    const SketchOracle cold_sketch(streaming.graph(), params, Opts(64));
    const ScalarSketchReference reference(streaming.graph(), params, 64, 7);
    ExpectSketchEqual(patched_sketch, cold_sketch, reference, step);

    // Incremental RR collection vs cold shadow replay.
    const Status rr_status = patched_rr.ApplyDelta(streaming.graph(), params);
    ASSERT_TRUE(rr_status.ok()) << "step " << step << ": "
                                << rr_status.message();
    RrCollection fresh_rr(streaming.graph(), params, /*track_widths=*/true);
    fresh_rr.GenerateParallel(800, 5);
    ExpectRrEqual(patched_rr, fresh_rr, step);
  }
}

INSTANTIATE_TEST_SUITE_P(AllModels, StreamingFuzzTest,
                         ::testing::Values(0, 1, 2));

// ---------------------------------------------------------------------------
// Degenerate batches
// ---------------------------------------------------------------------------

TEST(StreamingDegenerateTest, EmptyDeltaIsNoOp) {
  const Graph base = GenerateErdosRenyi(40, 4.0, 3).ValueOrDie();
  StreamingGraph streaming(base);
  GraphDelta empty;
  auto resolved = streaming.Apply(empty);
  ASSERT_TRUE(resolved.ok());
  EXPECT_TRUE(resolved->Empty());
  EXPECT_EQ(streaming.epoch(), 0u);
  EXPECT_EQ(&streaming.graph(), &base);
}

TEST(StreamingDegenerateTest, DuplicateEdgeLastOpWins) {
  const Graph base = GenerateErdosRenyi(40, 4.0, 3).ValueOrDie();
  GraphDelta delta;
  delta.Upsert(1, 2, 0.3);
  delta.Upsert(1, 2, 0.7);
  delta.Upsert(1, 2, 0.05);
  auto resolved = ResolveDelta(base, delta);
  ASSERT_TRUE(resolved.ok());
  ASSERT_EQ(resolved->upserts.size(), 1u);
  EXPECT_EQ(resolved->upserts[0].probability, 0.05);
}

TEST(StreamingDegenerateTest, DeleteThenReinsertInOneBatch) {
  const Graph base = GenerateErdosRenyi(60, 4.0, 9).ValueOrDie();
  const NodeId src = base.EdgeSource(0);
  const NodeId dst = base.EdgeTarget(0);
  const auto params = MakeUniformIc(base, 0.1);

  GraphDelta delta;
  delta.Remove(src, dst);
  delta.Upsert(src, dst, 0.42);  // last op wins: this is a reweight
  auto resolved = ResolveDelta(base, delta);
  ASSERT_TRUE(resolved.ok());
  EXPECT_TRUE(resolved->removes.empty());
  ASSERT_EQ(resolved->upserts.size(), 1u);
  EXPECT_EQ(resolved->num_reweighted, 1u);

  StreamingGraph streaming(base);
  ASSERT_TRUE(streaming.ApplyResolved(*resolved).ok());
  // Same topology, new probability on the surviving edge.
  ASSERT_EQ(streaming.graph().num_edges(), base.num_edges());
  auto next_params =
      ApplyDeltaToParams(base, params, streaming.graph(), *resolved);
  ASSERT_TRUE(next_params.ok());
  const auto row = streaming.graph().OutNeighbors(src);
  const auto it = std::find(row.begin(), row.end(), dst);
  ASSERT_NE(it, row.end());
  const EdgeId e = streaming.graph().OutEdgeBegin(src) + (it - row.begin());
  EXPECT_EQ(next_params->p(e), 0.42);

  // The reverse order — upsert then remove — deletes the edge.
  GraphDelta reversed;
  reversed.Upsert(src, dst, 0.42);
  reversed.Remove(src, dst);
  auto resolved2 = ResolveDelta(base, reversed);
  ASSERT_TRUE(resolved2.ok());
  EXPECT_TRUE(resolved2->upserts.empty());
  ASSERT_EQ(resolved2->removes.size(), 1u);
}

TEST(StreamingDegenerateTest, SelfLoopRejectedAndStateUnchanged) {
  const Graph base = GenerateErdosRenyi(40, 4.0, 3).ValueOrDie();
  const auto params = MakeUniformIc(base, 0.1);
  StreamingGraph streaming(base);
  SketchOracle sketch(base, params, Opts(32));
  const std::size_t arena_before = sketch.ArenaBytes();

  GraphDelta bad;
  bad.Upsert(0, 1, 0.2);
  bad.Upsert(5, 5, 0.1);  // self-loop poisons the whole batch
  auto resolved = streaming.Apply(bad);
  EXPECT_FALSE(resolved.ok());
  EXPECT_EQ(streaming.epoch(), 0u);
  EXPECT_EQ(&streaming.graph(), &base);
  EXPECT_EQ(sketch.ArenaBytes(), arena_before);
}

TEST(StreamingDegenerateTest, RemoveAbsentEdgeIsDropped) {
  GraphBuilder b(4);
  b.AddEdge(0, 1);
  const Graph base = std::move(b).Build().ValueOrDie();
  GraphDelta delta;
  delta.Remove(2, 3);           // absent
  delta.Remove(1, 0);           // absent (reverse direction exists? no)
  delta.Remove(3, 1);           // absent
  auto resolved = ResolveDelta(base, delta);
  ASSERT_TRUE(resolved.ok());
  EXPECT_TRUE(resolved->Empty());
}

}  // namespace
}  // namespace holim
