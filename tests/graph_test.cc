#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <random>
#include <set>
#include <utility>
#include <vector>

#include "graph/edge_list_io.h"
#include "graph/graph.h"
#include "graph/graph_builder.h"
#include "graph/subgraph.h"

namespace holim {
namespace {

Graph Triangle() {
  GraphBuilder b(3);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.AddEdge(2, 0);
  return std::move(b).Build().ValueOrDie();
}

TEST(GraphBuilderTest, BuildsCsr) {
  Graph g = Triangle();
  EXPECT_EQ(g.num_nodes(), 3u);
  EXPECT_EQ(g.num_edges(), 3u);
  ASSERT_EQ(g.OutNeighbors(0).size(), 1u);
  EXPECT_EQ(g.OutNeighbors(0)[0], 1u);
  ASSERT_EQ(g.InNeighbors(0).size(), 1u);
  EXPECT_EQ(g.InNeighbors(0)[0], 2u);
}

TEST(GraphBuilderTest, UndirectedAddsBothArcs) {
  GraphBuilder b(2);
  b.AddUndirectedEdge(0, 1);
  Graph g = std::move(b).Build().ValueOrDie();
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_EQ(g.OutDegree(0), 1u);
  EXPECT_EQ(g.OutDegree(1), 1u);
}

TEST(GraphBuilderTest, DeduplicatesParallelEdgesAndSelfLoops) {
  GraphBuilder b(3);
  b.AddEdge(0, 1);
  b.AddEdge(0, 1);
  b.AddEdge(1, 1);  // self loop
  b.AddEdge(1, 2);
  Graph g = std::move(b).Build().ValueOrDie();
  EXPECT_EQ(g.num_edges(), 2u);
}

/// Every CSR array a build produces, for whole-graph equality checks.
struct CsrArrays {
  std::vector<EdgeId> out_offsets;
  std::vector<NodeId> out_targets;
  std::vector<NodeId> in_sources;
  std::vector<EdgeId> in_edge_ids;
  bool operator==(const CsrArrays&) const = default;
};

CsrArrays Arrays(const Graph& g) {
  CsrArrays a;
  a.out_offsets.assign(g.OutOffsets().begin(), g.OutOffsets().end());
  a.out_targets.assign(g.OutTargets().begin(), g.OutTargets().end());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    a.in_sources.insert(a.in_sources.end(), g.InNeighbors(v).begin(),
                        g.InNeighbors(v).end());
    a.in_edge_ids.insert(a.in_edge_ids.end(), g.InEdgeIds(v).begin(),
                         g.InEdgeIds(v).end());
  }
  return a;
}

// Build skips its sort when the input is already in (src, dst) order; the
// sorted, reversed and shuffled orders of one edge multiset (duplicates
// and self-loops included) must still build identical CSR arrays and
// EdgeIds, with dedup on and off.
TEST(GraphBuilderTest, InputOrderDoesNotChangeCsr) {
  std::vector<std::pair<NodeId, NodeId>> edges = {
      {0, 1}, {0, 1}, {0, 3}, {1, 1}, {1, 2}, {2, 0}, {2, 4},
      {3, 3}, {3, 4}, {4, 0}, {4, 2}, {4, 2}, {5, 0}, {5, 5}};
  ASSERT_TRUE(std::is_sorted(edges.begin(), edges.end()));
  std::vector<std::pair<NodeId, NodeId>> reversed(edges.rbegin(),
                                                  edges.rend());
  std::vector<std::pair<NodeId, NodeId>> shuffled = edges;
  std::mt19937 gen(3);
  std::shuffle(shuffled.begin(), shuffled.end(), gen);
  ASSERT_NE(shuffled, edges);

  for (const bool dedup : {true, false}) {
    SCOPED_TRACE(dedup ? "dedup" : "no dedup");
    auto build = [&](const std::vector<std::pair<NodeId, NodeId>>& order) {
      GraphBuilder b(6);
      b.set_deduplicate(dedup);
      for (const auto& [u, v] : order) b.AddEdge(u, v);
      return std::move(b).Build().ValueOrDie();
    };
    const Graph sorted = build(edges);
    EXPECT_EQ(sorted.num_edges(), dedup ? 9u : edges.size());
    for (EdgeId e = 1; e < sorted.num_edges(); ++e) {
      EXPECT_LE(std::make_pair(sorted.EdgeSource(e - 1),
                               sorted.EdgeTarget(e - 1)),
                std::make_pair(sorted.EdgeSource(e), sorted.EdgeTarget(e)));
    }
    EXPECT_EQ(Arrays(build(reversed)), Arrays(sorted));
    EXPECT_EQ(Arrays(build(shuffled)), Arrays(sorted));
  }
}

TEST(GraphBuilderTest, KeepsDuplicatesWhenDisabled) {
  GraphBuilder b(3);
  b.set_deduplicate(false);
  b.AddEdge(0, 1);
  b.AddEdge(0, 1);
  Graph g = std::move(b).Build().ValueOrDie();
  EXPECT_EQ(g.num_edges(), 2u);
}

TEST(GraphBuilderTest, RejectsOutOfRangeEndpoint) {
  GraphBuilder b(2);
  b.AddEdge(0, 5);
  auto result = std::move(b).Build();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(GraphBuilderTest, EmptyGraph) {
  GraphBuilder b(4);
  Graph g = std::move(b).Build().ValueOrDie();
  EXPECT_EQ(g.num_nodes(), 4u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_TRUE(g.OutNeighbors(2).empty());
}

TEST(GraphTest, EdgeIdsAreOutCsrPositions) {
  GraphBuilder b(4);
  b.AddEdge(1, 3);
  b.AddEdge(0, 2);
  b.AddEdge(0, 1);
  Graph g = std::move(b).Build().ValueOrDie();
  // Sorted by (src, dst): (0,1)=id0, (0,2)=id1, (1,3)=id2.
  EXPECT_EQ(g.OutEdgeBegin(0), 0u);
  EXPECT_EQ(g.OutEdgeBegin(1), 2u);
  EXPECT_EQ(g.EdgeTarget(0), 1u);
  EXPECT_EQ(g.EdgeTarget(1), 2u);
  EXPECT_EQ(g.EdgeSource(0), 0u);
  EXPECT_EQ(g.EdgeSource(2), 1u);
}

TEST(GraphTest, InEdgeIdsMatchOutEdges) {
  Graph g = Triangle();
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    auto in_neighbors = g.InNeighbors(v);
    auto in_edges = g.InEdgeIds(v);
    ASSERT_EQ(in_neighbors.size(), in_edges.size());
    for (std::size_t i = 0; i < in_neighbors.size(); ++i) {
      EXPECT_EQ(g.EdgeSource(in_edges[i]), in_neighbors[i]);
      EXPECT_EQ(g.EdgeTarget(in_edges[i]), v);
    }
  }
}

TEST(GraphTest, DegreesConsistent) {
  Graph g = Triangle();
  EdgeId out_sum = 0, in_sum = 0;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    out_sum += g.OutDegree(u);
    in_sum += g.InDegree(u);
  }
  EXPECT_EQ(out_sum, g.num_edges());
  EXPECT_EQ(in_sum, g.num_edges());
}

TEST(GraphTest, MemoryFootprintPositive) {
  Graph g = Triangle();
  EXPECT_GT(g.MemoryFootprintBytes(), 0u);
}

TEST(EdgeListIoTest, RoundTrip) {
  Graph g = Triangle();
  const std::string path = "/tmp/holim_graph_io_test.txt";
  ASSERT_TRUE(WriteEdgeList(g, path).ok());
  auto loaded = ReadEdgeList(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->num_nodes(), 3u);
  EXPECT_EQ(loaded->num_edges(), 3u);
  std::remove(path.c_str());
}

TEST(EdgeListIoTest, SkipsCommentsAndRenumbers) {
  const std::string path = "/tmp/holim_graph_io_test2.txt";
  {
    FILE* f = fopen(path.c_str(), "w");
    fprintf(f, "# SNAP-style header\n%% another comment\n100 200\n200 300\n");
    fclose(f);
  }
  auto loaded = ReadEdgeList(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->num_nodes(), 3u);  // renumbered to 0..2
  EXPECT_EQ(loaded->num_edges(), 2u);
  std::remove(path.c_str());
}

TEST(EdgeListIoTest, UndirectedOptionDoublesArcs) {
  const std::string path = "/tmp/holim_graph_io_test3.txt";
  {
    FILE* f = fopen(path.c_str(), "w");
    fprintf(f, "0 1\n");
    fclose(f);
  }
  EdgeListOptions options;
  options.undirected = true;
  auto loaded = ReadEdgeList(path, options);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->num_edges(), 2u);
  std::remove(path.c_str());
}

TEST(EdgeListIoTest, MissingFileIsIoError) {
  auto loaded = ReadEdgeList("/tmp/definitely_missing_holim.txt");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIOError);
}

TEST(EdgeListIoTest, MalformedLineIsIoError) {
  const std::string path = "/tmp/holim_graph_io_test4.txt";
  {
    FILE* f = fopen(path.c_str(), "w");
    fprintf(f, "justone\n");
    fclose(f);
  }
  auto loaded = ReadEdgeList(path);
  EXPECT_FALSE(loaded.ok());
  std::remove(path.c_str());
}

TEST(SubgraphTest, InducedSubgraphKeepsInternalEdges) {
  // 0->1->2->3 plus 0->3; induce on {0,1,3}.
  GraphBuilder b(4);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.AddEdge(2, 3);
  b.AddEdge(0, 3);
  Graph g = std::move(b).Build().ValueOrDie();
  auto sub = ExtractInducedSubgraph(g, {0, 1, 3}).ValueOrDie();
  EXPECT_EQ(sub.graph.num_nodes(), 3u);
  EXPECT_EQ(sub.graph.num_edges(), 2u);  // 0->1 and 0->3 survive
  // Mappings are mutually inverse.
  for (NodeId s = 0; s < sub.graph.num_nodes(); ++s) {
    EXPECT_EQ(sub.to_subgraph[sub.to_original[s]], s);
  }
  EXPECT_EQ(sub.to_subgraph[2], kInvalidNode);
}

TEST(SubgraphTest, EdgeMappingPointsAtOriginalEdges) {
  GraphBuilder b(3);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  Graph g = std::move(b).Build().ValueOrDie();
  auto sub = ExtractInducedSubgraph(g, {0, 1}).ValueOrDie();
  ASSERT_EQ(sub.graph.num_edges(), 1u);
  const EdgeId orig = sub.edge_to_original[0];
  EXPECT_EQ(g.EdgeSource(orig), 0u);
  EXPECT_EQ(g.EdgeTarget(orig), 1u);
}

TEST(SubgraphTest, ProjectsValues) {
  GraphBuilder b(3);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  Graph g = std::move(b).Build().ValueOrDie();
  auto sub = ExtractInducedSubgraph(g, {1, 2}).ValueOrDie();
  std::vector<double> node_vals = {10, 20, 30};
  auto projected = ProjectNodeValues(sub, node_vals);
  ASSERT_EQ(projected.size(), 2u);
  EXPECT_EQ(projected[0], 20);
  EXPECT_EQ(projected[1], 30);
  std::vector<double> edge_vals = {0.5, 0.7};
  auto pe = ProjectEdgeValues(sub, edge_vals);
  ASSERT_EQ(pe.size(), 1u);
  EXPECT_EQ(pe[0], 0.7);  // the 1->2 edge
}

TEST(SubgraphTest, OutOfRangeNodeRejected) {
  Graph g = Triangle();
  auto sub = ExtractInducedSubgraph(g, {0, 9});
  EXPECT_FALSE(sub.ok());
}

TEST(SubgraphTest, DuplicateNodesDeduplicated) {
  Graph g = Triangle();
  auto sub = ExtractInducedSubgraph(g, {0, 0, 1, 1}).ValueOrDie();
  EXPECT_EQ(sub.graph.num_nodes(), 2u);
}

}  // namespace
}  // namespace holim
