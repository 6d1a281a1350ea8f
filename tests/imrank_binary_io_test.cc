#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "algo/imrank.h"
#include "diffusion/spread_estimator.h"
#include "graph/binary_io.h"
#include "graph/generators.h"
#include "graph/graph_builder.h"
#include "model/influence_params.h"
#include "model/opinion_params.h"

namespace holim {
namespace {

// ------------------------------------------------------------- IMRank --

TEST(ImRankTest, HubWinsOnStar) {
  GraphBuilder b(10);
  for (NodeId leaf = 1; leaf < 10; ++leaf) b.AddEdge(0, leaf);
  Graph g = std::move(b).Build().ValueOrDie();
  auto params = MakeUniformIc(g, 0.4);
  ImRankSelector imrank(g, params);
  auto selection = imrank.Select(1).ValueOrDie();
  EXPECT_EQ(selection.seeds[0], 0u);
}

TEST(ImRankTest, MassConservedByLfa) {
  // LFA only moves mass between nodes: the total must stay n.
  Graph g = GenerateBarabasiAlbert(200, 3, 1).ValueOrDie();
  auto params = MakeUniformIc(g, 0.2);
  ImRankSelector imrank(g, params);
  std::vector<double> scores(g.num_nodes());
  for (NodeId u = 0; u < g.num_nodes(); ++u) scores[u] = g.OutDegree(u);
  auto mass = imrank.LastToFirstAllocation(scores);
  double total = 0;
  for (double m : mass) total += m;
  EXPECT_NEAR(total, static_cast<double>(g.num_nodes()), 1e-6);
}

TEST(ImRankTest, ConvergesQuickly) {
  Graph g = GenerateBarabasiAlbert(300, 3, 2).ValueOrDie();
  auto params = MakeUniformIc(g, 0.1);
  ImRankSelector imrank(g, params);
  auto selection = imrank.Select(10).ValueOrDie();
  EXPECT_EQ(selection.seeds.size(), 10u);
  EXPECT_LE(imrank.last_iterations(), 20u);
}

TEST(ImRankTest, BeatsRandomOnSpread) {
  Graph g = GenerateBarabasiAlbert(400, 3, 3).ValueOrDie();
  auto params = MakeUniformIc(g, 0.1);
  ImRankSelector imrank(g, params);
  auto selection = imrank.Select(8).ValueOrDie();
  McOptions mc;
  mc.num_simulations = 2000;
  mc.seed = 4;
  const double imrank_spread = EstimateSpread(g, params, selection.seeds, mc);
  const double random_spread =
      EstimateSpread(g, params, {11, 57, 123, 199, 250, 301, 350, 390}, mc);
  EXPECT_GT(imrank_spread, random_spread);
}

TEST(ImRankTest, RejectsBadK) {
  Graph g = GeneratePath(3).ValueOrDie();
  auto params = MakeUniformIc(g, 0.1);
  ImRankSelector imrank(g, params);
  EXPECT_FALSE(imrank.Select(0).ok());
  EXPECT_FALSE(imrank.Select(4).ok());
}

// ---------------------------------------------------------- Binary IO --

TEST(BinaryIoTest, RoundTripGraphOnly) {
  Graph g = GenerateBarabasiAlbert(500, 3, 5).ValueOrDie();
  const std::string path = "/tmp/holim_bundle1.bin";
  ASSERT_TRUE(WriteGraphBundle(path, g).ok());
  auto bundle = ReadGraphBundle(path).ValueOrDie();
  EXPECT_EQ(bundle.graph.num_nodes(), g.num_nodes());
  EXPECT_EQ(bundle.graph.num_edges(), g.num_edges());
  // Edge ids preserved bit-for-bit.
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    EXPECT_EQ(bundle.graph.EdgeSource(e), g.EdgeSource(e));
    EXPECT_EQ(bundle.graph.EdgeTarget(e), g.EdgeTarget(e));
  }
  EXPECT_TRUE(bundle.edge_probability.empty());
  std::remove(path.c_str());
}

TEST(BinaryIoTest, RoundTripWithParameters) {
  Graph g = GenerateErdosRenyi(200, 4.0, 6).ValueOrDie();
  auto params = MakeWeightedCascade(g);
  auto opinions = MakeRandomOpinions(g, OpinionDistribution::kUniform, 7);
  const std::string path = "/tmp/holim_bundle2.bin";
  ASSERT_TRUE(WriteGraphBundle(path, g, &params.probability,
                               &opinions.opinion, &opinions.interaction)
                  .ok());
  auto bundle = ReadGraphBundle(path).ValueOrDie();
  ASSERT_EQ(bundle.edge_probability.size(), g.num_edges());
  ASSERT_EQ(bundle.node_opinion.size(), g.num_nodes());
  ASSERT_EQ(bundle.edge_interaction.size(), g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    EXPECT_DOUBLE_EQ(bundle.edge_probability[e], params.probability[e]);
    EXPECT_DOUBLE_EQ(bundle.edge_interaction[e], opinions.interaction[e]);
  }
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    EXPECT_DOUBLE_EQ(bundle.node_opinion[u], opinions.opinion[u]);
  }
  std::remove(path.c_str());
}

/// Writes a graph-only bundle by hand: magic, node count, then the source
/// and target arrays exactly as given (in any order), and three absent
/// parameter flags.
void WriteRawBundle(const std::string& path, uint64_t n,
                    const std::vector<NodeId>& sources,
                    const std::vector<NodeId>& targets,
                    const std::vector<double>* probability = nullptr,
                    const std::vector<double>* interaction = nullptr) {
  FILE* f = fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  const uint64_t magic = 0x484F4C494D470101ULL;
  fwrite(&magic, sizeof(magic), 1, f);
  fwrite(&n, sizeof(n), 1, f);
  for (const auto* array : {&sources, &targets}) {
    const uint64_t count = array->size();
    fwrite(&count, sizeof(count), 1, f);
    fwrite(array->data(), sizeof(NodeId), count, f);
  }
  // Optional arrays: edge probability, node opinion (never written here),
  // edge interaction.
  const std::vector<double>* const optional[] = {probability, nullptr,
                                                 interaction};
  for (const std::vector<double>* values : optional) {
    const uint8_t present = values != nullptr;
    fwrite(&present, 1, 1, f);
    if (!present) continue;
    const uint64_t count = values->size();
    fwrite(&count, sizeof(count), 1, f);
    fwrite(values->data(), sizeof(double), count, f);
  }
  fclose(f);
}

// WriteGraphBundle always stores edges in (src, dst) order, which lets the
// loader skip its sort; a bundle whose edge arrays are out of order must
// still load into the same graph as its sorted twin.
TEST(BinaryIoTest, UnsortedEdgeArraysLoadLikeSortedTwin) {
  const std::string sorted_path = "/tmp/holim_bundle_sorted.bin";
  const std::string unsorted_path = "/tmp/holim_bundle_unsorted.bin";
  // Distinct per-edge values, given per (src, dst) pair in each file's
  // edge order: every value must land on its own edge.
  const std::vector<double> sorted_p = {0.1, 0.2, 0.3, 0.4, 0.5, 0.6};
  const std::vector<double> unsorted_p = {0.6, 0.3, 0.2, 0.5, 0.4, 0.1};
  const std::vector<double> sorted_phi = {-1, -2, -3, -4, -5, -6};
  const std::vector<double> unsorted_phi = {-6, -3, -2, -5, -4, -1};
  WriteRawBundle(sorted_path, 4, {0, 0, 1, 2, 3, 3}, {1, 2, 2, 0, 0, 1},
                 &sorted_p, &sorted_phi);
  WriteRawBundle(unsorted_path, 4, {3, 1, 0, 3, 2, 0}, {1, 2, 2, 0, 0, 1},
                 &unsorted_p, &unsorted_phi);
  const GraphBundle sorted_bundle = ReadGraphBundle(sorted_path).ValueOrDie();
  const GraphBundle unsorted_bundle =
      ReadGraphBundle(unsorted_path).ValueOrDie();
  const Graph& sorted = sorted_bundle.graph;
  const Graph& unsorted = unsorted_bundle.graph;
  EXPECT_EQ(sorted_bundle.edge_probability, sorted_p);
  EXPECT_EQ(sorted_bundle.edge_interaction, sorted_phi);
  EXPECT_EQ(unsorted_bundle.edge_probability, sorted_p);
  EXPECT_EQ(unsorted_bundle.edge_interaction, sorted_phi);
  ASSERT_EQ(sorted.num_edges(), 6u);
  ASSERT_EQ(unsorted.num_edges(), 6u);
  EXPECT_TRUE(std::ranges::equal(unsorted.OutOffsets(), sorted.OutOffsets()));
  EXPECT_TRUE(std::ranges::equal(unsorted.OutTargets(), sorted.OutTargets()));
  for (NodeId v = 0; v < 4; ++v) {
    EXPECT_TRUE(std::ranges::equal(unsorted.InNeighbors(v),
                                   sorted.InNeighbors(v)));
    EXPECT_TRUE(std::ranges::equal(unsorted.InEdgeIds(v),
                                   sorted.InEdgeIds(v)));
  }
  for (EdgeId e = 0; e < 6; ++e) {
    EXPECT_EQ(unsorted.EdgeSource(e), sorted.EdgeSource(e));
  }
  std::remove(sorted_path.c_str());
  std::remove(unsorted_path.c_str());
}

// Duplicate (src, dst) pairs (a dedup-off graph) keep their file order
// when the loader sorts the edges, and so do their per-edge values.
TEST(BinaryIoTest, UnsortedDuplicatePairsKeepFileOrder) {
  const std::string path = "/tmp/holim_bundle_unsorted_dups.bin";
  const std::vector<double> p = {0.7, 0.1, 0.8, 0.2};
  const std::vector<double> phi = {7, 1, 8, 2};
  WriteRawBundle(path, 2, {1, 0, 1, 0}, {0, 1, 0, 0}, &p, &phi);
  const GraphBundle bundle = ReadGraphBundle(path).ValueOrDie();
  ASSERT_EQ(bundle.graph.num_edges(), 4u);
  EXPECT_TRUE(std::ranges::equal(bundle.graph.OutTargets(),
                                 std::vector<NodeId>{0, 1, 0, 0}));
  EXPECT_EQ(bundle.edge_probability, (std::vector<double>{0.2, 0.1, 0.7, 0.8}));
  EXPECT_EQ(bundle.edge_interaction, (std::vector<double>{2, 1, 7, 8}));
  std::remove(path.c_str());
}

TEST(BinaryIoTest, RejectsBadMagic) {
  const std::string path = "/tmp/holim_bundle3.bin";
  {
    FILE* f = fopen(path.c_str(), "wb");
    const char junk[] = "definitely not a holim bundle";
    fwrite(junk, 1, sizeof(junk), f);
    fclose(f);
  }
  auto bundle = ReadGraphBundle(path);
  ASSERT_FALSE(bundle.ok());
  EXPECT_EQ(bundle.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(BinaryIoTest, RejectsTruncatedFile) {
  Graph g = GeneratePath(10).ValueOrDie();
  const std::string path = "/tmp/holim_bundle4.bin";
  ASSERT_TRUE(WriteGraphBundle(path, g).ok());
  // Truncate to half.
  {
    FILE* f = fopen(path.c_str(), "rb");
    fseek(f, 0, SEEK_END);
    const long size = ftell(f);
    fclose(f);
    ASSERT_EQ(truncate(path.c_str(), size / 2), 0);
  }
  EXPECT_FALSE(ReadGraphBundle(path).ok());
  std::remove(path.c_str());
}

TEST(BinaryIoTest, MissingFileIsIoError) {
  auto bundle = ReadGraphBundle("/tmp/definitely_missing_bundle.bin");
  ASSERT_FALSE(bundle.ok());
  EXPECT_EQ(bundle.status().code(), StatusCode::kIOError);
}

TEST(BinaryIoTest, ParameterSizeMismatchRejectedOnWrite) {
  Graph g = GeneratePath(5).ValueOrDie();
  std::vector<double> wrong_size = {0.1, 0.2};  // graph has 4 edges
  EXPECT_FALSE(
      WriteGraphBundle("/tmp/holim_bundle5.bin", g, &wrong_size).ok());
  std::remove("/tmp/holim_bundle5.bin");
}

}  // namespace
}  // namespace holim
