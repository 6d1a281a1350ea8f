#include "algo/imrank.h"

#include <algorithm>
#include <numeric>

namespace holim {

ImRankSelector::ImRankSelector(const Graph& graph,
                               const InfluenceParams& params,
                               const ImRankOptions& options)
    : graph_(graph), params_(params), options_(options) {}

std::vector<double> ImRankSelector::LastToFirstAllocation(
    const std::vector<double>& scores) const {
  const NodeId n = graph_.num_nodes();
  // Rank positions: order[0] = best node. rank_of[u] = position of u.
  std::vector<NodeId> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
    return scores[a] > scores[b];
  });
  std::vector<uint32_t> rank_of(n);
  for (uint32_t pos = 0; pos < n; ++pos) rank_of[order[pos]] = pos;

  // Everyone starts with one unit of own influence mass.
  std::vector<double> mass(n, 1.0);
  // Visit from lowest rank to highest: each node u hands a p(v,u) share of
  // its remaining mass to its best-ranked in-neighbor v that outranks it
  // (that v would have activated u first under a greedy selection), keeping
  // the residual for itself.
  for (uint32_t pos = n; pos-- > 1;) {
    const NodeId u = order[pos];
    auto in_neighbors = graph_.InNeighbors(u);
    auto in_edges = graph_.InEdgeIds(u);
    // Allocate to higher-ranked in-neighbors in their rank order: the
    // highest-ranked one claims its share first from the remaining mass.
    // Collect candidates (v outranks u), sorted by rank.
    std::vector<std::pair<uint32_t, std::size_t>> claimants;
    for (std::size_t i = 0; i < in_neighbors.size(); ++i) {
      const NodeId v = in_neighbors[i];
      if (rank_of[v] < pos) claimants.emplace_back(rank_of[v], i);
    }
    std::sort(claimants.begin(), claimants.end());
    double remaining = mass[u];
    for (const auto& [vrank, idx] : claimants) {
      const NodeId v = in_neighbors[idx];
      const double share = remaining * params_.p(in_edges[idx]);
      mass[v] += share;
      remaining -= share;
      if (remaining <= 0) break;
    }
    mass[u] = remaining;
  }
  return mass;
}

Result<SeedSelection> ImRankSelector::Select(uint32_t k) {
  if (k == 0) return Status::InvalidArgument("k must be positive");
  if (k > graph_.num_nodes()) {
    return Status::InvalidArgument("k exceeds node count");
  }
  SeedSelection selection;
  SelectionMeter meter;
  const NodeId n = graph_.num_nodes();

  // Initial ranking: out-degree weighted by mean edge probability.
  std::vector<double> scores(n, 0.0);
  for (NodeId u = 0; u < n; ++u) {
    const EdgeId base = graph_.OutEdgeBegin(u);
    for (uint32_t i = 0; i < graph_.OutDegree(u); ++i) {
      scores[u] += params_.p(base + i);
    }
  }

  last_iterations_ = 0;
  std::vector<NodeId> previous_top;
  for (uint32_t iter = 0; iter < options_.max_iterations; ++iter) {
    ++last_iterations_;
    scores = LastToFirstAllocation(scores);
    // Converged when the top-k set stabilizes.
    std::vector<NodeId> top(n);
    std::iota(top.begin(), top.end(), 0);
    std::partial_sort(top.begin(), top.begin() + k, top.end(),
                      [&](NodeId a, NodeId b) { return scores[a] > scores[b]; });
    top.resize(k);
    std::sort(top.begin(), top.end());
    if (top == previous_top) break;
    previous_top = std::move(top);
  }

  std::vector<NodeId> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::partial_sort(order.begin(), order.begin() + k, order.end(),
                    [&](NodeId a, NodeId b) { return scores[a] > scores[b]; });
  selection.seeds.assign(order.begin(), order.begin() + k);
  for (NodeId s : selection.seeds) selection.seed_scores.push_back(scores[s]);
  return meter.Finish(std::move(selection));
}

}  // namespace holim
