#include "algo/irie.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace holim {

IrieSelector::IrieSelector(const Graph& graph, const InfluenceParams& params,
                           const IrieOptions& options)
    : graph_(graph), params_(params), options_(options) {}

void IrieSelector::ComputeActivationProbability(
    const std::vector<NodeId>& seeds, std::vector<double>* ap) const {
  ap->assign(graph_.num_nodes(), 0.0);
  if (seeds.empty()) return;
  std::vector<NodeId> frontier;
  for (NodeId s : seeds) {
    (*ap)[s] = 1.0;
    frontier.push_back(s);
  }
  // Union-bound propagation over ap_hops hops:
  //   AP(v) = 1 - prod_u (1 - AP(u) p(u,v)).
  for (uint32_t hop = 0; hop < options_.ap_hops && !frontier.empty(); ++hop) {
    std::vector<NodeId> next;
    for (NodeId u : frontier) {
      const EdgeId base = graph_.OutEdgeBegin(u);
      auto neighbors = graph_.OutNeighbors(u);
      for (std::size_t i = 0; i < neighbors.size(); ++i) {
        const NodeId v = neighbors[i];
        if ((*ap)[v] >= 1.0) continue;
        const double contrib = (*ap)[u] * params_.p(base + i);
        if (contrib <= 0.0) continue;
        if ((*ap)[v] == 0.0) next.push_back(v);
        (*ap)[v] = 1.0 - (1.0 - (*ap)[v]) * (1.0 - contrib);
      }
    }
    frontier = std::move(next);
  }
}

void IrieSelector::ComputeRanks(const std::vector<double>& ap,
                                std::vector<double>* rank) const {
  const NodeId n = graph_.num_nodes();
  rank->assign(n, 1.0);
  std::vector<double> next(n, 0.0);
  for (uint32_t iter = 0; iter < options_.max_iterations; ++iter) {
    double max_change = 0.0;
    for (NodeId u = 0; u < n; ++u) {
      double acc = 0.0;
      const EdgeId base = graph_.OutEdgeBegin(u);
      auto neighbors = graph_.OutNeighbors(u);
      for (std::size_t i = 0; i < neighbors.size(); ++i) {
        acc += params_.p(base + i) * (*rank)[neighbors[i]];
      }
      const double updated = (1.0 - ap[u]) * (1.0 + options_.alpha * acc);
      max_change = std::max(max_change, std::abs(updated - (*rank)[u]));
      next[u] = updated;
    }
    std::swap(*rank, next);
    if (max_change < options_.theta) break;
  }
}

Result<SeedSelection> IrieSelector::Select(uint32_t k) {
  if (k == 0) return Status::InvalidArgument("k must be positive");
  if (k > graph_.num_nodes()) {
    return Status::InvalidArgument("k exceeds node count");
  }
  SeedSelection selection;
  SelectionMeter meter;
  std::vector<double> ap, rank;
  std::vector<char> chosen(graph_.num_nodes(), 0);
  for (uint32_t i = 0; i < k; ++i) {
    ComputeActivationProbability(selection.seeds, &ap);
    ComputeRanks(ap, &rank);
    NodeId best = kInvalidNode;
    double best_rank = -std::numeric_limits<double>::infinity();
    for (NodeId u = 0; u < graph_.num_nodes(); ++u) {
      if (chosen[u]) continue;
      if (rank[u] > best_rank) {
        best_rank = rank[u];
        best = u;
      }
    }
    if (best == kInvalidNode) break;
    chosen[best] = 1;
    selection.seeds.push_back(best);
    selection.seed_scores.push_back(best_rank);
  }
  return meter.Finish(std::move(selection));
}

}  // namespace holim
