#include "algo/simpath.h"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <queue>

namespace holim {

SimpathSelector::SimpathSelector(const Graph& graph,
                                 const InfluenceParams& params,
                                 const SimpathOptions& options)
    : graph_(graph), params_(params), options_(options) {}

std::string SimpathSelector::name() const {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "SIMPATH(eta=%.2g)", options_.eta);
  return buf;
}

double SimpathSelector::EnumerateFrom(NodeId u, std::vector<char>& on_path,
                                      const std::vector<char>& excluded,
                                      double weight, uint32_t depth) const {
  // Returns the summed weight of simple paths strictly extending the current
  // prefix ending at u. Each extension contributes its own weight (the
  // probability the path is fully live), which is that node's activation
  // contribution under the LT live-edge view.
  if (depth >= options_.max_depth) return 0.0;
  double total = 0.0;
  const EdgeId base = graph_.OutEdgeBegin(u);
  auto neighbors = graph_.OutNeighbors(u);
  on_path[u] = 1;
  for (std::size_t i = 0; i < neighbors.size(); ++i) {
    const NodeId v = neighbors[i];
    if (on_path[v] || excluded[v]) continue;
    const double w = weight * params_.p(base + i);
    if (w < options_.eta) continue;  // prune light prefixes
    total += w + EnumerateFrom(v, on_path, excluded, w, depth + 1);
  }
  on_path[u] = 0;
  return total;
}

double SimpathSelector::SpreadOfNode(NodeId u,
                                     const std::vector<char>& excluded) const {
  std::vector<char> on_path(graph_.num_nodes(), 0);
  return EnumerateFrom(u, on_path, excluded, 1.0, 0);
}

double SimpathSelector::SpreadOfSet(const std::vector<NodeId>& seeds,
                                    const std::vector<char>& excluded) const {
  // sigma(S) = sum_{u in S} sigma^{V - (S \ u)}({u}) + |S| accounts for the
  // LT decomposition; we report spread *excluding* seeds per Def. 3, so the
  // |S| term is dropped.
  std::vector<char> mask = excluded;
  for (NodeId s : seeds) mask[s] = 1;
  double total = 0.0;
  std::vector<char> on_path(graph_.num_nodes(), 0);
  for (NodeId s : seeds) {
    mask[s] = 0;  // u itself may start paths
    total += EnumerateFrom(s, on_path, mask, 1.0, 0);
    mask[s] = 1;
  }
  return total;
}

Result<SeedSelection> SimpathSelector::Select(uint32_t k) {
  if (k == 0) return Status::InvalidArgument("k must be positive");
  if (k > graph_.num_nodes()) {
    return Status::InvalidArgument("k exceeds node count");
  }
  SeedSelection selection;
  SelectionMeter meter;
  const NodeId n = graph_.num_nodes();
  std::vector<char> no_exclusions(n, 0);

  struct Entry {
    NodeId node;
    double gain;
    uint32_t round;
    bool operator<(const Entry& other) const { return gain < other.gain; }
  };
  std::priority_queue<Entry> heap;
  for (NodeId u = 0; u < n; ++u) {
    heap.push({u, SpreadOfNode(u, no_exclusions), 0});
  }

  std::vector<char> seed_mask(n, 0);
  double current_value = 0.0;
  while (selection.seeds.size() < k && !heap.empty()) {
    const uint32_t round = static_cast<uint32_t>(selection.seeds.size());
    // Look-ahead: refresh up to `lookahead` stale top candidates, then pick.
    std::vector<Entry> refreshed;
    bool picked = false;
    for (uint32_t scan = 0; scan < options_.lookahead && !heap.empty();
         ++scan) {
      Entry top = heap.top();
      heap.pop();
      if (top.round == round) {
        selection.seeds.push_back(top.node);
        selection.seed_scores.push_back(top.gain);
        seed_mask[top.node] = 1;
        current_value += top.gain;
        picked = true;
        break;
      }
      // sigma(S + u) = sigma^{V-u}(S) + sigma^{V-S}(u).
      std::vector<char> without_u = seed_mask;
      without_u[top.node] = 1;
      const double sigma_s_minus_u = SpreadOfSet(selection.seeds, without_u);
      const double sigma_u = SpreadOfNode(top.node, seed_mask);
      top.gain = sigma_s_minus_u + sigma_u - current_value;
      top.round = round;
      refreshed.push_back(top);
    }
    for (const Entry& e : refreshed) heap.push(e);
    if (!picked && heap.empty()) break;
  }

  return meter.Finish(std::move(selection));
}

}  // namespace holim
