#include "algo/static_greedy.h"

#include <queue>

#include "util/rng.h"

namespace holim {

StaticGreedySelector::StaticGreedySelector(const Graph& graph,
                                           const InfluenceParams& params,
                                           const StaticGreedyOptions& options)
    : graph_(graph), params_(params), options_(options) {}

std::string StaticGreedySelector::name() const {
  return "StaticGreedy(R=" + std::to_string(options_.num_snapshots) + ")";
}

void StaticGreedySelector::SampleSnapshots() {
  snapshots_.clear();
  snapshots_.reserve(options_.num_snapshots);
  Rng rng(options_.seed);
  const NodeId n = graph_.num_nodes();
  const bool lt = params_.model == DiffusionModel::kLinearThreshold;
  for (uint32_t s = 0; s < options_.num_snapshots; ++s) {
    Snapshot snap;
    snap.offsets.assign(n + 1, 0);
    std::vector<std::pair<NodeId, NodeId>> live;
    if (lt) {
      // Live-edge LT: each node keeps at most one in-edge.
      for (NodeId v = 0; v < n; ++v) {
        auto in_neighbors = graph_.InNeighbors(v);
        auto in_edges = graph_.InEdgeIds(v);
        double r = rng.NextDouble();
        for (std::size_t i = 0; i < in_neighbors.size(); ++i) {
          const double w = params_.p(in_edges[i]);
          if (r < w) {
            live.emplace_back(in_neighbors[i], v);
            break;
          }
          r -= w;
        }
      }
    } else {
      for (NodeId u = 0; u < n; ++u) {
        const EdgeId base = graph_.OutEdgeBegin(u);
        auto neighbors = graph_.OutNeighbors(u);
        for (std::size_t i = 0; i < neighbors.size(); ++i) {
          if (rng.NextBernoulli(params_.p(base + i))) {
            live.emplace_back(u, neighbors[i]);
          }
        }
      }
    }
    for (auto [u, v] : live) ++snap.offsets[u + 1];
    for (NodeId u = 0; u < n; ++u) snap.offsets[u + 1] += snap.offsets[u];
    snap.targets.resize(live.size());
    std::vector<EdgeId> cursor(snap.offsets.begin(), snap.offsets.end() - 1);
    for (auto [u, v] : live) snap.targets[cursor[u]++] = v;
    snapshots_.push_back(std::move(snap));
  }
}

double StaticGreedySelector::MarginalGain(
    NodeId u, const std::vector<std::vector<char>>& covered,
    EpochSet* seen) const {
  // DFS from u in each snapshot counting nodes not yet covered. `seen` is
  // cleared per snapshot by an epoch bump, so a probe costs its reach, not
  // n per snapshot.
  std::size_t gain = 0;
  std::vector<NodeId> stack;
  for (std::size_t s = 0; s < snapshots_.size(); ++s) {
    const Snapshot& snap = snapshots_[s];
    seen->Reset(graph_.num_nodes());
    stack.clear();
    stack.push_back(u);
    seen->Insert(u);
    while (!stack.empty()) {
      const NodeId x = stack.back();
      stack.pop_back();
      if (!covered[s][x]) ++gain;
      for (EdgeId e = snap.offsets[x]; e < snap.offsets[x + 1]; ++e) {
        const NodeId y = snap.targets[e];
        if (!seen->Contains(y)) {
          seen->Insert(y);
          stack.push_back(y);
        }
      }
    }
  }
  return static_cast<double>(gain) / snapshots_.size();
}

void StaticGreedySelector::Cover(NodeId u,
                                 std::vector<std::vector<char>>* covered) const {
  std::vector<NodeId> stack;
  for (std::size_t s = 0; s < snapshots_.size(); ++s) {
    const Snapshot& snap = snapshots_[s];
    auto& mask = (*covered)[s];
    stack.clear();
    if (!mask[u]) {
      mask[u] = 1;
      stack.push_back(u);
    }
    while (!stack.empty()) {
      const NodeId x = stack.back();
      stack.pop_back();
      for (EdgeId e = snap.offsets[x]; e < snap.offsets[x + 1]; ++e) {
        const NodeId y = snap.targets[e];
        if (!mask[y]) {
          mask[y] = 1;
          stack.push_back(y);
        }
      }
    }
  }
}

std::size_t StaticGreedySelector::SnapshotBytes() const {
  std::size_t bytes = 0;
  for (const Snapshot& snap : snapshots_) {
    bytes += snap.offsets.capacity() * sizeof(EdgeId) +
             snap.targets.capacity() * sizeof(NodeId);
  }
  return bytes;
}

Result<SeedSelection> StaticGreedySelector::Select(uint32_t k) {
  if (k == 0) return Status::InvalidArgument("k must be positive");
  if (k > graph_.num_nodes()) {
    return Status::InvalidArgument("k exceeds node count");
  }
  SeedSelection selection;
  SelectionMeter meter;
  // The sample is a pure function of (graph, params, options), so it is
  // drawn once and kept: re-Select on a cached selector (engine Workspace
  // warm reuse) skips phase 1 while staying bitwise-identical to a cold
  // run.
  if (DeadlineExpired(deadline_, &selection)) {
    return meter.Finish(std::move(selection));
  }
  if (snapshots_.empty()) SampleSnapshots();

  std::vector<std::vector<char>> covered(
      snapshots_.size(), std::vector<char>(graph_.num_nodes(), 0));

  // CELF lazy greedy: gains on a static sample are exactly submodular.
  struct Entry {
    NodeId node;
    double gain;
    uint32_t round;
    bool operator<(const Entry& other) const { return gain < other.gain; }
  };
  std::priority_queue<Entry> heap;
  EpochSet seen(graph_.num_nodes());
  for (NodeId u = 0; u < graph_.num_nodes(); ++u) {
    heap.push({u, MarginalGain(u, covered, &seen), 0});
  }
  uint32_t checked_round = 0;  // the pre-sample check covers round 0
  while (selection.seeds.size() < k && !heap.empty()) {
    const uint32_t round = static_cast<uint32_t>(selection.seeds.size());
    if (round != checked_round) {
      checked_round = round;
      if (DeadlineExpired(deadline_, &selection)) break;
    }
    Entry top = heap.top();
    heap.pop();
    if (top.round == round) {
      selection.seeds.push_back(top.node);
      selection.seed_scores.push_back(top.gain);
      Cover(top.node, &covered);
      continue;
    }
    top.gain = MarginalGain(top.node, covered, &seen);
    top.round = round;
    heap.push(top);
  }
  return meter.Finish(std::move(selection));
}

}  // namespace holim
