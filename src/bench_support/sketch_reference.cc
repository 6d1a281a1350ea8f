#include "bench_support/sketch_reference.h"

#include <algorithm>

#include "diffusion/sketch_oracle.h"
#include "util/logging.h"
#include "util/rng.h"

namespace holim {

ScalarSketchReference::ScalarSketchReference(const Graph& graph,
                                             const InfluenceParams& params,
                                             uint32_t num_snapshots,
                                             uint64_t seed)
    : graph_(graph),
      params_(params),
      num_snapshots_(num_snapshots),
      visited_(graph.num_nodes()) {
  HOLIM_CHECK(params.probability.size() == graph.num_edges())
      << "params/graph edge count mismatch";
  HOLIM_CHECK(num_snapshots_ > 0) << "need at least one snapshot";
  const NodeId n = graph.num_nodes();
  const bool lt = params.model == DiffusionModel::kLinearThreshold;
  node_offsets_.reserve(static_cast<std::size_t>(num_snapshots_) * (n + 1));
  entry_base_.reserve(num_snapshots_ + 1);
  entry_base_.push_back(0);
  std::vector<NodeId> picked_by(lt ? n : 0);  // LT: v's live in-source
  std::vector<uint32_t> counts;
  for (uint32_t s = 0; s < num_snapshots_; ++s) {
    const std::size_t snapshot_base = entries_.size();
    if (lt) {
      // One uniform per target from its (s, v) stream, residual scan over
      // the in-row weights; then a counting sort into source-major rows
      // (target-ascending per source == EdgeId-ascending, rows being
      // sorted).
      std::fill(picked_by.begin(), picked_by.end(), kInvalidNode);
      counts.assign(n + 1, 0);
      for (NodeId v = 0; v < n; ++v) {
        const auto in_edges = graph.InEdgeIds(v);
        if (in_edges.empty()) continue;
        uint64_t state = SketchOracle::RowStreamState(seed, s, v);
        double r = SketchOracle::UnitDouble(Rng::SplitMix64(state));
        for (std::size_t i = 0; i < in_edges.size(); ++i) {
          const double w = params.p(in_edges[i]);
          if (r < w) {
            picked_by[v] = graph.InNeighbors(v)[i];
            ++counts[picked_by[v] + 1];
            break;
          }
          r -= w;
        }
      }
      for (NodeId u = 0; u < n; ++u) counts[u + 1] += counts[u];
      node_offsets_.insert(node_offsets_.end(), counts.begin(), counts.end());
      entries_.resize(snapshot_base + counts[n]);
      for (NodeId v = 0; v < n; ++v) {
        if (picked_by[v] != kInvalidNode) {
          entries_[snapshot_base + counts[picked_by[v]]++] = v;
        }
      }
    } else {
      // IC/WC: flip each source row in EdgeId order from its (s, u)
      // stream.
      for (NodeId u = 0; u < n; ++u) {
        node_offsets_.push_back(
            static_cast<uint32_t>(entries_.size() - snapshot_base));
        const auto row = graph.OutNeighbors(u);
        if (row.empty()) continue;
        const EdgeId base = graph.OutEdgeBegin(u);
        uint64_t state = SketchOracle::RowStreamState(seed, s, u);
        for (std::size_t i = 0; i < row.size(); ++i) {
          if (SketchOracle::UnitDouble(Rng::SplitMix64(state)) <
              params.p(base + i)) {
            entries_.push_back(row[i]);
          }
        }
      }
      node_offsets_.push_back(
          static_cast<uint32_t>(entries_.size() - snapshot_base));
    }
    entry_base_.push_back(entries_.size());
  }
  entries_.shrink_to_fit();
}

EdgeId ScalarSketchReference::LiveEdgeId(NodeId u, NodeId v) const {
  const auto row = graph_.OutNeighbors(u);
  const auto it = std::lower_bound(row.begin(), row.end(), v);
  HOLIM_CHECK(it != row.end() && *it == v) << "not an edge";
  return graph_.OutEdgeBegin(u) + static_cast<EdgeId>(it - row.begin());
}

std::size_t ScalarSketchReference::ArenaBytes() const {
  return entries_.capacity() * sizeof(NodeId) +
         node_offsets_.capacity() * sizeof(uint32_t) +
         entry_base_.capacity() * sizeof(std::size_t);
}

template <typename Visit>
void ScalarSketchReference::Walk(std::span<const NodeId> seeds,
                                 Visit&& visit) const {
  const NodeId n = graph_.num_nodes();
  for (uint32_t s = 0; s < num_snapshots_; ++s) {
    visited_.Reset(n);
    queue_.clear();
    for (const NodeId seed : seeds) {
      if (visited_.Contains(seed)) continue;
      visited_.Insert(seed);
      queue_.push_back(seed);
      visit(s, kInvalidNode, seed, 0u);
    }
    // FIFO: nodes are discovered level by level, first arrival wins.
    std::size_t level_end = queue_.size();
    uint32_t depth = 1;
    for (std::size_t head = 0; head < queue_.size(); ++head) {
      if (head == level_end) {
        level_end = queue_.size();
        ++depth;
      }
      const NodeId u = queue_[head];
      for (const NodeId v : LiveTargets(s, u)) {
        if (visited_.Contains(v)) continue;
        visited_.Insert(v);
        queue_.push_back(v);
        visit(s, u, v, depth);
      }
    }
  }
}

double ScalarSketchReference::Estimate(std::span<const NodeId> seeds) const {
  if (seeds.empty()) return 0.0;
  int64_t reached = 0;
  Walk(seeds, [&](uint32_t, NodeId, NodeId, uint32_t) { ++reached; });
  const int64_t spread =
      reached - static_cast<int64_t>(num_snapshots_) *
                    static_cast<int64_t>(seeds.size());
  return static_cast<double>(spread) / num_snapshots_;
}

double ScalarSketchReference::EstimateWeighted(
    std::span<const NodeId> seeds, std::span<const double> node_weights) const {
  if (seeds.empty()) return 0.0;
  HOLIM_CHECK(node_weights.size() == graph_.num_nodes())
      << "weight/node count mismatch";
  double total_weight = 0.0;
  Walk(seeds, [&](uint32_t, NodeId, NodeId v, uint32_t) {
    total_weight += node_weights[v];
  });
  double seed_weight = 0.0;
  for (const NodeId seed : seeds) seed_weight += node_weights[seed];
  return (total_weight - static_cast<double>(num_snapshots_) * seed_weight) /
         num_snapshots_;
}

double ScalarSketchReference::EstimateIcnPositive(
    std::span<const NodeId> seeds, double quality_factor) const {
  if (seeds.empty()) return 0.0;
  std::vector<int64_t> level_counts;  // [d - 1]: discoveries at distance d
  Walk(seeds, [&](uint32_t, NodeId, NodeId, uint32_t depth) {
    if (depth == 0) return;
    if (level_counts.size() < depth) level_counts.resize(depth, 0);
    ++level_counts[depth - 1];
  });
  double total = 0.0;
  double factor = quality_factor * quality_factor;  // d == 1
  for (const int64_t count : level_counts) {
    total += static_cast<double>(count) * factor;
    factor *= quality_factor;
  }
  return total / num_snapshots_;
}

OpinionSpreadEstimate ScalarSketchReference::EstimateOpinion(
    const OpinionParams& opinions, std::span<const NodeId> seeds,
    double lambda) const {
  OpinionSpreadEstimate estimate;
  if (seeds.empty()) return estimate;
  std::vector<double> value(graph_.num_nodes(), 0.0);
  double opinion_sum = 0.0, positive_sum = 0.0, negative_sum = 0.0;
  int64_t plain = 0;
  Walk(seeds, [&](uint32_t, NodeId u, NodeId v, uint32_t depth) {
    if (depth == 0) {
      value[v] = opinions.o(v);  // o'_s = o_s, excluded from the sums
      return;
    }
    const double phi = opinions.phi(LiveEdgeId(u, v));
    value[v] = (opinions.o(v) + (2.0 * phi - 1.0) * value[u]) / 2.0;
    opinion_sum += value[v];
    if (value[v] > 0) {
      positive_sum += value[v];
    } else {
      negative_sum += -value[v];
    }
    ++plain;
  });
  estimate.opinion_spread = opinion_sum / num_snapshots_;
  estimate.effective_opinion_spread =
      (positive_sum - lambda * negative_sum) / num_snapshots_;
  estimate.plain_spread = static_cast<double>(plain) / num_snapshots_;
  return estimate;
}

ScalarSketchReference::Session::Session(
    const ScalarSketchReference& reference,
    std::span<const double> node_weights)
    : reference_(reference),
      weights_(node_weights),
      n_(reference.graph().num_nodes()),
      lanes_(static_cast<std::size_t>(
                 (reference.num_snapshots() +
                  SketchOracle::kLanesPerGroup - 1) /
                 SketchOracle::kLanesPerGroup) *
                 n_,
             0) {
  HOLIM_CHECK(weights_.empty() || weights_.size() == n_)
      << "weight/node count mismatch";
}

void ScalarSketchReference::Session::Reset() {
  std::fill(lanes_.begin(), lanes_.end(), 0);
  total_active_ = 0;
  total_active_weight_ = 0.0;
  seed_weight_sum_ = 0.0;
  num_seeds_ = 0;
}

template <bool kCommit>
ScalarSketchReference::Session::Newly
ScalarSketchReference::Session::Explore(NodeId u) {
  constexpr uint32_t kLanes = SketchOracle::kLanesPerGroup;
  const bool weighted = !weights_.empty();
  Newly total;
  for (uint32_t s = 0; s < reference_.num_snapshots(); ++s) {
    uint64_t* lanes = lanes_.data() + static_cast<std::size_t>(s / kLanes) * n_;
    const uint64_t bit = uint64_t{1} << (s % kLanes);
    if (lanes[u] & bit) continue;
    // The activated set is reachability-closed, so the walk prunes at
    // every activated node: only reach(u) \ activated is ever visited.
    if constexpr (kCommit) {
      lanes[u] |= bit;
    } else {
      trial_.Reset(n_);
      trial_.Insert(u);
    }
    stack_.assign(1, u);
    total.nodes += 1;
    if (weighted) total.weight += weights_[u];
    while (!stack_.empty()) {
      const NodeId v = stack_.back();
      stack_.pop_back();
      for (const NodeId t : reference_.LiveTargets(s, v)) {
        if (lanes[t] & bit) continue;
        if constexpr (kCommit) {
          lanes[t] |= bit;
        } else {
          if (trial_.Contains(t)) continue;
          trial_.Insert(t);
        }
        total.nodes += 1;
        if (weighted) total.weight += weights_[t];
        stack_.push_back(t);
      }
    }
  }
  return total;
}

double ScalarSketchReference::Session::MarginalGain(NodeId u) {
  const uint32_t snapshots = reference_.num_snapshots();
  const Newly newly = Explore</*kCommit=*/false>(u);
  if (!weights_.empty()) {
    return (newly.weight - static_cast<double>(snapshots) * weights_[u]) /
           snapshots;
  }
  return static_cast<double>(newly.nodes - snapshots) / snapshots;
}

double ScalarSketchReference::Session::Commit(NodeId u) {
  const uint32_t snapshots = reference_.num_snapshots();
  const Newly newly = Explore</*kCommit=*/true>(u);
  total_active_ += newly.nodes;
  ++num_seeds_;
  if (!weights_.empty()) {
    total_active_weight_ += newly.weight;
    seed_weight_sum_ += weights_[u];
    return (newly.weight - static_cast<double>(snapshots) * weights_[u]) /
           snapshots;
  }
  return static_cast<double>(newly.nodes - snapshots) / snapshots;
}

double ScalarSketchReference::Session::Spread() const {
  const uint32_t snapshots = reference_.num_snapshots();
  if (!weights_.empty()) {
    return (total_active_weight_ -
            static_cast<double>(snapshots) * seed_weight_sum_) /
           snapshots;
  }
  const int64_t spread = total_active_ - static_cast<int64_t>(snapshots) *
                                             static_cast<int64_t>(num_seeds_);
  return static_cast<double>(spread) / snapshots;
}

}  // namespace holim
