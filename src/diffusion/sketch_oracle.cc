#include "diffusion/sketch_oracle.h"

#include <algorithm>
#include <bit>
#include <functional>
#include <limits>

#include "util/logging.h"
#include "util/rng.h"

namespace holim {

SketchOracle::SketchOracle(const Graph& graph, const InfluenceParams& params,
                           const SketchOptions& options)
    : graph_(&graph),
      params_(params),
      num_snapshots_(options.num_snapshots),
      num_lane_groups_((options.num_snapshots + kLanesPerGroup - 1) /
                       kLanesPerGroup),
      seed_(options.seed),
      record_edge_offsets_(options.record_edge_offsets),
      visited_(graph.num_nodes()) {
  HOLIM_CHECK(params.probability.size() == graph.num_edges())
      << "params/graph edge count mismatch";
  HOLIM_CHECK(num_snapshots_ > 0) << "need at least one snapshot";
  Sample(options.pool, options.deadline);
}

void SketchOracle::PickLiveInEdges(uint32_t g, NodeId lo, NodeId hi,
                                   uint64_t* edge_mask) const {
  // Live-edge LT: each node keeps at most one live in-edge per snapshot,
  // chosen with one uniform draw from its (snapshot, node) stream and the
  // residual-probability scan (LiveEdgeSimulator's distribution). Nodes
  // without in-edges draw nothing — the row-stream contract.
  const uint32_t s_lo = g * kLanesPerGroup;
  const uint32_t lanes = LaneCount(g);
  for (NodeId v = lo; v < hi; ++v) {
    const auto in_edges = graph_->InEdgeIds(v);
    if (in_edges.empty()) continue;
    for (uint32_t b = 0; b < lanes; ++b) {
      uint64_t state = RowStreamState(seed_, s_lo + b, v);
      double r = UnitDouble(Rng::SplitMix64(state));
      for (const EdgeId e : in_edges) {
        const double w = params_.p(e);
        if (r < w) {
          edge_mask[e] |= uint64_t{1} << b;
          break;
        }
        r -= w;  // falling off the row is the residual mass: no live edge
      }
    }
  }
}

void SketchOracle::AppendRow(uint32_t g, NodeId u, uint64_t* lt_edge_mask,
                             std::vector<uint64_t>& row_mask,
                             LaneRows& out) const {
  const auto row = graph_->OutNeighbors(u);
  if (row.empty()) return;
  const EdgeId base = graph_->OutEdgeBegin(u);
  uint64_t* mask;
  if (lt_edge_mask != nullptr) {
    mask = lt_edge_mask + base;  // picks scattered by PickLiveInEdges
  } else {
    // IC/WC: every lane flips u's out-edges independently, in EdgeId
    // order, from its own (snapshot, u) stream.
    row_mask.assign(row.size(), 0);
    mask = row_mask.data();
    const uint32_t s_lo = g * kLanesPerGroup;
    const uint32_t lanes = LaneCount(g);
    for (uint32_t b = 0; b < lanes; ++b) {
      uint64_t state = RowStreamState(seed_, s_lo + b, u);
      const uint64_t bit = uint64_t{1} << b;
      for (std::size_t i = 0; i < row.size(); ++i) {
        if (UnitDouble(Rng::SplitMix64(state)) < params_.p(base + i)) {
          mask[i] |= bit;
        }
      }
    }
  }
  // Emit EdgeId-ascending; the scan doubles as the LT scratch clear.
  for (std::size_t i = 0; i < row.size(); ++i) {
    if (mask[i] == 0) continue;
    out.targets.push_back(row[i]);
    out.masks.push_back(mask[i]);
    if (record_edge_offsets_) {
      out.edge_offsets.push_back(static_cast<uint32_t>(i));
    }
    mask[i] = 0;
  }
}

void SketchOracle::AppendEntries(const LaneRows& from, std::size_t lo,
                                 std::size_t hi) {
  rows_.targets.insert(rows_.targets.end(), from.targets.begin() + lo,
                       from.targets.begin() + hi);
  rows_.masks.insert(rows_.masks.end(), from.masks.begin() + lo,
                     from.masks.begin() + hi);
  if (record_edge_offsets_) {
    rows_.edge_offsets.insert(rows_.edge_offsets.end(),
                              from.edge_offsets.begin() + lo,
                              from.edge_offsets.begin() + hi);
  }
}

void SketchOracle::ShrinkArena() {
  rows_.targets.shrink_to_fit();
  rows_.masks.shrink_to_fit();
  rows_.edge_offsets.shrink_to_fit();
  node_offsets_.shrink_to_fit();
  entry_base_.shrink_to_fit();
}

void SketchOracle::Sample(ThreadPool* pool, Deadline* deadline) {
  const NodeId n = graph_->num_nodes();
  const bool lt = params_.model == DiffusionModel::kLinearThreshold;
  rows_.targets.clear();
  rows_.masks.clear();
  rows_.edge_offsets.clear();
  node_offsets_.assign(static_cast<std::size_t>(num_lane_groups_) * (n + 1),
                       0);
  entry_base_.assign(num_lane_groups_ + 1, 0);
  // Shards are contiguous node ranges merged in range order, so the arena
  // is independent of the shard count (and thus of the pool); peak
  // transient memory is one lane group's rows plus, for LT, one lane word
  // per edge.
  const std::size_t shards =
      pool ? std::max<std::size_t>(
                 1, std::min<std::size_t>(pool->num_threads() * 2, n))
           : 1;
  auto shard_lo = [&](std::size_t w) {
    return static_cast<NodeId>(static_cast<uint64_t>(n) * w / shards);
  };
  auto for_each_shard = [&](const std::function<void(std::size_t)>& fn) {
    if (pool) {
      pool->ParallelFor(shards, fn);
    } else {
      for (std::size_t w = 0; w < shards; ++w) fn(w);
    }
  };
  std::vector<LaneRows> buffers(shards);
  std::vector<std::vector<uint64_t>> row_masks(shards);
  std::vector<uint64_t> lt_edge_mask(lt ? graph_->num_edges() : 0, 0);
  for (uint32_t g = 0; g < num_lane_groups_; ++g) {
    if (deadline) {
      // Charged per lane group, before its work; groups hold a multiple
      // of kSnapshotsPerTick lanes except the last, so a whole build
      // charges ceil(R / kSnapshotsPerTick) ticks for any pool size.
      Status st = deadline->CheckN(
          (LaneCount(g) + kSnapshotsPerTick - 1) / kSnapshotsPerTick);
      if (!st.ok()) {
        build_status_ = std::move(st);
        return;
      }
    }
    if (lt) {
      for_each_shard([&](std::size_t w) {
        PickLiveInEdges(g, shard_lo(w), shard_lo(w + 1), lt_edge_mask.data());
      });
    }
    uint32_t* offsets =
        node_offsets_.data() + static_cast<std::size_t>(g) * (n + 1);
    for_each_shard([&](std::size_t w) {
      LaneRows& buffer = buffers[w];
      buffer.targets.clear();
      buffer.masks.clear();
      buffer.edge_offsets.clear();
      for (NodeId u = shard_lo(w); u < shard_lo(w + 1); ++u) {
        offsets[u] = static_cast<uint32_t>(buffer.targets.size());
        AppendRow(g, u, lt ? lt_edge_mask.data() : nullptr, row_masks[w],
                  buffer);
      }
    });
    const std::size_t group_base = rows_.targets.size();
    for (std::size_t w = 0; w < shards; ++w) {
      const uint32_t shift =
          static_cast<uint32_t>(rows_.targets.size() - group_base);
      for (NodeId u = shard_lo(w); u < shard_lo(w + 1); ++u) {
        offsets[u] += shift;
      }
      AppendEntries(buffers[w], 0, buffers[w].targets.size());
    }
    HOLIM_CHECK(rows_.targets.size() - group_base <=
                std::numeric_limits<uint32_t>::max())
        << "lane group overflows 32-bit CSR offsets";
    offsets[n] = static_cast<uint32_t>(rows_.targets.size() - group_base);
    entry_base_[g + 1] = rows_.targets.size();
  }
  ShrinkArena();
}

/// Distance (in edges) the lane walks prefetch target state ahead of the
/// probe. The row scan's latency is dominated by the random per-target
/// state loads; the target IDs are sequentially readable from the row, so
/// a short lookahead hides most of the miss latency.
constexpr uint32_t kLanePrefetchDistance = 8;

template <bool kWeighted>
std::conditional_t<kWeighted, double, int64_t> SketchOracle::SumReached(
    std::span<const NodeId> seeds, std::span<const double> weights) const {
  const NodeId n = graph_->num_nodes();
  if (lane_state_.size() != n) {
    lane_state_.assign(n, 0);
    lane_pending_.assign(n, 0);
  }
  uint64_t* const state = lane_state_.data();
  uint64_t* const pending = lane_pending_.data();
  std::conditional_t<kWeighted, double, int64_t> total = 0;
  // FIFO worklist in queue_[0, qn): raw-indexed, so queue_ is grown to hold
  // the seeds, and a whole row before the row is scanned.
  if (queue_.size() < seeds.size()) queue_.resize(seeds.size());
  for (uint32_t g = 0; g < num_lane_groups_; ++g) {
    const uint64_t full = LaneMaskAll(g);
    std::size_t qn = 0;
    for (NodeId seed : seeds) {
      const uint64_t fresh = full & ~state[seed];
      if (fresh == 0) continue;  // duplicate seed
      if constexpr (kWeighted) total += std::popcount(fresh) * weights[seed];
      state[seed] |= fresh;
      if (pending[seed] == 0) queue_[qn++] = seed;
      pending[seed] |= fresh;
    }
    // FIFO walk: lanes arriving while a level drains aggregate in the
    // pending word and cost ONE rescan of v's union row, where LIFO would
    // chase single lanes down long paths and rescan rows per wave. Every
    // entry still has lanes pending when it is popped: a node is queued
    // only while its pending word is zero.
    for (std::size_t head = 0; head < qn; ++head) {
      const NodeId v = queue_[head];
      const uint64_t active = pending[v];
      pending[v] = 0;  // self-clearing: processing zeroes the word
      if (head + 1 < qn) PrefetchLaneRow(g, queue_[head + 1]);
      if (head + 2 < qn) PrefetchLaneOffsets(g, queue_[head + 2]);
      const LaneAdjacency adj = LaneTargets(g, v);
      if (queue_.size() < qn + adj.size) {
        queue_.resize(std::max(queue_.size() * 2, qn + adj.size));
      }
      NodeId* const queue = queue_.data();
      // Branch-free row scan: every entry stores both words and writes its
      // target into the next worklist slot, which is kept only when the
      // target gains its first pending lane.
      auto scan = [&](uint32_t j) {
        const NodeId t = adj.targets[j];
        const uint64_t old_state = state[t];
        const uint64_t old_pending = pending[t];
        const uint64_t fresh = adj.masks[j] & active & ~old_state;
        if constexpr (kWeighted) {
          // Only entries with fresh lanes pay the popcount call and add a
          // term: the terms, in order, of a walk crediting fresh entries.
          if (fresh != 0) total += std::popcount(fresh) * weights[t];
        }
        state[t] = old_state | fresh;
        pending[t] = old_pending | fresh;
        queue[qn] = t;
        qn += (old_pending == 0) & (fresh != 0);
      };
      // Entries with a target kLanePrefetchDistance ahead prefetch its
      // state word; the row's tail scans without.
      const uint32_t ahead =
          adj.size > kLanePrefetchDistance ? adj.size - kLanePrefetchDistance
                                           : 0;
      uint32_t j = 0;
      for (; j < ahead; ++j) {
        __builtin_prefetch(&state[adj.targets[j + kLanePrefetchDistance]]);
        scan(j);
      }
      for (; j < adj.size; ++j) scan(j);
    }
    // Every reached node was queued when it gained its first lane (pending
    // is a subset of state), so one pass over the worklist counts each
    // node's final lanes once and re-zeroes its word; repeat entries read
    // an already-zeroed word.
    for (std::size_t i = 0; i < qn; ++i) {
      const NodeId t = queue_[i];
      if constexpr (!kWeighted) total += std::popcount(state[t]);
      state[t] = 0;
    }
  }
  return total;
}

double SketchOracle::Estimate(std::span<const NodeId> seeds) const {
  if (seeds.empty()) return 0.0;
  const int64_t spread =
      SumReached</*kWeighted=*/false>(seeds, {}) -
      static_cast<int64_t>(num_snapshots_) * static_cast<int64_t>(seeds.size());
  return static_cast<double>(spread) / num_snapshots_;
}

double SketchOracle::EstimateWeighted(
    std::span<const NodeId> seeds, std::span<const double> node_weights) const {
  if (seeds.empty()) return 0.0;
  HOLIM_CHECK(node_weights.size() == graph_->num_nodes())
      << "weight/node count mismatch";
  const double total_weight =
      SumReached</*kWeighted=*/true>(seeds, node_weights);
  // Mirror Estimate's |S| exclusion: each seed entry contributes its
  // weight R times (duplicates included, like R * seeds.size()). The
  // subtraction and single division reproduce Estimate's arithmetic
  // bit-for-bit when every weight is 1.0.
  double seed_weight = 0.0;
  for (const NodeId seed : seeds) seed_weight += node_weights[seed];
  return (total_weight - static_cast<double>(num_snapshots_) * seed_weight) /
         num_snapshots_;
}

double SketchOracle::EstimateIcnPositive(std::span<const NodeId> seeds,
                                         double quality_factor) const {
  if (seeds.empty()) return 0.0;
  HOLIM_CHECK(quality_factor >= 0.0 && quality_factor <= 1.0)
      << "quality factor out of [0,1]";
  icn_level_counts_.clear();
  AccumulateIcnLevelCounts(seeds);
  // Integer per-distance activation counts (summed over snapshots) folded
  // through one q-polynomial: nodes at live-edge distance d are positive
  // w.p. q^(d+1).
  double total = 0.0;
  double factor = quality_factor * quality_factor;  // d == 1
  for (const int64_t count : icn_level_counts_) {
    total += static_cast<double>(count) * factor;
    factor *= quality_factor;
  }
  return total / num_snapshots_;
}

void SketchOracle::AccumulateIcnLevelCounts(
    std::span<const NodeId> seeds) const {
  const NodeId n = graph_->num_nodes();
  if (lane_state_.size() != n) {
    lane_state_.assign(n, 0);
    lane_pending_.assign(n, 0);
  }
  if (lane_next_.size() != n) lane_next_.assign(n, 0);
  for (uint32_t g = 0; g < num_lane_groups_; ++g) {
    const uint64_t full = LaneMaskAll(g);
    queue_.clear();     // level-ordered node list (lo/hi windows)
    frontier_.clear();  // nodes whose state word must be re-zeroed
    for (NodeId seed : seeds) {
      const uint64_t fresh = full & ~lane_state_[seed];
      if (fresh == 0) continue;  // duplicate seed
      if (lane_state_[seed] == 0) frontier_.push_back(seed);
      lane_state_[seed] |= fresh;
      if (lane_pending_[seed] == 0) queue_.push_back(seed);
      lane_pending_[seed] |= fresh;
    }
    // Level-synchronous so popcounts land on the right distance: current
    // lanes live in lane_pending_, next-level lanes accumulate in
    // lane_next_ (a node can sit in both), swapped per level.
    std::size_t lo = 0;
    std::size_t hi = queue_.size();
    std::size_t depth = 0;
    while (lo < hi) {
      int64_t discovered = 0;
      for (std::size_t i = lo; i < hi; ++i) {
        const NodeId v = queue_[i];
        const uint64_t active = lane_pending_[v];
        lane_pending_[v] = 0;
        if (i + 1 < hi) PrefetchLaneRow(g, queue_[i + 1]);
        if (i + 2 < hi) PrefetchLaneOffsets(g, queue_[i + 2]);
        const LaneAdjacency adj = LaneTargets(g, v);
        for (uint32_t j = 0; j < adj.size; ++j) {
          const NodeId t = adj.targets[j];
          const uint64_t fresh = adj.masks[j] & active & ~lane_state_[t];
          if (fresh == 0) continue;
          discovered += std::popcount(fresh);
          if (lane_state_[t] == 0) frontier_.push_back(t);
          lane_state_[t] |= fresh;
          if (lane_next_[t] == 0) queue_.push_back(t);
          lane_next_[t] |= fresh;
        }
      }
      if (discovered != 0) {
        if (icn_level_counts_.size() <= depth) {
          icn_level_counts_.resize(depth + 1, 0);
        }
        icn_level_counts_[depth] += discovered;
      }
      lo = hi;
      hi = queue_.size();
      ++depth;
      // All processed pending words are zero; the swap promotes the next
      // level and hands back an all-zero next array.
      std::swap(lane_pending_, lane_next_);
    }
    for (NodeId t : frontier_) lane_state_[t] = 0;
  }
}

OpinionSpreadEstimate SketchOracle::EstimateOpinion(
    const OpinionParams& opinions, OiBase base, std::span<const NodeId> seeds,
    double lambda) const {
  OpinionSpreadEstimate estimate;
  if (seeds.empty()) return estimate;
  HOLIM_CHECK(base == OiBase::kIndependentCascade)
      << "sketch opinion replay supports the IC base only";
  HOLIM_CHECK(record_edge_offsets_)
      << "EstimateOpinion needs SketchOptions::record_edge_offsets";
  HOLIM_CHECK(opinions.opinion.size() == graph_->num_nodes())
      << "opinion/node count mismatch";
  HOLIM_CHECK(opinions.interaction.size() == graph_->num_edges())
      << "interaction/edge count mismatch";
  const NodeId n = graph_->num_nodes();
  if (node_value_.size() != n) node_value_.assign(n, 0.0);
  double opinion_sum = 0.0, positive_sum = 0.0, negative_sum = 0.0;
  int64_t plain = 0;
  for (uint32_t s = 0; s < num_snapshots_; ++s) {
    const uint32_t g = s / kLanesPerGroup;
    const uint64_t bit = uint64_t{1} << (s % kLanesPerGroup);
    visited_.Reset(n);
    queue_.clear();
    for (NodeId seed : seeds) {
      if (visited_.Contains(seed)) continue;
      visited_.Insert(seed);
      node_value_[seed] = opinions.o(seed);  // o'_s = o_s, excluded below
      queue_.push_back(seed);
    }
    // BFS in activation order: the activator's expected opinion is settled
    // before any node it activates (first live arrival wins, matching the
    // IC simulator's queue semantics). Snapshot s's live out-edges of u are
    // u's union entries carrying lane bit `bit`, in EdgeId order.
    std::size_t head = 0;
    while (head < queue_.size()) {
      const NodeId u = queue_[head++];
      const double value_u = node_value_[u];
      const EdgeId out_begin = graph_->OutEdgeBegin(u);
      const LaneAdjacency adj = LaneTargets(g, u);
      for (uint32_t j = 0; j < adj.size; ++j) {
        const NodeId v = adj.targets[j];
        if ((adj.masks[j] & bit) == 0 || visited_.Contains(v)) continue;
        visited_.Insert(v);
        const EdgeId e = out_begin + adj.edge_offsets[j];
        // E[(-1)^alpha o'_u] with alpha = 0 w.p. phi(e).
        const double value =
            (opinions.o(v) + (2.0 * opinions.phi(e) - 1.0) * value_u) / 2.0;
        node_value_[v] = value;
        opinion_sum += value;
        if (value > 0) {
          positive_sum += value;
        } else {
          negative_sum += -value;
        }
        ++plain;
        queue_.push_back(v);
      }
    }
  }
  estimate.opinion_spread = opinion_sum / num_snapshots_;
  estimate.effective_opinion_spread =
      (positive_sum - lambda * negative_sum) / num_snapshots_;
  estimate.plain_spread = static_cast<double>(plain) / num_snapshots_;
  return estimate;
}

std::size_t SketchOracle::ArenaBytes() const {
  return rows_.targets.capacity() * sizeof(NodeId) +
         rows_.masks.capacity() * sizeof(uint64_t) +
         rows_.edge_offsets.capacity() * sizeof(uint32_t) +
         node_offsets_.capacity() * sizeof(uint32_t) +
         entry_base_.capacity() * sizeof(std::size_t);
}

Status SketchOracle::ApplyDelta(const Graph& new_graph,
                                const InfluenceParams& new_params) {
  if (new_params.probability.size() != new_graph.num_edges()) {
    return Status::InvalidArgument(
        "params/graph edge count mismatch: " +
        std::to_string(new_params.probability.size()) + " probabilities vs " +
        std::to_string(new_graph.num_edges()) + " edges");
  }
  if (new_params.model != params_.model) {
    return Status::InvalidArgument(
        "diffusion model changed across the delta; rebuild the oracle");
  }
  if (new_graph.num_nodes() < graph_->num_nodes()) {
    return Status::InvalidArgument(
        "graph shrank across the delta; deltas never drop nodes");
  }
  if (params_.model == DiffusionModel::kLinearThreshold) {
    // An LT lane row unions the picks of every target its edges reach, so
    // a dirty in-row can move entries of many source rows: resample.
    graph_ = &new_graph;
    params_ = new_params;
    Sample(/*pool=*/nullptr, /*deadline=*/nullptr);
    return Status::OK();
  }
  return ApplyDeltaCascade(new_graph, new_params);
}

Status SketchOracle::ApplyDeltaCascade(const Graph& new_graph,
                                       const InfluenceParams& new_params) {
  const Graph& old_graph = *graph_;
  const NodeId n_old = old_graph.num_nodes();
  const NodeId n_new = new_graph.num_nodes();

  // Dirty = source rows whose (targets, p) contents changed positionally;
  // only their (snapshot, node) streams replay differently. Comparing p
  // (not just topology) is what makes this model-agnostic: a WC delta
  // shifts 1/indeg(v) on every in-edge of a touched target, and each such
  // edge's source row goes dirty via the p mismatch.
  std::vector<uint8_t> dirty(n_new, 0);
  bool any_dirty = false;
  for (NodeId u = 0; u < n_new; ++u) {
    bool is_dirty = u >= n_old;
    if (!is_dirty) {
      const auto old_row = old_graph.OutNeighbors(u);
      const auto new_row = new_graph.OutNeighbors(u);
      if (old_row.size() != new_row.size()) {
        is_dirty = true;
      } else {
        const EdgeId old_base = old_graph.OutEdgeBegin(u);
        const EdgeId new_base = new_graph.OutEdgeBegin(u);
        for (std::size_t i = 0; i < old_row.size(); ++i) {
          if (old_row[i] != new_row[i] ||
              params_.p(old_base + i) != new_params.p(new_base + i)) {
            is_dirty = true;
            break;
          }
        }
      }
    }
    dirty[u] = is_dirty;
    any_dirty |= is_dirty;
  }
  graph_ = &new_graph;
  params_ = new_params;
  if (!any_dirty) return Status::OK();  // identical CSR + params: rebind

  // Clean rows keep identical draws in every lane, so their union rows
  // (masks included) copy verbatim; dirty rows resample straight into the
  // arena on the new graph. Offsets are rebuilt outright (n may have
  // grown); after ShrinkArena the capacities match a cold build exactly.
  LaneRows old_rows = std::move(rows_);
  const std::vector<uint32_t> old_offsets = std::move(node_offsets_);
  const std::vector<std::size_t> old_base = std::move(entry_base_);
  rows_ = LaneRows{};
  node_offsets_.assign(
      static_cast<std::size_t>(num_lane_groups_) * (n_new + 1), 0);
  entry_base_.assign(num_lane_groups_ + 1, 0);
  std::vector<uint64_t> row_mask;
  for (uint32_t g = 0; g < num_lane_groups_; ++g) {
    uint32_t* offsets =
        node_offsets_.data() + static_cast<std::size_t>(g) * (n_new + 1);
    const uint32_t* old_offs =
        old_offsets.data() + static_cast<std::size_t>(g) * (n_old + 1);
    const std::size_t group_base = rows_.targets.size();
    for (NodeId u = 0; u < n_new; ++u) {
      offsets[u] = static_cast<uint32_t>(rows_.targets.size() - group_base);
      if (dirty[u]) {
        AppendRow(g, u, /*lt_edge_mask=*/nullptr, row_mask, rows_);
      } else {
        AppendEntries(old_rows, old_base[g] + old_offs[u],
                      old_base[g] + old_offs[u + 1]);
      }
    }
    HOLIM_CHECK(rows_.targets.size() - group_base <=
                std::numeric_limits<uint32_t>::max())
        << "lane group overflows 32-bit CSR offsets";
    offsets[n_new] = static_cast<uint32_t>(rows_.targets.size() - group_base);
    entry_base_[g + 1] = rows_.targets.size();
  }
  ShrinkArena();
  return Status::OK();
}

SketchOracle::Session::Session(const SketchOracle& oracle,
                               std::span<const double> node_weights)
    : oracle_(oracle),
      weights_(node_weights),
      n_(oracle.graph().num_nodes()),
      num_groups_(oracle.num_lane_groups()),
      lanes_(static_cast<std::size_t>(oracle.num_lane_groups()) *
                 oracle.graph().num_nodes(),
             0),
      pending_(oracle.graph().num_nodes(), 0) {
  HOLIM_CHECK(weights_.empty() || weights_.size() == n_)
      << "weight/node count mismatch";
}

void SketchOracle::Session::Reset() {
  std::fill(lanes_.begin(), lanes_.end(), 0);
  total_active_ = 0;
  total_active_weight_ = 0.0;
  seed_weight_sum_ = 0.0;
  num_seeds_ = 0;
}

template <bool kCommit, bool kWeighted>
SketchOracle::Session::Newly SketchOracle::Session::Explore(NodeId u) {
  Newly total;
  auto credit = [&](uint64_t fresh, NodeId node) {
    total.nodes += std::popcount(fresh);
    if constexpr (kWeighted) {
      total.weight += std::popcount(fresh) * weights_[node];
    }
  };
  for (uint32_t g = 0; g < num_groups_; ++g) {
    uint64_t* activated = lanes_.data() + static_cast<std::size_t>(g) * n_;
    const uint64_t start = oracle_.LaneMaskAll(g) & ~activated[u];
    if (start == 0) continue;  // u already active in every lane
    credit(start, u);
    // Probes speculatively write trial lanes into the activated words and
    // roll back from undo_ afterwards, so probe and commit walks are the
    // same kernel with one random state access per edge.
    if constexpr (!kCommit) undo_.push_back({u, activated[u]});
    activated[u] |= start;
    pending_[u] = start;
    stack_.assign(1, u);
    // FIFO walk (see SumReached): aggregates lane waves per node so a
    // union row is rescanned once per wave, not once per arriving lane.
    for (std::size_t head = 0; head < stack_.size(); ++head) {
      const NodeId v = stack_[head];
      const uint64_t active = pending_[v];
      if (active == 0) continue;
      pending_[v] = 0;  // self-clearing: processing zeroes the word
      if (head + 1 < stack_.size()) oracle_.PrefetchLaneRow(g, stack_[head + 1]);
      if (head + 2 < stack_.size()) {
        oracle_.PrefetchLaneOffsets(g, stack_[head + 2]);
      }
      const LaneAdjacency adj = oracle_.LaneTargets(g, v);
      for (uint32_t j = 0; j < adj.size; ++j) {
        if (j + kLanePrefetchDistance < adj.size) {
          __builtin_prefetch(&activated[adj.targets[j + kLanePrefetchDistance]]);
        }
        const NodeId t = adj.targets[j];
        const uint64_t fresh = adj.masks[j] & active & ~activated[t];
        if (fresh == 0) continue;
        credit(fresh, t);
        if constexpr (!kCommit) undo_.push_back({t, activated[t]});
        activated[t] |= fresh;
        if (pending_[t] == 0) stack_.push_back(t);
        pending_[t] |= fresh;
      }
    }
    if constexpr (!kCommit) {
      // Reverse replay restores a twice-freshened node's oldest word last.
      for (auto it = undo_.rbegin(); it != undo_.rend(); ++it) {
        activated[it->node] = it->word;
      }
      undo_.clear();
    }
  }
  return total;
}

double SketchOracle::Session::MarginalGain(NodeId u) {
  const uint32_t snapshots = oracle_.num_snapshots();
  if (!weights_.empty()) {
    const Newly newly = Explore</*kCommit=*/false, /*kWeighted=*/true>(u);
    return (newly.weight - static_cast<double>(snapshots) * weights_[u]) /
           snapshots;
  }
  const Newly newly = Explore</*kCommit=*/false, /*kWeighted=*/false>(u);
  return static_cast<double>(newly.nodes - snapshots) / snapshots;
}

double SketchOracle::Session::Commit(NodeId u) {
  const uint32_t snapshots = oracle_.num_snapshots();
  ++num_seeds_;
  if (!weights_.empty()) {
    const Newly newly = Explore</*kCommit=*/true, /*kWeighted=*/true>(u);
    total_active_ += newly.nodes;
    total_active_weight_ += newly.weight;
    seed_weight_sum_ += weights_[u];
    return (newly.weight - static_cast<double>(snapshots) * weights_[u]) /
           snapshots;
  }
  const Newly newly = Explore</*kCommit=*/true, /*kWeighted=*/false>(u);
  total_active_ += newly.nodes;
  return static_cast<double>(newly.nodes - snapshots) / snapshots;
}

double SketchOracle::Session::Spread() const {
  if (!weights_.empty()) {
    return (total_active_weight_ -
            static_cast<double>(oracle_.num_snapshots()) * seed_weight_sum_) /
           oracle_.num_snapshots();
  }
  const int64_t spread =
      total_active_ - static_cast<int64_t>(oracle_.num_snapshots()) *
                          static_cast<int64_t>(num_seeds_);
  return static_cast<double>(spread) / oracle_.num_snapshots();
}

std::size_t SketchOracle::Session::ScratchBytes() const {
  return lanes_.capacity() * sizeof(uint64_t) +
         pending_.capacity() * sizeof(uint64_t) +
         undo_.capacity() * sizeof(LaneUndo) +
         stack_.capacity() * sizeof(NodeId);
}

}  // namespace holim
