#include "graph/graph_builder.h"

#include <algorithm>
#include <ranges>

namespace holim {

Result<Graph> GraphBuilder::Build() && {
  for (std::size_t i = 0; i < srcs_.size(); ++i) {
    if (srcs_[i] >= n_ || dsts_[i] >= n_) {
      return Status::InvalidArgument("edge endpoint out of range at index " +
                                     std::to_string(i));
    }
  }

  // EdgeIds follow (src, dst) order. Bundles and generators already emit
  // edges in that order, so an O(m) check skips the O(m log m) sort; other
  // input is sorted in place first, leaving one build loop.
  const auto ids = std::views::iota(std::size_t{0}, srcs_.size());
  const bool sorted = std::ranges::is_sorted(ids, [&](std::size_t a,
                                                     std::size_t b) {
    if (srcs_[a] != srcs_[b]) return srcs_[a] < srcs_[b];
    return dsts_[a] < dsts_[b];
  });
  if (!sorted) {
    // (src << 32 | dst) orders exactly as the (src, dst) pair.
    static_assert(sizeof(NodeId) == 4);
    std::vector<uint64_t> keys(srcs_.size());
    for (std::size_t i = 0; i < keys.size(); ++i) {
      keys[i] = uint64_t{srcs_[i]} << 32 | dsts_[i];
    }
    std::sort(keys.begin(), keys.end());
    for (std::size_t i = 0; i < keys.size(); ++i) {
      srcs_[i] = static_cast<NodeId>(keys[i] >> 32);
      dsts_[i] = static_cast<NodeId>(keys[i]);
    }
  }

  Graph g;
  g.n_ = n_;
  g.out_offsets_.assign(n_ + 1, 0);
  g.out_targets_.reserve(srcs_.size());

  NodeId prev_src = kInvalidNode;
  NodeId prev_dst = kInvalidNode;
  for (std::size_t i = 0; i < srcs_.size(); ++i) {
    const NodeId s = srcs_[i];
    const NodeId d = dsts_[i];
    if (dedup_) {
      if (s == d) continue;  // drop self loops
      if (s == prev_src && d == prev_dst) continue;  // drop duplicates
    }
    prev_src = s;
    prev_dst = d;
    g.out_targets_.push_back(d);
    ++g.out_offsets_[s + 1];
  }
  for (NodeId u = 0; u < n_; ++u) g.out_offsets_[u + 1] += g.out_offsets_[u];

  // Build in-CSR carrying the out-CSR EdgeIds.
  const EdgeId m = g.out_targets_.size();
  g.in_offsets_.assign(n_ + 1, 0);
  for (EdgeId e = 0; e < m; ++e) ++g.in_offsets_[g.out_targets_[e] + 1];
  for (NodeId v = 0; v < n_; ++v) g.in_offsets_[v + 1] += g.in_offsets_[v];

  g.in_sources_.resize(m);
  g.in_edge_ids_.resize(m);
  std::vector<EdgeId> cursor(g.in_offsets_.begin(), g.in_offsets_.end() - 1);
  for (NodeId u = 0; u < n_; ++u) {
    for (EdgeId e = g.out_offsets_[u]; e < g.out_offsets_[u + 1]; ++e) {
      const NodeId v = g.out_targets_[e];
      const EdgeId slot = cursor[v]++;
      g.in_sources_[slot] = u;
      g.in_edge_ids_[slot] = e;
    }
  }

  srcs_.clear();
  srcs_.shrink_to_fit();
  dsts_.clear();
  dsts_.shrink_to_fit();
  return g;
}

}  // namespace holim
