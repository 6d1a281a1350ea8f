#ifndef HOLIM_GRAPH_GRAPH_H_
#define HOLIM_GRAPH_GRAPH_H_

#include <cstdint>
#include <span>
#include <vector>

namespace holim {

using NodeId = uint32_t;
using EdgeId = uint64_t;

/// Sentinel for "no node".
inline constexpr NodeId kInvalidNode = static_cast<NodeId>(-1);

/// \brief Immutable directed graph in compressed-sparse-row form.
///
/// Both out-adjacency (forward diffusion) and in-adjacency (reverse
/// reachable sampling, WC weights) are materialized. Each directed edge has
/// a stable EdgeId: out-CSR order defines the id; the in-CSR carries the
/// same ids so per-edge attributes (influence probability p, interaction
/// probability phi, LT weight w) live in plain arrays indexed by EdgeId.
///
/// Construct via GraphBuilder; Graph itself is cheap to move, expensive to
/// copy (explicitly allowed for tests/subgraphs).
class Graph {
 public:
  Graph() = default;

  NodeId num_nodes() const { return n_; }
  EdgeId num_edges() const { return static_cast<EdgeId>(out_targets_.size()); }

  /// Out-neighbors of u (diffusion direction).
  std::span<const NodeId> OutNeighbors(NodeId u) const {
    return {out_targets_.data() + out_offsets_[u],
            out_targets_.data() + out_offsets_[u + 1]};
  }
  /// EdgeIds of u's out-edges; parallel to OutNeighbors(u). The out-CSR is
  /// identity-ordered, so edge i of u has id out_offsets_[u] + i.
  EdgeId OutEdgeBegin(NodeId u) const { return out_offsets_[u]; }

  /// In-neighbors of v.
  std::span<const NodeId> InNeighbors(NodeId v) const {
    return {in_sources_.data() + in_offsets_[v],
            in_sources_.data() + in_offsets_[v + 1]};
  }
  /// EdgeIds parallel to InNeighbors(v) (ids refer to out-CSR positions).
  std::span<const EdgeId> InEdgeIds(NodeId v) const {
    return {in_edge_ids_.data() + in_offsets_[v],
            in_edge_ids_.data() + in_offsets_[v + 1]};
  }

  uint32_t OutDegree(NodeId u) const {
    return static_cast<uint32_t>(out_offsets_[u + 1] - out_offsets_[u]);
  }
  uint32_t InDegree(NodeId v) const {
    return static_cast<uint32_t>(in_offsets_[v + 1] - in_offsets_[v]);
  }

  /// Source node of edge `e` (ids are out-CSR positions). O(1) after
  /// BuildEdgeSourceIndex(); otherwise O(log n) via binary search over the
  /// offset array.
  NodeId EdgeSource(EdgeId e) const {
    if (!edge_sources_.empty()) return edge_sources_[e];
    return EdgeSourceBinarySearch(e);
  }

  /// Precomputes the m-entry edge -> source array so EdgeSource is O(1) on
  /// hot paths (cascade replay, stats). Optional: costs m * sizeof(NodeId)
  /// bytes, counted by MemoryFootprintBytes(). Idempotent.
  void BuildEdgeSourceIndex();
  bool has_edge_source_index() const { return !edge_sources_.empty(); }

  /// Target node of edge `e`; O(1).
  NodeId EdgeTarget(EdgeId e) const { return out_targets_[e]; }

  /// The raw out-CSR arrays: n+1 offsets (empty for a default-constructed
  /// graph) and the m edge targets in EdgeId order.
  std::span<const EdgeId> OutOffsets() const { return out_offsets_; }
  std::span<const NodeId> OutTargets() const { return out_targets_; }

  /// Approximate heap footprint of the adjacency arrays, for the memory
  /// experiments (Figs. 5h, 6i, 6j, 7j).
  std::size_t MemoryFootprintBytes() const;

 private:
  friend class GraphBuilder;
  friend class StreamingGraph;

  NodeId EdgeSourceBinarySearch(EdgeId e) const;

  NodeId n_ = 0;
  std::vector<EdgeId> out_offsets_;   // size n_+1
  std::vector<NodeId> out_targets_;   // size m
  std::vector<EdgeId> in_offsets_;    // size n_+1
  std::vector<NodeId> in_sources_;    // size m
  std::vector<EdgeId> in_edge_ids_;   // size m
  std::vector<NodeId> edge_sources_;  // size m when built, else empty
};

}  // namespace holim

#endif  // HOLIM_GRAPH_GRAPH_H_
