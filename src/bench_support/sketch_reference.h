#ifndef HOLIM_BENCH_SUPPORT_SKETCH_REFERENCE_H_
#define HOLIM_BENCH_SUPPORT_SKETCH_REFERENCE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "diffusion/cascade.h"
#include "diffusion/spread_estimator.h"
#include "graph/graph.h"
#include "model/influence_params.h"
#include "model/opinion_params.h"

namespace holim {

/// \brief Serial scalar reference for SketchOracle: the same R live-edge
/// worlds, materialized one snapshot at a time as per-snapshot CSR forward
/// adjacency and walked with one BFS per snapshot.
///
/// Worlds follow SketchOracle's RNG contract (SketchOracle::RowStreamState
/// and UnitDouble; IC/WC flip each source row in EdgeId order, LT picks
/// each target's live in-edge by residual scan), so snapshot s here is
/// exactly lane bit s % 64 of the oracle's lane group s / 64, and every
/// estimator below is bitwise equal to the oracle's over the same
/// (graph, params, R, seed). Tests pin the oracle against it; the spread
/// micro-bench times it as the scalar baseline of its bit-parallel
/// speedup ratios. No pool, no deadline, no ApplyDelta: a reference for a
/// mutated graph is simply rebuilt. Production code (engine, algorithms,
/// serving, CLI tools) never constructs it.
///
/// Layout (all snapshots back to back):
///   entries_      : NodeId[total live edges]  — live out-targets grouped by
///                                               (snapshot, source),
///                                               EdgeId-ascending
///   node_offsets_ : uint32[R * (n + 1)]       — snapshot-local CSR offsets
///   entry_base_   : size_t[R + 1]             — snapshot extents
class ScalarSketchReference {
 public:
  ScalarSketchReference(const Graph& graph, const InfluenceParams& params,
                        uint32_t num_snapshots, uint64_t seed);

  uint32_t num_snapshots() const { return num_snapshots_; }
  const Graph& graph() const { return graph_; }

  /// Live out-targets of `u` in snapshot `s`, EdgeId-ascending.
  std::span<const NodeId> LiveTargets(uint32_t s, NodeId u) const {
    const uint32_t* off =
        node_offsets_.data() +
        static_cast<std::size_t>(s) * (graph_.num_nodes() + 1);
    const NodeId* base = entries_.data() + entry_base_[s];
    return {base + off[u], base + off[u + 1]};
  }
  /// Global EdgeId of live target `v` of `u` (out-rows are strictly
  /// ascending, so the row position is a binary search away).
  EdgeId LiveEdgeId(NodeId u, NodeId v) const;

  /// Bytes of the per-snapshot arena (capacity-based).
  std::size_t ArenaBytes() const;

  /// The scalar twins of SketchOracle's estimators (same estimands, same
  /// accumulation and division; see the oracle's documentation).
  double Estimate(std::span<const NodeId> seeds) const;
  double EstimateWeighted(std::span<const NodeId> seeds,
                          std::span<const double> node_weights) const;
  double EstimateIcnPositive(std::span<const NodeId> seeds,
                             double quality_factor) const;
  OpinionSpreadEstimate EstimateOpinion(const OpinionParams& opinions,
                                        std::span<const NodeId> seeds,
                                        double lambda) const;

  /// \brief Scalar twin of SketchOracle::Session: one DFS per snapshot,
  /// pruned at the persistent activated set. Activated bits are stored
  /// group-major in 64-lane words (bit s % 64 of word (s / 64) * n + u),
  /// the oracle session's layout, read one bit at a time.
  class Session {
   public:
    explicit Session(const ScalarSketchReference& reference,
                     std::span<const double> node_weights = {});
    void Reset();
    double MarginalGain(NodeId u);
    double Commit(NodeId u);
    double Spread() const;
    std::size_t num_seeds() const { return num_seeds_; }
    int64_t total_activated() const { return total_active_; }

   private:
    /// Newly activated node count and weight sum over all snapshots.
    struct Newly {
      int64_t nodes = 0;
      double weight = 0.0;
    };
    template <bool kCommit>
    Newly Explore(NodeId u);

    const ScalarSketchReference& reference_;
    std::span<const double> weights_;  // empty = unweighted
    NodeId n_;
    std::vector<uint64_t> lanes_;
    EpochSet trial_;  // probe-visited set (probes never touch lanes_)
    std::vector<NodeId> stack_;
    int64_t total_active_ = 0;
    double total_active_weight_ = 0.0;
    double seed_weight_sum_ = 0.0;
    std::size_t num_seeds_ = 0;
  };

 private:
  /// Runs one BFS per snapshot from `seeds` (deduplicated), calling
  /// `visit(s, v, depth)` once per reached node in discovery order — seeds
  /// at depth 0, level by level.
  template <typename Visit>
  void Walk(std::span<const NodeId> seeds, Visit&& visit) const;

  const Graph& graph_;
  InfluenceParams params_;
  uint32_t num_snapshots_;
  std::vector<NodeId> entries_;
  std::vector<uint32_t> node_offsets_;
  std::vector<std::size_t> entry_base_;
  mutable EpochSet visited_;
  mutable std::vector<NodeId> queue_;
};

}  // namespace holim

#endif  // HOLIM_BENCH_SUPPORT_SKETCH_REFERENCE_H_
