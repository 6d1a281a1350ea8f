#ifndef HOLIM_ALGO_STATIC_GREEDY_H_
#define HOLIM_ALGO_STATIC_GREEDY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "algo/seed_selector.h"
#include "diffusion/cascade.h"
#include "graph/graph.h"
#include "model/influence_params.h"

namespace holim {

/// Tuning parameters of StaticGreedy (Cheng et al., CIKM'13).
struct StaticGreedyOptions {
  /// Number of live-edge snapshots sampled up front (the paper's R; a few
  /// hundred suffice because the same snapshots are reused every round,
  /// removing the estimate-vs-estimate noise of naive MC greedy).
  uint32_t num_snapshots = 100;
  uint64_t seed = 77;
};

/// \brief StaticGreedy — greedy IM over a fixed set of sampled snapshots.
///
/// Phase 1 samples R live-edge instantiations of the graph once (each edge
/// kept independently w.p. p(e) for IC/WC; single live in-edge for LT).
/// Phase 2 runs CELF-style lazy greedy where a node's gain is the average
/// number of *newly* reachable nodes across snapshots. Because the sample
/// is static, marginal gains are exactly submodular and the lazy heap
/// never misranks — the algorithm's "scalability-accuracy dilemma" fix.
class StaticGreedySelector : public SeedSelector {
 public:
  StaticGreedySelector(const Graph& graph, const InfluenceParams& params,
                       const StaticGreedyOptions& options = {});

  std::string name() const override;
  Result<SeedSelection> Select(uint32_t k) override;

  /// Total memory held by the sampled snapshots (scalability accounting).
  std::size_t SnapshotBytes() const;
  /// The retained snapshot sample (drawn on first Select, reused after).
  std::size_t MemoryFootprintBytes() const override {
    return SnapshotBytes();
  }

 private:
  void SampleSnapshots();
  /// Marginal coverage of `u` given the already-covered node sets;
  /// `seen` is the caller's reusable visited set.
  double MarginalGain(NodeId u, const std::vector<std::vector<char>>& covered,
                      EpochSet* seen) const;
  void Cover(NodeId u, std::vector<std::vector<char>>* covered) const;

  const Graph& graph_;
  const InfluenceParams& params_;
  StaticGreedyOptions options_;
  /// Per-snapshot live out-adjacency in CSR form.
  struct Snapshot {
    std::vector<EdgeId> offsets;
    std::vector<NodeId> targets;
  };
  std::vector<Snapshot> snapshots_;
};

}  // namespace holim

#endif  // HOLIM_ALGO_STATIC_GREEDY_H_
