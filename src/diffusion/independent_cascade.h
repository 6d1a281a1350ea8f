#ifndef HOLIM_DIFFUSION_INDEPENDENT_CASCADE_H_
#define HOLIM_DIFFUSION_INDEPENDENT_CASCADE_H_

#include <span>
#include <vector>

#include "diffusion/cascade.h"
#include "graph/graph.h"
#include "model/influence_params.h"
#include "util/rng.h"

namespace holim {

/// \brief Independent Cascade simulator (Kempe et al., Sec. 2.1).
///
/// At step i every node activated at step i-1 gets one independent attempt
/// to activate each out-neighbor v with probability p(u,v). WC is IC with
/// p(u,v) = 1/indeg(v), so this simulator covers both.
///
/// The simulator owns reusable scratch; Run() is O(activated edges) and the
/// returned Cascade is valid until the next Run().
///
/// Draw-order contract: one Bernoulli draw per out-edge (u,v) of a popped
/// node u whose target is neither active nor blocked at the moment the
/// edge is reached, in BFS pop order and then out-row order.
///
/// Each popped row is scanned compact-then-draw: a branch-free pass
/// collects the open targets' row positions, then the coin pass draws for
/// them. It makes exactly the draws of the plain single-pass loop;
/// tests/ic_kernel_parity_test.cc pins the kernel against that loop,
/// Cascade records and Rng state alike.
class IcSimulator {
 public:
  IcSimulator(const Graph& graph, const InfluenceParams& params);

  /// Runs one cascade from `seeds`. Duplicate seeds are activated once.
  const Cascade& Run(std::span<const NodeId> seeds, Rng& rng);

  /// Like Run but never activates nodes in `blocked` (used by the
  /// ScoreGREEDY activated-set bookkeeping and by competitive scenarios).
  const Cascade& RunWithBlocked(std::span<const NodeId> seeds, Rng& rng,
                                const EpochSet& blocked);

  /// Active-set stamps plus the candidate buffer (sized to the largest
  /// out-degree scanned so far), capacity-based.
  std::size_t ScratchBytes() const {
    return active_.size_bytes() + candidates_.capacity() * sizeof(uint32_t);
  }

 private:
  const Cascade& RunImpl(std::span<const NodeId> seeds, Rng& rng,
                         const EpochSet* blocked);
  /// BFS over cascade_.order from the seeds already in it.
  template <bool kBlocked>
  void Propagate(Rng& rng, const EpochSet* blocked);

  const Graph& graph_;
  const InfluenceParams& params_;
  Cascade cascade_;
  EpochSet active_;
  // Row positions of the open out-neighbours of the node being expanded.
  std::vector<uint32_t> candidates_;
  // Activation count of the previous run; seeds Run's reserve.
  std::size_t last_activation_count_ = 0;
};

}  // namespace holim

#endif  // HOLIM_DIFFUSION_INDEPENDENT_CASCADE_H_
