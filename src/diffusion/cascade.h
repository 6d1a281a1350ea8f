#ifndef HOLIM_DIFFUSION_CASCADE_H_
#define HOLIM_DIFFUSION_CASCADE_H_

#include <cstdint>
#include <vector>

#include "graph/graph.h"

namespace holim {

/// Sentinel for "activated as a seed" (no incoming activation edge).
inline constexpr EdgeId kSeedActivation = static_cast<EdgeId>(-1);

/// One node activation inside a cascade.
struct Activation {
  NodeId node;
  /// Edge along which the activation arrived (kSeedActivation for seeds).
  /// Under LT multiple in-neighbors may fire a node; this records one
  /// representative — the full activator set is available via `step`.
  EdgeId via_edge;
  uint32_t step;  // 0 for seeds
};

/// \brief Result of a single diffusion run. Seeds come first in `order`.
///
/// The structure is reused across runs by the simulators (epoch-stamped
/// membership tests), so a Cascade returned by Run() is only valid until the
/// next Run() on the same simulator.
struct Cascade {
  std::vector<Activation> order;

  /// Number of activated nodes excluding seeds (paper Def. 3, Γ(S) for one run).
  std::size_t SpreadCount(std::size_t num_seeds) const {
    return order.size() >= num_seeds ? order.size() - num_seeds : 0;
  }
};

/// \brief O(1)-reset membership set over node ids using epoch stamping.
///
/// Used by every simulator so that back-to-back Monte-Carlo runs avoid an
/// O(n) clear per run.
class EpochSet {
 public:
  explicit EpochSet(std::size_t n = 0) : stamp_(n, 0) {}

  void Reset(std::size_t n) {
    if (stamp_.size() != n) stamp_.assign(n, 0);
    ++epoch_;
    if (epoch_ == 0) {  // wrapped: do the rare full clear
      std::fill(stamp_.begin(), stamp_.end(), 0);
      epoch_ = 1;
    }
  }

  /// Clears membership, keeping capacity.
  void Clear() { Reset(stamp_.size()); }

  bool Contains(NodeId u) const { return stamp_[u] == epoch_; }
  void Insert(NodeId u) { stamp_[u] = epoch_; }

  /// Raw view for hot loops that hoist the membership test:
  /// `Contains(u)` is `stamps()[u] == epoch()`. Valid until the next Reset.
  const uint32_t* stamps() const { return stamp_.data(); }
  uint32_t epoch() const { return epoch_; }

  std::size_t size_bytes() const { return stamp_.capacity() * sizeof(uint32_t); }

 private:
  std::vector<uint32_t> stamp_;
  uint32_t epoch_ = 0;
};

}  // namespace holim

#endif  // HOLIM_DIFFUSION_CASCADE_H_
