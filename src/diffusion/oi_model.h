#ifndef HOLIM_DIFFUSION_OI_MODEL_H_
#define HOLIM_DIFFUSION_OI_MODEL_H_

#include <span>
#include <vector>

#include "diffusion/cascade.h"
#include "diffusion/independent_cascade.h"
#include "diffusion/linear_threshold.h"
#include "graph/graph.h"
#include "model/influence_params.h"
#include "model/opinion_params.h"
#include "util/rng.h"

namespace holim {

/// \brief Result of one OI run: the activation cascade plus final opinions.
///
/// `final_opinion[i]` is the final opinion o'_v of `cascade->order[i].node`.
struct OpinionCascade {
  const Cascade* cascade = nullptr;
  std::vector<double> final_opinion;  // parallel to cascade->order
  std::size_t num_seeds = 0;

  /// Opinion spread Γo(S) = sum of final opinions of activated non-seeds
  /// (paper Def. 6).
  double OpinionSpread() const;

  /// Effective opinion spread Γoλ(S) = Σ_{o'>0} o' − λ Σ_{o'<0} |o'|
  /// over activated non-seeds (paper Def. 7).
  double EffectiveOpinionSpread(double lambda) const;
};

/// Which first-layer model the OI second layer rides on (paper Sec. 2.2).
enum class OiBase { kIndependentCascade, kLinearThreshold };

/// \brief Opinion-cum-Interaction simulator (the paper's core model).
///
/// First layer: IC or LT activation dynamics. Second layer: when u activates
/// v along edge e, v adopts o'_v = (o_v + (-1)^α o'_u) / 2 with α = 0 w.p.
/// φ(e) and α = 1 otherwise. Under LT the contribution is averaged over all
/// in-neighbors active at the time of activation. Seeds keep o'_s = o_s.
class OiSimulator {
 public:
  OiSimulator(const Graph& graph, const InfluenceParams& influence,
              const OpinionParams& opinions, OiBase base);

  /// Runs one OI cascade. Result valid until the next Run().
  const OpinionCascade& Run(std::span<const NodeId> seeds, Rng& rng);

  /// Variant that never activates blocked nodes (ScoreGREEDY bookkeeping).
  const OpinionCascade& RunWithBlocked(std::span<const NodeId> seeds, Rng& rng,
                                       const EpochSet& blocked);

  OiBase base() const { return base_; }

  /// Retained scratch of both base simulators plus the per-node opinion,
  /// step and settled buffers, capacity-based (the returned cascade is
  /// not counted).
  std::size_t ScratchBytes() const {
    return ic_.ScratchBytes() + lt_.ScratchBytes() +
           node_opinion_.capacity() * sizeof(double) +
           node_step_.capacity() * sizeof(uint32_t) + settled_.size_bytes();
  }

 private:
  const OpinionCascade& ComputeOpinionsIc(const Cascade& cascade, Rng& rng);
  const OpinionCascade& ComputeOpinionsLt(const Cascade& cascade, Rng& rng);

  const Graph& graph_;
  const InfluenceParams& influence_;
  const OpinionParams& opinions_;
  OiBase base_;
  IcSimulator ic_;
  LtSimulator lt_;
  OpinionCascade result_;
  // Final opinion per node for the current run, epoch-guarded.
  std::vector<double> node_opinion_;
  std::vector<uint32_t> node_step_;
  EpochSet settled_;
};

}  // namespace holim

#endif  // HOLIM_DIFFUSION_OI_MODEL_H_
