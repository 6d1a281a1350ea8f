#ifndef HOLIM_ALGO_CELF_H_
#define HOLIM_ALGO_CELF_H_

#include <cstdint>
#include <memory>
#include <string>

#include "algo/greedy.h"
#include "algo/seed_selector.h"
#include "graph/graph.h"

namespace holim {

/// \brief CELF / CELF++ (Goyal et al., WWW'11): lazy-forward greedy.
///
/// Exploits submodularity: a node's marginal gain can only shrink as the
/// seed set grows, so stale gains in a max-heap are upper bounds and most
/// re-evaluations are skipped. The CELF++ refinement additionally caches,
/// for each heap entry, the marginal gain w.r.t. (S + previous best) so
/// that when the previous best is in fact selected the entry needs no
/// re-evaluation at all (paper Appendix C).
///
/// With a non-submodular objective (the MEO objective) the lazy bound is a
/// heuristic rather than exact — matching how the paper deploys greedy
/// baselines in the opinion-aware setting.
///
/// One lazy benefit-per-cost loop (celf.cc) runs SelectBudgeted over a
/// session or Monte-Carlo (HillClimbGains) and, with unit costs and
/// budget k, Select over an incremental session (McObjective's session
/// API; SketchSpreadObjective): gains on the frozen snapshot sample are
/// exactly submodular, ties break toward the smaller node id, and the
/// CELF++ double-gain cache is skipped (a session re-evaluation is
/// already near-O(touched)). Select over Monte-Carlo keeps its own loop,
/// byte-identical to its pre-session behavior: a gain-only heap order
/// and the CELF++ cache (docs/ARCHITECTURE.md, "Hill-climbing
/// selectors").
class CelfSelector : public SeedSelector {
 public:
  /// `plus_plus` toggles the CELF++ double-gain optimization.
  CelfSelector(const Graph& graph, std::shared_ptr<McObjective> objective,
               bool plus_plus = true, std::string name = "CELF++");

  std::string name() const override { return name_; }
  Result<SeedSelection> Select(uint32_t k) override;

  /// Budgeted lazy greedy (QueryKind::kBudgeted): the lazy loop keyed on
  /// the benefit-per-cost ratio gain(u)/cost(u), with the classic
  /// drop-when-over-budget heap discipline — a popped candidate whose cost
  /// exceeds the residual budget is discarded permanently (its gain only
  /// shrinks while its cost is fixed, so it can never fit later). Ties
  /// break toward the smaller node id, and with uniform unit costs and
  /// budget == k the ratio IS the gain, the drop rule never fires before
  /// the budget is spent, and the selection is bitwise-identical to
  /// Select(k) on the session path. The CELF++ double-gain cache is
  /// skipped in both paths (stale ratios re-evaluate like plain CELF).
  Result<SeedSelection> SelectBudgeted(uint32_t max_seeds,
                                       std::span<const double> costs,
                                       double budget) override;

  /// Number of objective evaluations performed by the last Select call
  /// (exposed so tests can verify laziness actually skips work).
  uint64_t last_evaluation_count() const { return evaluations_; }

 private:
  const Graph& graph_;
  std::shared_ptr<McObjective> objective_;
  bool plus_plus_;
  std::string name_;
  uint64_t evaluations_ = 0;
};

}  // namespace holim

#endif  // HOLIM_ALGO_CELF_H_
