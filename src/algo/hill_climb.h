#ifndef HOLIM_ALGO_HILL_CLIMB_H_
#define HOLIM_ALGO_HILL_CLIMB_H_

#include <cstdint>
#include <vector>

#include "algo/greedy.h"
#include "algo/seed_selector.h"

namespace holim {

/// \brief The marginal gains GreedySelector and CelfSelector climb on:
/// the objective's incremental session when it opens one, else
/// Monte-Carlo Evaluate(S + u) - f(S), with f(S) carried rather than
/// re-evaluated (0 for the empty set).
class HillClimbGains {
 public:
  /// Opens (resets) the objective's session if it has one.
  explicit HillClimbGains(McObjective& objective)
      : objective_(objective), session_(objective.StartSession()) {}

  /// True on the session path, false on the Monte-Carlo one.
  bool session() const { return session_; }

  double Gain(NodeId u) {
    ++evaluations_;
    if (session_) return objective_.SessionMarginalGain(u);
    trial_.back() = u;
    value_ = objective_.Evaluate(trial_);
    return value_ - current_;
  }
  /// f(S + u) of the last Monte-Carlo Gain(u).
  double value() const { return value_; }
  /// Adds u to S; f(S) advances by u's gain (the lazy loop's rule).
  void Commit(NodeId u, double gain) {
    Append(u);
    current_ += gain;
  }
  /// Adds u to S; f(S) becomes u's measured f(S + u) (the eager loop's).
  void CommitMeasured(NodeId u, double value) {
    Append(u);
    current_ = value;
  }
  uint64_t evaluations() const { return evaluations_; }

 private:
  void Append(NodeId u) {
    if (session_) {
      objective_.SessionCommit(u);
      return;
    }
    trial_.back() = u;
    trial_.push_back(0);
  }

  McObjective& objective_;
  bool session_;
  std::vector<NodeId> trial_ = {0};  // S in commit order, then a free slot
  double current_ = 0.0;
  double value_ = 0.0;
  uint64_t evaluations_ = 0;
};

/// The Monte-Carlo mid-round discard: true, with `selection` marked
/// degraded, once the deadline has expired (wall clock or cancellation).
/// Gains evaluated after expiry rest on partial MC block sums, so the
/// round must not commit. Never true in work-budget mode, where expiry
/// only lands at a round's Check.
inline bool StoppedMidRound(Deadline* deadline, SeedSelection* selection) {
  if (deadline == nullptr || !deadline->StopRequested()) return false;
  selection->degraded = true;
  selection->stop_status = deadline->Check();
  return true;
}

}  // namespace holim

#endif  // HOLIM_ALGO_HILL_CLIMB_H_
