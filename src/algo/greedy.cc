#include "algo/greedy.h"

#include <limits>
#include <span>
#include <vector>

#include "algo/hill_climb.h"

namespace holim {

SpreadObjective::SpreadObjective(const Graph& graph,
                                 const InfluenceParams& params,
                                 const McOptions& options)
    : graph_(graph), params_(params), options_(options) {}

double SpreadObjective::Evaluate(const std::vector<NodeId>& seeds) {
  return EstimateSpread(graph_, params_, seeds, options_);
}

EffectiveOpinionObjective::EffectiveOpinionObjective(
    const Graph& graph, const InfluenceParams& influence,
    const OpinionParams& opinions, OiBase base, double lambda,
    const McOptions& options)
    : graph_(graph),
      influence_(influence),
      opinions_(opinions),
      base_(base),
      lambda_(lambda),
      options_(options) {}

double EffectiveOpinionObjective::Evaluate(const std::vector<NodeId>& seeds) {
  return EstimateOpinionSpread(graph_, influence_, opinions_, base_, seeds,
                               lambda_, options_)
      .effective_opinion_spread;
}

SketchSpreadObjective::SketchSpreadObjective(
    std::shared_ptr<const SketchOracle> oracle, bool use_session,
    std::vector<double> node_weights)
    : oracle_(std::move(oracle)),
      weights_(std::move(node_weights)),
      session_(*oracle_, weights_),
      use_session_(use_session) {}

double SketchSpreadObjective::Evaluate(const std::vector<NodeId>& seeds) {
  if (!weights_.empty()) {
    return oracle_->EstimateWeighted(seeds, weights_);
  }
  return oracle_->Estimate(seeds);
}

bool SketchSpreadObjective::StartSession() {
  if (!use_session_) return false;
  session_.Reset();
  return true;
}

double SketchSpreadObjective::SessionMarginalGain(NodeId u) {
  return session_.MarginalGain(u);
}

double SketchSpreadObjective::SessionCommit(NodeId u) {
  return session_.Commit(u);
}

namespace {

/// The eager benefit-per-cost loop behind the session Select (unit costs,
/// budget k) and SelectBudgeted: each round probes every affordable
/// unchosen candidate in ascending id and commits the first strict best
/// gain / cost. With unit costs the ratio IS the gain bit for bit and a
/// budget of k never filters a candidate, so top-k is this loop's
/// uniform-cost case.
void EagerRatioClimb(HillClimbGains& gains, std::span<const double> costs,
                     double budget, uint32_t max_seeds, Deadline* deadline,
                     SeedSelection* selection) {
  std::vector<char> chosen(costs.size(), 0);
  double remaining = budget;
  while (selection->seeds.size() < max_seeds) {
    if (DeadlineExpired(deadline, selection)) break;
    NodeId best = kInvalidNode;
    double best_ratio = -std::numeric_limits<double>::infinity();
    double best_gain = 0.0;
    double best_value = 0.0;
    for (NodeId u = 0; u < costs.size(); ++u) {
      if (chosen[u] || costs[u] > remaining) continue;
      const double gain = gains.Gain(u);
      const double ratio = gain / costs[u];
      if (ratio > best_ratio) {
        best_ratio = ratio;
        best_gain = gain;
        best_value = gains.value();
        best = u;
      }
    }
    if (!gains.session() && StoppedMidRound(deadline, selection)) break;
    if (best == kInvalidNode) break;  // nothing fits the residual budget
    gains.CommitMeasured(best, best_value);
    chosen[best] = 1;
    remaining -= costs[best];
    selection->seeds.push_back(best);
    selection->seed_scores.push_back(best_gain);
  }
}

}  // namespace

GreedySelector::GreedySelector(const Graph& graph,
                               std::shared_ptr<McObjective> objective,
                               std::string name)
    : graph_(graph), objective_(std::move(objective)), name_(std::move(name)) {}

Result<SeedSelection> GreedySelector::Select(uint32_t k) {
  if (k == 0) return Status::InvalidArgument("k must be positive");
  if (k > graph_.num_nodes()) {
    return Status::InvalidArgument("k exceeds node count");
  }
  SeedSelection selection;
  SelectionMeter meter;
  HillClimbGains gains(*objective_);
  if (gains.session()) {
    // Incremental path (sketch-backed objectives): the eager ratio loop
    // with unit costs and budget k, each gain an incremental session probe
    // and the winner's frontier committed once.
    const std::vector<double> unit(graph_.num_nodes(), 1.0);
    EagerRatioClimb(gains, unit, k, k, deadline_, &selection);
    return meter.Finish(std::move(selection));
  }
  // Monte-Carlo GREEDY: the argmax of the whole-set value f(S + u), scored
  // f(S + u) - f(S). That arithmetic is frozen byte-identical behavior and
  // differs from the eager loop's gain comparison, so it keeps its loop.
  std::vector<char> chosen(graph_.num_nodes(), 0);
  double current_value = 0.0;
  std::vector<NodeId> trial;
  for (uint32_t i = 0; i < k; ++i) {
    if (DeadlineExpired(deadline_, &selection)) break;
    NodeId best = kInvalidNode;
    double best_value = -std::numeric_limits<double>::infinity();
    trial = selection.seeds;
    trial.push_back(0);  // placeholder slot for the candidate
    for (NodeId u = 0; u < graph_.num_nodes(); ++u) {
      if (chosen[u]) continue;
      trial.back() = u;
      const double value = objective_->Evaluate(trial);
      if (value > best_value) {
        best_value = value;
        best = u;
      }
    }
    if (StoppedMidRound(deadline_, &selection)) break;
    if (best == kInvalidNode) break;
    chosen[best] = 1;
    selection.seeds.push_back(best);
    selection.seed_scores.push_back(best_value - current_value);
    current_value = best_value;
  }
  return meter.Finish(std::move(selection));
}

Result<SeedSelection> GreedySelector::SelectBudgeted(
    uint32_t max_seeds, std::span<const double> costs, double budget) {
  if (max_seeds == 0) return Status::InvalidArgument("max_seeds must be positive");
  if (costs.size() != graph_.num_nodes()) {
    return Status::InvalidArgument("cost/node count mismatch");
  }
  if (!(budget > 0.0)) {
    return Status::InvalidArgument("budget must be positive");
  }
  SeedSelection selection;
  SelectionMeter meter;
  HillClimbGains gains(*objective_);
  EagerRatioClimb(gains, costs, budget, max_seeds, deadline_, &selection);
  return meter.Finish(std::move(selection));
}

}  // namespace holim
