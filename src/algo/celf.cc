#include "algo/celf.h"

#include <queue>
#include <span>
#include <vector>

#include "algo/hill_climb.h"

namespace holim {

namespace {

struct HeapEntry {
  NodeId node;
  double gain;           // marginal gain w.r.t. S at round `round`
  uint32_t round;        // seed-set size when `gain` was computed
  // CELF++ extras: gain w.r.t. S + prev_best, and which best it refers to.
  double gain_after_prev_best = 0.0;
  NodeId prev_best = kInvalidNode;

  bool operator<(const HeapEntry& other) const {
    return gain < other.gain;  // max-heap by gain
  }
};

/// The lazy benefit-per-cost loop behind the session Select (unit costs,
/// budget k) and SelectBudgeted: a heap keyed on gain / cost, so with unit
/// costs the ratio IS the gain bit for bit. Ties break toward the smaller
/// node id, as the eager loop's ascending strict-`>` scan does, so over
/// exactly submodular session gains lazy and eager pick the same seeds.
/// Stale ratios are upper bounds (gains only shrink as S grows; costs are
/// fixed), so an entry measured this round is the round's best; a popped
/// candidate over the residual budget can never fit later and is dropped.
/// With fewer than k seeds a budget of k leaves >= 1.0, so the drop rule
/// cannot fire on a top-k run.
void LazyRatioClimb(HillClimbGains& gains, std::span<const double> costs,
                    double budget, uint32_t max_seeds, Deadline* deadline,
                    SeedSelection* selection) {
  struct Entry {
    NodeId node;
    double ratio;    // gain / cost at round `round`
    double gain;     // the marginal gain behind it (reported as the score)
    uint32_t round;  // seed count when `gain` was measured

    bool operator<(const Entry& other) const {
      if (ratio != other.ratio) return ratio < other.ratio;
      return node > other.node;  // smaller id pops first on ties
    }
  };
  if (DeadlineExpired(deadline, selection)) return;
  std::priority_queue<Entry> heap;
  for (NodeId u = 0; u < costs.size(); ++u) {
    const double gain = gains.Gain(u);
    heap.push({u, gain / costs[u], gain, 0});
  }
  double remaining = budget;
  uint32_t checked_round = 0;  // the pre-pass check covers round 0
  while (selection->seeds.size() < max_seeds && !heap.empty()) {
    const uint32_t round = static_cast<uint32_t>(selection->seeds.size());
    if (round != checked_round) {
      checked_round = round;
      if (DeadlineExpired(deadline, selection)) break;
    }
    if (!gains.session() && StoppedMidRound(deadline, selection)) break;
    Entry top = heap.top();
    heap.pop();
    if (costs[top.node] > remaining) continue;  // drop: can never fit
    if (top.round == round) {
      gains.Commit(top.node, top.gain);
      remaining -= costs[top.node];
      selection->seeds.push_back(top.node);
      selection->seed_scores.push_back(top.gain);
      continue;
    }
    top.gain = gains.Gain(top.node);
    top.ratio = top.gain / costs[top.node];
    top.round = round;
    heap.push(top);
  }
}

}  // namespace

CelfSelector::CelfSelector(const Graph& graph,
                           std::shared_ptr<McObjective> objective,
                           bool plus_plus, std::string name)
    : graph_(graph),
      objective_(std::move(objective)),
      plus_plus_(plus_plus),
      name_(std::move(name)) {}

Result<SeedSelection> CelfSelector::Select(uint32_t k) {
  if (k == 0) return Status::InvalidArgument("k must be positive");
  if (k > graph_.num_nodes()) {
    return Status::InvalidArgument("k exceeds node count");
  }
  SeedSelection selection;
  SelectionMeter meter;
  evaluations_ = 0;

  HillClimbGains gains(*objective_);
  if (gains.session()) {
    // Incremental path (sketch-backed objectives): the lazy ratio loop
    // with unit costs and budget k. The CELF++ double-gain cache is
    // pointless here — a session re-evaluation costs no more than the
    // cache lookup's bookkeeping — so `plus_plus_` is ignored.
    const std::vector<double> unit(graph_.num_nodes(), 1.0);
    LazyRatioClimb(gains, unit, k, k, deadline_, &selection);
    evaluations_ = gains.evaluations();
    return meter.Finish(std::move(selection));
  }

  // Monte-Carlo CELF / CELF++: its heap orders by gain alone (ties in the
  // heap's own unspecified order) and CELF++ caches a second gain per
  // entry, both frozen byte-identical behavior, so it keeps its own loop.
  std::vector<NodeId> trial;
  auto evaluate = [&](const std::vector<NodeId>& seeds) {
    ++evaluations_;
    return objective_->Evaluate(seeds);
  };

  // Initial pass: marginal gain of every singleton.
  if (DeadlineExpired(deadline_, &selection)) {
    return meter.Finish(std::move(selection));
  }
  std::priority_queue<HeapEntry> heap;
  trial.assign(1, 0);
  for (NodeId u = 0; u < graph_.num_nodes(); ++u) {
    trial[0] = u;
    HeapEntry entry;
    entry.node = u;
    entry.gain = evaluate(trial);
    entry.round = 0;
    heap.push(entry);
  }

  double current_value = 0.0;
  uint32_t checked_round = 0;  // the pre-pass check covers round 0
  while (selection.seeds.size() < k && !heap.empty()) {
    const uint32_t round = static_cast<uint32_t>(selection.seeds.size());
    if (round != checked_round) {
      checked_round = round;
      if (DeadlineExpired(deadline_, &selection)) break;
    }
    if (StoppedMidRound(deadline_, &selection)) break;
    HeapEntry top = heap.top();
    heap.pop();
    if (top.round == round) {
      // Gain is fresh w.r.t. the current seed set: select it.
      selection.seeds.push_back(top.node);
      selection.seed_scores.push_back(top.gain);
      current_value += top.gain;
      continue;
    }
    if (plus_plus_ && top.prev_best != kInvalidNode &&
        !selection.seeds.empty() && selection.seeds.back() == top.prev_best &&
        top.round + 1 == round) {
      // CELF++: the cached gain w.r.t. S + prev_best is exactly the gain
      // w.r.t. the new S — no re-evaluation needed.
      top.gain = top.gain_after_prev_best;
      top.round = round;
      top.prev_best = kInvalidNode;
      heap.push(top);
      continue;
    }
    // Re-evaluate marginal gain w.r.t. the current seed set.
    trial = selection.seeds;
    trial.push_back(top.node);
    const double value = evaluate(trial);
    top.gain = value - current_value;
    top.round = round;
    if (plus_plus_ && !heap.empty()) {
      // Cache the gain w.r.t. S + current heap best (the likely next pick).
      const NodeId likely_best = heap.top().node;
      if (likely_best != top.node) {
        std::vector<NodeId> trial2 = selection.seeds;
        trial2.push_back(likely_best);
        const double base2 = evaluate(trial2);
        trial2.push_back(top.node);
        const double with_both = evaluate(trial2);
        top.gain_after_prev_best = with_both - base2;
        top.prev_best = likely_best;
      }
    }
    heap.push(top);
  }
  return meter.Finish(std::move(selection));
}

Result<SeedSelection> CelfSelector::SelectBudgeted(
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
  // Session probes or, for a Monte-Carlo objective, whole-set Evaluate
  // calls. No CELF++ double-gain cache: the budgeted pop order depends on
  // costs, so the "likely next best" prediction it rests on doesn't carry
  // over.
  HillClimbGains gains(*objective_);
  LazyRatioClimb(gains, costs, budget, max_seeds, deadline_, &selection);
  evaluations_ = gains.evaluations();
  return meter.Finish(std::move(selection));
}

}  // namespace holim
