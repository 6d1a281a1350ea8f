// Hill-climbing parity: GreedySelector and CelfSelector (plain and CELF++)
// against a test-side copy of the eight selection loops they ran before
// the lazy and eager ratio loops replaced six of them — Select and
// SelectBudgeted of each selector, each once over a sketch session and
// once over Monte-Carlo Evaluate calls. Every path must agree bit for bit
// on seeds, seed_scores, degraded and stop_status, and CELF also on
// last_evaluation_count, over
//  * objectives: MC spread, MC effective opinion (not submodular), the
//    sketch session, the one-shot sketch (use_session = false), the
//    weighted (targeted) sketch objective both ways, and a set function
//    whose carried f(S) rounds differently under the two commit rules;
//  * queries: top-k, budgeted with unit costs at budget k, budgeted with
//    non-uniform costs whose drop rule fires;
//  * deadlines: none, a work-budget sweep, and a ManualClock wall deadline
//    that expires right after the j-th objective call (mid-round).

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <queue>
#include <span>
#include <string>
#include <vector>

#include "algo/celf.h"
#include "algo/greedy.h"
#include "diffusion/sketch_oracle.h"
#include "graph/generators.h"
#include "model/influence_params.h"
#include "model/opinion_params.h"
#include "util/deadline.h"

namespace holim {
namespace {

// ------------------------------------------------ the reference loops

/// One reference run's result; `evaluations` counts objective calls the
/// way CelfSelector::last_evaluation_count does (GREEDY keeps none).
struct Outcome {
  SeedSelection selection;
  uint64_t evaluations = 0;
};

struct RefHeapEntry {
  NodeId node;
  double gain;
  uint32_t round;
  double gain_after_prev_best = 0.0;
  NodeId prev_best = kInvalidNode;

  bool operator<(const RefHeapEntry& other) const {
    return gain < other.gain;
  }
};

struct RefSessionHeapEntry {
  NodeId node;
  double gain;
  uint32_t round;

  bool operator<(const RefSessionHeapEntry& other) const {
    if (gain != other.gain) return gain < other.gain;
    return node > other.node;
  }
};

struct RefBudgetHeapEntry {
  NodeId node;
  double ratio;
  double gain;
  uint32_t round;

  bool operator<(const RefBudgetHeapEntry& other) const {
    if (ratio != other.ratio) return ratio < other.ratio;
    return node > other.node;
  }
};

Outcome RefCelfSelect(NodeId n, McObjective& objective, bool plus_plus,
                      Deadline* deadline, uint32_t k) {
  Outcome out;
  SeedSelection& selection = out.selection;
  uint64_t& evaluations = out.evaluations;
  if (objective.StartSession()) {
    if (deadline && !deadline->Check().ok()) {
      selection.degraded = true;
      selection.stop_status = deadline->status();
      return out;
    }
    std::priority_queue<RefSessionHeapEntry> heap;
    for (NodeId u = 0; u < n; ++u) {
      ++evaluations;
      heap.push({u, objective.SessionMarginalGain(u), 0});
    }
    uint32_t checked_round = 0;
    while (selection.seeds.size() < k && !heap.empty()) {
      const uint32_t round = static_cast<uint32_t>(selection.seeds.size());
      if (deadline && round != checked_round) {
        checked_round = round;
        if (!deadline->Check().ok()) {
          selection.degraded = true;
          selection.stop_status = deadline->status();
          break;
        }
      }
      RefSessionHeapEntry top = heap.top();
      heap.pop();
      if (top.round == round) {
        objective.SessionCommit(top.node);
        selection.seeds.push_back(top.node);
        selection.seed_scores.push_back(top.gain);
        continue;
      }
      ++evaluations;
      top.gain = objective.SessionMarginalGain(top.node);
      top.round = round;
      heap.push(top);
    }
    return out;
  }

  std::vector<NodeId> trial;
  auto evaluate = [&](const std::vector<NodeId>& seeds) {
    ++evaluations;
    return objective.Evaluate(seeds);
  };
  if (deadline && !deadline->Check().ok()) {
    selection.degraded = true;
    selection.stop_status = deadline->status();
    return out;
  }
  std::priority_queue<RefHeapEntry> heap;
  trial.assign(1, 0);
  for (NodeId u = 0; u < n; ++u) {
    trial[0] = u;
    RefHeapEntry entry;
    entry.node = u;
    entry.gain = evaluate(trial);
    entry.round = 0;
    heap.push(entry);
  }
  double current_value = 0.0;
  uint32_t checked_round = 0;
  while (selection.seeds.size() < k && !heap.empty()) {
    const uint32_t round = static_cast<uint32_t>(selection.seeds.size());
    if (deadline && round != checked_round) {
      checked_round = round;
      if (!deadline->Check().ok()) {
        selection.degraded = true;
        selection.stop_status = deadline->status();
        break;
      }
    }
    if (deadline && deadline->StopRequested()) {
      selection.degraded = true;
      selection.stop_status = deadline->Check();
      break;
    }
    RefHeapEntry top = heap.top();
    heap.pop();
    if (top.round == round) {
      selection.seeds.push_back(top.node);
      selection.seed_scores.push_back(top.gain);
      current_value += top.gain;
      continue;
    }
    if (plus_plus && top.prev_best != kInvalidNode &&
        !selection.seeds.empty() && selection.seeds.back() == top.prev_best &&
        top.round + 1 == round) {
      top.gain = top.gain_after_prev_best;
      top.round = round;
      top.prev_best = kInvalidNode;
      heap.push(top);
      continue;
    }
    trial = selection.seeds;
    trial.push_back(top.node);
    const double value = evaluate(trial);
    top.gain = value - current_value;
    top.round = round;
    if (plus_plus && !heap.empty()) {
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
  return out;
}

Outcome RefCelfSelectBudgeted(NodeId n, McObjective& objective,
                              Deadline* deadline, uint32_t max_seeds,
                              std::span<const double> costs, double budget) {
  Outcome out;
  SeedSelection& selection = out.selection;
  uint64_t& evaluations = out.evaluations;
  double remaining = budget;
  if (objective.StartSession()) {
    if (deadline && !deadline->Check().ok()) {
      selection.degraded = true;
      selection.stop_status = deadline->status();
      return out;
    }
    std::priority_queue<RefBudgetHeapEntry> heap;
    for (NodeId u = 0; u < n; ++u) {
      ++evaluations;
      const double gain = objective.SessionMarginalGain(u);
      heap.push({u, gain / costs[u], gain, 0});
    }
    uint32_t checked_round = 0;
    while (selection.seeds.size() < max_seeds && !heap.empty()) {
      const uint32_t round = static_cast<uint32_t>(selection.seeds.size());
      if (deadline && round != checked_round) {
        checked_round = round;
        if (!deadline->Check().ok()) {
          selection.degraded = true;
          selection.stop_status = deadline->status();
          break;
        }
      }
      RefBudgetHeapEntry top = heap.top();
      heap.pop();
      if (costs[top.node] > remaining) continue;
      if (top.round == round) {
        objective.SessionCommit(top.node);
        remaining -= costs[top.node];
        selection.seeds.push_back(top.node);
        selection.seed_scores.push_back(top.gain);
        continue;
      }
      ++evaluations;
      top.gain = objective.SessionMarginalGain(top.node);
      top.ratio = top.gain / costs[top.node];
      top.round = round;
      heap.push(top);
    }
    return out;
  }

  std::vector<NodeId> trial;
  auto evaluate = [&](const std::vector<NodeId>& seeds) {
    ++evaluations;
    return objective.Evaluate(seeds);
  };
  if (deadline && !deadline->Check().ok()) {
    selection.degraded = true;
    selection.stop_status = deadline->status();
    return out;
  }
  std::priority_queue<RefBudgetHeapEntry> heap;
  trial.assign(1, 0);
  for (NodeId u = 0; u < n; ++u) {
    trial[0] = u;
    const double gain = evaluate(trial);
    heap.push({u, gain / costs[u], gain, 0});
  }
  double current_value = 0.0;
  uint32_t checked_round = 0;
  while (selection.seeds.size() < max_seeds && !heap.empty()) {
    const uint32_t round = static_cast<uint32_t>(selection.seeds.size());
    if (deadline && round != checked_round) {
      checked_round = round;
      if (!deadline->Check().ok()) {
        selection.degraded = true;
        selection.stop_status = deadline->status();
        break;
      }
    }
    if (deadline && deadline->StopRequested()) {
      selection.degraded = true;
      selection.stop_status = deadline->Check();
      break;
    }
    RefBudgetHeapEntry top = heap.top();
    heap.pop();
    if (costs[top.node] > remaining) continue;
    if (top.round == round) {
      remaining -= costs[top.node];
      selection.seeds.push_back(top.node);
      selection.seed_scores.push_back(top.gain);
      current_value += top.gain;
      continue;
    }
    trial = selection.seeds;
    trial.push_back(top.node);
    top.gain = evaluate(trial) - current_value;
    top.ratio = top.gain / costs[top.node];
    top.round = round;
    heap.push(top);
  }
  return out;
}

Outcome RefGreedySelect(NodeId n, McObjective& objective, Deadline* deadline,
                        uint32_t k) {
  Outcome out;
  SeedSelection& selection = out.selection;
  std::vector<char> chosen(n, 0);
  if (objective.StartSession()) {
    for (uint32_t i = 0; i < k; ++i) {
      if (deadline && !deadline->Check().ok()) {
        selection.degraded = true;
        selection.stop_status = deadline->status();
        break;
      }
      NodeId best = kInvalidNode;
      double best_gain = -std::numeric_limits<double>::infinity();
      for (NodeId u = 0; u < n; ++u) {
        if (chosen[u]) continue;
        const double gain = objective.SessionMarginalGain(u);
        if (gain > best_gain) {
          best_gain = gain;
          best = u;
        }
      }
      if (best == kInvalidNode) break;
      objective.SessionCommit(best);
      chosen[best] = 1;
      selection.seeds.push_back(best);
      selection.seed_scores.push_back(best_gain);
    }
    return out;
  }
  double current_value = 0.0;
  std::vector<NodeId> trial;
  for (uint32_t i = 0; i < k; ++i) {
    if (deadline && !deadline->Check().ok()) {
      selection.degraded = true;
      selection.stop_status = deadline->status();
      break;
    }
    NodeId best = kInvalidNode;
    double best_value = -std::numeric_limits<double>::infinity();
    trial = selection.seeds;
    trial.push_back(0);
    for (NodeId u = 0; u < n; ++u) {
      if (chosen[u]) continue;
      trial.back() = u;
      const double value = objective.Evaluate(trial);
      if (value > best_value) {
        best_value = value;
        best = u;
      }
    }
    if (deadline && deadline->StopRequested()) {
      selection.degraded = true;
      selection.stop_status = deadline->Check();
      break;
    }
    if (best == kInvalidNode) break;
    chosen[best] = 1;
    selection.seeds.push_back(best);
    selection.seed_scores.push_back(best_value - current_value);
    current_value = best_value;
  }
  return out;
}

Outcome RefGreedySelectBudgeted(NodeId n, McObjective& objective,
                                Deadline* deadline, uint32_t max_seeds,
                                std::span<const double> costs,
                                double budget) {
  Outcome out;
  SeedSelection& selection = out.selection;
  std::vector<char> chosen(n, 0);
  double remaining = budget;
  if (objective.StartSession()) {
    while (selection.seeds.size() < max_seeds) {
      if (deadline && !deadline->Check().ok()) {
        selection.degraded = true;
        selection.stop_status = deadline->status();
        break;
      }
      NodeId best = kInvalidNode;
      double best_ratio = -std::numeric_limits<double>::infinity();
      double best_gain = 0.0;
      for (NodeId u = 0; u < n; ++u) {
        if (chosen[u] || costs[u] > remaining) continue;
        const double gain = objective.SessionMarginalGain(u);
        const double ratio = gain / costs[u];
        if (ratio > best_ratio) {
          best_ratio = ratio;
          best_gain = gain;
          best = u;
        }
      }
      if (best == kInvalidNode) break;
      objective.SessionCommit(best);
      chosen[best] = 1;
      remaining -= costs[best];
      selection.seeds.push_back(best);
      selection.seed_scores.push_back(best_gain);
    }
    return out;
  }
  double current_value = 0.0;
  std::vector<NodeId> trial;
  while (selection.seeds.size() < max_seeds) {
    if (deadline && !deadline->Check().ok()) {
      selection.degraded = true;
      selection.stop_status = deadline->status();
      break;
    }
    NodeId best = kInvalidNode;
    double best_ratio = -std::numeric_limits<double>::infinity();
    double best_value = 0.0;
    trial = selection.seeds;
    trial.push_back(0);
    for (NodeId u = 0; u < n; ++u) {
      if (chosen[u] || costs[u] > remaining) continue;
      trial.back() = u;
      const double value = objective.Evaluate(trial);
      const double ratio = (value - current_value) / costs[u];
      if (ratio > best_ratio) {
        best_ratio = ratio;
        best_value = value;
        best = u;
      }
    }
    if (deadline && deadline->StopRequested()) {
      selection.degraded = true;
      selection.stop_status = deadline->Check();
      break;
    }
    if (best == kInvalidNode) break;
    chosen[best] = 1;
    remaining -= costs[best];
    selection.seeds.push_back(best);
    selection.seed_scores.push_back(best_value - current_value);
    current_value = best_value;
  }
  return out;
}

// ------------------------------------------------------------ harness

/// Forwards to `inner` and jumps `clock` past any wall deadline right
/// after the `fire_at`-th gain-bearing call (Evaluate or
/// SessionMarginalGain; 0 never fires), so expiry lands mid-round.
class ClockedObjective : public McObjective {
 public:
  ClockedObjective(std::shared_ptr<McObjective> inner, ManualClock* clock,
                   uint64_t fire_at)
      : inner_(std::move(inner)), clock_(clock), fire_at_(fire_at) {}
  std::string name() const override { return inner_->name(); }
  double Evaluate(const std::vector<NodeId>& seeds) override {
    const double value = inner_->Evaluate(seeds);
    Tick();
    return value;
  }
  bool StartSession() override { return inner_->StartSession(); }
  double SessionMarginalGain(NodeId u) override {
    const double gain = inner_->SessionMarginalGain(u);
    Tick();
    return gain;
  }
  double SessionCommit(NodeId u) override { return inner_->SessionCommit(u); }

 private:
  void Tick() {
    if (++calls_ == fire_at_) clock_->Advance(int64_t{1} << 40);
  }

  std::shared_ptr<McObjective> inner_;
  ManualClock* clock_;
  uint64_t fire_at_;
  uint64_t calls_ = 0;
};

enum class Climber { kGreedy, kCelf, kCelfPlusPlus };
enum class Query { kTopK, kUnitBudget, kCostBudget };

const char* ClimberName(Climber c) {
  switch (c) {
    case Climber::kGreedy: return "greedy";
    case Climber::kCelf: return "celf";
    case Climber::kCelfPlusPlus: return "celf++";
  }
  return "?";
}

const char* QueryName(Query q) {
  switch (q) {
    case Query::kTopK: return "topk";
    case Query::kUnitBudget: return "budget-unit";
    case Query::kCostBudget: return "budget-cost";
  }
  return "?";
}

/// An objective family: builds a fresh objective per run; `mc_deadline`
/// is what a Monte-Carlo estimator polls (as the engine binds it).
using ObjectiveFactory =
    std::function<std::shared_ptr<McObjective>(const Deadline* mc_deadline)>;

struct Problem {
  const Graph* graph;
  uint32_t k;
  std::vector<double> unit_costs;
  std::vector<double> costs;  // non-uniform
  double budget;              // for `costs`
};

Outcome RunProduction(const Problem& p, Climber climber, Query query,
                      std::shared_ptr<McObjective> objective,
                      Deadline* deadline) {
  std::unique_ptr<SeedSelector> selector;
  CelfSelector* celf = nullptr;
  if (climber == Climber::kGreedy) {
    selector = std::make_unique<GreedySelector>(*p.graph, objective);
  } else {
    auto owned = std::make_unique<CelfSelector>(
        *p.graph, objective, climber == Climber::kCelfPlusPlus);
    celf = owned.get();
    selector = std::move(owned);
  }
  selector->set_deadline(deadline);
  Result<SeedSelection> result =
      query == Query::kTopK ? selector->Select(p.k)
      : query == Query::kUnitBudget
          ? selector->SelectBudgeted(p.k, p.unit_costs, p.k)
          : selector->SelectBudgeted(p.graph->num_nodes(), p.costs,
                                     p.budget);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  Outcome out;
  if (result.ok()) out.selection = std::move(*result);
  if (celf != nullptr) out.evaluations = celf->last_evaluation_count();
  return out;
}

Outcome RunReference(const Problem& p, Climber climber, Query query,
                     McObjective& objective, Deadline* deadline) {
  const NodeId n = p.graph->num_nodes();
  Outcome out;
  if (climber == Climber::kGreedy) {
    out = query == Query::kTopK
              ? RefGreedySelect(n, objective, deadline, p.k)
          : query == Query::kUnitBudget
              ? RefGreedySelectBudgeted(n, objective, deadline, p.k,
                                        p.unit_costs, p.k)
              : RefGreedySelectBudgeted(n, objective, deadline, n, p.costs,
                                        p.budget);
    out.evaluations = 0;  // GreedySelector keeps no count
    return out;
  }
  return query == Query::kTopK
             ? RefCelfSelect(n, objective, climber == Climber::kCelfPlusPlus,
                             deadline, p.k)
         : query == Query::kUnitBudget
             ? RefCelfSelectBudgeted(n, objective, deadline, p.k,
                                     p.unit_costs, p.k)
             : RefCelfSelectBudgeted(n, objective, deadline, n, p.costs,
                                     p.budget);
}

std::vector<uint64_t> Bits(const std::vector<double>& values) {
  std::vector<uint64_t> bits;
  for (double v : values) bits.push_back(std::bit_cast<uint64_t>(v));
  return bits;
}

void ExpectSame(const Outcome& want, const Outcome& got,
                const std::string& where) {
  EXPECT_EQ(got.selection.seeds, want.selection.seeds) << where;
  EXPECT_EQ(Bits(got.selection.seed_scores), Bits(want.selection.seed_scores))
      << where;
  EXPECT_EQ(got.evaluations, want.evaluations) << where;
  EXPECT_EQ(got.selection.degraded, want.selection.degraded) << where;
  EXPECT_EQ(got.selection.stop_status.ToString(),
            want.selection.stop_status.ToString())
      << where;
}

/// One (climber, query) cell under no deadline, every work budget up to
/// past completion, and a wall deadline firing after each of `fire_at`.
/// Returns how many runs ended degraded (so callers can assert the sweep
/// reached expiry at all).
int CheckCell(const Problem& p, Climber climber, Query query,
              const ObjectiveFactory& make, const std::string& label,
              const std::vector<uint64_t>& fire_at) {
  const std::string cell =
      label + "/" + ClimberName(climber) + "/" + QueryName(query);
  int degraded = 0;
  {
    std::shared_ptr<McObjective> ref = make(nullptr);
    const Outcome want = RunReference(p, climber, query, *ref, nullptr);
    ExpectSame(want, RunProduction(p, climber, query, make(nullptr), nullptr),
               cell + " no deadline");
  }
  // Top-k and unit budgets take at most k + 1 checks; the cost budget at
  // most one per affordable seed plus the pre-pass.
  const uint64_t max_ticks =
      (query == Query::kCostBudget ? p.graph->num_nodes() : p.k) + 2;
  for (uint64_t ticks = 1; ticks <= max_ticks; ++ticks) {
    Deadline ref_deadline = Deadline::WorkBudget(ticks);
    std::shared_ptr<McObjective> ref = make(&ref_deadline);
    const Outcome want = RunReference(p, climber, query, *ref, &ref_deadline);
    Deadline deadline = Deadline::WorkBudget(ticks);
    const Outcome got =
        RunProduction(p, climber, query, make(&deadline), &deadline);
    ExpectSame(want, got, cell + " ticks=" + std::to_string(ticks));
    degraded += want.selection.degraded;
    if (!want.selection.degraded) break;  // later budgets run to completion
  }
  for (uint64_t fire : fire_at) {
    ManualClock ref_clock;
    Deadline ref_deadline = Deadline::AfterMillis(1.0, &ref_clock);
    ClockedObjective ref(make(&ref_deadline), &ref_clock, fire);
    const Outcome want = RunReference(p, climber, query, ref, &ref_deadline);
    ManualClock clock;
    Deadline deadline = Deadline::AfterMillis(1.0, &clock);
    const Outcome got = RunProduction(
        p, climber, query,
        std::make_shared<ClockedObjective>(make(&deadline), &clock, fire),
        &deadline);
    ExpectSame(want, got, cell + " wall fire_at=" + std::to_string(fire));
    degraded += want.selection.degraded;
  }
  return degraded;
}

Problem MakeProblem(const Graph& graph, uint32_t k) {
  Problem p{&graph, k, std::vector<double>(graph.num_nodes(), 1.0), {}, 0.0};
  // Costs 0.5 .. 3.5 in steps of 0.5 with a budget a few seeds deep, so
  // the lazy loop's drop rule fires and the eager loop filters.
  for (NodeId u = 0; u < graph.num_nodes(); ++u) {
    p.costs.push_back(0.5 + 0.5 * ((u * 37u) % 7u));
  }
  p.budget = 6.25;
  return p;
}

void CheckAllCells(const Problem& p, const ObjectiveFactory& make,
                   const std::string& label) {
  const NodeId n = p.graph->num_nodes();
  // Mid-pre-pass, the pre-pass's last call, early and late in later rounds.
  const std::vector<uint64_t> fire_at = {1, n / 2, n, n + 1, n + 3,
                                         2 * n + 5, 4 * n};
  int degraded = 0;
  for (Climber climber :
       {Climber::kGreedy, Climber::kCelf, Climber::kCelfPlusPlus}) {
    for (Query query : {Query::kTopK, Query::kUnitBudget, Query::kCostBudget}) {
      degraded += CheckCell(p, climber, query, make, label, fire_at);
    }
  }
  EXPECT_GT(degraded, 0) << label;
}

/// f(S) by |S| alone, chosen so that f(S) + (f(S + u) - f(S)) rounds
/// away from f(S + u): after a first pick worth 1.0 every pair is worth
/// -2^-60, and -2^-60 - 1.0 rounds to -1.0. Carrying f(S) as the measured
/// value (-2^-60) and as the running sum of gains (0) then tell apart every
/// third-round gain, so the eager loop's current = value and the lazy
/// loop's current += gain are each pinned.
class CancellingObjective : public McObjective {
 public:
  std::string name() const override { return "cancelling"; }
  double Evaluate(const std::vector<NodeId>& seeds) override {
    switch (seeds.size()) {
      case 1: return 1.0;
      case 2: return -0x1p-60;
      case 3: return 0x1p-60;
      default: return 0.5 * static_cast<double>(seeds.size());
    }
  }
};

// ------------------------------------------------------------- inputs

class HillClimbParityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // A preferential-attachment graph (hubs) and a sparse random one
    // (many isolated nodes: long runs of equal gains for the tie-break).
    ba_ = GenerateBarabasiAlbert(40, 2, 5).ValueOrDie();
    er_ = GenerateErdosRenyi(36, 0.8, 11).ValueOrDie();
    ba_params_ = MakeUniformIc(ba_, 0.15);
    er_params_ = MakeUniformIc(er_, 0.4);
  }

  static std::shared_ptr<const SketchOracle> Sketch(
      const Graph& graph, const InfluenceParams& params) {
    SketchOptions options;
    options.num_snapshots = 24;
    options.seed = 3;
    return std::make_shared<const SketchOracle>(graph, params, options);
  }

  Graph ba_, er_;
  InfluenceParams ba_params_, er_params_;
};

TEST_F(HillClimbParityTest, SketchSessionMatchesReference) {
  for (auto [graph, params] : {std::pair{&ba_, &ba_params_},
                               std::pair{&er_, &er_params_}}) {
    auto oracle = Sketch(*graph, *params);
    CheckAllCells(MakeProblem(*graph, 6),
                  [oracle](const Deadline*) {
                    return std::make_shared<SketchSpreadObjective>(oracle);
                  },
                  "session n=" + std::to_string(graph->num_nodes()));
  }
}

TEST_F(HillClimbParityTest, OneShotSketchMatchesReference) {
  for (auto [graph, params] : {std::pair{&ba_, &ba_params_},
                               std::pair{&er_, &er_params_}}) {
    auto oracle = Sketch(*graph, *params);
    CheckAllCells(MakeProblem(*graph, 6),
                  [oracle](const Deadline*) {
                    return std::make_shared<SketchSpreadObjective>(
                        oracle, /*use_session=*/false);
                  },
                  "one-shot n=" + std::to_string(graph->num_nodes()));
  }
}

TEST_F(HillClimbParityTest, TargetedWeightsMatchReference) {
  // Zero, fractional and whole weights: ties among zero-weight nodes and
  // ratios that are not integers over R.
  std::vector<double> weights;
  for (NodeId u = 0; u < ba_.num_nodes(); ++u) {
    weights.push_back(0.75 * static_cast<double>(u % 4));
  }
  auto oracle = Sketch(ba_, ba_params_);
  for (bool use_session : {true, false}) {
    CheckAllCells(MakeProblem(ba_, 6),
                  [oracle, weights, use_session](const Deadline*) {
                    return std::make_shared<SketchSpreadObjective>(
                        oracle, use_session, weights);
                  },
                  use_session ? "targeted session" : "targeted one-shot");
  }
}

TEST_F(HillClimbParityTest, MonteCarloSpreadMatchesReference) {
  CheckAllCells(MakeProblem(ba_, 4),
                [this](const Deadline* deadline) {
                  McOptions mc;
                  mc.num_simulations = 12;
                  mc.seed = 9;
                  mc.deadline = deadline;
                  return std::make_shared<SpreadObjective>(ba_, ba_params_,
                                                           mc);
                },
                "mc spread");
}

TEST_F(HillClimbParityTest, MonteCarloOpinionMatchesReference) {
  // Effective opinion spread is not submodular and its gains go negative:
  // the lazy bound misranks and negative ratios reach the heap top.
  const OpinionParams opinions =
      MakeRandomOpinions(er_, OpinionDistribution::kStandardNormal, 4);
  CheckAllCells(MakeProblem(er_, 4),
                [this, &opinions](const Deadline* deadline) {
                  McOptions mc;
                  mc.num_simulations = 10;
                  mc.seed = 2;
                  mc.deadline = deadline;
                  return std::make_shared<EffectiveOpinionObjective>(
                      er_, er_params_, opinions,
                      OiBase::kIndependentCascade, 1.0, mc);
                },
                "mc opinion");
}

TEST_F(HillClimbParityTest, CarriedValueRoundingMatchesReference) {
  CheckAllCells(MakeProblem(er_, 4),
                [](const Deadline*) {
                  return std::make_shared<CancellingObjective>();
                },
                "cancelling");
}

}  // namespace
}  // namespace holim
