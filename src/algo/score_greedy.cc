#include "algo/score_greedy.h"

#include <algorithm>
#include <deque>
#include <limits>

#include "diffusion/independent_cascade.h"
#include "diffusion/linear_threshold.h"
#include "util/logging.h"

namespace holim {

const char* ActivationStrategyName(ActivationStrategy strategy) {
  switch (strategy) {
    case ActivationStrategy::kSeedsOnly: return "seeds-only";
    case ActivationStrategy::kMonteCarloMajority: return "mc-majority";
    case ActivationStrategy::kExpectedReach: return "expected-reach";
  }
  return "?";
}

ScoreGreedy::ScoreGreedy(const Graph& graph, IncrementalScoreFn score_fn,
                         const ScoreGreedyOptions& options)
    : graph_(graph),
      score_fn_(std::move(score_fn)),
      options_(options),
      activated_(graph.num_nodes()),
      rng_(options.seed) {}

void ScoreGreedy::InsertActivated(NodeId u) {
  if (activated_.Contains(u)) return;
  activated_.Insert(u);
  newly_activated_.push_back(u);
}

void ScoreGreedy::ExpectedReach(NodeId seed, std::vector<NodeId>* out) {
  // Deterministic union-bound propagation of activation probability from
  // `seed`, limited to max_hops_ hops: prob(v) = 1 - prod(1 - prob(u)p(u,v)).
  HOLIM_CHECK(edge_prob_ != nullptr)
      << "kExpectedReach requires set_edge_probability";
  std::vector<double> prob(graph_.num_nodes(), 0.0);
  std::vector<NodeId> frontier = {seed};
  prob[seed] = 1.0;
  std::vector<NodeId> touched = {seed};
  for (uint32_t hop = 0; hop < max_hops_ && !frontier.empty(); ++hop) {
    std::vector<NodeId> next;
    for (NodeId u : frontier) {
      const EdgeId base = graph_.OutEdgeBegin(u);
      auto neighbors = graph_.OutNeighbors(u);
      for (std::size_t i = 0; i < neighbors.size(); ++i) {
        const NodeId v = neighbors[i];
        if (activated_.Contains(v)) continue;
        const double contrib = prob[u] * (*edge_prob_)[base + i];
        if (contrib <= 0.0) continue;
        if (prob[v] == 0.0) {
          next.push_back(v);
          touched.push_back(v);
        }
        prob[v] = 1.0 - (1.0 - prob[v]) * (1.0 - contrib);
      }
    }
    frontier = std::move(next);
  }
  for (NodeId v : touched) {
    if (v != seed && prob[v] >= options_.majority_fraction) out->push_back(v);
  }
}

void ScoreGreedy::GrowActivatedSet(NodeId new_seed) {
  // NOTE: the new seed is inserted only after the strategy runs — the MC
  // rounds must be able to activate it as their source.
  switch (options_.activation) {
    case ActivationStrategy::kSeedsOnly:
      InsertActivated(new_seed);
      return;
    case ActivationStrategy::kMonteCarloMajority: {
      HOLIM_CHECK(simulate_fn_ != nullptr)
          << "kMonteCarloMajority requires set_simulate_fn";
      std::vector<uint32_t> hits(graph_.num_nodes(), 0);
      std::vector<NodeId> activated_this_run;
      std::vector<NodeId> candidates;
      for (uint32_t r = 0; r < options_.mc_rounds; ++r) {
        activated_this_run.clear();
        simulate_fn_(new_seed, activated_, rng_, &activated_this_run);
        for (NodeId v : activated_this_run) {
          if (hits[v]++ == 0) candidates.push_back(v);
        }
      }
      mc_peak_bytes_ = std::max(
          mc_peak_bytes_,
          hits.capacity() * sizeof(uint32_t) +
              (activated_this_run.capacity() + candidates.capacity()) *
                  sizeof(NodeId) +
              (simulate_scratch_bytes_ ? simulate_scratch_bytes_() : 0));
      const double need = options_.majority_fraction * options_.mc_rounds;
      for (NodeId v : candidates) {
        if (static_cast<double>(hits[v]) >= need) InsertActivated(v);
      }
      InsertActivated(new_seed);
      return;
    }
    case ActivationStrategy::kExpectedReach: {
      std::vector<NodeId> reached;
      ExpectedReach(new_seed, &reached);
      for (NodeId v : reached) InsertActivated(v);
      InsertActivated(new_seed);
      return;
    }
  }
}

Result<SeedSelection> ScoreGreedy::Select(uint32_t k) {
  if (k == 0) return Status::InvalidArgument("k must be positive");
  if (k > graph_.num_nodes()) {
    return Status::InvalidArgument("k exceeds node count");
  }
  SeedSelection selection;
  SelectionMeter meter;
  activated_.Reset(graph_.num_nodes());
  newly_activated_.clear();
  mc_peak_bytes_ = 0;
  EpochSet seed_set(graph_.num_nodes());
  seed_set.Reset(graph_.num_nodes());
  std::vector<double> scores;
  // Incremental-delta bookkeeping: the assigner may keep per-level state
  // keyed to the set it last scored. We hand it the exact V(a) delta when
  // this round's set is "last round's set plus newly_activated_"; any other
  // call (first round, or right after the saturation fallback scored
  // seed_set) passes nullptr to force a full recompute.
  bool have_baseline = false;
  bool sequence_broken = false;
  for (uint32_t i = 0; i < k; ++i) {
    if (DeadlineExpired(deadline_, &selection)) break;
    const std::vector<NodeId>* delta =
        (have_baseline && !sequence_broken) ? &newly_activated_ : nullptr;
    score_fn_(activated_, delta, &scores);
    newly_activated_.clear();
    have_baseline = true;
    sequence_broken = false;
    NodeId best = kInvalidNode;
    double best_score = -std::numeric_limits<double>::infinity();
    for (NodeId u = 0; u < graph_.num_nodes(); ++u) {
      if (activated_.Contains(u)) continue;
      if (scores[u] > best_score) {
        best_score = scores[u];
        best = u;
      }
    }
    if (best == kInvalidNode) {
      // Every non-seed node is already in V(a): the activation strategy has
      // saturated the graph. Fall back to scoring with only the seeds
      // removed so a full seed set is still returned (the extra seeds have
      // ~zero marginal activation but keep |S| = k, matching Algorithm 1's
      // contract).
      score_fn_(seed_set, nullptr, &scores);
      sequence_broken = true;  // assigner state is now keyed to seed_set
      for (NodeId u = 0; u < graph_.num_nodes(); ++u) {
        if (seed_set.Contains(u)) continue;
        if (scores[u] > best_score) {
          best_score = scores[u];
          best = u;
        }
      }
      if (best == kInvalidNode) break;  // k > n safety; cannot happen here
      selection.seeds.push_back(best);
      selection.seed_scores.push_back(best_score);
      seed_set.Insert(best);
      InsertActivated(best);
      continue;
    }
    selection.seeds.push_back(best);
    selection.seed_scores.push_back(best_score);
    seed_set.Insert(best);
    GrowActivatedSet(best);
  }
  selection.activation_bytes =
      activated_.size_bytes() + seed_set.size_bytes() + mc_peak_bytes_;
  return meter.Finish(std::move(selection));
}

namespace {

/// Binds the MC-majority simulation hook: IcSimulator for IC/WC dynamics,
/// LtSimulator under LT.
void BindSimulator(ScoreGreedy& greedy, const Graph& graph,
                   const InfluenceParams& params, bool linear_threshold) {
  auto bind = [&greedy](auto sim) {
    greedy.set_simulate_fn(
        [sim](NodeId seed, const EpochSet& blocked, Rng& rng,
              std::vector<NodeId>* out) {
          const NodeId seeds[] = {seed};
          const Cascade& cascade = sim->RunWithBlocked(seeds, rng, blocked);
          for (const Activation& a : cascade.order) out->push_back(a.node);
        },
        [sim] { return sim->ScratchBytes(); });
  };
  if (linear_threshold) {
    bind(std::make_shared<LtSimulator>(graph, params));
  } else {
    bind(std::make_shared<IcSimulator>(graph, params));
  }
}

/// The shared per-round dispatch of EaSyIM/OSIM onto their scorer:
/// incremental rescore when enabled, else the full sweep. One definition
/// so the two selectors cannot diverge.
template <typename Scorer>
ScoreGreedy::IncrementalScoreFn MakeSweepScoreFn(
    Scorer& scorer, const ScoreGreedyOptions& options) {
  return [&scorer, options](const EpochSet& excluded,
                            const std::vector<NodeId>* newly,
                            std::vector<double>* scores) {
    if (options.incremental_rescore) {
      scorer.AssignScoresIncremental(excluded, newly, scores, options.pool);
    } else {
      scorer.AssignScores(excluded, scores, options.pool);
    }
  };
}

}  // namespace

EasyImSelector::EasyImSelector(const Graph& graph,
                               const InfluenceParams& params, uint32_t l,
                               const ScoreGreedyOptions& options)
    : graph_(graph), params_(params), scorer_(graph, params, l),
      options_(options) {
  scorer_.set_incremental_fallback_fraction(
      options_.rescore_fallback_fraction);
}

std::string EasyImSelector::name() const {
  return "EaSyIM(l=" + std::to_string(scorer_.path_length()) + ")";
}

Result<SeedSelection> EasyImSelector::Select(uint32_t k) {
  ScoreGreedy driver(graph_, MakeSweepScoreFn(scorer_, options_), options_);
  driver.set_deadline(deadline_);
  BindSimulator(driver, graph_, params_,
                params_.model == DiffusionModel::kLinearThreshold);
  driver.set_edge_probability(&params_.probability);
  driver.set_max_hops(scorer_.path_length());
  auto result = driver.Select(k);
  if (result.ok()) result->scratch_bytes = scorer_.ScratchBytes();
  return result;
}

OsimSelector::OsimSelector(const Graph& graph,
                           const InfluenceParams& influence,
                           const OpinionParams& opinions, OiBase base,
                           uint32_t l, const ScoreGreedyOptions& options)
    : graph_(graph),
      influence_(influence),
      opinions_(opinions),
      base_(base),
      scorer_(graph, influence, opinions, l),
      options_(options) {
  scorer_.set_incremental_fallback_fraction(
      options_.rescore_fallback_fraction);
}

std::string OsimSelector::name() const {
  return "OSIM(l=" + std::to_string(scorer_.path_length()) + ")";
}

Result<SeedSelection> OsimSelector::Select(uint32_t k) {
  ScoreGreedy driver(graph_, MakeSweepScoreFn(scorer_, options_), options_);
  driver.set_deadline(deadline_);
  BindSimulator(driver, graph_, influence_,
                base_ == OiBase::kLinearThreshold);
  driver.set_edge_probability(&influence_.probability);
  driver.set_max_hops(scorer_.path_length());
  auto result = driver.Select(k);
  if (result.ok()) result->scratch_bytes = scorer_.ScratchBytes();
  return result;
}

}  // namespace holim
