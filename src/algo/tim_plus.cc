#include "algo/tim_plus.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace holim {

double LogNChooseK(uint64_t n, uint64_t k) {
  if (k > n) return 0.0;
  return std::lgamma(static_cast<double>(n) + 1) -
         std::lgamma(static_cast<double>(k) + 1) -
         std::lgamma(static_cast<double>(n - k) + 1);
}

TimPlusSelector::TimPlusSelector(const Graph& graph,
                                 const InfluenceParams& params,
                                 const TimPlusOptions& options)
    : graph_(graph), params_(params), options_(options) {}

std::string TimPlusSelector::name() const {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "TIM+(eps=%.2g)", options_.epsilon);
  return buf;
}

double TimPlusSelector::EstimateKpt(uint32_t k, Rng& rng) {
  // TIM Algorithm 2: for i = 1 .. log2(n)-1, draw c_i RR sets; if the mean
  // Bernoulli statistic kappa certifies E[width-based spread] > n/2^i, stop.
  const double n = static_cast<double>(graph_.num_nodes());
  const double m = static_cast<double>(graph_.num_edges());
  if (graph_.num_edges() == 0) return 1.0;
  const double log2n = std::log2(std::max(2.0, n));
  // KPT rounds only sample + read widths, never select, so skip the
  // incremental index entirely.
  RrCollection rr(graph_, params_, /*track_widths=*/true,
                  /*build_index=*/false);
  for (uint32_t i = 1; i + 1 < static_cast<uint32_t>(log2n); ++i) {
    const double ci =
        (6.0 * options_.ell * std::log(n) + 6.0 * std::log(log2n)) *
        std::pow(2.0, i);
    const std::size_t need = static_cast<std::size_t>(std::ceil(ci));
    rr.Clear();
    // On deadline expiry mid-generation the collection rolls back; bail —
    // Select inspects the (sticky) deadline state and degrades.
    if (!rr.GenerateParallel(need, rng.Next64(), options_.pool, deadline_)
             .ok()) {
      return 1.0;
    }
    // kappa(R) = 1 - (1 - w(R)/m)^k per set; estimate the mean.
    double sum = 0.0;
    for (std::size_t s = 0; s < rr.num_sets(); ++s) {
      const double frac = static_cast<double>(rr.set_width(s)) / m;
      sum += 1.0 - std::pow(1.0 - frac, static_cast<double>(k));
    }
    const double mean = sum / static_cast<double>(rr.num_sets());
    if (mean > 1.0 / std::pow(2.0, i)) {
      return n * mean / 2.0;  // KPT* = n * kappa / 2
    }
  }
  return 1.0;
}

double TimPlusSelector::RefineKpt(uint32_t k, double kpt_star, Rng& rng) {
  // TIM Algorithm 3 (intermediate step of TIM+): run greedy on a small
  // sample, then re-estimate the picked set's coverage on a fresh sample to
  // obtain an unbiased lower bound KPT'; KPT+ = max(KPT*, KPT').
  const double n = static_cast<double>(graph_.num_nodes());
  const double eps_prime = 5.0 * std::cbrt(options_.ell * options_.epsilon *
                                           options_.epsilon /
                                           (options_.ell + k));
  const double lambda_prime =
      (2.0 + eps_prime) * options_.ell * n * std::log(n) /
      (eps_prime * eps_prime * std::max(1.0, kpt_star));
  std::size_t theta_prime = static_cast<std::size_t>(std::ceil(lambda_prime));
  if (options_.max_theta > 0) {
    theta_prime = std::min(theta_prime, options_.max_theta);
  }
  RrCollection sample(graph_, params_);
  if (!sample.GenerateParallel(theta_prime, rng.Next64(), options_.pool,
                               deadline_)
           .ok()) {
    return kpt_star;  // expired: Select degrades from the sticky deadline
  }
  auto coverage = sample.Snapshot().SelectMaxCoverage(k);

  // Only CoveredFraction (an arena scan) runs on the fresh sample; no index.
  RrCollection fresh(graph_, params_, /*track_widths=*/false,
                     /*build_index=*/false);
  if (!fresh.GenerateParallel(theta_prime, rng.Next64(), options_.pool,
                              deadline_)
           .ok()) {
    return kpt_star;
  }
  const double f = fresh.CoveredFraction(coverage.seeds);
  const double kpt_refined = f * n / (1.0 + eps_prime);
  return std::max(kpt_star, kpt_refined);
}

Result<SeedSelection> TimPlusSelector::Select(uint32_t k) {
  if (k == 0) return Status::InvalidArgument("k must be positive");
  if (k > graph_.num_nodes()) {
    return Status::InvalidArgument("k exceeds node count");
  }
  SeedSelection selection;
  SelectionMeter meter;
  Rng rng(options_.seed);
  stats_ = RunStats{};

  // Expiry inside any generation phase is sticky on the deadline; a
  // degraded TIM+ run returns an empty selection (there is no valid seed
  // prefix until the final max-coverage pass) and lets the engine fall to
  // its heuristic tier.
  auto degrade = [&]() -> Result<SeedSelection> {
    selection.seeds.clear();
    selection.seed_scores.clear();
    MarkDegraded(*deadline_, &selection);
    return meter.Finish(std::move(selection));
  };

  stats_.kpt_star = EstimateKpt(k, rng);
  if (deadline_ && !deadline_->status().ok()) return degrade();
  stats_.kpt_plus = RefineKpt(k, stats_.kpt_star, rng);
  if (deadline_ && !deadline_->status().ok()) return degrade();

  // theta = lambda / KPT+ with lambda = (8+2eps) n (l log n + log C(n,k) +
  // log 2) / eps^2 (TIM Theorem 1).
  const double n = static_cast<double>(graph_.num_nodes());
  const double eps = options_.epsilon;
  const double lambda =
      (8.0 + 2.0 * eps) * n *
      (options_.ell * std::log(n) + LogNChooseK(graph_.num_nodes(), k) +
       std::log(2.0)) /
      (eps * eps);
  std::size_t theta = static_cast<std::size_t>(
      std::ceil(lambda / std::max(1.0, stats_.kpt_plus)));
  if (options_.max_theta > 0 && theta > options_.max_theta) {
    theta = options_.max_theta;
    stats_.theta_capped = true;
  }
  stats_.theta = theta;

  RrCollection rr(graph_, params_);
  if (!rr.GenerateParallel(theta, rng.Next64(), options_.pool, deadline_)
           .ok()) {
    return degrade();
  }
  stats_.rr_memory_bytes = rr.MemoryBytes();
  stats_.rr_index_bytes = rr.IndexMemoryBytes();
  auto coverage = rr.Snapshot().SelectMaxCoverage(k, deadline_);
  selection.seeds = std::move(coverage.seeds);
  if (coverage.deadline_hit) {
    // The committed prefix is valid greedy max-coverage output.
    MarkDegraded(*deadline_, &selection);
  }
  return meter.Finish(std::move(selection));
}

}  // namespace holim
