#include "diffusion/independent_cascade.h"

#include "util/logging.h"

namespace holim {

IcSimulator::IcSimulator(const Graph& graph, const InfluenceParams& params)
    : graph_(graph), params_(params), active_(graph.num_nodes()) {
  HOLIM_CHECK(params.probability.size() == graph.num_edges())
      << "params/graph edge count mismatch";
}

const Cascade& IcSimulator::Run(std::span<const NodeId> seeds, Rng& rng) {
  return RunImpl(seeds, rng, nullptr);
}

const Cascade& IcSimulator::RunWithBlocked(std::span<const NodeId> seeds,
                                           Rng& rng, const EpochSet& blocked) {
  return RunImpl(seeds, rng, &blocked);
}

const Cascade& IcSimulator::RunImpl(std::span<const NodeId> seeds, Rng& rng,
                                    const EpochSet* blocked) {
  active_.Reset(graph_.num_nodes());
  cascade_.order.clear();
  // clear() already retains capacity; this reserve makes the
  // keep-the-previous-run's-allocation invariant explicit and keeps it
  // if the buffer is ever shrunk or moved out between runs.
  cascade_.order.reserve(last_activation_count_);
  for (NodeId s : seeds) {
    if (active_.Contains(s)) continue;
    if (blocked && blocked->Contains(s)) continue;
    active_.Insert(s);
    cascade_.order.push_back({s, kSeedActivation, 0});
  }
  if (blocked) {
    Propagate<true>(rng, blocked);
  } else {
    Propagate<false>(rng, nullptr);
  }
  last_activation_count_ = cascade_.order.size();
  return cascade_;
}

template <bool kBlocked>
void IcSimulator::Propagate(Rng& rng, const EpochSet* blocked) {
  const uint32_t* active = active_.stamps();
  const uint32_t active_epoch = active_.epoch();
  const uint32_t* block = kBlocked ? blocked->stamps() : nullptr;
  const uint32_t block_epoch = kBlocked ? blocked->epoch() : 0;
  // Neither active nor blocked: the edge gets a coin.
  auto open = [&](NodeId v) {
    bool result = active[v] != active_epoch;
    if constexpr (kBlocked) result &= block[v] != block_epoch;
    return result;
  };
  // cascade_.order doubles as the BFS frontier queue.
  std::size_t head = 0;
  while (head < cascade_.order.size()) {
    const Activation current = cascade_.order[head++];
    const EdgeId base = graph_.OutEdgeBegin(current.node);
    const auto neighbors = graph_.OutNeighbors(current.node);
    const std::size_t degree = neighbors.size();
    const uint32_t step = current.step + 1;
    if (degree > candidates_.size()) candidates_.resize(degree);
    uint32_t* candidates = candidates_.data();
    // Pass 1 (compact): row positions of the open targets, without a
    // data-dependent branch. Every slot is written; only the open ones
    // advance the count.
    std::size_t count = 0;
    for (std::size_t i = 0; i < degree; ++i) {
      candidates[count] = static_cast<uint32_t>(i);
      count += open(neighbors[i]);
    }
    // Pass 2 (draw): one coin per candidate, in row order. The re-check
    // skips a parallel edge whose target an earlier edge of this row
    // just activated, as the single-pass loop did.
    for (std::size_t j = 0; j < count; ++j) {
      const uint32_t i = candidates[j];
      const NodeId v = neighbors[i];
      if (active[v] == active_epoch) continue;
      const EdgeId e = base + i;
      if (rng.NextBernoulli(params_.p(e))) {
        active_.Insert(v);
        cascade_.order.push_back({v, e, step});
      }
    }
  }
}

}  // namespace holim
