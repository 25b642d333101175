#include "core/mc.h"

#include <cmath>

#include "util/check.h"

namespace geer {

template <WeightPolicy WP>
McEstimatorT<WP>::McEstimatorT(const GraphT& graph, ErOptions options)
    : graph_(&graph), options_(options), walker_(graph) {
  ValidateOptions(options_);
}

template <WeightPolicy WP>
bool McEstimatorT<WP>::RebindGraph(const GraphT& graph,
                                   const GraphEpoch& epoch) {
  (void)epoch;  // MC has no per-graph preprocessing beyond the sampler
  graph_ = &graph;
  walker_ = WalkerFor<WP>(graph);
  return true;
}

template <WeightPolicy WP>
std::uint64_t McEstimatorT<WP>::NumTrials(double weight_s) const {
  const double eta = 3.0 * options_.mc_gamma_upper * weight_s *
                     std::log(1.0 / options_.delta) /
                     (options_.epsilon * options_.epsilon);
  return static_cast<std::uint64_t>(std::ceil(std::max(eta, 1.0)));
}

template <WeightPolicy WP>
QueryStats McEstimatorT<WP>::EstimateWithStats(NodeId s, NodeId t) {
  GEER_CHECK(s < graph_->NumNodes());
  GEER_CHECK(t < graph_->NumNodes());
  QueryStats stats;
  if (s == t) return stats;

  const double ws = WP::NodeWeight(*graph_, s);
  const std::uint64_t eta = NumTrials(ws);
  // Expected trial length ≤ expected return time to s, 2W/w(s); the cap
  // multiplies that by a generous safety factor.
  const double expected_return = WP::TotalNodeWeight(*graph_) / ws;
  const std::uint64_t max_steps = static_cast<std::uint64_t>(
      std::ceil(options_.mc_step_cap_multiplier * expected_return)) + 16;

  Rng rng(options_.seed ^ (static_cast<std::uint64_t>(s) << 32) ^ t);
  std::uint64_t hits = 0;
  for (std::uint64_t k = 0; k < eta; ++k) {
    const WalkEscape trial = walker_.EscapeTrial(s, t, max_steps, rng);
    ++stats.walks;
    stats.walk_steps += trial.steps;
    if (trial.outcome == WalkAbsorption::kHitTarget) ++hits;
    if (trial.outcome == WalkAbsorption::kStepLimit) stats.truncated = true;
  }
  if (hits == 0) {
    // No escape observed: report the assumed upper bound (r is at least
    // ~η/(w(s)·1) with high probability, beyond the γ regime).
    stats.value = options_.mc_gamma_upper;
    stats.truncated = true;
    return stats;
  }
  stats.value = static_cast<double>(eta) / (ws * static_cast<double>(hits));
  return stats;
}

template class McEstimatorT<UnitWeight>;
template class McEstimatorT<EdgeWeight>;

}  // namespace geer
