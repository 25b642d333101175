#include "core/geer.h"

#include <algorithm>
#include <cmath>

#include "core/amc.h"
#include "core/ell.h"
#include "core/smm.h"
#include "stats/bounds.h"
#include "util/check.h"

namespace geer {

std::uint64_t GeerRemainingSampleBudget(double epsilon, double delta,
                                        int tau, double psi) {
  if (psi <= 0.0) return 0;
  const std::uint64_t eta =
      AmcFirstBatchSize(AmcMaxSamples(epsilon, psi, delta, tau), tau);
  // h(ℓf) = Σ_{i=1}^{τ} 2^{i−1} η = (2^τ − 1) η, saturating: a wrapped
  // budget would make Eq. 17 stop SMM early.
  if (tau >= 64) return UINT64_MAX;
  const std::uint64_t batches = (1ull << tau) - 1ull;
  return eta > UINT64_MAX / batches ? UINT64_MAX : batches * eta;
}

template <WeightPolicy WP>
QueryStats GeerEstimatorT<WP>::EstimateWithCache(NodeId s, NodeId t,
                                                 Stream* s_cache,
                                                 Stream* t_cache) {
  QueryStats stats;
  if (s == t) return stats;

  const GraphT& graph = this->walk_graph();
  const double ws = WP::NodeWeight(graph, s);
  const double wt = WP::NodeWeight(graph, t);
  // Line 1: ℓ per Eq. (6) (λ precomputed), or Eq. (5) for the ablation.
  const std::uint32_t ell =
      options_.use_peng_ell
          ? PengEll(options_.epsilon, lambda_, options_.max_ell)
          : RefinedEllWeighted(options_.epsilon, lambda_, ws, wt,
                               options_.max_ell);
  stats.ell = ell;
  stats.truncated = EllWasTruncated(options_.epsilon, lambda_, ws, wt,
                                    options_.max_ell, options_.use_peng_ell);

  // Lines 2–9: SMM until the greedy rule (Eq. 17) fires or ℓ_b ≥ ℓ.
  SmmIteratorT<WP> smm(graph, &op_, s, t, s_cache, t_cache);
  const bool fixed_lb = options_.geer_fixed_lb >= 0;
  const std::uint32_t lb_target =
      fixed_lb ? std::min<std::uint32_t>(
                     static_cast<std::uint32_t>(options_.geer_fixed_lb), ell)
               : ell;
  while (smm.iterations() < lb_target) {
    if (!fixed_lb) {
      // Evaluate Eq. 17 with the CURRENT iterates: the cost of one more
      // SpMV pair vs AMC's worst-case remaining samples h(ℓ − ℓb).
      const std::uint32_t remaining = ell - smm.iterations();
      const auto [max1_s, max2_s] = smm.s_top_two();
      const auto [max1_t, max2_t] = smm.t_top_two();
      const double psi =
          AmcPsi(remaining, max1_s, max2_s, ws, max1_t, max2_t, wt);
      const std::uint64_t budget = GeerRemainingSampleBudget(
          options_.epsilon, options_.delta, options_.tau, psi);
      if (smm.NextIterationCost() > budget) break;
    }
    smm.Advance();
  }
  stats.ell_b = smm.iterations();
  stats.spmv_ops = smm.spmv_ops();

  // Line 10: AMC on the tail with the live iterates as input vectors.
  AmcParams params;
  params.epsilon = options_.epsilon;
  params.delta = options_.delta;
  params.tau = options_.tau;
  params.ell_f = ell - smm.iterations();
  Rng rng(options_.seed ^ (static_cast<std::uint64_t>(s) << 32) ^ t);
  AmcRunResult run;
  if (params.ell_f > 0) {  // else SMM covered all of ℓ: no walks to feed
    FillAmcWalkTable(smm.svec(), ws, smm.tvec(), wt, &walk_table_);
    run = RunAmcT<WP>(
        graph, walker_, s, t,
        AmcWalkTable{walk_table_, smm.s_top_two(), smm.t_top_two()}, params,
        rng);
  }

  // Line 11: r'(s,t) = r_f + r_b.
  stats.value = run.r_f + smm.rb();
  stats.walks = run.walks;
  stats.walk_steps = run.steps;
  stats.eta_star = run.eta_star;
  stats.batches = run.batches;
  stats.early_stop = run.early_stop;
  return stats;
}

template class GeerEstimatorT<UnitWeight>;
template class GeerEstimatorT<EdgeWeight>;

}  // namespace geer
