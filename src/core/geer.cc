#include "core/geer.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <unordered_map>

#include "core/amc.h"
#include "core/ell.h"
#include "core/smm.h"
#include "core/spectral_epoch.h"
#include "linalg/spectral.h"
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
GeerEstimatorT<WP>::GeerEstimatorT(const GraphT& graph, ErOptions options)
    : graph_(&graph), options_(options), op_(graph), walker_(graph) {
  ValidateOptions(options_);
  lambda_ = options_.lambda.has_value()
                ? *options_.lambda
                : ComputeSpectralBoundsT<WP>(graph).lambda;
}

template <WeightPolicy WP>
bool GeerEstimatorT<WP>::RebindGraph(const GraphT& graph,
                                     const GraphEpoch& epoch) {
  graph_ = &graph;
  op_ = TransitionOperatorT<WP>(graph);  // stable address: retained
                                         // session caches keep their op_
  walker_ = WalkerFor<WP>(graph);
  bool warm = false;
  lambda_ = RebindLambda<WP>(graph, epoch, &warm);
  if (warm) incremental_rebinds_.fetch_add(1, std::memory_order_relaxed);
  if (session_ != nullptr) session_->Rebind(graph, epoch);
  return true;
}

template <WeightPolicy WP>
QueryStats GeerEstimatorT<WP>::EstimateWithStats(NodeId s, NodeId t) {
  GEER_CHECK(s < graph_->NumNodes());
  GEER_CHECK(t < graph_->NumNodes());
  // Canonical endpoint order: fixed accumulation order plus a canonical
  // AMC stream seed make Estimate(s, t) ≡ Estimate(t, s) bitwise — the
  // symmetry the node-keyed batch caches rely on.
  const NodeId u = std::min(s, t);
  const NodeId v = std::max(s, t);
  return EstimateWithCache(u, v, nullptr, nullptr);
}

template <WeightPolicy WP>
std::size_t GeerEstimatorT<WP>::EstimateBatch(
    std::span<const QueryPair> queries, std::span<QueryStats> stats,
    const BatchContext& context) {
  GEER_CHECK(stats.size() >= queries.size());
  // Node-keyed iterate pool shared by both query sides (see SMM's
  // EstimateBatch — the structure is identical; GEER adds the per-query
  // AMC tail, which carries no cross-query state).
  std::optional<SmmSessionCacheT<WP>> local;
  SmmSessionCacheT<WP>* pool = session_.get();
  if (pool == nullptr) {
    constexpr std::size_t kOneShotPoolBytes = 256ull << 20;
    local.emplace(*graph_, &op_, kOneShotPoolBytes, /*deep_entries=*/true);
    pool = &*local;
  }
  // Same admission rule as SMM's EstimateBatch: materialize a stream
  // only for nodes that recur in this batch or are pinned landmarks;
  // batch-singletons read resident streams (Lookup) or iterate
  // privately — bit-identical either way.
  std::unordered_map<NodeId, std::uint32_t> uses;
  for (const QueryPair& q : queries) {
    if (q.s == q.t) continue;
    ++uses[q.s];
    ++uses[q.t];
  }
  const auto stream_for = [&](NodeId node) -> SmmSourceCacheT<WP>* {
    if (IsLandmark(node) || uses[node] > 1) {
      return pool->CacheFor(node, IsLandmark(node));
    }
    return pool->Lookup(node);
  };
  for (std::size_t i = 0; i < queries.size(); ++i) {
    if (context.Cancelled()) return i;
    const QueryPair& q = queries[i];
    GEER_CHECK(q.s < graph_->NumNodes());
    GEER_CHECK(q.t < graph_->NumNodes());
    if (q.s == q.t) {
      stats[i] = QueryStats{};
      context.ReportAnswered();
      continue;
    }
    const NodeId u = std::min(q.s, q.t);
    const NodeId v = std::max(q.s, q.t);
    SmmSourceCacheT<WP>* u_cache = stream_for(u);
    SmmSourceCacheT<WP>* v_cache = stream_for(v);
    stats[i] = EstimateWithCache(u, v, u_cache, v_cache);
    pool->Sweep({u, v});
    context.ReportAnswered();
  }
  return queries.size();
}

template <WeightPolicy WP>
std::size_t GeerEstimatorT<WP>::WarmLandmarks(
    std::span<const NodeId> landmarks) {
  if (session_ == nullptr) EnableSessionCache();
  is_landmark_.assign(graph_->NumNodes(), 0);
  for (const NodeId lm : landmarks) {
    GEER_CHECK(lm < graph_->NumNodes());
    is_landmark_[lm] = 1;
  }
  // The greedy rule stops SMM somewhere below ℓ; PengEll bounds every
  // per-pair ℓ, so warming to it (capped by the entry depth) covers any
  // ℓ_b a query can reach. Extra depth is never read — values are
  // unaffected either way.
  const std::uint32_t depth =
      std::min(PengEll(options_.epsilon, lambda_, options_.max_ell),
               session_->per_source_iterate_cap());
  for (const NodeId lm : landmarks) {
    SmmSourceCacheT<WP>* cache = session_->CacheFor(lm, /*pin=*/true);
    std::uint64_t fresh = 0;
    cache->EnsureIterations(depth, &fresh);
    session_->Sweep({lm});
  }
  return landmarks.size();
}

template <WeightPolicy WP>
QueryStats GeerEstimatorT<WP>::EstimateWithCache(
    NodeId s, NodeId t, SmmSourceCacheT<WP>* s_cache,
    SmmSourceCacheT<WP>* t_cache) {
  QueryStats stats;
  if (s == t) return stats;

  const double ws = WP::NodeWeight(*graph_, s);
  const double wt = WP::NodeWeight(*graph_, t);
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
  SmmIteratorT<WP> smm(*graph_, &op_, s, t, s_cache, t_cache);
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
      const auto [max1_s, max2_s] = TopTwo(smm.svec());
      const auto [max1_t, max2_t] = TopTwo(smm.tvec());
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
  AmcRunResult run = RunAmcT<WP>(*graph_, walker_, s, t, smm.svec(),
                                 smm.tvec(), params, rng);

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
