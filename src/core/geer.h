// GEER (Alg. 3): Greedy Estimation of Effective Resistance — the paper's
// main contribution, weight-generic. Splits r_ℓ(s,t) at a switch point
// ℓ_b:
//
//   r*_b = Σ_{i=0}^{ℓb} (…)   computed deterministically by SMM,
//   r*_f = Σ_{i=ℓb+1}^{ℓ} (…) estimated by AMC seeded with the SMM
//          iterates s*, t* (walk lengths shrink to ℓ−ℓb, and ψ and the
//          empirical variance collapse because the iterates are flat),
//
// choosing ℓ_b greedily: keep iterating SMM while one more SpMV costs
// less than the remaining AMC sampling budget (Eq. 17):
//   Σ_{v∈supp(s*)} d(v) + Σ_{v∈supp(t*)} d(v)  >  h(ℓ − ℓb)
// where h(ℓf) = (2^τ − 1)⌈η*(ℓf)/2^{τ−1}⌉ is AMC's worst-case sample
// count for the remaining tail. On weighted graphs every 1/d(·) becomes
// 1/w(·) and walks step through the alias sampler; the control flow is
// byte-for-byte the same template. The AMC tail runs through RunAmcT's
// lockstep lanes (core/amc.h), which overlap the walks' cache misses
// without changing a bit of the answer.

#ifndef GEER_CORE_GEER_H_
#define GEER_CORE_GEER_H_

#include <string>

#include "core/estimator.h"
#include "core/options.h"
#include "core/smm.h"
#include "graph/weight_policy.h"
#include "linalg/transition.h"
#include "rw/walker_policy.h"

namespace geer {

/// AMC's worst-case remaining sample count h(ℓf) for the given range
/// bound ψ — the RHS of the greedy rule (Eq. 17), saturating at
/// UINT64_MAX. Exposed for tests and the cost-model ablation bench.
std::uint64_t GeerRemainingSampleBudget(double epsilon, double delta,
                                        int tau, double psi);

template <WeightPolicy WP>
class GeerEstimatorT : public ErEstimator {
 public:
  using GraphT = typename WP::GraphT;

  explicit GeerEstimatorT(const GraphT& graph, ErOptions options = {});
  // Stores a pointer to `graph`; a temporary would dangle.
  explicit GeerEstimatorT(GraphT&&, ErOptions = {}) = delete;

  std::string Name() const override {
    return std::string(WP::kNamePrefix) + "GEER";
  }
  QueryStats EstimateWithStats(NodeId s, NodeId t) override;

  /// Shares node-keyed SMM iterate sequences for BOTH query sides via an
  /// SmmSessionCacheT pool (the session when enabled, a batch-local pool
  /// otherwise); the AMC tail still runs per query on its canonical
  /// (seed, min, max) stream, so batched values are bit-identical to
  /// serial ones.
  std::size_t EstimateBatch(std::span<const QueryPair> queries,
                            std::span<QueryStats> stats,
                            const BatchContext& context = {}) override;
  BatchPlan PlanBatch(std::span<const QueryPair> queries) const override {
    return BatchPlan::GroupByEndpoint(queries);
  }
  bool SharesBatchWork() const override { return true; }
  std::unique_ptr<ErEstimator> CloneForBatch() const override {
    ErOptions opt = options_;
    opt.lambda = lambda_;  // clones never re-run Lanczos
    return std::make_unique<GeerEstimatorT<WP>>(*graph_, opt);
  }

  /// Retains source iterate caches across EstimateBatch calls in an
  /// SmmSessionCacheT (the serving layer's session state). The AMC tail
  /// still runs per query on its (seed, s, t) stream, so retained state
  /// never changes answer values.
  void EnableSessionCache(std::size_t budget_bytes = 0) override {
    session_ = std::make_unique<SmmSessionCacheT<WP>>(*graph_, &op_,
                                                      budget_bytes);
  }
  void ClearSessionCache() override {
    if (session_ != nullptr) session_->Clear();
  }
  bool SessionCacheEnabled() const override { return session_ != nullptr; }
  CacheStats SessionCacheStats() const override {
    return session_ != nullptr ? session_->stats() : CacheStats{};
  }

  /// Pins prebuilt SMM iterate streams for the landmarks in the session
  /// cache (enabling it if off); the AMC tail is per query either way.
  std::size_t WarmLandmarks(std::span<const NodeId> landmarks) override;

  /// Dynamic-graph hook: repoints at the new snapshot, rebuilds the
  /// transition operator and walk sampler, re-derives λ, and invalidates
  /// the SMM session selectively (only entries whose iterate supports
  /// were touched; the AMC tail carries no cross-query state).
  using ErEstimator::RebindGraph;
  bool RebindGraph(const GraphT& graph, const GraphEpoch& epoch) override;

  std::uint64_t IncrementalRebinds() const override {
    return incremental_rebinds_.load(std::memory_order_relaxed);
  }

  double lambda() const { return lambda_; }

  /// Compat spelling of GeerRemainingSampleBudget.
  static std::uint64_t RemainingSampleBudget(double epsilon, double delta,
                                             int tau, double psi) {
    return GeerRemainingSampleBudget(epsilon, delta, tau, psi);
  }

 private:
  QueryStats EstimateWithCache(NodeId s, NodeId t,
                               SmmSourceCacheT<WP>* s_cache,
                               SmmSourceCacheT<WP>* t_cache);
  bool IsLandmark(NodeId v) const {
    return v < is_landmark_.size() && is_landmark_[v] != 0;
  }

  const GraphT* graph_;
  ErOptions options_;
  double lambda_;
  TransitionOperatorT<WP> op_;
  WalkerFor<WP> walker_;
  std::unique_ptr<SmmSessionCacheT<WP>> session_;
  std::vector<char> is_landmark_;
  std::atomic<std::uint64_t> incremental_rebinds_{0};
};

/// The two stacks, by their historical names.
using GeerEstimator = GeerEstimatorT<UnitWeight>;
using WeightedGeerEstimator = GeerEstimatorT<EdgeWeight>;

extern template class GeerEstimatorT<UnitWeight>;
extern template class GeerEstimatorT<EdgeWeight>;

}  // namespace geer

#endif  // GEER_CORE_GEER_H_
