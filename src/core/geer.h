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
//
// No O(n) scan per greedy step: ApplyAuto reports each iterate's top-two
// (linalg/transition.h) and the iterate streams keep it beside the
// support cost, so Eq. 17's ψ and AMC's ψ read it directly. The one
// O(n) pass left per query fills AMC's signed walk table from the final
// iterates, into scratch the estimator owns.

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

/// GEER shares SMM's node-keyed iterate streams, batch loop, landmark
/// warm-up and rebind (SmmStreamEstimatorT). The AMC tail runs per query
/// on its canonical (seed, min, max) stream and carries no cross-query
/// state, so batched and session-served values are bit-identical to
/// serial ones.
template <WeightPolicy WP>
class GeerEstimatorT : public SmmStreamEstimatorT<WP> {
 public:
  using GraphT = typename WP::GraphT;

  explicit GeerEstimatorT(const GraphT& graph, ErOptions options = {})
      : SmmStreamEstimatorT<WP>(graph, options), walker_(graph) {}
  // Stores a pointer to `graph`; a temporary would dangle.
  explicit GeerEstimatorT(GraphT&&, ErOptions = {}) = delete;

  std::string Name() const override {
    return std::string(WP::kNamePrefix) + "GEER";
  }
  std::unique_ptr<ErEstimator> CloneForBatch() const override {
    ErOptions opt = options_;
    opt.lambda = lambda_;  // clones never re-run Lanczos
    return std::make_unique<GeerEstimatorT<WP>>(*graph_, opt);
  }

  /// Also rebuilds the walk sampler for the new snapshot (the walk table
  /// is resized on its next fill).
  using ErEstimator::RebindGraph;
  bool RebindGraph(const GraphT& graph, const GraphEpoch& epoch) override {
    walker_ = WalkerFor<WP>(graph);
    return SmmStreamEstimatorT<WP>::RebindGraph(graph, epoch);
  }

 private:
  using Base = SmmStreamEstimatorT<WP>;
  using Base::graph_;
  using Base::lambda_;
  using Base::op_;
  using Base::options_;
  using Stream = SmmSourceCacheT<WP>;

  QueryStats EstimateWithCache(NodeId s, NodeId t, Stream* s_cache,
                               Stream* t_cache) override;
  /// The greedy rule stops SMM somewhere below ℓ, and PengEll bounds
  /// every per-pair ℓ, so warming to it covers any ℓ_b a query reaches.
  std::uint32_t WarmDepth() const override;

  WalkerFor<WP> walker_;
  Vector walk_table_;  // AMC's walk table, refilled per query
};

/// The two stacks, by their historical names.
using GeerEstimator = GeerEstimatorT<UnitWeight>;
using WeightedGeerEstimator = GeerEstimatorT<EdgeWeight>;

extern template class GeerEstimatorT<UnitWeight>;
extern template class GeerEstimatorT<EdgeWeight>;

}  // namespace geer

#endif  // GEER_CORE_GEER_H_
