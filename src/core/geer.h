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
// Pendant trees: before any of that, every query is reduced to the
// graph's 2-core (graph/algorithms.h PendantForest). A node outside the
// 2-core lies in a tree hanging off one core node, its root, and every
// tree edge is a bridge, so the series law (Doyle & Snell 1984) splits
//   r(s, t) = R(s → a) + r(a, b) + R(b ← t)
// exactly, with a, b the roots and R the tree paths' resistances (hops,
// or Σ 1/w). GEER answers r(a, b) and adds the offset; a pair inside
// one tree gets its tree path and no walks. The offset carries no
// error, so |r' − r| = |r'(a, b) − r(a, b)| ≤ ε with probability 1 − δ:
// Theorem 3.4's guarantee, unchanged. The forest is peeled once per
// graph epoch, shared by every clone (core/epoch_shared.h), and null on
// a graph without degree-1 nodes, where nothing changes. It pays
// because Eq. 6's ℓ and Eq. 9's ψ are worst at a low-degree endpoint,
// and degree-1 endpoints are exactly the ones it removes.
//
// No O(n) scan per greedy step: ApplyAuto reports each iterate's top-two
// (linalg/transition.h) and the iterate streams keep it beside the
// support cost, so Eq. 17's ψ and AMC's ψ read it directly. The one
// O(n) pass left per query fills AMC's signed walk table from the final
// iterates, into scratch the estimator owns.

#ifndef GEER_CORE_GEER_H_
#define GEER_CORE_GEER_H_

#include <string>

#include "core/epoch_shared.h"
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
/// warm-up and rebind (SmmStreamEstimatorT), and is the one estimator
/// that sets its pendant forest. The AMC tail runs per query on the
/// canonical (seed, min, max) stream of the reduced pair and carries no
/// cross-query state, so batched and session-served values are
/// bit-identical to serial ones.
template <WeightPolicy WP>
class GeerEstimatorT : public SmmStreamEstimatorT<WP> {
 public:
  using GraphT = typename WP::GraphT;

  /// Peels the graph's pendant trees once (graph/algorithms.h).
  explicit GeerEstimatorT(const GraphT& graph, ErOptions options = {})
      : SmmStreamEstimatorT<WP>(graph, options), walker_(graph) {
    forest_ = PendantForest::Build(graph);
    shared_forest_ =
        std::make_shared<EpochShared<PendantForest>>(forest_);
  }
  // Stores a pointer to `graph`; a temporary would dangle.
  explicit GeerEstimatorT(GraphT&&, ErOptions = {}) = delete;

  std::string Name() const override {
    return std::string(WP::kNamePrefix) + "GEER";
  }
  std::unique_ptr<ErEstimator> CloneForBatch() const override {
    ErOptions opt = options_;
    opt.lambda = lambda_;  // clones never re-run Lanczos or the peel
    return std::unique_ptr<ErEstimator>(
        new GeerEstimatorT<WP>(*graph_, opt, *this));
  }

  /// Also rebuilds the walk sampler for the new snapshot (the walk table
  /// is resized on its next fill) and adopts the new epoch's forest,
  /// peeled once across every clone sharing the holder.
  using ErEstimator::RebindGraph;
  bool RebindGraph(const GraphT& graph, const GraphEpoch& epoch) override {
    walker_ = WalkerFor<WP>(graph);
    forest_ = shared_forest_->GetOrBuild(
        epoch.epoch, [&graph] { return PendantForest::Build(graph); });
    return SmmStreamEstimatorT<WP>::RebindGraph(graph, epoch);
  }

  /// The forest in use; null when the graph has no degree-1 node.
  const PendantForest* forest() const { return forest_.get(); }

 private:
  using Base = SmmStreamEstimatorT<WP>;
  using Base::forest_;
  using Base::graph_;
  using Base::lambda_;
  using Base::op_;
  using Base::options_;
  using Stream = SmmSourceCacheT<WP>;

  // Clone constructor: adopts `original`'s forest and its epoch-keyed
  // holder instead of peeling.
  GeerEstimatorT(const GraphT& graph, ErOptions options,
                 const GeerEstimatorT& original)
      : SmmStreamEstimatorT<WP>(graph, options),
        walker_(graph),
        shared_forest_(original.shared_forest_) {
    forest_ = original.forest_;
  }

  QueryStats EstimateWithCache(NodeId s, NodeId t, Stream* s_cache,
                               Stream* t_cache) override;

  WalkerFor<WP> walker_;
  Vector walk_table_;  // AMC's walk table, refilled per query
  std::shared_ptr<EpochShared<PendantForest>> shared_forest_;
};

/// The two stacks, by their historical names.
using GeerEstimator = GeerEstimatorT<UnitWeight>;
using WeightedGeerEstimator = GeerEstimatorT<EdgeWeight>;

extern template class GeerEstimatorT<UnitWeight>;
extern template class GeerEstimatorT<EdgeWeight>;

}  // namespace geer

#endif  // GEER_CORE_GEER_H_
