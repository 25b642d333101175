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
// or Σ 1/w). No current between two core nodes enters a tree, so
// r(a, b) is also the resistance in the 2-core graph C alone, and GEER
// runs all of Alg. 3 on C (PendantCore): its SMM iterates, AMC walks,
// walk table and session streams, with C's degrees in Eq. 6's ℓ and
// Eq. 9's ψ. A pair inside one tree gets its tree path and no walks.
// The offset carries no error, so |r' − r| = |r'(a, b) − r(a, b)| ≤ ε
// with probability 1 − δ: Theorem 3.4's guarantee, unchanged. The core
// is built once per graph epoch, shared by every clone
// (core/epoch_shared.h), and null on a graph without degree-1 nodes,
// where GEER walks G itself. It pays because pendant trees only absorb
// steps, and Eq. 6's ℓ and Eq. 9's ψ are worst at a low-degree endpoint,
// which degree-1 endpoints are.
//
// λ: GEER on C keeps G's λ (from options, the epoch, or a cold Lanczos
// on G), because λ(C) ≤ λ(G) for the 2-core, and Eq. 6 needs only an
// upper bound. Write λ = max(λ₂, −λ_n) for the eigenvalues of P = D⁻¹A
// (λ_n < 0 as tr P = 0, and λ₂ < 0 forces |λ₂| ≤ |λ_n|), and use the
// Rayleigh quotients over x ≠ 0 with D-weighted denominators
// Σ_v d(v) x_v² (d = strength under conductances):
//   1 − λ₂ = min_{x ⊥_D 1} Σ_{uv} w_uv (x_u − x_v)² / Σ_v d(v) x_v²,
//   1 + λ_n = min_x        Σ_{uv} w_uv (x_u + x_v)² / Σ_v d(v) x_v².
// (i) λ_n. Extend C's minimiser x to G by alternating signs down each
// tree, y_v = (−1)^{depth(v)} x_{root(v)}. Every tree edge then has
// y_u + y_v = 0 and adds nothing to the numerator, while the
// denominator only gains the tree nodes' mass (and each root's extra
// degree), so 1 + λ_n(G) ≤ 1 + λ_n(C).
// (ii) λ₂. Extend C's minimiser x by the root's value, y_v = x_{root(v)}:
// tree edges add nothing to Σ w (y_u − y_v)². Let m_c ≥ 0 be the mass
// the trees add at root c, M = Σ m_c, vol_C = Σ d_C. With Σ d_C x = 0,
// the D_G-projection of y off 1 has squared D_G-norm
//   Σ d_C x² + Σ m x² − (Σ m x)² / (vol_C + M) ≥ Σ d_C x²
// by Cauchy–Schwarz, (Σ m x)² ≤ M Σ m x². So the Courant–Fischer
// quotient of that projection is at most C's, and 1 − λ₂(G) ≤ 1 − λ₂(C).
// Hence λ(C) ≤ λ(G), and a certified λ_G (θ + r) bounds λ_C too;
// pendant_forest_test checks both against dense Jacobi on 2,000 random
// graphs per weight mode. C's own λ is smaller still (youtube: 0.743
// against 0.889), but takes a Lanczos run of its own.
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
/// sessions and rebind (SmmStreamEstimatorT), and is the one estimator
/// that sets a pendant core: its iterates, walks, walk table and session
/// streams all live on the 2-core graph C, while its API takes G's ids.
/// The AMC tail runs per query on the canonical (seed, min, max) stream
/// of the reduced pair's C ids and carries no cross-query state, so
/// batched and session-served values are bit-identical to serial ones.
template <WeightPolicy WP>
class GeerEstimatorT : public SmmStreamEstimatorT<WP> {
 public:
  using GraphT = typename WP::GraphT;
  using Core = PendantCore<GraphT>;

  /// Peels the graph's pendant trees and copies its 2-core once
  /// (graph/algorithms.h); λ stays G's.
  explicit GeerEstimatorT(const GraphT& graph, ErOptions options = {})
      : SmmStreamEstimatorT<WP>(graph, options, Core::Build(graph)),
        walker_(this->walk_graph()),
        shared_core_(std::make_shared<EpochShared<Core>>(core_)) {}
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

  /// Adopts the new epoch's core, peeled and copied once across every
  /// clone sharing the holder, then rebuilds the walk sampler on the
  /// graph it walks (the walk table is resized on its next fill).
  using ErEstimator::RebindGraph;
  bool RebindGraph(const GraphT& graph, const GraphEpoch& epoch) override {
    this->Rebind(graph, epoch, shared_core_->GetOrBuild(epoch.epoch, [&graph] {
      return Core::Build(graph);
    }));
    walker_ = WalkerFor<WP>(this->walk_graph());
    return true;
  }

  /// The core in use; null when the graph has no degree-1 node, and
  /// GEER walks G itself.
  const Core* core() const { return core_.get(); }

 private:
  using Base = SmmStreamEstimatorT<WP>;
  using Base::core_;
  using Base::graph_;
  using Base::lambda_;
  using Base::op_;
  using Base::options_;
  using Stream = SmmSourceCacheT<WP>;

  // Clone constructor: adopts `original`'s core and its epoch-keyed
  // holder instead of peeling.
  GeerEstimatorT(const GraphT& graph, ErOptions options,
                 const GeerEstimatorT& original)
      : SmmStreamEstimatorT<WP>(graph, options, original.core_),
        walker_(this->walk_graph()),
        shared_core_(original.shared_core_) {}

  QueryStats EstimateWithCache(NodeId s, NodeId t, Stream* s_cache,
                               Stream* t_cache) override;

  WalkerFor<WP> walker_;  // on walk_graph()
  Vector walk_table_;     // AMC's walk table, refilled per query
  std::shared_ptr<EpochShared<Core>> shared_core_;
};

/// The two stacks, by their historical names.
using GeerEstimator = GeerEstimatorT<UnitWeight>;
using WeightedGeerEstimator = GeerEstimatorT<EdgeWeight>;

extern template class GeerEstimatorT<UnitWeight>;
extern template class GeerEstimatorT<EdgeWeight>;

}  // namespace geer

#endif  // GEER_CORE_GEER_H_
