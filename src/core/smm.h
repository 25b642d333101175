// SMM (Alg. 2): deterministic computation of the truncated effective
// resistance r_ℓ(s,t) by iterated sparse matrix–vector products with the
// transition matrix P. After i iterations the iterates satisfy
// s*(v) = p_i(v, s) and t*(v) = p_i(v, t), and
//   r_b(s,t) = Σ_{j=0}^{i} [ s*_j(s)/w(s) + t*_j(t)/w(t)
//                            − s*_j(t)/w(s) − t*_j(s)/w(t) ]
// with w = d on unweighted inputs and w = strength on weighted ones
// (the body is a template over graph/weight_policy.h).
//
// SmmIteratorT exposes the iteration one step at a time so GEER can apply
// its greedy stopping rule (Eq. 17) between steps and hand the live
// iterates to AMC.
//
// Batching: the iterate sequence {P^j e_x} is a pure function of the
// node x, so EstimateBatch keys SmmSourceCacheT streams by node in a
// NodeStateCache and reuses them for the s- AND t-side of every query in
// the batch (and, with a session enabled, across batches). SMM and GEER
// share that loop through SmmStreamEstimatorT. Queries are evaluated in
// canonical endpoint order (min, max) with a fixed accumulation order,
// making Estimate(s, t) ≡ Estimate(t, s) bitwise — so one cached stream
// serves a node regardless of which side of a query it appears on. The
// cached vectors are produced by the same ApplyAuto call sequence a
// serial query would run, so batched values stay bit-identical to
// serial ones.

#ifndef GEER_CORE_SMM_H_
#define GEER_CORE_SMM_H_

#include <atomic>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/estimator.h"
#include "core/node_state_cache.h"
#include "core/options.h"
#include "graph/weight_policy.h"
#include "linalg/spectral.h"
#include "linalg/transition.h"

namespace geer {

/// Lazily materialized source-side iterate sequence {P^j e_source},
/// shared by the queries of a same-source group (SMM and GEER both use
/// it through SmmIteratorT). Stores one dense vector per iterate plus
/// the Eq. 17 support cost and the top-two entries that bound AMC's ψ
/// (both reported by ApplyAuto), growing to the deepest ℓ_b any query
/// needs — but never past max_cached_iterations(), which bounds the
/// stream's memory regardless of ℓ_b (the serial path runs in O(n)
/// memory; a group cache must not turn that into gigabytes). Queries that
/// iterate deeper continue on a private copy of the boundary state
/// (bit-identical, just unshared past the cap). The NodeStateCache
/// payload: ApproxBytes() and DependsOn().
template <WeightPolicy WP>
class SmmSourceCacheT {
 public:
  using GraphT = typename WP::GraphT;
  using SparseVector = typename TransitionOperatorT<WP>::SparseVector;

  /// Depth cap of a stream allowed `bytes` of dense iterates on an
  /// n-node graph; at least 2, so there is always something to share.
  static std::uint32_t DepthCapFor(NodeId num_nodes, std::uint64_t bytes);

  /// `max_cached` = 0 caps the stream at ~256 MB of iterates; tests pass
  /// a tiny cap to exercise the past-the-cap spill path.
  SmmSourceCacheT(const GraphT& graph, TransitionOperatorT<WP>* op,
                  NodeId source, std::uint32_t max_cached = 0);
  // The operator outlives the cache; a temporary graph would dangle.
  SmmSourceCacheT(GraphT&&, TransitionOperatorT<WP>*, NodeId,
                  std::uint32_t = 0) = delete;

  NodeId source() const { return source_; }

  /// Deepest iterate index this cache will materialize.
  std::uint32_t max_cached_iterations() const { return max_cached_; }

  /// Materializes iterates up to index min(j, max_cached_iterations()),
  /// adding the newly performed arc traversals (0 when already cached)
  /// to *fresh_ops.
  void EnsureIterations(std::uint32_t j, std::uint64_t* fresh_ops);

  /// Iterate j (requires EnsureIterations(j) and j ≤ the cap); j = 0 is
  /// e_source.
  const Vector& Iterate(std::uint32_t j) const { return iterates_[j]; }

  /// Σ_{v∈supp} d(v) of iterate j — its Eq. 17 LHS contribution.
  std::uint64_t SupportCost(std::uint32_t j) const {
    return support_costs_[j];
  }

  /// TopTwo(Iterate(j)), as ApplyAuto reported it.
  std::pair<double, double> IterateTopTwo(std::uint32_t j) const {
    return top_twos_[j];
  }

  /// The live sparse state at the deepest materialized iterate — the
  /// hand-off for past-the-cap iteration. Requires
  /// EnsureIterations(max_cached_iterations()).
  const SparseVector& BoundaryState() const { return live_; }

  /// True iff this cache's dependency set — the union of every
  /// materialized iterate's support, i.e. every vertex whose row or
  /// degree the cached sequence read — intersects the sorted `touched`
  /// list, or support tracking went dense (dependency unknown). The
  /// dynamic-graph invalidation predicate: a cache for which this is
  /// FALSE is bit-exact on the new epoch (all rows it read are
  /// unchanged, and any touched vertex outside the supports contributes
  /// exactly zero to every cached iterate on both graphs).
  bool DependsOn(std::span<const NodeId> touched) const;

  /// Resident dense-iterate bytes — the session pool's accounting unit.
  std::size_t ApproxBytes() const {
    return iterates_.size() * dep_mark_.size() * sizeof(double);
  }

 private:
  /// Folds live_'s current support into the dependency marks.
  void AbsorbSupport();

  NodeId source_;
  TransitionOperatorT<WP>* op_;
  std::uint32_t max_cached_;
  SparseVector live_;
  std::vector<Vector> iterates_;
  std::vector<std::uint64_t> support_costs_;
  std::vector<std::pair<double, double>> top_twos_;
  std::vector<char> dep_mark_;  // n flags: vertex ∈ dependency set
  bool dep_dense_ = false;      // an iterate stopped support tracking
};

/// Step-at-a-time driver for Alg. 2 on a fixed query pair.
template <WeightPolicy WP>
class SmmIteratorT {
 public:
  using GraphT = typename WP::GraphT;

  /// Positions the iterator at ℓ_b = 0 (the i=0 term is already folded
  /// into rb()). Requires s ≠ t handled by the caller. When `s_cache` /
  /// `t_cache` are given (each must be for its node), that side's
  /// iterates are read from the cache — only freshly materialized cache
  /// steps charge spmv_ops(). Each side spills independently past its
  /// cache's depth cap.
  SmmIteratorT(const GraphT& graph, TransitionOperatorT<WP>* op, NodeId s,
               NodeId t, SmmSourceCacheT<WP>* s_cache = nullptr,
               SmmSourceCacheT<WP>* t_cache = nullptr);
  // Stores a pointer to `graph`; a temporary would dangle.
  SmmIteratorT(GraphT&&, TransitionOperatorT<WP>*, NodeId, NodeId,
               SmmSourceCacheT<WP>* = nullptr,
               SmmSourceCacheT<WP>* = nullptr) = delete;

  /// Truncated ER accumulated so far: r_{ℓb}(s, t).
  double rb() const { return rb_; }

  /// Iterations performed so far (ℓ_b).
  std::uint32_t iterations() const { return iterations_; }

  /// Arc traversals charged by all iterations so far.
  std::uint64_t spmv_ops() const { return spmv_ops_; }

  /// Cost of the NEXT iteration under the paper's model:
  /// Σ_{v∈supp(s*)} d(v) + Σ_{v∈supp(t*)} d(v)  (Eq. 17 LHS).
  std::uint64_t NextIterationCost() const {
    const std::uint64_t s_cost = ReadsSCache()
                                     ? s_cache_->SupportCost(iterations_)
                                     : s_vec_.support_degree_sum;
    const std::uint64_t t_cost = ReadsTCache()
                                     ? t_cache_->SupportCost(iterations_)
                                     : t_vec_.support_degree_sum;
    return s_cost + t_cost;
  }

  /// Performs one iteration: s* ← P s*, t* ← P t*, accumulates into rb.
  void Advance();

  /// Live iterates (s*(v) = p_{ℓb}(v, s), t*(v) = p_{ℓb}(v, t)).
  const Vector& svec() const {
    return ReadsSCache() ? s_cache_->Iterate(iterations_) : s_vec_.values;
  }
  const Vector& tvec() const {
    return ReadsTCache() ? t_cache_->Iterate(iterations_) : t_vec_.values;
  }

  /// TopTwo(svec()) and TopTwo(tvec()) without a pass over them.
  std::pair<double, double> s_top_two() const {
    return ReadsSCache() ? s_cache_->IterateTopTwo(iterations_)
                         : s_vec_.top_two;
  }
  std::pair<double, double> t_top_two() const {
    return ReadsTCache() ? t_cache_->IterateTopTwo(iterations_)
                         : t_vec_.top_two;
  }

 private:
  using SparseVector = typename TransitionOperatorT<WP>::SparseVector;

  /// True while a side is served by its cache (not yet past the cap).
  bool ReadsSCache() const { return s_cache_ != nullptr && !s_spilled_; }
  bool ReadsTCache() const { return t_cache_ != nullptr && !t_spilled_; }

  /// One side's ApplyAuto step — through the cache while it lasts, on
  /// the private (possibly spilled) vector otherwise.
  void AdvanceSide(SmmSourceCacheT<WP>* cache, bool& spilled,
                   SparseVector& vec);

  const GraphT* graph_;
  TransitionOperatorT<WP>* op_;
  NodeId s_;
  NodeId t_;
  double inv_ws_;
  double inv_wt_;
  SmmSourceCacheT<WP>* s_cache_;  // nullable; replaces s_vec_ when set
  SmmSourceCacheT<WP>* t_cache_;  // nullable; replaces t_vec_ when set
  bool s_spilled_ = false;  // iterated past the cap on a private copy
  bool t_spilled_ = false;
  SparseVector s_vec_;
  SparseVector t_vec_;
  double rb_ = 0.0;
  std::uint32_t iterations_ = 0;
  std::uint64_t spmv_ops_ = 0;
};

/// What SMM and GEER share: a per-query Alg. 2 driver over node-keyed
/// iterate streams, one batch loop, the landmark warm-up, and the epoch
/// rebind. Every endpoint's stream lives in a NodeStateCache pool (the
/// session when enabled, a batch-local pool otherwise), so both query
/// sides reuse streams across the whole batch. Queries run in canonical
/// (min, max) order with a fixed accumulation order, making
/// Estimate(s, t) ≡ Estimate(t, s) bitwise and batched values
/// bit-identical to serial ones.
template <WeightPolicy WP>
class SmmStreamEstimatorT
    : public SessionCachedEstimator<typename WP::GraphT, NodeId,
                                    SmmSourceCacheT<WP>> {
 public:
  using GraphT = typename WP::GraphT;

  QueryStats EstimateWithStats(NodeId s, NodeId t) override;
  std::size_t EstimateBatch(std::span<const QueryPair> queries,
                            std::span<QueryStats> stats,
                            const BatchContext& context = {}) override;
  BatchPlan PlanBatch(std::span<const QueryPair> queries) const override {
    return BatchPlan::GroupByEndpoint(queries);
  }
  bool SharesBatchWork() const override { return true; }

  /// Dynamic-graph hook: repoints at the new snapshot, rebuilds the
  /// transition operator, re-derives λ, and invalidates the session
  /// selectively (only streams whose iterate supports were touched).
  using ErEstimator::RebindGraph;
  bool RebindGraph(const GraphT& graph, const GraphEpoch& epoch) override;

  std::uint64_t IncrementalRebinds() const override {
    return incremental_rebinds_.load(std::memory_order_relaxed);
  }

  /// λ in use (from options or computed at construction).
  double lambda() const { return lambda_; }

 protected:
  using Base = SessionCachedEstimator<GraphT, NodeId, SmmSourceCacheT<WP>>;
  using Base::graph_;
  using Base::session_;
  using Stream = SmmSourceCacheT<WP>;

  SmmStreamEstimatorT(const GraphT& graph, ErOptions options);

  /// Answers canonical endpoints s < t, reading each side's iterates
  /// from its stream when one is given.
  virtual QueryStats EstimateWithCache(NodeId s, NodeId t, Stream* s_cache,
                                       Stream* t_cache) = 0;
  /// Iterate depth a landmark stream is warmed to, before the session's
  /// per-stream cap.
  virtual std::uint32_t WarmDepth() const = 0;

  /// Builds and pins the landmark's stream to WarmDepth().
  void WarmLandmark(NodeId lm) override;

  ErOptions options_;
  double lambda_;
  TransitionOperatorT<WP> op_;
  std::atomic<std::uint64_t> incremental_rebinds_{0};

 private:
  /// A session stream's depth cap splits the session budget across
  /// this many streams, so that many full-depth streams stay resident
  /// before the LRU starts evicting.
  static constexpr std::size_t kSessionStreams = 8;
  std::uint32_t SessionDepthCap() const;
};

/// The standalone SMM competitor: runs Alg. 2 for ℓ_b = ℓ iterations
/// (refined ℓ of Eq. 6 by default, Peng et al.'s Eq. 5 with
/// options.use_peng_ell — the Fig. 11 comparison; or a fixed count with
/// options.smm_iterations, which is how the paper builds ground truth).
template <WeightPolicy WP>
class SmmEstimatorT : public SmmStreamEstimatorT<WP> {
 public:
  using GraphT = typename WP::GraphT;

  explicit SmmEstimatorT(const GraphT& graph, ErOptions options = {})
      : SmmStreamEstimatorT<WP>(graph, options) {}
  // Stores a pointer to `graph`; a temporary would dangle.
  explicit SmmEstimatorT(GraphT&&, ErOptions = {}) = delete;

  std::string Name() const override {
    return std::string(WP::kNamePrefix) +
           (options_.use_peng_ell ? "SMM-PengEll" : "SMM");
  }
  std::unique_ptr<ErEstimator> CloneForBatch() const override {
    ErOptions opt = options_;
    opt.lambda = lambda_;  // clones never re-run Lanczos
    return std::make_unique<SmmEstimatorT<WP>>(*graph_, opt);
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
  /// A PengEll-budgeted query's depth (the pair-independent bound; the
  /// refined per-pair ℓ never exceeds it), or the fixed iteration count.
  std::uint32_t WarmDepth() const override;
};

/// The two stacks, by their historical names.
using SmmIterator = SmmIteratorT<UnitWeight>;
using SmmEstimator = SmmEstimatorT<UnitWeight>;
using SmmSourceCache = SmmSourceCacheT<UnitWeight>;
using WeightedSmmIterator = SmmIteratorT<EdgeWeight>;
using WeightedSmmEstimator = SmmEstimatorT<EdgeWeight>;
using WeightedSmmSourceCache = SmmSourceCacheT<EdgeWeight>;

extern template class SmmSourceCacheT<UnitWeight>;
extern template class SmmSourceCacheT<EdgeWeight>;
extern template class SmmIteratorT<UnitWeight>;
extern template class SmmIteratorT<EdgeWeight>;
extern template class SmmStreamEstimatorT<UnitWeight>;
extern template class SmmStreamEstimatorT<EdgeWeight>;
extern template class SmmEstimatorT<UnitWeight>;
extern template class SmmEstimatorT<EdgeWeight>;

}  // namespace geer

#endif  // GEER_CORE_SMM_H_
