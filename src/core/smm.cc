#include "core/smm.h"

#include <algorithm>
#include <optional>
#include <unordered_map>

#include "core/ell.h"
#include "core/spectral_epoch.h"
#include "util/check.h"

namespace geer {

template <WeightPolicy WP>
std::uint32_t SmmSourceCacheT<WP>::DepthCapFor(NodeId num_nodes,
                                               std::uint64_t bytes) {
  const std::uint64_t per_iterate =
      static_cast<std::uint64_t>(num_nodes) * sizeof(double);
  const std::uint64_t derived =
      bytes / std::max<std::uint64_t>(per_iterate, 1);
  return static_cast<std::uint32_t>(
      std::clamp<std::uint64_t>(derived, 2, 1u << 20));
}

template <WeightPolicy WP>
SmmSourceCacheT<WP>::SmmSourceCacheT(const GraphT& graph,
                                     TransitionOperatorT<WP>* op,
                                     NodeId source, std::uint32_t max_cached)
    : source_(source), op_(op) {
  GEER_CHECK(source < graph.NumNodes());
  // ~256 MB of dense iterates by default: deep enough for every ℓ_b that
  // arises on graphs small enough for the stream to be cheap, and a hard
  // bound on the ones where it would not be.
  constexpr std::uint64_t kDefaultStreamBytes = 256ull << 20;
  max_cached_ = max_cached > 0
                    ? max_cached
                    : DepthCapFor(graph.NumNodes(), kDefaultStreamBytes);
  live_.InitOneHot(source, graph);
  iterates_.push_back(live_.values);
  support_costs_.push_back(live_.support_degree_sum);
  top_twos_.push_back(live_.top_two);
  dep_mark_.assign(graph.NumNodes(), 0);
  AbsorbSupport();
}

template <WeightPolicy WP>
void SmmSourceCacheT<WP>::AbsorbSupport() {
  if (live_.dense) {
    dep_dense_ = true;  // support tracking stopped; dependency unknown
    return;
  }
  for (const NodeId v : live_.support) dep_mark_[v] = 1;
}

template <WeightPolicy WP>
bool SmmSourceCacheT<WP>::DependsOn(std::span<const NodeId> touched) const {
  if (dep_dense_) return true;
  for (const NodeId v : touched) {
    if (v < dep_mark_.size() && dep_mark_[v] != 0) return true;
  }
  return false;
}

template <WeightPolicy WP>
void SmmSourceCacheT<WP>::EnsureIterations(std::uint32_t j,
                                           std::uint64_t* fresh_ops) {
  const std::uint32_t target = std::min(j, max_cached_);
  while (iterates_.size() <= target) {
    *fresh_ops += op_->ApplyAuto(&live_);
    iterates_.push_back(live_.values);
    support_costs_.push_back(live_.support_degree_sum);
    top_twos_.push_back(live_.top_two);
    AbsorbSupport();
  }
}

template <WeightPolicy WP>
SmmIteratorT<WP>::SmmIteratorT(const GraphT& graph,
                               TransitionOperatorT<WP>* op, NodeId s,
                               NodeId t, SmmSourceCacheT<WP>* s_cache,
                               SmmSourceCacheT<WP>* t_cache)
    : graph_(&graph),
      op_(op),
      s_(s),
      t_(t),
      s_cache_(s_cache),
      t_cache_(t_cache) {
  GEER_CHECK(s < graph.NumNodes());
  GEER_CHECK(t < graph.NumNodes());
  inv_ws_ = 1.0 / WP::NodeWeight(graph, s);
  inv_wt_ = 1.0 / WP::NodeWeight(graph, t);
  if (s_cache_ != nullptr) {
    GEER_CHECK_EQ(s_cache_->source(), s);
  } else {
    s_vec_.InitOneHot(s, graph);
  }
  if (t_cache_ != nullptr) {
    GEER_CHECK_EQ(t_cache_->source(), t);
  } else {
    t_vec_.InitOneHot(t, graph);
  }
  // i = 0 term of Eq. (4): p_0(s,s)/w(s) + p_0(t,t)/w(t)
  //                        − p_0(s,t)/w(s) − p_0(t,s)/w(t).
  const Vector& sv = svec();
  const Vector& tv = tvec();
  rb_ = sv[s_] * inv_ws_ + tv[t_] * inv_wt_ -
        sv[t_] * inv_ws_ - tv[s_] * inv_wt_;
}

template <WeightPolicy WP>
void SmmIteratorT<WP>::AdvanceSide(SmmSourceCacheT<WP>* cache,
                                   bool& spilled, SparseVector& vec) {
  const bool reads_cache = cache != nullptr && !spilled;
  if (reads_cache && iterations_ + 1 > cache->max_cached_iterations()) {
    // Past the cache's memory cap: continue on a private copy of the
    // boundary state. The copy is the exact live state a serial query
    // would hold at this depth, so the remaining iteration stays
    // bit-identical — it just stops being shared.
    vec = cache->BoundaryState();
    spilled = true;
  }
  if (cache != nullptr && !spilled) {
    // Only freshly materialized cache steps cost anything — the point of
    // node-keyed sharing. The cached vector is produced by the same
    // ApplyAuto sequence the uncached path runs, so rb stays
    // bit-identical.
    std::uint64_t fresh = 0;
    cache->EnsureIterations(iterations_ + 1, &fresh);
    spmv_ops_ += fresh;
  } else {
    spmv_ops_ += op_->ApplyAuto(&vec);
  }
}

template <WeightPolicy WP>
void SmmIteratorT<WP>::Advance() {
  AdvanceSide(s_cache_, s_spilled_, s_vec_);
  AdvanceSide(t_cache_, t_spilled_, t_vec_);
  ++iterations_;
  const Vector& sv = svec();
  const Vector& tv = tvec();
  rb_ += sv[s_] * inv_ws_ + tv[t_] * inv_wt_ -
         sv[t_] * inv_ws_ - tv[s_] * inv_wt_;
}

template <WeightPolicy WP>
SmmStreamEstimatorT<WP>::SmmStreamEstimatorT(const GraphT& graph,
                                             ErOptions options)
    : Base(graph),
      options_(options),
      op_(graph) {
  ValidateOptions(options_);
  lambda_ = options_.lambda.has_value()
                ? *options_.lambda
                : ComputeSpectralBoundsT<WP>(graph).lambda;
}

template <WeightPolicy WP>
bool SmmStreamEstimatorT<WP>::RebindGraph(const GraphT& graph,
                                          const GraphEpoch& epoch) {
  graph_ = &graph;
  op_ = TransitionOperatorT<WP>(graph);  // member address is stable, so
                                         // retained streams keep their op_
  bool warm = false;
  lambda_ = RebindLambda<WP>(graph, epoch, &warm);
  if (warm) incremental_rebinds_.fetch_add(1, std::memory_order_relaxed);
  if (session_ != nullptr) session_->Rebind(epoch);
  return true;
}

template <WeightPolicy WP>
QueryStats SmmStreamEstimatorT<WP>::EstimateWithStats(NodeId s, NodeId t) {
  GEER_CHECK(s < graph_->NumNodes());
  GEER_CHECK(t < graph_->NumNodes());
  // Canonical endpoint order with a fixed accumulation order makes
  // Estimate(s, t) ≡ Estimate(t, s) bitwise — the symmetry the
  // node-keyed batch caches rely on.
  const NodeId u = std::min(s, t);
  const NodeId v = std::max(s, t);
  return EstimateWithCache(u, v, nullptr, nullptr);
}

template <WeightPolicy WP>
std::uint32_t SmmStreamEstimatorT<WP>::SessionDepthCap() const {
  return Stream::DepthCapFor(graph_->NumNodes(),
                             session_->budget_bytes() /
                                 kSessionStreams);
}

template <WeightPolicy WP>
std::size_t SmmStreamEstimatorT<WP>::EstimateBatch(
    std::span<const QueryPair> queries, std::span<QueryStats> stats,
    const BatchContext& context) {
  GEER_CHECK(stats.size() >= queries.size());
  const GraphT& graph = *graph_;
  // The session when enabled; otherwise a batch-local pool whose streams
  // keep the full default depth (max_cached = 0).
  using Pool = typename Base::SessionCache;
  std::optional<Pool> local;
  Pool* pool = session_.get();
  std::uint32_t depth_cap = 0;
  if (pool == nullptr) {
    constexpr std::size_t kOneShotPoolBytes = 256ull << 20;
    local.emplace(kOneShotPoolBytes);
    pool = &*local;
  } else {
    depth_cap = SessionDepthCap();
  }
  // Admission: a cached stream materializes every iterate densely, which
  // only pays off when the stream is read more than once. Create one for
  // a node that recurs in this batch or is a landmark; a batch-singleton
  // endpoint reads a stream another batch left resident (Find) but
  // iterates privately in place otherwise — both paths run the identical
  // ApplyAuto sequence, so the answer never moves.
  std::unordered_map<NodeId, std::uint32_t> uses;
  for (const QueryPair& q : queries) {
    if (q.s == q.t) continue;
    ++uses[q.s];
    ++uses[q.t];
  }
  const auto stream_for = [&](NodeId node) -> Stream* {
    if (pool->IsLandmark(node) || uses[node] > 1) {
      return pool->GetOrCreate(node, [&] {
        return Stream(graph, &op_, node, depth_cap);
      });
    }
    return pool->Find(node);
  };
  for (std::size_t i = 0; i < queries.size(); ++i) {
    if (context.Cancelled()) return i;
    const QueryPair& q = queries[i];
    GEER_CHECK(q.s < graph.NumNodes());
    GEER_CHECK(q.t < graph.NumNodes());
    if (q.s == q.t) {
      stats[i] = QueryStats{};
      context.ReportAnswered();
      continue;
    }
    const NodeId u = std::min(q.s, q.t);
    const NodeId v = std::max(q.s, q.t);
    Stream* u_cache = stream_for(u);
    Stream* v_cache = stream_for(v);
    stats[i] = EstimateWithCache(u, v, u_cache, v_cache);
    pool->Sweep();
    context.ReportAnswered();
  }
  return queries.size();
}

template <WeightPolicy WP>
void SmmStreamEstimatorT<WP>::WarmLandmark(NodeId lm) {
  const std::uint32_t depth_cap = SessionDepthCap();
  Stream* stream = session_->GetOrCreate(lm, [&] {
    return Stream(*graph_, &op_, lm, depth_cap);
  });
  // Deeper demands spill past the cap as usual; extra depth is never
  // read, so values are unaffected either way.
  std::uint64_t fresh = 0;
  stream->EnsureIterations(std::min(WarmDepth(), depth_cap), &fresh);
}

template <WeightPolicy WP>
std::uint32_t SmmEstimatorT<WP>::WarmDepth() const {
  return options_.smm_iterations > 0
             ? options_.smm_iterations
             : PengEll(options_.epsilon, lambda_, options_.max_ell);
}

template <WeightPolicy WP>
QueryStats SmmEstimatorT<WP>::EstimateWithCache(NodeId s, NodeId t,
                                                Stream* s_cache,
                                                Stream* t_cache) {
  QueryStats stats;
  if (s == t) return stats;
  const double ws = WP::NodeWeight(*graph_, s);
  const double wt = WP::NodeWeight(*graph_, t);
  std::uint32_t ell;
  if (options_.smm_iterations > 0) {
    ell = options_.smm_iterations;
  } else if (options_.use_peng_ell) {
    ell = PengEll(options_.epsilon, lambda_, options_.max_ell);
    stats.truncated = EllWasTruncated(options_.epsilon, lambda_, 1, 1,
                                      options_.max_ell, /*use_peng=*/true);
  } else {
    ell = RefinedEllWeighted(options_.epsilon, lambda_, ws, wt,
                             options_.max_ell);
    stats.truncated = EllWasTruncated(options_.epsilon, lambda_, ws, wt,
                                      options_.max_ell, /*use_peng=*/false);
  }
  SmmIteratorT<WP> iter(*graph_, &op_, s, t, s_cache, t_cache);
  for (std::uint32_t i = 0; i < ell; ++i) iter.Advance();
  stats.value = iter.rb();
  stats.ell = ell;
  stats.ell_b = iter.iterations();
  stats.spmv_ops = iter.spmv_ops();
  return stats;
}

template class SmmSourceCacheT<UnitWeight>;
template class SmmSourceCacheT<EdgeWeight>;
template class SmmIteratorT<UnitWeight>;
template class SmmIteratorT<EdgeWeight>;
template class SmmStreamEstimatorT<UnitWeight>;
template class SmmStreamEstimatorT<EdgeWeight>;
template class SmmEstimatorT<UnitWeight>;
template class SmmEstimatorT<EdgeWeight>;

}  // namespace geer
