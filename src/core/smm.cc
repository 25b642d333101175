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
                                             ErOptions options,
                                             std::shared_ptr<const Core> core)
    : Base(graph),
      options_(options),
      core_(std::move(core)),
      op_(walk_graph()) {
  ValidateOptions(options_);
  lambda_ = options_.lambda.has_value()
                ? *options_.lambda
                : ComputeSpectralBoundsT<WP>(graph).lambda;
}

template <WeightPolicy WP>
std::vector<NodeId> SmmStreamEstimatorT<WP>::WalkLandmarks() const {
  if (core_ == nullptr) return landmarks_;
  std::vector<NodeId> mapped;
  mapped.reserve(landmarks_.size());
  for (const NodeId lm : landmarks_) mapped.push_back(core_->CoreId(lm));
  return mapped;
}

template <WeightPolicy WP>
void SmmStreamEstimatorT<WP>::EnableSessionCache(
    std::size_t budget_bytes, std::span<const NodeId> landmarks) {
  for (const NodeId lm : landmarks) GEER_CHECK(lm < graph_->NumNodes());
  landmarks_.assign(landmarks.begin(), landmarks.end());
  session_ = std::make_unique<typename Base::SessionCache>(
      budget_bytes, WalkLandmarks(), walk_graph().NumNodes());
}

template <WeightPolicy WP>
void SmmStreamEstimatorT<WP>::Rebind(const GraphT& graph,
                                     const GraphEpoch& epoch,
                                     std::shared_ptr<const Core> core) {
  // Same membership iff both walk G itself, or both cores hold the same
  // nodes — then C's ids did not move.
  const bool same_ids =
      (core_ == nullptr && core == nullptr) ||
      (core_ != nullptr && core != nullptr &&
       core_->CoreNodes() == core->CoreNodes());
  graph_ = &graph;
  core_ = std::move(core);
  op_ = TransitionOperatorT<WP>(walk_graph());  // member address is stable,
                                                // so retained streams keep
                                                // their op_
  bool warm = false;
  lambda_ = RebindLambda<WP>(graph, epoch, &warm);
  if (warm) incremental_rebinds_.fetch_add(1, std::memory_order_relaxed);
  if (session_ == nullptr) return;
  if (core_ == nullptr && same_ids) {
    session_->Rebind(epoch);
  } else if (!same_ids || epoch.resized) {
    session_->Reset(WalkLandmarks(), walk_graph().NumNodes());
  } else {
    // A C row changes only with an edge between two core nodes, and both
    // are touched; touched tree nodes change no stream.
    std::vector<NodeId> touched;
    for (const NodeId v : epoch.touched) {
      if (core_->InCore(v)) touched.push_back(core_->CoreId(v));
    }
    GraphEpoch on_core = epoch;
    on_core.touched = touched;
    session_->Rebind(on_core);
  }
}

template <WeightPolicy WP>
QueryStats SmmStreamEstimatorT<WP>::EstimateWithStats(NodeId s, NodeId t) {
  GEER_CHECK(s < graph_->NumNodes());
  GEER_CHECK(t < graph_->NumNodes());
  // Canonical endpoint order with a fixed accumulation order makes
  // Estimate(s, t) ≡ Estimate(t, s) bitwise — the symmetry the
  // node-keyed batch caches rely on. The order is taken on the core pair.
  const PendantForest::Reduction r = ReducePair(s, t);
  const NodeId u = std::min(r.a, r.b);
  const NodeId v = std::max(r.a, r.b);
  QueryStats stats = EstimateWithCache(u, v, nullptr, nullptr);
  stats.value += r.offset;
  return stats;
}

template <WeightPolicy WP>
std::uint32_t SmmStreamEstimatorT<WP>::SessionDepthCap() const {
  return Stream::DepthCapFor(walk_graph().NumNodes(),
                             session_->budget_bytes() /
                                 kSessionStreams);
}

template <WeightPolicy WP>
std::size_t SmmStreamEstimatorT<WP>::EstimateBatch(
    std::span<const QueryPair> queries, std::span<QueryStats> stats,
    const BatchContext& context) {
  GEER_CHECK(stats.size() >= queries.size());
  const GraphT& graph = walk_graph();
  // The session when enabled; otherwise a batch-local pool whose streams
  // keep the full default depth (max_cached = 0).
  using Pool = typename Base::SessionCache;
  std::optional<Pool> local;
  Pool* pool = session_.get();
  std::uint32_t depth_cap = 0;
  if (pool == nullptr) {
    constexpr std::size_t kOneShotPoolBytes = 256ull << 20;
    local.emplace(kOneShotPoolBytes, std::span<const NodeId>{},
                  graph.NumNodes());
    pool = &*local;
  } else {
    depth_cap = SessionDepthCap();
  }
  // Admission: a cached stream materializes every iterate densely, which
  // only pays off when the stream is read more than once. Create one for
  // a node that recurs in this batch or is a landmark; a batch-singleton
  // endpoint reads a stream another batch left resident (Find) but
  // iterates privately in place otherwise — both paths run the identical
  // ApplyAuto sequence, so the answer never moves. Uses are counted on
  // the reduced pairs: a tree endpoint reads its root's stream.
  std::vector<PendantForest::Reduction> reduced(queries.size());
  std::unordered_map<NodeId, std::uint32_t> uses;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const QueryPair& q = queries[i];
    GEER_CHECK(q.s < graph_->NumNodes());
    GEER_CHECK(q.t < graph_->NumNodes());
    reduced[i] = ReducePair(q.s, q.t);
    if (reduced[i].a == reduced[i].b) continue;
    ++uses[reduced[i].a];
    ++uses[reduced[i].b];
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
    const PendantForest::Reduction& r = reduced[i];
    if (r.a == r.b) {  // s = t, or both hang off one tree: no walks
      stats[i] = QueryStats{};
      stats[i].value = r.offset;
      context.ReportAnswered();
      continue;
    }
    const NodeId u = std::min(r.a, r.b);
    const NodeId v = std::max(r.a, r.b);
    Stream* u_cache = stream_for(u);
    Stream* v_cache = stream_for(v);
    stats[i] = EstimateWithCache(u, v, u_cache, v_cache);
    stats[i].value += r.offset;
    pool->Sweep();
    context.ReportAnswered();
  }
  return queries.size();
}

template <WeightPolicy WP>
QueryStats SmmEstimatorT<WP>::EstimateWithCache(NodeId s, NodeId t,
                                                Stream* s_cache,
                                                Stream* t_cache) {
  QueryStats stats;
  if (s == t) return stats;
  const GraphT& graph = this->walk_graph();
  const double ws = WP::NodeWeight(graph, s);
  const double wt = WP::NodeWeight(graph, t);
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
  SmmIteratorT<WP> iter(graph, &op_, s, t, s_cache, t_cache);
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
