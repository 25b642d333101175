// TP baseline [Peng et al., KDD'21]: truncated-walk Monte Carlo on the
// Eq. (4) expansion with the generic ℓ of Eq. (5). For every length
// i ∈ [1, ℓ] it draws 40 ℓ² ln(8ℓ/δ)/ε² walks from s and from t and uses
// the end-node frequencies as estimates of p_i(s,·), p_i(t,·). The sheer
// walk count makes it impractical at small ε — the inefficiency AMC/GEER
// fix. Weight-generic: weighted walks step through the alias sampler and
// every 1/d(·) becomes 1/w(·). options.tp_scale linearly rescales the
// sample constant so the harness can extrapolate timings (see
// EXPERIMENTS.md).
//
// Batching: each endpoint's walks come from a content-addressed stream
// seeded by (seed, node) — not (seed, s, t) — and the walk schedule
// (ℓ and the per-length count η depend only on ε, δ, λ) is
// query-independent. A query's value is therefore a pure function of
// its endpoint SET: per-length terms are accumulated in canonical
// (min, max) order, so Estimate(s, t) ≡ Estimate(t, s) bitwise. A query
// group keyed by EITHER shared endpoint simulates the key's walks ONCE
// per length, counting endpoint hits for every query's other side in
// the same pass — the per-query walk cost halves and the saved half is
// shared by the whole group. EstimateBatch does exactly that; serial
// Estimate is the one-query instance of the same code path, so batched
// values are bit-identical to serial ones.
//
// Sessions: the same group code runs with or without a session cache.
// The session only decides where a side's per-length counts come from:
// a retained population's endpoint row (no walks), a fresh simulation
// recorded into a new population (a miss), or, with no session, fresh
// walks counted as they end — through per-node query chains on the key
// side and two counters on the other side. The dense histogram and the
// visit filter are paid only by a population being recorded.

#ifndef GEER_CORE_TP_H_
#define GEER_CORE_TP_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/estimator.h"
#include "core/node_state_cache.h"
#include "core/options.h"
#include "graph/weight_policy.h"
#include "rw/walker_policy.h"
#include "util/visit_filter.h"

namespace geer {

/// TP's session payload: one node's walk population, materialized as
/// one endpoint histogram per length. A node's population is a pure
/// function of (seed, node, ℓ, η) — the per-source stream law — so it
/// serves BOTH roles: the shared key side of a group and the per-query
/// other side. A session hit answers every count lookup (p̂_i(v, s),
/// p̂_i(v, t)) from the histogram without simulating a single walk;
/// values stay bit-identical because the counts are exactly what the
/// serial simulation would produce.
struct TpPopulation {
  std::uint32_t ell = 0;  ///< lengths materialized: 1..ell
  std::uint64_t eta = 0;  ///< walks per length
  /// hist[i-1]: (endpoint, count) pairs of the η length-i walks, in
  /// first-visit order (deterministic; NOT sorted — readers scan it).
  std::vector<std::vector<std::pair<NodeId, std::uint32_t>>> hist;
  /// Every node the walks stepped FROM (start node included; final
  /// endpoints excluded — their rows never influenced a step). On an
  /// epoch swap the population stays valid iff this set is disjoint
  /// from epoch.touched: the stream is content-addressed by
  /// (seed, node), so untouched rows replay bit-identically.
  VisitFilter visits;

  /// An empty population to record the (ℓ, η) schedule's walks into.
  static TpPopulation Recorder(std::uint32_t ell, std::uint64_t eta,
                               NodeId num_nodes);

  std::size_t ApproxBytes() const;
  bool DependsOn(std::span<const NodeId> touched) const {
    return visits.Intersects(touched);
  }
};

template <WeightPolicy WP>
class TpEstimatorT
    : public SessionCachedEstimator<typename WP::GraphT, NodeId,
                                    TpPopulation> {
 public:
  using GraphT = typename WP::GraphT;

  explicit TpEstimatorT(const GraphT& graph, ErOptions options = {});
  // Stores a pointer to `graph`; a temporary would dangle.
  explicit TpEstimatorT(GraphT&&, ErOptions = {}) = delete;

  std::string Name() const override {
    return std::string(WP::kNamePrefix) + "TP";
  }
  QueryStats EstimateWithStats(NodeId s, NodeId t) override;

  /// Shares the key-side walk populations across consecutive queries
  /// with a common endpoint — on EITHER side (see the header comment).
  std::size_t EstimateBatch(std::span<const QueryPair> queries,
                            std::span<QueryStats> stats,
                            const BatchContext& context = {}) override;
  BatchPlan PlanBatch(std::span<const QueryPair> queries) const override {
    return BatchPlan::GroupByEndpoint(queries);
  }
  std::unique_ptr<ErEstimator> CloneForBatch() const override {
    ErOptions opt = options_;
    opt.lambda = lambda_;  // clones never re-run Lanczos
    return std::make_unique<TpEstimatorT<WP>>(*graph_, opt);
  }

  /// Dynamic-graph hook: repoints at the new snapshot, rebuilds the walk
  /// sampler, and re-derives λ (through epoch.spectral when attached —
  /// warm-started when epoch.incremental). Session populations are
  /// invalidated SELECTIVELY: each records the rows its walks stepped
  /// from (VisitFilter), and only populations whose visit set intersects
  /// epoch.touched are evicted — bit-identical retention, because the
  /// per-node walk streams are content-addressed by (seed, node) and an
  /// untouched row replays the exact same steps. A λ change that alters
  /// the walk schedule (ℓ, η) or a resize still flushes wholesale.
  using ErEstimator::RebindGraph;
  bool RebindGraph(const GraphT& graph, const GraphEpoch& epoch) override;

  std::uint64_t IncrementalRebinds() const override {
    return incremental_rebinds_.load(std::memory_order_relaxed);
  }

  double lambda() const { return lambda_; }

  /// Walks per length per endpoint at the current options (after scaling).
  std::uint64_t WalksPerLength(std::uint32_t ell) const;

 private:
  using Base = SessionCachedEstimator<GraphT, NodeId, TpPopulation>;
  using Base::graph_;
  using Base::session_;

  /// Answers a run of queries sharing endpoint `key` (on either side) in
  /// lockstep over the walk length i, simulating the key's η walks once
  /// per length. Per-length terms accumulate in canonical (min, max)
  /// endpoint order, so the value is independent of which endpoint is
  /// the key. Shared-side cost is charged to the first live query of the
  /// run. One path with or without a session: the session only decides
  /// where each side's counts come from (see CountEnds).
  void EstimateKeyGroup(NodeId key, std::span<const QueryPair> queries,
                        std::span<QueryStats> stats);
  /// Feeds `count(endpoint, multiplicity)` the endpoints of `node`'s η
  /// length-i walks: a retained population's row is read back for free;
  /// otherwise the walks are simulated from `rng` (charged to `cost`)
  /// and either recorded into `record` and read back from its new row,
  /// or, with no recorder, counted one walk at a time.
  template <typename CountFn>
  void CountEnds(NodeId node, std::uint32_t i, std::uint64_t eta, Rng& rng,
                 const TpPopulation* retained, TpPopulation* record,
                 QueryStats* cost, CountFn&& count);
  /// Simulates the η length-i walks of `node` through the dense
  /// histogram scratch (sized to the bound graph on first use) and
  /// appends the compacted row (and the visited rows) to `record`.
  void RecordLength(NodeId node, std::uint32_t i, std::uint64_t eta,
                    Rng& rng, TpPopulation* record);

  ErOptions options_;
  double lambda_;
  WalkerFor<WP> walker_;
  // Key-side counting scratch: per-node chain heads (1-based query
  // index) + per-query next links, reset via the touched list after
  // every group.
  std::vector<std::uint32_t> target_head_;
  std::vector<std::uint32_t> target_next_;
  std::vector<NodeId> target_touched_;
  // Recorder scratch: dense endpoint histogram with a touched list,
  // compacted into one population row per length.
  std::vector<std::uint32_t> hist_count_;
  std::vector<NodeId> hist_touched_;
  // RebindGraph calls that reused previous-epoch state (warm λ and/or
  // selective session retention). Atomic: serve workers may read the
  // metric while another thread rebinds.
  std::atomic<std::uint64_t> incremental_rebinds_{0};
};

/// The two stacks, by their historical names.
using TpEstimator = TpEstimatorT<UnitWeight>;
using WeightedTpEstimator = TpEstimatorT<EdgeWeight>;

extern template class TpEstimatorT<UnitWeight>;
extern template class TpEstimatorT<EdgeWeight>;

}  // namespace geer

#endif  // GEER_CORE_TP_H_
