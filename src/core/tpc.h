// TPC baseline [Peng et al., KDD'21]: the collision refinement of TP.
// Each length-i probability in Eq. (4) is expressed through two
// half-length walk populations using reversibility
// (p_b(v,x) = w(x) p_b(x,v)/w(v) with a = ⌈i/2⌉, b = ⌊i/2⌋, a + b = i):
//
//   p_i(x,y)/w(y) = Σ_v p_a(x,v) · p_b(y,v) / w(v),
//
// estimated by the collision statistic Σ_v cntA(v)·cntB(v)/w(v) / N².
// The per-length sample count is 40000·(ℓ√(ℓβ_i)/ε + ℓ³β_i^{3/2}/ε²)
// where β_i ≥ max{Σ_v p_i(s,v)²/w(v), Σ_v p_i(t,v)²/w(v)} is unknown in
// practice (paper §2.3.2); we use the documented heuristic
//   β_i = max(1/(2W), 2^{-i}·max(1/w(s), 1/w(t)))
// which interpolates the i=0 value toward the stationary limit 1/(2W),
// and options.tpc_scale rescales the constant. With heuristic β the
// ε-guarantee is forfeited — exactly the caveat the paper states.
//
// Perf + batching: every walk is content-addressed — walk k of the
// (source, side) population steps through its own RNG stream seeded
// from (seed, source, side, k) — so a population's first n endpoints at
// length L are a pure function of (seed, source, side, n, L), never of
// which query (or thread) asked first. Walks are EXTENDED as the
// half-length grows (a query costs O(Σ_i η_i) steps, not O(Σ_i η_i·i)),
// and a query group sharing an endpoint on EITHER side additionally
// shares that key's A/B populations: the group advances in lockstep
// over i, each query colliding its own other-side populations against
// the shared prefix it would have simulated serially. The cross
// collision always pairs A of the smaller endpoint with B of the
// larger, so Estimate(s, t) ≡ Estimate(t, s) bitwise. The A and B sides
// stay mutually independent, which is all the collision statistic's
// unbiasedness needs. Weight-generic over graph/weight_policy.h.
//
// Sessions: the same group code and the same population type run with
// or without a session cache. With a session on, populations live in
// the cache and record each walk's endpoint at every length, so a later
// batch collides any prefix without re-simulating; with none, the group
// owns its populations and overwrites each walk's endpoint in place,
// keeping O(η) state.

#ifndef GEER_CORE_TPC_H_
#define GEER_CORE_TPC_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/estimator.h"
#include "core/node_state_cache.h"
#include "core/options.h"
#include "graph/weight_policy.h"
#include "rw/rng.h"
#include "rw/walker_policy.h"
#include "util/visit_filter.h"

namespace geer {

/// TPC's walk population for one (node, side). Walk k steps through
/// its own stream Rng(MixSeed(stream_base, k)), so every endpoint is a
/// pure function of (seed, node, side, k, length), never of which query
/// (or thread) asked first. The storage mode is fixed at creation:
///  - recording (session populations): ends_at[len][k] is walk k's
///    endpoint at length len (len 0 = node). Row len holds exactly the
///    walks whose recorded length is ≥ len, always a prefix of the walk
///    index space, so a later batch collides any (length, walk-count)
///    prefix without re-simulating, and retained populations never
///    change answer values.
///  - in place (group-local populations when no session is on): the one
///    row ends_at[0] holds each walk's endpoint at its current length,
///    overwritten as the walk extends — O(η) state.
struct TpcPopulation {
  NodeId node = 0;
  bool record = false;  ///< storage mode, fixed at creation
  std::uint64_t stream_base = 0;
  std::vector<std::vector<NodeId>> ends_at;
  std::vector<Rng> rngs;               ///< live stream per walk
  std::vector<std::uint32_t> cur_len;  ///< current length per walk
  /// Recording only: every node the walks stepped FROM (the source
  /// included; live endpoints excluded — their rows feed future
  /// extensions, which read the new graph either way). On an epoch swap
  /// the population stays valid iff this set is disjoint from
  /// epoch.touched.
  VisitFilter visits;

  /// The first n endpoints at `length`; the caller advanced walks
  /// [0, n) to it.
  std::span<const NodeId> Ends(std::uint32_t length, std::uint64_t n) const;

  std::size_t ApproxBytes() const;
  bool DependsOn(std::span<const NodeId> touched) const {
    return visits.Intersects(touched);
  }
};

/// Session key of a TPC population: side 0 = A, 1 = B.
struct TpcPopulationKey {
  NodeId node = 0;
  std::uint32_t side = 0;
  bool operator==(const TpcPopulationKey&) const = default;
};
struct TpcPopulationKeyHash {
  std::size_t operator()(const TpcPopulationKey& key) const {
    return std::hash<std::uint64_t>{}(
        (static_cast<std::uint64_t>(key.node) << 1) | key.side);
  }
};

template <WeightPolicy WP>
class TpcEstimatorT
    : public SessionCachedEstimator<typename WP::GraphT, TpcPopulationKey,
                                    TpcPopulation, TpcPopulationKeyHash> {
 public:
  using GraphT = typename WP::GraphT;

  explicit TpcEstimatorT(const GraphT& graph, ErOptions options = {});
  // Stores a pointer to `graph`; a temporary would dangle.
  explicit TpcEstimatorT(GraphT&&, ErOptions = {}) = delete;

  std::string Name() const override {
    return std::string(WP::kNamePrefix) + "TPC";
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
    return std::make_unique<TpcEstimatorT<WP>>(*graph_, opt);
  }

  /// Dynamic-graph hook: repoints at the new snapshot, rebuilds the walk
  /// sampler, and re-derives λ (through epoch.spectral when attached —
  /// warm-started when epoch.incremental). Session populations are
  /// invalidated SELECTIVELY via their recorded visit sets: populations
  /// are prefix-pure (recorded snapshots stay valid at any (length,
  /// walk-count) prefix even when λ changes the schedule — the schedule
  /// only decides how far queries read or extend), so only populations
  /// whose walks stepped from a touched row are evicted. A resize still
  /// flushes wholesale.
  using ErEstimator::RebindGraph;
  bool RebindGraph(const GraphT& graph, const GraphEpoch& epoch) override;

  std::uint64_t IncrementalRebinds() const override {
    return incremental_rebinds_.load(std::memory_order_relaxed);
  }

  double lambda() const { return lambda_; }

  /// The heuristic β_i used for the sample-count formula.
  double BetaHeuristic(std::uint32_t i, NodeId s, NodeId t) const;

  /// Walks per population for length i (after scaling).
  std::uint64_t WalksForLength(std::uint32_t i, std::uint32_t ell, NodeId s,
                               NodeId t) const;

 private:
  using Base = SessionCachedEstimator<GraphT, TpcPopulationKey,
                                      TpcPopulation, TpcPopulationKeyHash>;
  using Base::graph_;
  using Base::session_;

  /// Brings walks [0, n_walks) of `pop` to at least `length` (spawning
  /// missing walks, extending short ones from their own streams, and
  /// snapshotting every length when `pop` records), charging the work to
  /// `stats`. Walks beyond n_walks and recorded cells cost nothing.
  void Advance(TpcPopulation* pop, std::uint32_t length,
               std::uint64_t n_walks, QueryStats* stats);

  /// Collision statistic Σ_v cntA(v)·cntB(v)/w(v) / n² between two
  /// independent endpoint prefixes (spans of equal length n).
  double Collide(std::span<const NodeId> a_ends,
                 std::span<const NodeId> b_ends);

  /// Answers a run of queries sharing endpoint `key` (on either side) in
  /// lockstep over the length i, sharing the key-side A/B populations.
  /// The cross collision pairs A of the smaller endpoint with B of the
  /// larger, so the value is independent of which endpoint is the key
  /// and Estimate(s, t) ≡ Estimate(t, s) bitwise. Shared-side cost is
  /// charged to the first live query of the run.
  void EstimateKeyGroup(NodeId key, std::span<const QueryPair> queries,
                        std::span<QueryStats> stats);

  std::uint64_t StreamBase(NodeId node, std::uint64_t side) const;
  /// The population for (node, side) (side: 0 = A at length ⌈i/2⌉,
  /// 1 = B at ⌊i/2⌋): the session's, created empty and recording on a
  /// miss, or with no session a new in-place one appended to `local`,
  /// whose capacity must already hold it.
  TpcPopulation* PopulationFor(NodeId node, std::uint32_t side,
                               std::vector<TpcPopulation>* local);

  ErOptions options_;
  double lambda_;
  WalkerFor<WP> walker_;
  // Scratch: endpoint histograms with touched-lists, reused across calls.
  std::vector<std::uint32_t> count_a_;
  std::vector<std::uint32_t> count_b_;
  std::vector<NodeId> touched_;
  // RebindGraph calls that reused previous-epoch state (warm λ and/or
  // selective session retention). Atomic: serve workers may read the
  // metric while another thread rebinds.
  std::atomic<std::uint64_t> incremental_rebinds_{0};
};

/// The two stacks, by their historical names.
using TpcEstimator = TpcEstimatorT<UnitWeight>;
using WeightedTpcEstimator = TpcEstimatorT<EdgeWeight>;

extern template class TpcEstimatorT<UnitWeight>;
extern template class TpcEstimatorT<EdgeWeight>;

}  // namespace geer

#endif  // GEER_CORE_TPC_H_
