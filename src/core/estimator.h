// The public query interface every ER algorithm implements, plus the
// per-query instrumentation the benchmark harness and the paper's
// cost-model analysis rely on, and the batch-query surface the engine in
// core/batch_engine.h drives.

#ifndef GEER_CORE_ESTIMATOR_H_
#define GEER_CORE_ESTIMATOR_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "util/lru_byte_cache.h"

namespace geer {

class Deadline;
class WeightedGraph;
template <typename T>
class EpochShared;
struct EpochSpectral;

/// Describes one published epoch of a dynamic graph (src/dyn/) for
/// ErEstimator::RebindGraph. `touched` must cover every vertex whose CSR
/// row differs from the graph the estimator is currently bound to —
/// callers that skip epochs pass the union of the skipped commits'
/// touched sets. Epoch numbers must be monotone per logical graph: the
/// shared-preprocessing estimators (EXACT/CG/RP) key their rebuilt state
/// on it so clones sharing a holder rebuild once per epoch, not once per
/// worker.
struct GraphEpoch {
  std::uint64_t epoch = 0;
  /// Sorted vertices whose rows changed (endpoints of changed edges).
  std::span<const NodeId> touched;
  /// True when the node count changed — dense per-node caches must then
  /// flush wholesale regardless of `touched`.
  bool resized = false;
  /// Precomputed λ = max(|λ₂|, |λ_n|) for the NEW graph. When absent,
  /// estimators that read λ re-run the Lanczos preprocessing themselves
  /// (deterministic, so every worker converges to the same value — just
  /// slower than computing it once per epoch).
  std::optional<double> lambda;
  /// Opt-in incremental maintenance: estimators may derive the new
  /// epoch's numerical state from the previous epoch's instead of
  /// rebuilding cold — warm-started Lanczos for λ, rank-k-updated
  /// Cholesky factors for EXACT. Answers may then drift from a freshly
  /// constructed estimator within the documented tolerances (README
  /// "Incremental epochs"); leave false for the strict bit-identity
  /// contract. Structurally exact incremental paths (CG's touched-row
  /// Jacobi refresh, TP/TPC visit-set retention) are always on — they
  /// are bit-identical by construction. Lifetime: the first rebinder of
  /// an incremental epoch diffs the PREVIOUS graph's CSR rows against
  /// the new ones, so the caller must keep the outgoing graph alive
  /// until RebindGraph returns (the serving tier does this by retaining
  /// the old snapshot until the swap completes).
  bool incremental = false;
  /// Optional caller-owned per-epoch spectral holder, shared across all
  /// clones rebound with this epoch (and across epochs by the caller —
  /// it carries the warm state). Estimators that read λ and find
  /// `lambda` absent compute it through this holder once per epoch:
  /// warm-started when `incremental`, cold (bit-identical to a fresh
  /// construction) otherwise. Null ⇒ each estimator re-runs Lanczos
  /// privately, as before.
  std::shared_ptr<EpochShared<EpochSpectral>> spectral;
};

/// A single PER query (s, t).
struct QueryPair {
  NodeId s = 0;
  NodeId t = 0;
};

/// Result and cost instrumentation for a single ε-approximate PER query.
struct QueryStats {
  double value = 0.0;            ///< the estimate r'(s, t)
  std::uint64_t walks = 0;       ///< random walks simulated
  std::uint64_t walk_steps = 0;  ///< total walk steps taken
  std::uint64_t spmv_ops = 0;    ///< arc traversals in SpMV iterations
  std::uint64_t solves = 0;      ///< Cholesky / CG columns solved
  std::uint32_t ell = 0;         ///< maximum walk length in effect
  std::uint32_t ell_b = 0;       ///< SMM iterations performed (SMM/GEER)
  std::uint64_t eta_star = 0;    ///< Hoeffding cap η* (AMC/GEER)
  int batches = 0;               ///< adaptive batches executed (AMC/GEER)
  bool early_stop = false;       ///< Bernstein rule fired before η* (AMC)
  bool truncated = false;        ///< hit a safety cap; estimate best-effort
};

/// Cooperative-cancellation state shared by every worker of one batch
/// run. Estimators poll Cancelled() between queries and report progress
/// so the deadline rule ("answer at least one query, then stop as soon
/// as the budget is spent") holds across threads. The default-constructed
/// context never cancels.
class BatchContext {
 public:
  BatchContext() = default;
  BatchContext(std::atomic<bool>* cancel, const Deadline* deadline,
               std::atomic<std::uint64_t>* answered,
               const std::atomic<bool>* external_cancel = nullptr)
      : cancel_(cancel),
        external_cancel_(external_cancel),
        deadline_(deadline),
        answered_(answered) {}

  /// True once the batch should stop issuing new queries: a caller
  /// cancelled (the run's own flag or an external token — the serving
  /// layer's shutdown / expired-deadline signal), or the deadline
  /// expired after at least one query completed batch-wide.
  bool Cancelled() const;

  /// Records `n` completed queries (drives the ≥ 1-query deadline rule).
  void ReportAnswered(std::uint64_t n = 1) const {
    if (answered_ != nullptr) {
      answered_->fetch_add(n, std::memory_order_relaxed);
    }
  }

 private:
  std::atomic<bool>* cancel_ = nullptr;
  const std::atomic<bool>* external_cancel_ = nullptr;
  const Deadline* deadline_ = nullptr;
  std::atomic<std::uint64_t>* answered_ = nullptr;
};

/// A query-execution plan: a permutation of the batch's query indices
/// partitioned into groups of queries that share precomputation. Groups
/// are the engine's scheduling unit — all queries of a group run on the
/// same worker, in order, so the estimator's shared state (per-source
/// walk populations, SpMV iterates, …) is actually reused.
struct BatchPlan {
  /// Permutation of [0, n): execution order of the batch.
  std::vector<std::uint32_t> order;
  /// Group g covers order[group_offsets[g] .. group_offsets[g+1]).
  /// Size is #groups + 1; group_offsets.front() == 0,
  /// group_offsets.back() == n.
  std::vector<std::uint32_t> group_offsets;

  std::size_t NumGroups() const {
    return group_offsets.empty() ? 0 : group_offsets.size() - 1;
  }

  /// The no-sharing plan: identity order, one group per query.
  static BatchPlan Trivial(std::size_t num_queries);

  /// Groups queries by their source node s, keeping the original order
  /// within a group and ordering groups by first appearance — the plan
  /// for estimators whose source-side work is reusable across a group.
  static BatchPlan GroupBySource(std::span<const QueryPair> queries);

  /// Groups queries by EITHER endpoint: two queries land in the same
  /// group iff they are connected through shared endpoints (connected
  /// components of the query-endpoint graph). Strictly coarser than
  /// GroupBySource — a shareable pair (any common endpoint) is never
  /// split across groups — so node-keyed caches (walk populations,
  /// iterate streams) are reused for s- AND t-sides. Original order is
  /// kept within a group; groups are ordered by first appearance.
  static BatchPlan GroupByEndpoint(std::span<const QueryPair> queries);
};

/// Splits `queries` into maximal runs whose queries all share at least
/// one COMMON endpoint (s or t) and feeds each run to
/// `run_fn(key, run_queries, run_stats)`, which answers a prefix of its
/// run and returns that prefix's length (the EstimateBatch contract, per
/// run). A run's common set starts as {s_0, t_0} and is intersected with
/// each next query's endpoint pair until empty; the key is the smallest
/// node id in the final common set — deterministic regardless of which
/// endpoint position it occupied. Stops between runs once
/// `context.Cancelled()`, or as soon as a run stops short; returns the
/// total prefix answered. The sharing estimators (SMM, GEER, TP, TPC)
/// implement EstimateBatch as this plus their per-run executor, sharing
/// the key side across runs that mix "key as source" and "key as target"
/// queries.
std::size_t EstimateByEndpointRuns(
    std::span<const QueryPair> queries, std::span<QueryStats> stats,
    const BatchContext& context,
    const std::function<std::size_t(NodeId, std::span<const QueryPair>,
                                    std::span<QueryStats>)>& run_fn);

/// Interface for ε-approximate pairwise effective resistance estimators.
///
/// Estimators are constructed per graph (amortizing preprocessing such as
/// the λ spectral bound) and answer repeated queries. Estimate() calls are
/// deterministic given the seed in the options: each query derives its
/// stream from (seed, s, t), so shuffling query order does not change
/// individual answers — and EstimateBatch() returns values bit-identical
/// to serial Estimate() at any thread count (the batch-determinism suite
/// enforces this for every registered algorithm).
class ErEstimator {
 public:
  virtual ~ErEstimator() = default;

  /// Short algorithm name as used in the paper ("GEER", "AMC", "TP", …).
  virtual std::string Name() const = 0;

  /// Answers the ε-approximate PER query for pair (s, t) with
  /// instrumentation. Requires SupportsQuery(s, t).
  virtual QueryStats EstimateWithStats(NodeId s, NodeId t) = 0;

  /// Convenience: just the estimate.
  double Estimate(NodeId s, NodeId t) { return EstimateWithStats(s, t).value; }

  /// True iff the algorithm can answer this pair. Edge-only baselines
  /// (MC2, HAY) require (s, t) ∈ E; everything else accepts any pair.
  virtual bool SupportsQuery(NodeId s, NodeId t) const {
    (void)s;
    (void)t;
    return true;
  }

  /// Answers a prefix of `queries` in order, writing stats[i] for query
  /// i, and returns the prefix length. Stops early (between queries)
  /// once `context.Cancelled()`; unsupported queries inside the prefix
  /// get zeroed stats. The default loops EstimateWithStats; overrides
  /// share precomputation across queries (same-source walk populations,
  /// SpMV push vectors, …) while returning per-query values
  /// bit-identical to the serial loop. `stats.size() >= queries.size()`.
  virtual std::size_t EstimateBatch(std::span<const QueryPair> queries,
                                    std::span<QueryStats> stats,
                                    const BatchContext& context = {});

  /// Groups `queries` by shared structure for the batch engine. The
  /// default plan shares nothing (one group per query); estimators with
  /// an EstimateBatch override return the grouping their sharing needs
  /// (SMM, GEER, TP and TPC use BatchPlan::GroupByEndpoint).
  virtual BatchPlan PlanBatch(std::span<const QueryPair> queries) const {
    return BatchPlan::Trivial(queries.size());
  }

  /// True iff EstimateBatch amortizes work across the queries of a plan
  /// group (capability reporting for the harness; the registry mirrors
  /// it as EstimatorSharesBatchWork).
  virtual bool SharesBatchWork() const { return false; }

  /// An independent estimator answering queries with identical values,
  /// for one worker thread of a parallel batch: clones share immutable
  /// preprocessing (the graph, λ, EXACT's factorization, CG's solver,
  /// RP's sketch) but no mutable scratch. Returns nullptr if the
  /// estimator cannot be cloned — the engine then runs single-threaded.
  virtual std::unique_ptr<ErEstimator> CloneForBatch() const {
    return nullptr;
  }

  /// Retains per-node state (SMM/GEER iterate streams, TP/TPC walk
  /// populations, EXACT/CG solver columns) inside this instance, in one
  /// NodeStateCache (core/node_state_cache.h), so later batches on
  /// recurring endpoints reuse it instead of rebuilding per call — the
  /// serving layer's session state. Off by default so one-shot batch runs keep
  /// their O(n) memory profile. `budget_bytes` bounds the retained
  /// memory (0 = the implementation default); retained state never
  /// changes answer VALUES, only the cost charged for them. A no-op for
  /// estimators with nothing to retain (construction-time state —
  /// EXACT's factorization, CG's solver, RP's sketch — already persists
  /// for the instance's lifetime).
  virtual void EnableSessionCache(std::size_t budget_bytes = 0) {
    (void)budget_bytes;
  }

  /// Drops any state retained by EnableSessionCache (the cache stays
  /// enabled; subsequent batches repopulate it).
  virtual void ClearSessionCache() {}

  /// Aggregated hit/miss/byte counters over this instance's session and
  /// landmark caches (zeroes when it has none). hits/misses/evictions
  /// are monotone for the instance's lifetime; bytes/entries/pinned are
  /// current gauges. The serving layer snapshots these per worker into
  /// ServeMetrics.
  virtual CacheStats SessionCacheStats() const { return {}; }

  /// Precomputes and PINS per-landmark state in the session cache so
  /// high-centrality hubs (src/centrality/landmarks.h) are answered from
  /// warm state: solver columns for EXACT/CG (queries combine the two
  /// endpoint columns, so a landmark endpoint never re-solves), walk
  /// populations for TP/TPC and iterate streams for SMM/GEER (the
  /// node-keyed side of a query hits the warm entry). Pinned entries are
  /// exempt from LRU eviction but epoch RebindGraph still invalidates a
  /// landmark whose dependency set intersects epoch.touched — it is then
  /// re-warmed lazily (and re-pinned) on next use. Warming never changes
  /// answer VALUES, only who pays for them. Enables the session cache if
  /// it is off. Returns the number of landmarks warmed (0 for estimators
  /// without warmable state).
  virtual std::size_t WarmLandmarks(std::span<const NodeId> landmarks) {
    (void)landmarks;
    return 0;
  }

  /// Rebinds this estimator to a new epoch of the (logically same) graph
  /// it was constructed on — the dynamic-graph hook (src/dyn/). On
  /// success the estimator answers every subsequent query bit-identically
  /// to a freshly constructed estimator on `graph` with the construction
  /// options (λ is re-derived for the new graph: from epoch.lambda when
  /// provided, else by re-running Lanczos). Construction-time
  /// preprocessing is rebuilt as needed — EXACT/CG/RP rebuild their
  /// factorization/solver/sketch once per epoch across every clone
  /// sharing it — while session caches are invalidated selectively:
  /// SMM/GEER evict only per-source entries whose dependency set
  /// intersects epoch.touched, and TP/TPC evict only walk populations
  /// whose recorded visit set intersects it (their walk streams are
  /// content-addressed by (seed, node), so a population no changed row
  /// ever influenced replays bit-identically). Resized graphs flush
  /// wholesale. Precondition mirrors construction: `graph` must satisfy
  /// the estimator's feasibility checks.
  ///
  /// The weight mode must match the construction graph; the non-matching
  /// overload returns false (as does the default for estimators without
  /// dynamic support). `graph` must outlive the estimator, exactly like
  /// the construction graph.
  virtual bool RebindGraph(const Graph& graph, const GraphEpoch& epoch) {
    (void)graph;
    (void)epoch;
    return false;
  }
  virtual bool RebindGraph(const WeightedGraph& graph,
                           const GraphEpoch& epoch) {
    (void)graph;
    (void)epoch;
    return false;
  }

  /// Number of RebindGraph calls on this instance that reused previous-
  /// epoch state instead of rebuilding it cold: a warm-started λ, an
  /// incrementally updated factor/solver, or selective (visit-set)
  /// session retention. Monotone; the serving layer sums it per worker
  /// into ServeMetrics.incremental_rebinds so tests can assert the
  /// incremental path is actually exercised.
  virtual std::uint64_t IncrementalRebinds() const { return 0; }
};

}  // namespace geer

#endif  // GEER_CORE_ESTIMATOR_H_
