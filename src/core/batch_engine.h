// The batch query engine: answers a query set through an estimator's
// BatchPlan + EstimateBatch surface, optionally on a thread team
// (util/thread_pool.h) built per call, with a cooperatively enforced
// deadline.
//
// Determinism contract: per-query values are bit-identical to the serial
// loop `for q: estimator.Estimate(q.s, q.t)` at ANY worker count,
// including 1, and under any permutation of the input — because every
// estimator derives each query's random stream from (seed, s, t) and
// shared-precomputation overrides are content-addressed by source. What
// IS execution-dependent is the per-query cost instrumentation (shared
// work is charged to the query that triggered it) and, under a deadline,
// WHICH queries complete before the cut.

#ifndef GEER_CORE_BATCH_ENGINE_H_
#define GEER_CORE_BATCH_ENGINE_H_

#include <atomic>
#include <span>
#include <vector>

#include "core/estimator.h"

namespace geer {

/// Execution knobs for one batch run.
struct BatchOptions {
  /// Worker threads; ≤ 0 = the CPUs this process may run on (its
  /// affinity mask, as ResolveWorkerCount reads it), 1 = run on the
  /// caller.
  int threads = 1;
  /// Cooperative wall-clock budget; ≤ 0 = none. At least one query is
  /// always answered; the cut granularity is one plan group.
  double deadline_seconds = 0.0;
  /// External cooperative-cancel token, polled between queries alongside
  /// the deadline. A hard stop (no ≥ 1-query guarantee): the serving
  /// layer sets it on shutdown or when every queued deadline expired.
  const std::atomic<bool>* cancel = nullptr;
  /// Caller-owned per-worker estimators that persist across engine runs
  /// (the serving layer's session clones, typically with
  /// EnableSessionCache on). When non-empty the engine uses exactly
  /// these workers — no CloneForBatch, `threads` ignored — so their
  /// retained per-source caches survive from one micro-batch to the
  /// next. All entries must answer with identical values (clones of one
  /// estimator).
  std::span<ErEstimator* const> session_workers = {};
};

/// Outcome of one batch run.
struct BatchReport {
  /// processed[i] == 1 iff query i was reached before any deadline cut
  /// (its stats slot is valid; zeroed if the query was unsupported).
  std::vector<std::uint8_t> processed;
  /// Number of processed queries.
  std::size_t answered = 0;
  /// False iff the deadline cut the batch short.
  bool completed = true;
  /// Workers actually used: options.threads resolved against the plan's
  /// group count (and collapsed to 1 when the estimator is not
  /// clonable).
  int workers = 1;
};

/// Runs `queries` through `estimator`, writing stats[i] for queries[i].
/// With threads > 1, workers 1… run on CloneForBatch() clones (worker 0
/// reuses `estimator`); if the estimator is not clonable the run falls
/// back to single-threaded. With options.session_workers set, those
/// estimators are the workers instead (`estimator` still provides the
/// plan). `stats.size() >= queries.size()`. Re-entrant: concurrent calls
/// are safe as long as no estimator instance is shared between them.
///
/// The caller is worker 0 and starts workers − 1 helper threads for the
/// call; worker w always answers on worker estimator w, so no estimator
/// is entered by two threads at once. Workers claim plan groups in plan
/// order. Exceptions: if a group throws, the worker that caught it stops
/// claiming groups, the other workers still answer the remaining ones,
/// and the first exception is rethrown here once every worker has left
/// the call (at one worker a throw skips the remaining groups). Either
/// way no BatchReport is returned; QueryService resolves such a batch
/// as kFailed.
BatchReport RunQueryBatch(ErEstimator& estimator,
                          std::span<const QueryPair> queries,
                          std::span<QueryStats> stats,
                          const BatchOptions& options = {});

}  // namespace geer

#endif  // GEER_CORE_BATCH_ENGINE_H_
