// Dynamic-workload replay: drives a QueryService over a DynamicGraphT
// with an interleaved stream of queries and update batches. Each update
// event is applied to the dynamic graph, committed (incremental CSR
// rebuild), and swapped into the service as a new epoch; queries before
// the event are answered on the old epoch, queries after it on the new
// one (QueryService::ApplyUpdates barrier semantics). The result carries
// per-epoch latency percentiles plus commit/swap costs — the
// dynamic-scenario counterpart of RunServedWorkload — and the per-event
// (value, epoch) pairs the dyn-serve determinism suite compares against
// serial estimates on each epoch's snapshot.

#ifndef GEER_EVAL_DYNAMIC_WORKLOAD_H_
#define GEER_EVAL_DYNAMIC_WORKLOAD_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/options.h"
#include "dyn/dynamic_graph.h"
#include "serve/query_service.h"

namespace geer {

/// One event of a dynamic trace: a client query, or an update batch that
/// is applied and committed (publishing the next epoch) at this point of
/// the stream.
struct DynTraceEvent {
  double arrival_seconds = 0.0;  ///< offset from replay start
  bool is_update = false;
  QueryPair query;                  ///< valid when !is_update
  std::vector<EdgeUpdate> updates;  ///< applied + committed when is_update

  static DynTraceEvent Query(QueryPair q, double at = 0.0) {
    DynTraceEvent event;
    event.arrival_seconds = at;
    event.query = q;
    return event;
  }
  static DynTraceEvent Update(std::vector<EdgeUpdate> ops, double at = 0.0) {
    DynTraceEvent event;
    event.arrival_seconds = at;
    event.is_update = true;
    event.updates = std::move(ops);
    return event;
  }
};

/// Per-epoch slice of a dynamic replay.
struct DynEpochStats {
  std::uint64_t epoch = 0;
  std::size_t updates = 0;    ///< update ops folded into this epoch
  std::size_t touched = 0;    ///< CSR rows rewritten by the commit
  double commit_ms = 0.0;     ///< DynamicGraph::Commit wall time
  double swap_ms = 0.0;       ///< barrier drain + all-worker rebind
  std::size_t answered = 0;   ///< queries answered on this epoch
  double p50_ms = 0.0;        ///< client latency percentiles (answered)
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double max_ms = 0.0;
};

struct DynamicWorkloadResult {
  std::string method;
  std::size_t num_events = 0;
  std::size_t num_queries = 0;
  std::size_t commits = 0;
  std::size_t answered = 0;
  std::size_t unsupported = 0;
  std::size_t expired = 0;
  std::size_t rejected = 0;
  std::size_t failed = 0;

  double wall_seconds = 0.0;
  double throughput_qps = 0.0;  ///< answered / wall
  int workers = 1;
  /// Final ServeMetrics.incremental_rebinds snapshot: worker rebinds
  /// that reused previous-epoch state (only ever > 0 when the replay ran
  /// with incremental_epochs, or for the always-on exact paths).
  std::uint64_t incremental_rebinds = 0;
  /// The service's final ServeMetrics, taken after shutdown.
  ServeMetrics metrics;

  /// One entry per epoch the replay served (epoch 0 first), in order.
  std::vector<DynEpochStats> epochs;

  /// Per trace event, trace order: the answer (NaN for updates and
  /// unanswered queries) and the epoch it was computed on.
  std::vector<double> values;
  std::vector<std::uint64_t> value_epochs;
  std::vector<ServeStatus> statuses;  ///< kShutdown placeholder for updates
};

/// Replays `trace` through a QueryService over an estimator of `method`
/// (a registry name of the matching weight mode) built on `graph`'s
/// current snapshot. Updates are applied from the replay thread (the
/// single writer); `options.lambda` is ignored in favor of a per-epoch λ
/// computed for methods that read it, so every answer is bit-identical
/// to a from-scratch estimator on that epoch's snapshot — UNLESS
/// `incremental_epochs` is set, which opts every swap into the
/// incremental maintenance paths (GraphEpoch::incremental: warm-started
/// Lanczos carried across epochs via a shared spectral holder,
/// rank-1-updated factors). Swaps are then O(touched) instead of
/// O(graph) but answers may drift within the documented tolerances
/// (README "Incremental epochs"). realtime=false replays back-to-back
/// (determinism suites, max-throughput benches).
template <WeightPolicy WP>
DynamicWorkloadResult RunDynamicWorkload(
    DynamicGraphT<WP>& graph, const std::string& method,
    const ErOptions& options, std::span<const DynTraceEvent> trace,
    const ServeOptions& serve_options, double deadline_seconds = 0.0,
    bool realtime = false, bool incremental_epochs = false);

extern template DynamicWorkloadResult RunDynamicWorkload<UnitWeight>(
    DynamicGraphT<UnitWeight>&, const std::string&, const ErOptions&,
    std::span<const DynTraceEvent>, const ServeOptions&, double, bool, bool);
extern template DynamicWorkloadResult RunDynamicWorkload<EdgeWeight>(
    DynamicGraphT<EdgeWeight>&, const std::string&, const ErOptions&,
    std::span<const DynTraceEvent>, const ServeOptions&, double, bool, bool);

}  // namespace geer

#endif  // GEER_EVAL_DYNAMIC_WORKLOAD_H_
