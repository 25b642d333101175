// The experiment runner behind every figure bench: runs one estimator
// over a query set with a wall-clock budget, collecting the statistics
// the paper reports (average query time, average absolute error) plus
// cost instrumentation. Queries route through the batch engine
// (core/batch_engine.h): the estimator's BatchPlan groups shared work,
// RunConfig::threads fans the groups out over a thread team, and
// the deadline is enforced cooperatively across workers. Per-query
// values are bit-identical to the serial loop at any thread count.

#ifndef GEER_EVAL_EXPERIMENT_H_
#define GEER_EVAL_EXPERIMENT_H_

#include <span>
#include <string>
#include <vector>

#include "core/options.h"
#include "eval/arrival_trace.h"
#include "eval/datasets.h"
#include "eval/queries.h"
#include "graph/weight_policy.h"
#include "graph/weighted_graph.h"
#include "serve/query_service.h"

namespace geer {

/// Outcome of running one (method, dataset, ε) cell.
struct MethodResult {
  std::string method;
  std::string dataset;
  double epsilon = 0.0;

  bool feasible = true;     ///< false → OOM-style precondition failure
  bool completed = true;    ///< false → deadline hit (paper's ">1 day")
  std::size_t queries_answered = 0;
  int threads = 1;              ///< engine workers used for this cell
  bool shares_batch_work = false;  ///< algorithm amortizes same-source work

  double avg_millis = 0.0;     ///< batch wall time / queries answered
  double avg_abs_error = 0.0;  ///< vs supplied ground truth
  double max_abs_error = 0.0;
  double total_walks = 0.0;    ///< mean walks per query
  double total_spmv_ops = 0.0; ///< mean SpMV arc traversals per query
  double avg_ell = 0.0;        ///< mean walk-length bound in effect
  double avg_ell_b = 0.0;      ///< mean SMM switch point (GEER)
  double sample_scale = 1.0;   ///< tp/tpc constant scale in effect

  /// Per-query time with the sample down-scaling undone (walk-dominated
  /// methods scale linearly in the sample constant). Equals avg_millis
  /// when sample_scale == 1.
  double ExtrapolatedMillis() const {
    return sample_scale > 0.0 ? avg_millis / sample_scale : avg_millis;
  }
};

/// Budget and instrumentation knobs for a run.
struct RunConfig {
  double deadline_seconds = 60.0;  ///< per-(method, ε) budget; ≤0 = none
  bool collect_errors = true;      ///< compare against ground truth
  int threads = 1;                 ///< engine workers; 0 = affinity mask
};

/// Runs `method` over `queries` on either weight stack — THE experiment
/// entry point, templated on the weight policy exactly like the
/// estimator bodies it drives. `ground_truth[i]` pairs with queries[i]
/// (pass empty to skip error collection). Construction-infeasible
/// methods (EXACT too big, RP over budget) return feasible=false without
/// running. options.lambda should carry the precomputed λ for
/// walk-based methods (EstimatorReadsLambda); `dataset_name` labels the
/// result row.
template <WeightPolicy WP>
MethodResult RunMethodT(const typename WP::GraphT& graph,
                        const std::string& dataset_name,
                        const std::string& method, const ErOptions& options,
                        const std::vector<QueryPair>& queries,
                        const std::vector<double>& ground_truth,
                        const RunConfig& config = {});

extern template MethodResult RunMethodT<UnitWeight>(
    const Graph&, const std::string&, const std::string&, const ErOptions&,
    const std::vector<QueryPair>&, const std::vector<double>&,
    const RunConfig&);
extern template MethodResult RunMethodT<EdgeWeight>(
    const WeightedGraph&, const std::string&, const std::string&,
    const ErOptions&, const std::vector<QueryPair>&,
    const std::vector<double>&, const RunConfig&);

/// DEPRECATED spelling kept for existing callers: thin alias over
/// RunMethodT<UnitWeight> that additionally defaults options.lambda from
/// the dataset's cached spectral bounds. Prefer RunMethodT in new code.
MethodResult RunMethod(const Dataset& dataset, const std::string& method,
                       const ErOptions& options,
                       const std::vector<QueryPair>& queries,
                       const std::vector<double>& ground_truth,
                       const RunConfig& config = {});

/// Outcome of replaying one timestamped query trace through the serving
/// front end (serve/query_service.h) — the interactive-workload
/// counterpart of MethodResult's batch statistics.
struct ServedWorkloadResult {
  std::string method;
  std::size_t num_events = 0;
  std::size_t answered = 0;
  std::size_t unsupported = 0;
  std::size_t expired = 0;   ///< deadline lapsed (incl. cancelled/shutdown)
  std::size_t rejected = 0;
  std::size_t failed = 0;    ///< dispatch threw (kFailed) — a server error

  double wall_seconds = 0.0;    ///< first submission → last completion
  double throughput_qps = 0.0;  ///< answered / wall_seconds

  // Client latency (submission → completion) over ANSWERED queries.
  double mean_ms = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double max_ms = 0.0;

  double avg_batch = 0.0;  ///< mean dispatched micro-batch size
  int workers = 1;         ///< dispatch workers the service used

  /// Session/landmark cache counters summed over workers at shutdown
  /// (all zero when the estimator has no session cache enabled).
  CacheStats session_cache;
  /// The service's final ServeMetrics, taken after shutdown (defaulted
  /// when driven through a bare QuerySubmitter).
  ServeMetrics metrics;

  /// Per-event answers in trace order (NaN when not answered) — the
  /// serve-determinism suite's comparison payload.
  std::vector<double> values;
  /// Per-event client latency in ms, trace order (NaN when not answered).
  std::vector<double> latency_ms;
  /// Per-event terminal status, trace order.
  std::vector<ServeStatus> statuses;
};

/// Replays `trace` through ANY QuerySubmitter — an in-process
/// QueryService or a networked net::NetSubmitter — and reports tail
/// latency + throughput. This is the transport-neutral driver: the
/// net-determinism suite replays the SAME trace through both transports
/// with this one function and compares values bitwise. With realtime =
/// true the driver sleeps until each event's arrival offset — the
/// open-loop replay whose queueing delay is honest. realtime = false
/// submits back-to-back: the compressed replay the determinism suite
/// and max-throughput benches use. `deadline_seconds` applies per query
/// (≤ 0 = none). method / avg_batch / session_cache / metrics stay
/// defaulted (transport-side details the submitter interface doesn't
/// expose).
ServedWorkloadResult RunServedWorkload(QuerySubmitter& submitter,
                                       std::span<const TraceEvent> trace,
                                       double deadline_seconds = 0.0,
                                       bool realtime = true);

/// Convenience overload: wraps `estimator` in a QueryService under
/// `serve_options`, runs the submitter driver above, and fills in the
/// service-side extras (method, avg_batch, session_cache, metrics).
/// Answer values are bit-identical to the serial Estimate loop
/// regardless of every serve option.
ServedWorkloadResult RunServedWorkload(ErEstimator& estimator,
                                       std::span<const TraceEvent> trace,
                                       const ServeOptions& serve_options,
                                       double deadline_seconds = 0.0,
                                       bool realtime = true);

/// Closed-loop counterpart of RunServedWorkload: `clients` driver
/// threads each own the strided slice i, i+clients, … of `queries` and
/// keep exactly one query in flight (submit → wait → next), so the
/// submission rate self-throttles to the service's capacity — the
/// max-throughput measurement mode of the net bench. Per-query results
/// land in input order.
ServedWorkloadResult RunClosedLoopWorkload(QuerySubmitter& submitter,
                                           std::span<const QueryPair> queries,
                                           int clients,
                                           double deadline_seconds = 0.0);

}  // namespace geer

#endif  // GEER_EVAL_EXPERIMENT_H_
