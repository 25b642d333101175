#include "eval/experiment.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <future>
#include <limits>
#include <thread>

#include "core/batch_engine.h"
#include "core/registry.h"
#include "eval/percentile.h"
#include "util/check.h"
#include "util/timer.h"

namespace geer {
namespace {

// The shared measurement loop: answer `queries` through the batch engine
// under the deadline, accumulating the paper's per-query statistics.
// With threads == 1 this is the serial loop of old (worker 0 is the
// calling thread, values bit-identical by the estimator contract);
// higher thread counts change wall time only.
void MeasureQueries(ErEstimator* estimator,
                    const std::vector<QueryPair>& queries,
                    const std::vector<double>& ground_truth,
                    const RunConfig& config, MethodResult* result) {
  const bool check_errors =
      config.collect_errors && ground_truth.size() == queries.size();

  BatchOptions batch_options;
  batch_options.threads = config.threads;
  batch_options.deadline_seconds = config.deadline_seconds;
  std::vector<QueryStats> stats(queries.size());
  Timer timer;
  const BatchReport report =
      RunQueryBatch(*estimator, queries, stats, batch_options);
  const double wall_millis = timer.ElapsedMillis();

  result->threads = report.workers;
  result->shares_batch_work = estimator->SharesBatchWork();
  result->completed = report.completed;
  double sum_err = 0.0;
  double sum_walks = 0.0;
  double sum_spmv = 0.0;
  double sum_ell = 0.0;
  double sum_ell_b = 0.0;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    if (!report.processed[i]) continue;  // deadline cut
    const QueryPair& q = queries[i];
    if (!estimator->SupportsQuery(q.s, q.t)) {
      continue;  // skipped, not failed: edge-only methods on non-edges
    }
    if (check_errors) {
      const double err = std::abs(stats[i].value - ground_truth[i]);
      sum_err += err;
      result->max_abs_error = std::max(result->max_abs_error, err);
    }
    sum_walks += static_cast<double>(stats[i].walks);
    sum_spmv += static_cast<double>(stats[i].spmv_ops);
    sum_ell += stats[i].ell;
    sum_ell_b += stats[i].ell_b;
    ++result->queries_answered;
  }
  if (result->queries_answered > 0) {
    const double n = static_cast<double>(result->queries_answered);
    result->avg_millis = wall_millis / n;
    result->avg_abs_error = sum_err / n;
    result->total_walks = sum_walks / n;
    result->total_spmv_ops = sum_spmv / n;
    result->avg_ell = sum_ell / n;
    result->avg_ell_b = sum_ell_b / n;
  }
}

MethodResult InitResult(const std::string& method,
                        const std::string& dataset_name,
                        const ErOptions& options) {
  MethodResult result;
  result.method = method;
  result.dataset = dataset_name;
  result.epsilon = options.epsilon;
  if (method == "TP") result.sample_scale = options.tp_scale;
  if (method == "TPC") result.sample_scale = options.tpc_scale;
  return result;
}

}  // namespace

template <WeightPolicy WP>
MethodResult RunMethodT(const typename WP::GraphT& graph,
                        const std::string& dataset_name,
                        const std::string& method, const ErOptions& options,
                        const std::vector<QueryPair>& queries,
                        const std::vector<double>& ground_truth,
                        const RunConfig& config) {
  MethodResult result = InitResult(method, dataset_name, options);

  if (!EstimatorFeasibleT<WP>(method, graph, options)) {
    result.feasible = false;
    result.completed = false;
    return result;
  }
  std::unique_ptr<ErEstimator> estimator =
      CreateEstimatorT<WP>(method, graph, options);
  GEER_CHECK(estimator != nullptr) << "unknown estimator " << method;

  MeasureQueries(estimator.get(), queries, ground_truth, config, &result);
  return result;
}

template MethodResult RunMethodT<UnitWeight>(
    const Graph&, const std::string&, const std::string&, const ErOptions&,
    const std::vector<QueryPair>&, const std::vector<double>&,
    const RunConfig&);
template MethodResult RunMethodT<EdgeWeight>(
    const WeightedGraph&, const std::string&, const std::string&,
    const ErOptions&, const std::vector<QueryPair>&,
    const std::vector<double>&, const RunConfig&);

MethodResult RunMethod(const Dataset& dataset, const std::string& method,
                       const ErOptions& options,
                       const std::vector<QueryPair>& queries,
                       const std::vector<double>& ground_truth,
                       const RunConfig& config) {
  ErOptions opt = options;
  if (!opt.lambda.has_value()) opt.lambda = dataset.spectral.lambda;
  return RunMethodT<UnitWeight>(dataset.graph, dataset.name, method, opt,
                                queries, ground_truth, config);
}

namespace {

/// Records one terminal QueryResult into slot `i` and folds the tail
/// statistics shared by the open- and closed-loop drivers.
void RecordOutcome(const QueryResult& r, std::size_t i,
                   ServedWorkloadResult* result,
                   std::vector<double>* answered_latencies) {
  result->statuses[i] = r.status;
  switch (r.status) {
    case ServeStatus::kAnswered:
      ++result->answered;
      result->values[i] = r.stats.value;
      result->latency_ms[i] = r.total_ms;
      // Accumulated here, averaged in FinishAggregates — the
      // client-observed mean micro-batch (the service overload replaces
      // it with the authoritative server-side ServeMetrics figure).
      result->avg_batch += static_cast<double>(r.batch_size);
      answered_latencies->push_back(r.total_ms);
      break;
    case ServeStatus::kUnsupported:
      ++result->unsupported;
      break;
    case ServeStatus::kRejected:
      ++result->rejected;
      break;
    case ServeStatus::kFailed:
      ++result->failed;
      break;
    default:  // kExpired / kCancelled / kShutdown
      ++result->expired;
      break;
  }
}

void FinishAggregates(std::vector<double>& answered_latencies,
                      ServedWorkloadResult* result) {
  if (result->wall_seconds > 0.0) {
    result->throughput_qps =
        static_cast<double>(result->answered) / result->wall_seconds;
  }
  if (result->answered > 0) {
    result->avg_batch /= static_cast<double>(result->answered);
  }
  if (!answered_latencies.empty()) {
    std::sort(answered_latencies.begin(), answered_latencies.end());
    double sum = 0.0;
    for (const double ms : answered_latencies) sum += ms;
    result->mean_ms = sum / static_cast<double>(answered_latencies.size());
    result->p50_ms = NearestRankPercentile(answered_latencies, 0.50);
    result->p95_ms = NearestRankPercentile(answered_latencies, 0.95);
    result->p99_ms = NearestRankPercentile(answered_latencies, 0.99);
    result->max_ms = answered_latencies.back();
  }
}

ServedWorkloadResult InitServedResult(std::size_t num_events) {
  const double kNaN = std::numeric_limits<double>::quiet_NaN();
  ServedWorkloadResult result;
  result.num_events = num_events;
  result.values.assign(num_events, kNaN);
  result.latency_ms.assign(num_events, kNaN);
  result.statuses.assign(num_events, ServeStatus::kShutdown);
  return result;
}

}  // namespace

ServedWorkloadResult RunServedWorkload(QuerySubmitter& submitter,
                                       std::span<const TraceEvent> trace,
                                       double deadline_seconds,
                                       bool realtime) {
  ServedWorkloadResult result = InitServedResult(trace.size());
  if (trace.empty()) return result;
  result.workers = submitter.workers();

  // Open-loop driver: submissions happen at their recorded offsets (or
  // back-to-back when compressed) regardless of how far the service has
  // fallen behind — queueing delay lands in the latency numbers instead
  // of silently throttling the clients.
  std::vector<std::future<QueryResult>> futures;
  futures.reserve(trace.size());
  Timer wall;
  const auto start = std::chrono::steady_clock::now();
  for (const TraceEvent& event : trace) {
    if (realtime && event.arrival_seconds > 0.0) {
      std::this_thread::sleep_until(
          start + std::chrono::duration_cast<
                      std::chrono::steady_clock::duration>(
                      std::chrono::duration<double>(event.arrival_seconds)));
    }
    futures.push_back(submitter.Submit(event.query, deadline_seconds));
  }
  submitter.Flush();

  std::vector<double> answered_latencies;
  answered_latencies.reserve(trace.size());
  for (std::size_t i = 0; i < futures.size(); ++i) {
    RecordOutcome(futures[i].get(), i, &result, &answered_latencies);
  }
  result.wall_seconds = wall.ElapsedSeconds();
  FinishAggregates(answered_latencies, &result);
  return result;
}

ServedWorkloadResult RunServedWorkload(ErEstimator& estimator,
                                       std::span<const TraceEvent> trace,
                                       const ServeOptions& serve_options,
                                       double deadline_seconds,
                                       bool realtime) {
  if (trace.empty()) {
    ServedWorkloadResult result = InitServedResult(0);
    result.method = estimator.Name();
    return result;
  }
  QueryService service(estimator, serve_options);
  ServedWorkloadResult result =
      RunServedWorkload(service, trace, deadline_seconds, realtime);
  service.Shutdown();
  // Service-side extras the transport-neutral driver can't see.
  result.method = estimator.Name();
  result.avg_batch = service.Metrics().AvgBatch();
  result.session_cache = service.Metrics().session_cache;
  return result;
}

ServedWorkloadResult RunClosedLoopWorkload(QuerySubmitter& submitter,
                                           std::span<const QueryPair> queries,
                                           int clients,
                                           double deadline_seconds) {
  ServedWorkloadResult result = InitServedResult(queries.size());
  if (queries.empty()) return result;
  result.workers = submitter.workers();
  if (clients < 1) clients = 1;
  const std::size_t stride = static_cast<std::size_t>(clients);

  // One QueryResult slot per query, written by exactly one client
  // thread (disjoint strided slices — no locking needed).
  std::vector<QueryResult> outcomes(queries.size());
  Timer wall;
  std::vector<std::thread> threads;
  threads.reserve(stride);
  for (std::size_t c = 0; c < stride; ++c) {
    threads.emplace_back([&, c] {
      for (std::size_t i = c; i < queries.size(); i += stride) {
        outcomes[i] =
            submitter.Submit(queries[i], deadline_seconds).get();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  result.wall_seconds = wall.ElapsedSeconds();

  std::vector<double> answered_latencies;
  answered_latencies.reserve(queries.size());
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    RecordOutcome(outcomes[i], i, &result, &answered_latencies);
  }
  FinishAggregates(answered_latencies, &result);
  return result;
}

}  // namespace geer
