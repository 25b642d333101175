#include "eval/dynamic_workload.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <future>
#include <limits>
#include <map>
#include <memory>
#include <thread>

#include "core/registry.h"
#include "dyn/dyn_serve.h"
#include "eval/percentile.h"
#include "linalg/spectral.h"
#include "util/check.h"
#include "util/timer.h"

namespace geer {
namespace {

// `serving`: the service is up, so the Lanczos run stays on this thread
// instead of taking the workers' cores (linalg/spectral.h).
template <WeightPolicy WP>
std::optional<double> EpochLambda(const typename WP::GraphT& graph,
                                  bool reads_lambda, bool serving) {
  if (!reads_lambda) return std::nullopt;
  SpectralOptions options;
  if (serving) options.threads = 1;
  return ComputeSpectralBoundsT<WP>(graph, options).lambda;
}

}  // namespace

template <WeightPolicy WP>
DynamicWorkloadResult RunDynamicWorkload(
    DynamicGraphT<WP>& graph, const std::string& method,
    const ErOptions& options, std::span<const DynTraceEvent> trace,
    const ServeOptions& serve_options, double deadline_seconds,
    bool realtime, bool incremental_epochs) {
  const double kNaN = std::numeric_limits<double>::quiet_NaN();
  DynamicWorkloadResult result;
  result.num_events = trace.size();
  result.values.assign(trace.size(), kNaN);
  result.value_epochs.assign(trace.size(), 0);
  result.statuses.assign(trace.size(), ServeStatus::kShutdown);

  const bool reads_lambda = EstimatorReadsLambda(method);
  // Hold the initial snapshot for the estimator's whole lifetime; later
  // epochs are pinned by the service's keep_alive.
  auto initial = graph.Current();
  GEER_CHECK(initial != nullptr);
  ErOptions build_options = options;
  if (reads_lambda && !build_options.lambda.has_value()) {
    build_options.lambda =
        EpochLambda<WP>(*initial->graph, true, /*serving=*/false);
  }
  std::unique_ptr<ErEstimator> estimator =
      CreateEstimatorT<WP>(method, *initial->graph, build_options);
  GEER_CHECK(estimator != nullptr) << "unknown estimator " << method;
  result.method = estimator->Name();

  // Per-epoch bookkeeping, keyed by epoch number (epoch 0 = initial).
  std::map<std::uint64_t, DynEpochStats> epochs;
  epochs[initial->epoch].epoch = initial->epoch;

  struct PendingFuture {
    std::size_t event_index;
    std::future<QueryResult> future;
  };
  std::vector<PendingFuture> futures;
  futures.reserve(trace.size());

  Timer wall;
  const auto start = std::chrono::steady_clock::now();
  // Cross-epoch spectral holder for incremental replays: shares the
  // once-per-epoch Lanczos run across workers AND carries the Ritz
  // vectors that warm-start the next epoch's run.
  std::shared_ptr<EpochShared<EpochSpectral>> spectral =
      incremental_epochs && reads_lambda ? MakeSharedSpectral() : nullptr;
  {
    QueryService service(*estimator, serve_options);
    result.workers = service.workers();
    for (std::size_t i = 0; i < trace.size(); ++i) {
      const DynTraceEvent& event = trace[i];
      if (realtime && event.arrival_seconds > 0.0) {
        std::this_thread::sleep_until(
            start +
            std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                std::chrono::duration<double>(event.arrival_seconds)));
      }
      if (!event.is_update) {
        ++result.num_queries;
        futures.push_back(
            {i, service.Submit(event.query, deadline_seconds)});
        continue;
      }
      // Update event: mutate + commit on this (writer) thread, then swap
      // the published epoch into the service. Waiting on the swap keeps
      // the replay honest about rebind latency and pins each query to a
      // trace-determined epoch (everything later is served post-swap).
      Timer commit_timer;
      for (const EdgeUpdate& op : event.updates) graph.Apply(op);
      auto snapshot = graph.Commit();
      const double commit_ms = commit_timer.ElapsedMillis();
      // Incremental mode leaves λ to the shared holder (warm-started by
      // the first rebinding worker, O(touched)-friendly); the default
      // precomputes it cold here so answers stay bit-identical.
      Timer swap_timer;
      std::future<bool> swapped = ApplyEpochUpdate<WP>(
          service, snapshot,
          incremental_epochs
              ? std::nullopt
              : EpochLambda<WP>(*snapshot->graph, reads_lambda,
                                /*serving=*/true),
          incremental_epochs, spectral);
      const bool ok = swapped.get();
      GEER_CHECK(ok) << "epoch swap failed for " << method;
      DynEpochStats& stats = epochs[snapshot->epoch];
      stats.epoch = snapshot->epoch;
      stats.updates += event.updates.size();
      stats.touched = snapshot->touched.size();
      stats.commit_ms = commit_ms;
      stats.swap_ms = swap_timer.ElapsedMillis();
      ++result.commits;
    }
    service.Flush();
    // Collect inside the service's scope so Shutdown() order stays the
    // usual drain-then-join.
    std::map<std::uint64_t, std::vector<double>> latencies;
    for (PendingFuture& pending : futures) {
      const QueryResult r = pending.future.get();
      result.statuses[pending.event_index] = r.status;
      result.value_epochs[pending.event_index] = r.epoch;
      switch (r.status) {
        case ServeStatus::kAnswered: {
          ++result.answered;
          result.values[pending.event_index] = r.stats.value;
          DynEpochStats& stats = epochs[r.epoch];
          stats.epoch = r.epoch;
          ++stats.answered;
          latencies[r.epoch].push_back(r.total_ms);
          break;
        }
        case ServeStatus::kUnsupported:
          ++result.unsupported;
          break;
        case ServeStatus::kRejected:
          ++result.rejected;
          break;
        case ServeStatus::kFailed:
          ++result.failed;
          break;
        default:  // kExpired / kCancelled / kShutdown
          ++result.expired;
          break;
      }
    }
    result.wall_seconds = wall.ElapsedSeconds();
    service.Shutdown();
    result.metrics = service.Metrics();
    result.incremental_rebinds = result.metrics.incremental_rebinds;
    for (auto& [epoch, samples] : latencies) {
      std::sort(samples.begin(), samples.end());
      DynEpochStats& stats = epochs[epoch];
      stats.p50_ms = NearestRankPercentile(samples, 0.50);
      stats.p95_ms = NearestRankPercentile(samples, 0.95);
      stats.p99_ms = NearestRankPercentile(samples, 0.99);
      stats.max_ms = samples.back();
    }
  }
  if (result.wall_seconds > 0.0) {
    result.throughput_qps =
        static_cast<double>(result.answered) / result.wall_seconds;
  }
  result.epochs.reserve(epochs.size());
  for (auto& [epoch, stats] : epochs) result.epochs.push_back(stats);
  return result;
}

template DynamicWorkloadResult RunDynamicWorkload<UnitWeight>(
    DynamicGraphT<UnitWeight>&, const std::string&, const ErOptions&,
    std::span<const DynTraceEvent>, const ServeOptions&, double, bool, bool);
template DynamicWorkloadResult RunDynamicWorkload<EdgeWeight>(
    DynamicGraphT<EdgeWeight>&, const std::string&, const ErOptions&,
    std::span<const DynTraceEvent>, const ServeOptions&, double, bool, bool);

}  // namespace geer
