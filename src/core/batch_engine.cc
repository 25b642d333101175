#include "core/batch_engine.h"

#include <atomic>
#include <memory>

#include "obs/trace.h"
#include "util/check.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace geer {
namespace {

// Validates that `plan` is a permutation of [0, n) partitioned into
// contiguous groups — a malformed override would silently drop or
// double-answer queries otherwise.
void ValidatePlan(const BatchPlan& plan, std::size_t n) {
  GEER_CHECK_EQ(plan.order.size(), n);
  GEER_CHECK(!plan.group_offsets.empty());
  GEER_CHECK_EQ(plan.group_offsets.front(), 0u);
  GEER_CHECK_EQ(plan.group_offsets.back(), n);
  for (std::size_t g = 1; g < plan.group_offsets.size(); ++g) {
    GEER_CHECK(plan.group_offsets[g - 1] <= plan.group_offsets[g]);
  }
  std::vector<std::uint8_t> seen(n, 0);
  for (const std::uint32_t i : plan.order) {
    GEER_CHECK(i < n);
    GEER_CHECK(!seen[i]) << "duplicate query index in batch plan";
    seen[i] = 1;
  }
}

}  // namespace

BatchReport RunQueryBatch(ErEstimator& estimator,
                          std::span<const QueryPair> queries,
                          std::span<QueryStats> stats,
                          const BatchOptions& options) {
  const std::size_t n = queries.size();
  GEER_CHECK(stats.size() >= n);
  BatchReport report;
  report.processed.assign(n, 0);
  if (n == 0) return report;

  obs::Tracer* const tracer = obs::Tracer::Current();
  const std::uint64_t plan_start = tracer != nullptr ? obs::NowNs() : 0;
  const BatchPlan plan = estimator.PlanBatch(queries);
  ValidatePlan(plan, n);
  const std::size_t num_groups = plan.NumGroups();
  if (tracer != nullptr) {
    obs::SpanEvent plan_ev;
    plan_ev.name = "plan";
    plan_ev.start_ns = plan_start;
    plan_ev.dur_ns = obs::NowNs() - plan_start;
    plan_ev.arg_key0 = "queries";
    plan_ev.arg_val0 = n;
    plan_ev.arg_key1 = "groups";
    plan_ev.arg_val1 = num_groups;
    tracer->Record(plan_ev);
  }

  // Worker estimators: caller-provided session workers (persisting their
  // caches across engine runs), or ad-hoc clones. Workers 1… answer on
  // independent clones; worker 0 reuses the caller's estimator, so the
  // single-thread path has zero construction overhead.
  int workers;
  std::vector<std::unique_ptr<ErEstimator>> clones;
  std::vector<ErEstimator*> worker_estimators;
  if (!options.session_workers.empty()) {
    workers = ResolveWorkerCount(
        static_cast<int>(options.session_workers.size()), num_groups);
    worker_estimators.assign(options.session_workers.begin(),
                             options.session_workers.begin() + workers);
  } else {
    workers = ResolveWorkerCount(options.threads, num_groups);
    worker_estimators.push_back(&estimator);
    if (workers > 1) {
      clones.reserve(static_cast<std::size_t>(workers) - 1);
      for (int w = 1; w < workers; ++w) {
        std::unique_ptr<ErEstimator> clone = estimator.CloneForBatch();
        if (clone == nullptr) {  // not clonable: degrade to single-threaded
          clones.clear();
          workers = 1;
          break;
        }
        clones.push_back(std::move(clone));
        worker_estimators.push_back(clones.back().get());
      }
      if (workers == 1) worker_estimators.resize(1);
    }
  }

  const Deadline deadline(options.deadline_seconds);
  std::atomic<bool> cancel(false);
  std::atomic<std::uint64_t> answered_counter(0);
  const BatchContext context(
      &cancel, options.deadline_seconds > 0.0 ? &deadline : nullptr,
      &answered_counter, options.cancel);

  // Per-worker gather/scatter scratch: groups reference arbitrary input
  // positions, while EstimateBatch wants contiguous spans.
  struct WorkerScratch {
    std::vector<QueryPair> queries;
    std::vector<QueryStats> stats;
  };
  std::vector<WorkerScratch> scratch(static_cast<std::size_t>(workers));

  // The caller is worker 0 and helper i is worker i, so each worker
  // estimator and scratch slot is entered by one thread at a time.
  ThreadTeam team(workers);
  team.ParallelFor(num_groups, [&](int worker, std::size_t g) {
    if (context.Cancelled()) return;
    ErEstimator* est = worker_estimators[worker];
    const std::uint32_t begin = plan.group_offsets[g];
    const std::uint32_t end = plan.group_offsets[g + 1];
    obs::Span estimate_span("estimate");
    estimate_span.Arg("group", g);
    estimate_span.Arg("queries", end - begin);
    WorkerScratch& ws = scratch[worker];
    ws.queries.clear();
    for (std::uint32_t k = begin; k < end; ++k) {
      ws.queries.push_back(queries[plan.order[k]]);
    }
    ws.stats.assign(ws.queries.size(), QueryStats{});
    const std::size_t done = est->EstimateBatch(ws.queries, ws.stats, context);
    for (std::size_t k = 0; k < done; ++k) {
      const std::uint32_t q = plan.order[begin + k];
      stats[q] = ws.stats[k];
      report.processed[q] = 1;  // workers own disjoint plan slots
    }
  });

  for (const std::uint8_t p : report.processed) report.answered += p;
  report.completed = report.answered == n;
  report.workers = workers;
  return report;
}

}  // namespace geer
