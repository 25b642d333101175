// The open-loop load generator: a seeded Poisson arrival schedule
// replayed against a QuerySubmitter from one generator thread, with a
// collector thread resolving the futures. Latency is timed from each
// query's DUE time (submit lag plus the service's own submit-to-answer
// time), so a stalled generator or a growing queue shows up in the
// latency instead of being hidden; the generator's lag and the
// outstanding backlog are sampled and reported alongside.

#ifndef GEER_PERFBENCH_LOADGEN_H_
#define GEER_PERFBENCH_LOADGEN_H_

#include <functional>
#include <span>
#include <vector>

#include "harness.h"
#include "serve/service_api.h"

namespace perfbench {

struct OpenLoopPhase {
  double rate_qps = 0.0;
  double seconds = 0.0;
  std::uint64_t schedule_seed = 0;  ///< seeds the inter-arrival gaps
  /// Query payloads in arrival order (reused cyclically if the schedule
  /// outruns them).
  std::span<const QueryPair> queries;
  /// Outstanding queries right now (sampled every 10 ms of schedule
  /// time); null = not sampled.
  std::function<double()> backlog_probe;
};

struct OpenLoopResult {
  std::uint64_t attempted = 0;
  std::uint64_t answered = 0;
  std::uint64_t failed = 0;  ///< any terminal state but kAnswered
  /// Per answered query, in arrival order.
  std::vector<double> latency_ms;  ///< due → answer: lag + total_ms
  std::vector<double> queue_ms;    ///< QueryResult.queue_ms
  std::vector<double> exec_ms;     ///< total_ms − queue_ms
  std::vector<std::uint64_t> due_ns;  ///< when the query was due
  /// Per submitted query: submit time − due time.
  std::vector<double> lag_ms;
  std::vector<double> backlog;  ///< outstanding-query samples
  /// The schedule's span, for windowed statistics.
  Windows windows;
};

/// Replays one phase. With `log` enabled every answered query records a
/// root span "serve.query" (due → answer observed) with children
/// "gen.lag", "serve.queue" and "serve.exec", all with the query's index
/// in the phase as id.
OpenLoopResult RunOpenLoop(geer::QuerySubmitter& submitter,
                           const OpenLoopPhase& phase, SpanLog& log);

/// Pass rule of the rate search: p99 within `p99_limit_ms`, nothing
/// failed, and the backlog not growing (mean of the last quarter of the
/// samples at most twice the first quarter's plus 4 queries).
bool MeetsServiceLevel(const OpenLoopResult& r, double p99_limit_ms);

}  // namespace perfbench

#endif  // GEER_PERFBENCH_LOADGEN_H_
