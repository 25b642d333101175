// Arrival traces: timestamped query streams, the input format of the
// serving layer's workload replay (RunServedWorkload) and the serve
// benches. A trace is a sequence of client arrivals — (arrival offset, query) — replayed
// open-loop: arrivals happen at their recorded times no matter how far
// the server falls behind, which is what exposes queueing delay under
// load (a closed loop would throttle the clients instead).

#ifndef GEER_EVAL_ARRIVAL_TRACE_H_
#define GEER_EVAL_ARRIVAL_TRACE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "core/estimator.h"  // QueryPair

namespace geer {

/// One client arrival in a served workload.
struct TraceEvent {
  double arrival_seconds = 0.0;  ///< offset from replay start
  QueryPair query;
};

/// Open-loop Poisson arrivals over `queries` in order: exponential
/// inter-arrival gaps at rate `qps`. qps ≤ 0 degenerates to a burst
/// (every arrival at offset 0). Deterministic in `seed` on every
/// platform (the library's own rng, not <random>).
std::vector<TraceEvent> MakeOpenLoopTrace(std::span<const QueryPair> queries,
                                          double qps, std::uint64_t seed);

/// Deterministic Fisher–Yates permutation of the trace's query payloads;
/// arrival timestamps stay in place, so the replay clock is unchanged —
/// the arrival-order perturbation the serve-determinism suite replays.
std::vector<TraceEvent> ShuffleTracePayloads(std::span<const TraceEvent> trace,
                                             std::uint64_t seed);

/// Zipf-skewed query workload over a popularity ranking: both endpoints
/// are drawn independently with P(rank k) ∝ (k+1)^(−exponent) over
/// `ranking` (most popular first — e.g. SelectLandmarks output extended
/// to all nodes), the second endpoint resampled until it differs. The
/// skewed traffic the landmark/session caches are designed for: a few
/// hub nodes dominate both query sides. Deterministic in `seed`
/// (inverse-CDF over precomputed cumulative weights; library rng).
std::vector<QueryPair> MakeZipfQueries(std::span<const NodeId> ranking,
                                       std::size_t count, double exponent,
                                       std::uint64_t seed);

}  // namespace geer

#endif  // GEER_EVAL_ARRIVAL_TRACE_H_
