#include "eval/arrival_trace.h"

#include <algorithm>
#include <cmath>

#include "rw/rng.h"
#include "util/check.h"

namespace geer {

std::vector<TraceEvent> MakeOpenLoopTrace(std::span<const QueryPair> queries,
                                          double qps, std::uint64_t seed) {
  std::vector<TraceEvent> trace;
  trace.reserve(queries.size());
  Rng rng(MixSeed(seed, 0x7261636521ULL));  // "race!"
  double t = 0.0;
  for (const QueryPair& q : queries) {
    if (qps > 0.0) {
      // Inverse-CDF exponential gap; 1 − u keeps the argument in (0, 1].
      t += -std::log(1.0 - rng.NextDouble()) / qps;
    }
    trace.push_back({t, q});
  }
  return trace;
}

std::vector<TraceEvent> ShuffleTracePayloads(std::span<const TraceEvent> trace,
                                             std::uint64_t seed) {
  std::vector<QueryPair> payloads;
  payloads.reserve(trace.size());
  for (const TraceEvent& e : trace) payloads.push_back(e.query);
  Rng rng(MixSeed(seed, 0x73687566ULL));  // "shuf"
  for (std::size_t i = payloads.size(); i > 1; --i) {
    const std::size_t j = rng.NextBounded(i);
    std::swap(payloads[i - 1], payloads[j]);
  }
  std::vector<TraceEvent> out(trace.begin(), trace.end());
  for (std::size_t i = 0; i < out.size(); ++i) out[i].query = payloads[i];
  return out;
}

std::vector<QueryPair> MakeZipfQueries(std::span<const NodeId> ranking,
                                       std::size_t count, double exponent,
                                       std::uint64_t seed) {
  GEER_CHECK_GE(ranking.size(), 2u) << "Zipf workload needs >= 2 nodes";
  // Cumulative (k+1)^(-exponent) weights; a draw is one binary search.
  std::vector<double> cdf(ranking.size());
  double acc = 0.0;
  for (std::size_t k = 0; k < ranking.size(); ++k) {
    acc += std::pow(static_cast<double>(k + 1), -exponent);
    cdf[k] = acc;
  }
  Rng rng(MixSeed(seed, 0x7a697066ULL));  // "zipf"
  const auto draw = [&]() {
    const double u = rng.NextDouble() * acc;
    const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
    const std::size_t k =
        std::min(static_cast<std::size_t>(it - cdf.begin()),
                 ranking.size() - 1);
    return ranking[k];
  };
  std::vector<QueryPair> queries;
  queries.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const NodeId s = draw();
    NodeId t = draw();
    while (t == s) t = draw();  // r(v, v) = 0 — not a served workload
    queries.push_back({s, t});
  }
  return queries;
}

}  // namespace geer
