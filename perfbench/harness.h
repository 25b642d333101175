// Shared plumbing of the benchmark: its own seeded input generators (so
// the inputs do not change when the library's RNG does), quantiles, the
// in-memory span log of the traced run, and the result record that
// main.cc prints.

#ifndef GEER_PERFBENCH_HARNESS_H_
#define GEER_PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "core/estimator.h"
#include "graph/graph.h"

namespace perfbench {

using geer::NodeId;
using geer::QueryPair;

// ---------------------------------------------------------------------------
// Time
// ---------------------------------------------------------------------------

using Clock = std::chrono::steady_clock;

inline std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

inline double MsBetween(std::uint64_t from_ns, std::uint64_t to_ns) {
  return static_cast<double>(static_cast<std::int64_t>(to_ns - from_ns)) /
         1e6;
}

// ---------------------------------------------------------------------------
// Seeded inputs
// ---------------------------------------------------------------------------

/// splitmix64: the benchmark's own generator, so inputs for a seed stay
/// fixed whatever the library's RNG does.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  /// Uniform in [0, n).
  std::uint64_t Below(std::uint64_t n) { return Next() % n; }

 private:
  std::uint64_t state_;
};

/// Seed of an independent stream `tag` of run seed `seed`.
std::uint64_t StreamSeed(std::uint64_t seed, std::uint64_t tag);

/// Nodes by descending degree, ties by ascending id: the popularity
/// ranking the Zipf endpoints are drawn over.
std::vector<NodeId> DegreeRanking(const geer::Graph& graph);

/// Draws node ranks with P(rank k) ∝ (k + 1)^(−exponent).
class ZipfSampler {
 public:
  ZipfSampler(std::vector<NodeId> ranking, double exponent);
  NodeId Draw(Rng& rng) const;

 private:
  std::vector<NodeId> ranking_;
  std::vector<double> cdf_;
};

/// `count` pairs with s ≠ t, both endpoints uniform over the nodes.
std::vector<QueryPair> UniformPairs(NodeId num_nodes, std::size_t count,
                                    std::uint64_t seed);

/// `count` pairs with s ≠ t, both endpoints Zipf-distributed.
std::vector<QueryPair> ZipfPairs(const ZipfSampler& zipf, std::size_t count,
                                 std::uint64_t seed);

/// Every pair among `nodes` (distinct): the pinned accuracy sample, whose
/// CG oracle needs only one solve per node.
std::vector<QueryPair> AllPairs(const std::vector<NodeId>& nodes);

// ---------------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------------

/// Linear-interpolation quantile (q in [0, 1]); 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
double Mean(const std::vector<double>& values);

/// Timings of one timed phase, split into consecutive windows of
/// `window_s` seconds from `start_ns`; only windows that end by
/// `start_ns + seconds` count. A run's figure is a quantile over its
/// windows (the median unless stated), so one stall moves one window, not
/// the result.
struct Windows {
  std::uint64_t start_ns = 0;
  double seconds = 0.0;
  double window_s = 0.5;

  /// The `over`-quantile over windows of the q-quantile of the values
  /// whose time falls in the window.
  double Quantile(const std::vector<std::uint64_t>& at_ns,
                  const std::vector<double>& values, double q,
                  double over = 0.5) const;
  /// Events in [start_ns, start_ns + seconds) per second.
  double Rate(const std::vector<std::uint64_t>& at_ns) const;
  /// Median over windows of Σ num / Σ den over the events in the window.
  double Ratio(const std::vector<std::uint64_t>& at_ns,
               const std::vector<double>& num,
               const std::vector<double>& den) const;

 private:
  std::size_t Count() const;
  /// Window index of `t`, or Count() when outside every window.
  std::size_t Index(std::uint64_t t) const;
};

/// Peak resident set size of this process so far, in MiB.
double PeakRssMb();

// ---------------------------------------------------------------------------
// Spans of the traced run
// ---------------------------------------------------------------------------

/// One span recorded by the benchmark around a call into a layer, or
/// derived from a time the layer reported (queue wait, server time).
struct SpanRecord {
  const char* name = nullptr;   ///< static string
  std::uint64_t id = 0;         ///< request id shared by a query's spans
  std::int64_t parent = -1;     ///< index of the parent span, −1 = root
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint32_t lane = 0;       ///< trace-viewer row
};

/// Spans kept in memory and written as Chrome trace JSON at exit. Only
/// the traced run enables it; every Add on a disabled log is a no-op.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  /// Appends a span and returns its index (−1 when disabled).
  std::int64_t Add(const char* name, std::uint64_t id, std::int64_t parent,
                   std::uint64_t start_ns, std::uint64_t end_ns,
                   std::uint32_t lane = 0);

  /// Durations in ms of every span called `name`.
  std::vector<double> DurationsMs(const char* name) const;

  /// Mean self time in ms of the spans called `name`: duration minus the
  /// part of it covered by their children.
  double MeanSelfMs(const char* name) const;

  std::size_t size() const;

  bool WriteChromeTrace(const std::string& path) const;

 private:
  const bool enabled_;
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
};

/// Measured cost of one SpanLog::Add, in ns (median of a few rounds on a
/// scratch log).
double SpanCostNs();

// ---------------------------------------------------------------------------
// The run's result
// ---------------------------------------------------------------------------

struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Metric values by name; units live in the tables of workloads.h.
  std::map<std::string, double> end_to_end;
  std::map<std::string, double> per_layer;
  /// Named correctness checks; a false entry fails the run.
  std::vector<std::pair<std::string, bool>> checks;
  std::vector<std::string> notes;  ///< human-readable detail lines

  void Check(const std::string& name, bool ok, const std::string& detail);
};

}  // namespace perfbench

#endif  // GEER_PERFBENCH_HARNESS_H_
