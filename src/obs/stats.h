// Transport-neutral statistics snapshot: the value type a serving
// shard renders from its ServeMetrics (serve/query_service.h
// ServeStatsSnapshot), the kStatsReply wire message carries, the router
// merges across shards, and the Prometheus-style text dump renders.
// Lives below src/net/ on purpose — the obs subsystem has no network
// dependency, and the codec depends on it, not the other way around.
//
// Histograms use a FIXED log2 bucket scheme (bucket i holds nanosecond
// values whose bit width is i, i.e. [2^(i-1), 2^i); bucket 0 holds 0).
// Because every producer uses the same scheme, snapshots merge by plain
// bucket-wise addition, and quantiles survive the merge — the property
// the cross-shard stats scrape depends on. kHistogramSchemeId stamps
// the scheme on the wire so a future re-bucketing is a detectable
// protocol change, not silent corruption.

#ifndef GEER_OBS_STATS_H_
#define GEER_OBS_STATS_H_

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

namespace geer::obs {

/// Log2 bucket count: bucket 47 tops out at 2^47 ns ≈ 39 hours, beyond
/// any span this system times. Wire-stable together with the scheme id.
inline constexpr std::size_t kHistogramBuckets = 48;
/// Bucket-scheme version carried in kStatsReply; bump on any change to
/// the bucket boundaries above (receivers reject mismatches).
inline constexpr std::uint8_t kHistogramSchemeId = 1;

/// Bucket index for one nanosecond value under the scheme above.
std::size_t HistogramBucket(std::uint64_t ns);
/// Inclusive lower / exclusive upper bound of one bucket, in ns.
std::uint64_t HistogramBucketLower(std::size_t bucket);
std::uint64_t HistogramBucketUpper(std::size_t bucket);

/// One aggregated latency histogram.
struct HistogramData {
  std::vector<std::uint64_t> buckets;  ///< kHistogramBuckets counts
  std::uint64_t count = 0;             ///< total recorded values
  std::uint64_t sum_ns = 0;            ///< exact sum (mean = sum/count)

  HistogramData() : buckets(kHistogramBuckets, 0) {}

  /// Counts one value into its bucket.
  void Record(std::uint64_t ns) {
    ++buckets[HistogramBucket(ns)];
    ++count;
    sum_ns += ns;
  }

  /// Bucket-wise sum (the merge quantiles survive).
  HistogramData& operator+=(const HistogramData& other);
};

/// A full metrics snapshot, keyed by metric name. Names carry their
/// Prometheus labels inline (`geer_serve_answered_total{method="GEER"}`),
/// so identically-labeled series from different shards merge by key.
/// std::map keeps iteration deterministic (golden tests, stable dumps).
struct StatsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramData> histograms;
};

/// Bucket-wise sum of any number of snapshots: counters and histogram
/// buckets add; gauges add too (they are resident-bytes style quantities
/// where the cluster total is the useful aggregate).
StatsSnapshot MergeSnapshots(std::span<const StatsSnapshot> snapshots);

/// Quantile estimate in ns (q in [0, 1]) by cumulative bucket walk with
/// linear interpolation inside the containing bucket. 0 when empty.
double HistogramQuantile(const HistogramData& h, double q);

/// Prometheus-style exposition text: counters and gauges as
/// `name value`, histograms as `<family>_count`, `<family>_sum_ns` and
/// p50/p95/p99 `quantile` series (labels preserved). One trailing
/// newline; deterministic order.
std::string RenderPrometheusText(const StatsSnapshot& snapshot);

}  // namespace geer::obs

#endif  // GEER_OBS_STATS_H_
