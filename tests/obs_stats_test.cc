// The obs/stats.h contract: the log2 histogram bucketing is frozen
// (scheme id 1); histograms record into those buckets; snapshots merge
// bucket-wise across shards and render deterministically as Prometheus
// text.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "obs/stats.h"

namespace geer::obs {
namespace {

// ---------------------------------------------------------- bucket scheme

TEST(HistogramBucketTest, SchemeIsFrozen) {
  // Scheme id 1: bucket 0 = {0}, bucket i = [2^(i-1), 2^i), top bucket
  // absorbs everything past 2^46. A change here is a wire break and must
  // bump kHistogramSchemeId, not edit this test.
  EXPECT_EQ(kHistogramBuckets, 48u);
  EXPECT_EQ(kHistogramSchemeId, 1);
  EXPECT_EQ(HistogramBucket(0), 0u);
  EXPECT_EQ(HistogramBucket(1), 1u);
  EXPECT_EQ(HistogramBucket(2), 2u);
  EXPECT_EQ(HistogramBucket(3), 2u);
  EXPECT_EQ(HistogramBucket(4), 3u);
  for (std::size_t k = 1; k < 47; ++k) {
    const std::uint64_t pow = 1ull << k;
    EXPECT_EQ(HistogramBucket(pow - 1), k) << "2^" << k << " - 1";
    EXPECT_EQ(HistogramBucket(pow), k + 1) << "2^" << k;
  }
  EXPECT_EQ(HistogramBucket(1ull << 47), 47u);
  EXPECT_EQ(HistogramBucket(std::numeric_limits<std::uint64_t>::max()), 47u);
}

TEST(HistogramBucketTest, BoundsBracketEveryBucket) {
  for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
    const std::uint64_t lo = HistogramBucketLower(b);
    const std::uint64_t hi = HistogramBucketUpper(b);
    EXPECT_LE(lo, hi) << "bucket " << b;
    EXPECT_EQ(HistogramBucket(lo), b) << "lower bound of bucket " << b;
  }
  EXPECT_EQ(HistogramBucketLower(0), 0u);
  EXPECT_EQ(HistogramBucketLower(1), 1u);
  EXPECT_EQ(HistogramBucketUpper(1), 2u);
}

// ------------------------------------------------------ snapshot algebra

TEST(StatsTest, HistogramRecordsIntoFrozenBuckets) {
  HistogramData h;
  h.Record(0);     // bucket 0
  h.Record(1);     // bucket 1
  h.Record(1000);  // bucket 10: [512, 1024)
  h.Record(1024);  // bucket 11
  EXPECT_EQ(h.count, 4u);
  EXPECT_EQ(h.sum_ns, 2025u);
  EXPECT_EQ(h.buckets[0], 1u);
  EXPECT_EQ(h.buckets[1], 1u);
  EXPECT_EQ(h.buckets[10], 1u);
  EXPECT_EQ(h.buckets[11], 1u);
}

TEST(StatsTest, MergeSnapshotsSumsEverything) {
  StatsSnapshot a;
  a.counters["answered"] = 10;
  a.counters["only_a"] = 1;
  a.gauges["bytes"] = 100.0;
  a.histograms["lat"].buckets[3] = 4;
  a.histograms["lat"].count = 4;
  a.histograms["lat"].sum_ns = 24;

  StatsSnapshot b;
  b.counters["answered"] = 5;
  b.gauges["bytes"] = 50.0;
  b.histograms["lat"].buckets[3] = 1;
  b.histograms["lat"].buckets[9] = 2;
  b.histograms["lat"].count = 3;
  b.histograms["lat"].sum_ns = 1030;

  const std::vector<StatsSnapshot> shards = {a, b};
  const StatsSnapshot merged = MergeSnapshots(shards);
  EXPECT_EQ(merged.counters.at("answered"), 15u);
  EXPECT_EQ(merged.counters.at("only_a"), 1u);
  EXPECT_EQ(merged.gauges.at("bytes"), 150.0);
  EXPECT_EQ(merged.histograms.at("lat").buckets[3], 5u);
  EXPECT_EQ(merged.histograms.at("lat").buckets[9], 2u);
  EXPECT_EQ(merged.histograms.at("lat").count, 7u);
  EXPECT_EQ(merged.histograms.at("lat").sum_ns, 1054u);
}

TEST(StatsTest, QuantileInterpolatesWithinBucket) {
  HistogramData h;
  h.buckets[10] = 100;  // all mass in [512, 1024)
  h.count = 100;
  const double p0 = HistogramQuantile(h, 0.0);
  const double p50 = HistogramQuantile(h, 0.5);
  const double p100 = HistogramQuantile(h, 1.0);
  EXPECT_GE(p0, 512.0);
  EXPECT_LE(p100, 1024.0);
  EXPECT_LT(p0, p50);
  EXPECT_LT(p50, p100);
}

TEST(StatsTest, QuantileWalksAcrossBuckets) {
  HistogramData h;
  h.buckets[4] = 90;   // [8, 16)
  h.buckets[20] = 10;  // [2^19, 2^20)
  h.count = 100;
  EXPECT_LT(HistogramQuantile(h, 0.5), 16.0);
  EXPECT_GE(HistogramQuantile(h, 0.95), static_cast<double>(1u << 19));
  EXPECT_EQ(HistogramQuantile(HistogramData{}, 0.5), 0.0);  // empty
}

TEST(StatsTest, PrometheusTextIsDeterministic) {
  StatsSnapshot snap;
  snap.counters["geer_serve_answered_total{method=\"GEER\"}"] = 7;
  snap.gauges["geer_cache_bytes"] = 2048.0;
  snap.histograms["geer_serve_latency_ns{method=\"GEER\"}"].buckets[10] = 3;
  snap.histograms["geer_serve_latency_ns{method=\"GEER\"}"].count = 3;
  snap.histograms["geer_serve_latency_ns{method=\"GEER\"}"].sum_ns = 2100;

  const std::string text = RenderPrometheusText(snap);
  EXPECT_EQ(text, RenderPrometheusText(snap));  // bit-identical re-render
  EXPECT_NE(
      text.find("geer_serve_answered_total{method=\"GEER\"} 7"),
      std::string::npos);
  EXPECT_NE(text.find("geer_cache_bytes 2048"), std::string::npos);
  EXPECT_NE(text.find("geer_serve_latency_ns_count{method=\"GEER\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("geer_serve_latency_ns_sum_ns{method=\"GEER\"} 2100"),
            std::string::npos);
  EXPECT_NE(text.find("quantile=\"0.95\""), std::string::npos);
  EXPECT_EQ(text.back(), '\n');
}

}  // namespace
}  // namespace geer::obs
