#include "obs/stats.h"

#include <algorithm>
#include <bit>
#include <cstdio>

namespace geer::obs {
namespace {

/// Splits `geer_x_ns{method="GEER"}` into family + label body (empty
/// body when unlabeled) so suffixes like `_count` attach to the family,
/// not after the closing brace.
void SplitName(const std::string& name, std::string* family,
               std::string* labels) {
  const std::size_t brace = name.find('{');
  if (brace == std::string::npos || name.back() != '}') {
    *family = name;
    labels->clear();
    return;
  }
  *family = name.substr(0, brace);
  *labels = name.substr(brace + 1, name.size() - brace - 2);
}

std::string WithLabels(const std::string& family, const std::string& labels,
                       const std::string& extra) {
  std::string out = family;
  if (labels.empty() && extra.empty()) return out;
  out += '{';
  out += labels;
  if (!labels.empty() && !extra.empty()) out += ',';
  out += extra;
  out += '}';
  return out;
}

void AppendNumber(std::string& out, double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  out += buf;
}

}  // namespace

std::size_t HistogramBucket(std::uint64_t ns) {
  const std::size_t width = static_cast<std::size_t>(std::bit_width(ns));
  return std::min(width, kHistogramBuckets - 1);
}

std::uint64_t HistogramBucketLower(std::size_t bucket) {
  return bucket == 0 ? 0 : std::uint64_t{1} << (bucket - 1);
}

std::uint64_t HistogramBucketUpper(std::size_t bucket) {
  return bucket == 0 ? 1 : std::uint64_t{1} << bucket;
}

HistogramData& HistogramData::operator+=(const HistogramData& other) {
  for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
    buckets[b] += b < other.buckets.size() ? other.buckets[b] : 0;
  }
  count += other.count;
  sum_ns += other.sum_ns;
  return *this;
}

StatsSnapshot MergeSnapshots(std::span<const StatsSnapshot> snapshots) {
  StatsSnapshot merged;
  for (const StatsSnapshot& s : snapshots) {
    for (const auto& [name, value] : s.counters) {
      merged.counters[name] += value;
    }
    for (const auto& [name, value] : s.gauges) {
      merged.gauges[name] += value;
    }
    for (const auto& [name, h] : s.histograms) {
      merged.histograms[name] += h;
    }
  }
  return merged;
}

double HistogramQuantile(const HistogramData& h, double q) {
  if (h.count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(h.count);
  std::uint64_t cumulative = 0;
  for (std::size_t b = 0; b < h.buckets.size(); ++b) {
    const std::uint64_t in_bucket = h.buckets[b];
    if (in_bucket == 0) continue;
    if (static_cast<double>(cumulative + in_bucket) >= rank) {
      // Linear interpolation inside the bucket: how far into this
      // bucket's mass the requested rank lands.
      const double lower = static_cast<double>(HistogramBucketLower(b));
      const double upper = static_cast<double>(HistogramBucketUpper(b));
      const double frac =
          (rank - static_cast<double>(cumulative)) /
          static_cast<double>(in_bucket);
      return lower + (upper - lower) * std::clamp(frac, 0.0, 1.0);
    }
    cumulative += in_bucket;
  }
  return static_cast<double>(HistogramBucketUpper(h.buckets.size() - 1));
}

std::string RenderPrometheusText(const StatsSnapshot& snapshot) {
  std::string out;
  for (const auto& [name, value] : snapshot.counters) {
    out += name;
    out += ' ';
    AppendNumber(out, static_cast<double>(value));
    out += '\n';
  }
  for (const auto& [name, value] : snapshot.gauges) {
    out += name;
    out += ' ';
    AppendNumber(out, value);
    out += '\n';
  }
  const double quantiles[] = {0.5, 0.95, 0.99};
  const char* quantile_labels[] = {"quantile=\"0.5\"", "quantile=\"0.95\"",
                                   "quantile=\"0.99\""};
  for (const auto& [name, h] : snapshot.histograms) {
    std::string family;
    std::string labels;
    SplitName(name, &family, &labels);
    out += WithLabels(family + "_count", labels, "");
    out += ' ';
    AppendNumber(out, static_cast<double>(h.count));
    out += '\n';
    out += WithLabels(family + "_sum_ns", labels, "");
    out += ' ';
    AppendNumber(out, static_cast<double>(h.sum_ns));
    out += '\n';
    for (std::size_t i = 0; i < 3; ++i) {
      out += WithLabels(family, labels, quantile_labels[i]);
      out += ' ';
      AppendNumber(out, HistogramQuantile(h, quantiles[i]));
      out += '\n';
    }
  }
  return out;
}

}  // namespace geer::obs
