#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string_view>

namespace perfbench {

std::uint64_t StreamSeed(std::uint64_t seed, std::uint64_t tag) {
  Rng rng(seed * 0x2545f4914f6cdd1dull + tag);
  rng.Next();
  return rng.Next();
}

std::vector<NodeId> DegreeRanking(const geer::Graph& graph) {
  std::vector<NodeId> ranking(graph.NumNodes());
  for (NodeId v = 0; v < graph.NumNodes(); ++v) ranking[v] = v;
  std::stable_sort(ranking.begin(), ranking.end(), [&](NodeId a, NodeId b) {
    return graph.Degree(a) > graph.Degree(b);
  });
  return ranking;
}

ZipfSampler::ZipfSampler(std::vector<NodeId> ranking, double exponent)
    : ranking_(std::move(ranking)) {
  cdf_.resize(ranking_.size());
  double total = 0.0;
  for (std::size_t k = 0; k < ranking_.size(); ++k) {
    total += std::pow(static_cast<double>(k + 1), -exponent);
    cdf_[k] = total;
  }
  for (double& c : cdf_) c /= total;
}

NodeId ZipfSampler::Draw(Rng& rng) const {
  const double u = rng.Uniform();
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  const std::size_t k = std::min<std::size_t>(
      static_cast<std::size_t>(it - cdf_.begin()), ranking_.size() - 1);
  return ranking_[k];
}

std::vector<QueryPair> UniformPairs(NodeId num_nodes, std::size_t count,
                                    std::uint64_t seed) {
  Rng rng(seed);
  std::vector<QueryPair> pairs(count);
  for (QueryPair& q : pairs) {
    q.s = static_cast<NodeId>(rng.Below(num_nodes));
    do {
      q.t = static_cast<NodeId>(rng.Below(num_nodes));
    } while (q.t == q.s);
  }
  return pairs;
}

std::vector<QueryPair> ZipfPairs(const ZipfSampler& zipf, std::size_t count,
                                 std::uint64_t seed) {
  Rng rng(seed);
  std::vector<QueryPair> pairs(count);
  for (QueryPair& q : pairs) {
    q.s = zipf.Draw(rng);
    do {
      q.t = zipf.Draw(rng);
    } while (q.t == q.s);
  }
  return pairs;
}

std::vector<QueryPair> AllPairs(const std::vector<NodeId>& nodes) {
  std::vector<QueryPair> pairs;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    for (std::size_t j = i + 1; j < nodes.size(); ++j) {
      pairs.push_back({nodes[i], nodes[j]});
    }
  }
  return pairs;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

std::size_t Windows::Count() const {
  return static_cast<std::size_t>(seconds / window_s + 1e-9);
}

std::size_t Windows::Index(std::uint64_t t) const {
  if (t < start_ns) return Count();
  const auto k = static_cast<std::size_t>(
      static_cast<double>(t - start_ns) / (window_s * 1e9));
  return std::min(k, Count());
}

double Windows::Quantile(const std::vector<std::uint64_t>& at_ns,
                         const std::vector<double>& values, double q,
                         double over) const {
  std::vector<std::vector<double>> per(Count());
  for (std::size_t i = 0; i < at_ns.size(); ++i) {
    const std::size_t k = Index(at_ns[i]);
    if (k < per.size()) per[k].push_back(values[i]);
  }
  std::vector<double> figures;
  for (auto& w : per) {
    if (!w.empty()) figures.push_back(perfbench::Quantile(std::move(w), q));
  }
  return perfbench::Quantile(figures, over);
}

double Windows::Rate(const std::vector<std::uint64_t>& at_ns) const {
  const auto end_ns = start_ns + static_cast<std::uint64_t>(seconds * 1e9);
  double events = 0.0;
  for (std::uint64_t t : at_ns) events += t >= start_ns && t < end_ns;
  return events / seconds;
}

double Windows::Ratio(const std::vector<std::uint64_t>& at_ns,
                      const std::vector<double>& num,
                      const std::vector<double>& den) const {
  std::vector<double> sum_num(Count(), 0.0);
  std::vector<double> sum_den(Count(), 0.0);
  for (std::size_t i = 0; i < at_ns.size(); ++i) {
    const std::size_t k = Index(at_ns[i]);
    if (k < sum_num.size()) {
      sum_num[k] += num[i];
      sum_den[k] += den[i];
    }
  }
  std::vector<double> figures;
  for (std::size_t k = 0; k < sum_num.size(); ++k) {
    if (sum_den[k] > 0.0) figures.push_back(sum_num[k] / sum_den[k]);
  }
  return perfbench::Quantile(figures, 0.5);
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::int64_t SpanLog::Add(const char* name, std::uint64_t id,
                          std::int64_t parent, std::uint64_t start_ns,
                          std::uint64_t end_ns, std::uint32_t lane) {
  if (!enabled_) return -1;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({name, id, parent, start_ns, end_ns, lane});
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

std::vector<double> SpanLog::DurationsMs(const char* name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const SpanRecord& s : spans_) {
    if (std::string_view(s.name) == name) {
      out.push_back(MsBetween(s.start_ns, s.end_ns));
    }
  }
  return out;
}

double SpanLog::MeanSelfMs(const char* name) const {
  std::lock_guard<std::mutex> lock(mu_);
  // Union of the children's intervals, clipped to the parent.
  std::map<std::int64_t, std::vector<std::pair<std::uint64_t, std::uint64_t>>>
      children;
  for (const SpanRecord& s : spans_) {
    if (s.parent >= 0) children[s.parent].push_back({s.start_ns, s.end_ns});
  }
  double total_ms = 0.0;
  std::size_t count = 0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    if (std::string_view(s.name) != name) continue;
    std::uint64_t covered = 0;
    auto it = children.find(static_cast<std::int64_t>(i));
    if (it != children.end()) {
      auto intervals = it->second;
      std::sort(intervals.begin(), intervals.end());
      std::uint64_t cursor = s.start_ns;
      for (auto [b, e] : intervals) {
        b = std::max(b, cursor);
        e = std::min(e, s.end_ns);
        if (e > b) {
          covered += e - b;
          cursor = e;
        }
      }
    }
    total_ms += MsBetween(s.start_ns, s.end_ns) -
                static_cast<double>(covered) / 1e6;
    ++count;
  }
  return count == 0 ? 0.0 : total_ms / static_cast<double>(count);
}

std::size_t SpanLog::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

bool SpanLog::WriteChromeTrace(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  if (!out) return false;
  std::uint64_t origin = UINT64_MAX;
  for (const SpanRecord& s : spans_) origin = std::min(origin, s.start_ns);
  out << "{\"traceEvents\":[";
  char buf[256];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                  "\"parent\":%lld}}",
                  i == 0 ? "" : ",", s.name, s.lane,
                  static_cast<double>(s.start_ns - origin) / 1e3,
                  MsBetween(s.start_ns, s.end_ns) * 1e3,
                  static_cast<unsigned long long>(s.id),
                  static_cast<long long>(s.parent));
    out << buf;
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

double SpanCostNs() {
  constexpr int kSpans = 20000;
  std::vector<double> rounds;
  for (int r = 0; r < 5; ++r) {
    SpanLog scratch(true);
    const std::uint64_t start = NowNs();
    for (int i = 0; i < kSpans; ++i) {
      scratch.Add("calibrate", static_cast<std::uint64_t>(i), -1, start,
                  start + 1);
    }
    rounds.push_back(static_cast<double>(NowNs() - start) / kSpans);
  }
  return Quantile(rounds, 0.5);
}

void RunResult::Check(const std::string& name, bool ok,
                      const std::string& detail) {
  checks.push_back({name, ok});
  notes.push_back(std::string(ok ? "check ok   " : "check FAIL ") + name +
                  ": " + detail);
}

}  // namespace perfbench
