// The benchmark workloads and the metric tables they report into.
// Every workload reports every metric of both tables: end-to-end metrics
// are defined for all of them, and a per-layer metric of a layer the
// workload does not reach reads 0.

#ifndef GEER_PERFBENCH_WORKLOADS_H_
#define GEER_PERFBENCH_WORKLOADS_H_

#include <string>
#include <vector>

#include "harness.h"

namespace perfbench {

struct MetricDef {
  const char* name;
  const char* unit;
};

const std::vector<MetricDef>& EndToEndMetrics();
const std::vector<MetricDef>& LayerMetrics();
std::vector<std::string> WorkloadNames();

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
};

/// Runs one workload: set-up, warm-up, the timed phase and the
/// correctness checks. With `log` enabled (the traced run) it also runs
/// the layer-only phases and fills the per-layer metrics.
RunResult RunWorkload(const RunConfig& config, SpanLog& log);

}  // namespace perfbench

#endif  // GEER_PERFBENCH_WORKLOADS_H_
