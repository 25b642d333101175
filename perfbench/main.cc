// perfbench: the repository benchmark's load generator (see README.md).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <path>]
//
// Prints human-readable lines, then as the LAST line one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1 (which also writes
// the span log as a Chrome trace to --trace-out). Exits 1 when a
// correctness check fails, naming it, and 2 on bad arguments.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <path>]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  RunConfig config;
  int trace = -1;
  std::string trace_out;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      trace = std::atoi(value.c_str());
    } else if (flag == "--trace-out") {
      trace_out = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  bool known = false;
  for (const std::string& name : WorkloadNames()) {
    known |= name == config.workload;
  }
  if (!known) return Usage("unknown or missing --workload");
  if (trace != 0 && trace != 1) return Usage("--trace must be 0 or 1");
  if (!(config.seconds > 0.0)) return Usage("--seconds must be positive");

  SpanLog log(trace == 1);
  RunResult result = RunWorkload(config, log);

  // A layer the workload does not reach reads 0.
  for (const MetricDef& def : LayerMetrics()) {
    result.per_layer.try_emplace(def.name, 0.0);
  }
  const std::vector<MetricDef>& printed =
      trace == 1 ? LayerMetrics() : EndToEndMetrics();
  const auto& values = trace == 1 ? result.per_layer : result.end_to_end;
  for (const MetricDef& def : printed) {
    const auto it = values.find(def.name);
    if (it == values.end() || !std::isfinite(it->second)) {
      result.Check(std::string("metric_") + def.name, false,
                   "not reported, or not finite");
    }
  }
  if (trace == 1 && !trace_out.empty()) {
    result.Check("trace_written", log.WriteChromeTrace(trace_out),
                 std::to_string(log.size()) + " spans to " + trace_out);
  }

  bool correct = true;
  for (const auto& [name, ok] : result.checks) correct &= ok;
  std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n",
              config.workload.c_str(),
              static_cast<unsigned long long>(config.seed), config.seconds,
              trace);
  for (const std::string& note : result.notes) {
    std::printf("  %s\n", note.c_str());
  }
  for (const MetricDef& def : printed) {
    const auto it = values.find(def.name);
    std::printf("  %-28s %14.6g %s\n", def.name,
                it != values.end() ? it->second : 0.0, def.unit);
  }

  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " +
          std::to_string(std::max<std::uint64_t>(1, result.attempted));
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < printed.size(); ++i) {
    const auto it = values.find(printed[i].name);
    const double v =
        it != values.end() && std::isfinite(it->second) ? it->second : 0.0;
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", printed[i].name, v, printed[i].unit);
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  if (!correct) {
    for (const auto& [name, ok] : result.checks) {
      if (!ok) {
        std::fprintf(stderr, "perfbench: check failed: %s\n", name.c_str());
      }
    }
    return 1;
  }
  return 0;
}
