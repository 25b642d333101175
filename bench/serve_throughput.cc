// Serving-throughput bench: quantifies what the micro-batching scheduler
// buys over batch-size-1 dispatch on grouped-by-source traffic, per
// algorithm that shares batch work. Each method cell replays the SAME
// compressed burst trace through RunServedWorkload in three serving
// configurations:
//
//   batch1:    max_batch_size = 1, session caches off — every query
//              dispatched alone, shared precomputation rebuilt per call
//              (the naive serving baseline the ISSUE motivates against)
//   coalesced: max_batch_size = 32, session caches off — same-source
//              queries ride one micro-batch and share walk populations /
//              SpMV iterates within it
//   session:   coalesced + per-worker session caches — SMM/GEER source
//              iterates additionally persist across micro-batches
//
// and verifies the three answer vectors are bit-identical to the serial
// Estimate loop before reporting throughput, client-latency percentiles
// and mean micro-batch size. The numbers land in EXPERIMENTS.md and in
// the CI BENCH JSON (tools/run_bench.sh).
//
// The trace repeats a grouped-by-source query set (8 sources × 16
// targets) over --rounds rounds, so sources RECUR across micro-batches —
// the access pattern session caches exist for.
//
// --obs-overhead switches to the instrumentation-overhead harness: two
// cells (GEER/dblp, TP/facebook) run the session configuration twice,
// once with the metrics registry gated off (mode "obs_off") and once
// recording (mode "obs_on"), same CSV columns. tools/run_bench.sh turns
// the qps delta into the obs/<dataset>/overhead_pct series that
// tools/check_bench.sh pins to ≤2%.
//
//   bench_serve_throughput [--scale=f] [--seed=n] [--tp-scale=f]
//                          [--threads=n] [--rounds=n] [--csv]
//                          [--obs-overhead]

#include <cmath>
#include <cstdio>
#include <cstring>
#include <optional>
#include <span>

#include "bench/bench_common.h"
#include "core/registry.h"
#include "eval/arrival_trace.h"
#include "eval/experiment.h"
#include "obs/metrics.h"
#include "util/check.h"

namespace geer {
namespace {

// The batch_shared bench's workload shape, repeated so sources recur.
std::vector<QueryPair> GroupedQueries(NodeId n, int rounds) {
  const NodeId kSources = 8;
  const NodeId kTargetsPerSource = 16;
  std::vector<QueryPair> queries;
  for (int r = 0; r < rounds; ++r) {
    for (NodeId i = 0; i < kSources; ++i) {
      const NodeId s = static_cast<NodeId>((i * n) / kSources);
      for (NodeId j = 0; j < kTargetsPerSource; ++j) {
        const NodeId t = static_cast<NodeId>((s + 1 + 37 * j) % n);
        if (t != s) queries.push_back({s, t});
      }
    }
  }
  return queries;
}

struct Mode {
  const char* name;
  std::size_t max_batch_size;
  std::size_t session_cache_bytes;
};

int Main(int argc, char** argv) {
  bench::BenchArgs args;
  int threads = 1;
  int rounds = 2;
  bool obs_overhead = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&arg](const char* key) -> std::optional<std::string> {
      const std::string prefix = std::string(key) + "=";
      if (arg.rfind(prefix, 0) == 0) return arg.substr(prefix.size());
      return std::nullopt;
    };
    if (auto v = value("--scale")) {
      args.scale = std::atof(v->c_str());
    } else if (auto v = value("--seed")) {
      args.seed = static_cast<std::uint64_t>(std::atoll(v->c_str()));
    } else if (auto v = value("--tp-scale")) {
      args.tp_scale = std::atof(v->c_str());
      args.tpc_scale = args.tp_scale;
    } else if (auto v = value("--threads")) {
      threads = std::atoi(v->c_str());
    } else if (auto v = value("--rounds")) {
      rounds = std::atoi(v->c_str());
    } else if (arg == "--csv") {
      args.csv = true;
    } else if (arg == "--obs-overhead") {
      obs_overhead = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return 2;
    }
  }

  struct Cell {
    const char* method;
    const char* dataset;
    double epsilon;
  };
  const Cell scheduler_cells[] = {
      {"GEER", "dblp", 0.05},
      {"SMM", "dblp", 0.05},
      {"TP", "facebook", 0.2},
      {"TPC", "facebook", 0.2},
  };
  const Mode scheduler_modes[] = {
      {"batch1", 1, 0},
      {"coalesced", 32, 0},
      {"session", 32, 64ull << 20},
  };
  // Overhead harness: the production serving configuration (session),
  // gated off vs recording. Two method families suffice — one walk-based
  // cache-heavy (GEER) and one SpMV-based (TP).
  const Cell obs_cells[] = {
      {"GEER", "dblp", 0.05},
      {"TP", "facebook", 0.2},
  };
  const Mode obs_modes[] = {
      {"obs_off", 32, 64ull << 20},
      {"obs_on", 32, 64ull << 20},
  };
  const std::span<const Cell> cells =
      obs_overhead ? std::span<const Cell>(obs_cells)
                   : std::span<const Cell>(scheduler_cells);
  const std::span<const Mode> modes =
      obs_overhead ? std::span<const Mode>(obs_modes)
                   : std::span<const Mode>(scheduler_modes);

  if (args.csv) {
    std::printf(
        "method,dataset,epsilon,mode,queries,throughput_qps,p50_ms,p95_ms,"
        "p99_ms,avg_batch,ms_per_q\n");
  } else {
    std::printf(
        "# grouped trace: 8 sources x 16 targets x %d rounds (burst); "
        "tp/tpc scale=%g, threads=%d\n",
        rounds, args.tp_scale, threads);
    std::printf("%-8s %-10s %6s %-10s %12s %9s %9s %9s %9s %9s\n", "method",
                "dataset", "eps", "mode", "qps", "p50_ms", "p95_ms",
                "p99_ms", "avg_batch", "ms/q");
  }

  for (const Cell& cell : cells) {
    auto ds = MakeDataset(cell.dataset, args.scale > 0 ? args.scale : 0.1);
    GEER_CHECK(ds.has_value());
    const std::vector<QueryPair> queries =
        GroupedQueries(ds->graph.NumNodes(), rounds);
    const std::vector<TraceEvent> trace =
        MakeOpenLoopTrace(queries, /*qps=*/0.0, args.seed);
    ErOptions opt = args.BaseOptions(cell.epsilon);
    opt.lambda = ds->spectral.lambda;

    // Serial ground truth the served modes must reproduce bit for bit.
    std::vector<double> serial_values(queries.size());
    {
      auto estimator = CreateEstimator(cell.method, ds->graph, opt);
      for (std::size_t i = 0; i < queries.size(); ++i) {
        serial_values[i] =
            estimator->Estimate(queries[i].s, queries[i].t);
      }
    }

    for (const Mode& mode : modes) {
      if (obs_overhead) {
        obs::SetEnabled(std::strcmp(mode.name, "obs_on") == 0);
      }
      auto estimator = CreateEstimator(cell.method, ds->graph, opt);
      ServeOptions serve_options;
      serve_options.max_batch_size = mode.max_batch_size;
      serve_options.max_linger_seconds = 0.0;
      serve_options.threads = threads;
      serve_options.session_cache_bytes = mode.session_cache_bytes;
      const ServedWorkloadResult served =
          RunServedWorkload(*estimator, trace, serve_options,
                            /*deadline_seconds=*/0.0, /*realtime=*/false);
      GEER_CHECK_EQ(served.answered, queries.size())
          << cell.method << " " << mode.name;
      for (std::size_t i = 0; i < queries.size(); ++i) {
        GEER_CHECK(served.values[i] == serial_values[i])
            << cell.method << " " << mode.name
            << " served answer diverged from serial at query " << i;
      }
      const double ms_per_q =
          served.wall_seconds * 1e3 / static_cast<double>(served.answered);
      if (args.csv) {
        std::printf("%s,%s,%g,%s,%zu,%.1f,%.4f,%.4f,%.4f,%.2f,%.4f\n",
                    cell.method, cell.dataset, cell.epsilon, mode.name,
                    queries.size(), served.throughput_qps, served.p50_ms,
                    served.p95_ms, served.p99_ms, served.avg_batch,
                    ms_per_q);
      } else {
        std::printf(
            "%-8s %-10s %6g %-10s %12.1f %9.3f %9.3f %9.3f %9.2f %9.4f\n",
            cell.method, cell.dataset, cell.epsilon, mode.name,
            served.throughput_qps, served.p50_ms, served.p95_ms,
            served.p99_ms, served.avg_batch, ms_per_q);
      }
    }
  }
  obs::SetEnabled(true);  // leave the process-wide gate as found
  return 0;
}

}  // namespace
}  // namespace geer

int main(int argc, char** argv) { return geer::Main(argc, argv); }
