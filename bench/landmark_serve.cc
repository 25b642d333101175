// Landmark-cache serving bench: quantifies what the landmark/hub layer
// buys on Zipf-skewed traffic — the workload the sublinear serving path
// is designed for. Each method cell replays the SAME Zipf burst trace
// (both endpoints drawn ∝ rank^-zipf over the degree ranking, so a few
// hubs dominate both query sides) through RunServedWorkload in three
// configurations:
//
//   off:      session caches off — per-endpoint walk populations /
//             solver columns rebuilt on every micro-batch (baseline)
//   session:  64 MB per-worker session caches, no landmarks — hubs are
//             cached after first touch but compete for budget and can
//             be evicted by one-off tail endpoints
//   landmark: session + the top --landmarks hubs warmed and PINNED per
//             worker at startup (ServeOptions::landmarks), so the hub
//             side of every skewed query is a guaranteed cache hit
//
// and verifies all three answer vectors are bit-identical to the serial
// Estimate loop before reporting throughput, latency percentiles and
// cache hit rate. The numbers land in EXPERIMENTS.md and in the CI
// BENCH JSON landmark/ series (tools/run_bench.sh), where the
// landmark-vs-off throughput ratio is an acceptance gate.
//
//   bench_landmark_serve [--scale=f] [--seed=n] [--tp-scale=f]
//                        [--threads=n] [--queries=n] [--zipf=f]
//                        [--landmarks=n] [--csv]

#include <cmath>
#include <cstdio>
#include <cstring>

#include "bench/bench_common.h"
#include "centrality/landmarks.h"
#include "core/registry.h"
#include "eval/arrival_trace.h"
#include "eval/experiment.h"
#include "util/check.h"

namespace geer {
namespace {

struct Mode {
  const char* name;
  std::size_t session_cache_bytes;
  std::size_t num_landmarks;
};

int Main(int argc, char** argv) {
  bench::BenchArgs args;
  int threads = 1;
  std::size_t num_queries = 256;
  double zipf = 1.2;
  std::size_t num_landmarks = 64;
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
    } else if (auto v = value("--queries")) {
      num_queries = static_cast<std::size_t>(std::atoll(v->c_str()));
    } else if (auto v = value("--zipf")) {
      zipf = std::atof(v->c_str());
    } else if (auto v = value("--landmarks")) {
      num_landmarks = static_cast<std::size_t>(std::atoll(v->c_str()));
    } else if (arg == "--csv") {
      args.csv = true;
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
  const Cell cells[] = {
      {"GEER", "facebook", 0.05},
      {"SMM", "facebook", 0.05},
      {"TP", "facebook", 0.2},
      {"TPC", "facebook", 0.2},
  };
  const Mode modes[] = {
      {"off", 0, 0},
      {"session", 64ull << 20, 0},
      {"landmark", 64ull << 20, num_landmarks},
  };

  if (args.csv) {
    std::printf(
        "method,dataset,epsilon,mode,queries,throughput_qps,p50_ms,p95_ms,"
        "p99_ms,hit_rate,ms_per_q\n");
  } else {
    std::printf(
        "# zipf(%.2f) trace: %zu queries over degree ranking; landmarks=%zu "
        "tp/tpc scale=%g, threads=%d\n",
        zipf, num_queries, num_landmarks, args.tp_scale, threads);
    std::printf("%-8s %-10s %6s %-10s %12s %9s %9s %9s %9s %9s\n", "method",
                "dataset", "eps", "mode", "qps", "p50_ms", "p95_ms",
                "p99_ms", "hit_rate", "ms/q");
  }

  for (const Cell& cell : cells) {
    auto ds = MakeDataset(cell.dataset, args.scale > 0 ? args.scale : 0.1);
    GEER_CHECK(ds.has_value());
    // Popularity ranking = full degree ordering; the Zipf head therefore
    // coincides with the landmark set (the regime the layer targets).
    const std::vector<NodeId> ranking =
        SelectLandmarks(ds->graph, ds->graph.NumNodes());
    const std::vector<QueryPair> queries =
        MakeZipfQueries(ranking, num_queries, zipf, args.seed);
    const std::vector<TraceEvent> trace =
        MakeOpenLoopTrace(queries, /*qps=*/0.0, args.seed);
    ErOptions opt = args.BaseOptions(cell.epsilon);
    opt.lambda = ds->spectral.lambda;

    // Serial ground truth every served mode must reproduce bit for bit —
    // landmark warming must not change a single answer.
    std::vector<double> serial_values(queries.size());
    {
      auto estimator = CreateEstimator(cell.method, ds->graph, opt);
      for (std::size_t i = 0; i < queries.size(); ++i) {
        serial_values[i] = estimator->Estimate(queries[i].s, queries[i].t);
      }
    }

    for (const Mode& mode : modes) {
      auto estimator = CreateEstimator(cell.method, ds->graph, opt);
      ServeOptions serve_options;
      serve_options.max_batch_size = 32;
      serve_options.max_linger_seconds = 0.0;
      serve_options.threads = threads;
      serve_options.session_cache_bytes = mode.session_cache_bytes;
      if (mode.num_landmarks > 0) {
        serve_options.landmarks =
            SelectLandmarks(ds->graph, mode.num_landmarks);
      }
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
      const std::uint64_t lookups =
          served.session_cache.hits + served.session_cache.misses;
      const double hit_rate =
          lookups > 0
              ? static_cast<double>(served.session_cache.hits) /
                    static_cast<double>(lookups)
              : 0.0;
      const double ms_per_q =
          served.wall_seconds * 1e3 / static_cast<double>(served.answered);
      if (args.csv) {
        std::printf("%s,%s,%g,%s,%zu,%.1f,%.4f,%.4f,%.4f,%.4f,%.4f\n",
                    cell.method, cell.dataset, cell.epsilon, mode.name,
                    queries.size(), served.throughput_qps, served.p50_ms,
                    served.p95_ms, served.p99_ms, hit_rate, ms_per_q);
      } else {
        std::printf(
            "%-8s %-10s %6g %-10s %12.1f %9.3f %9.3f %9.3f %9.4f %9.4f\n",
            cell.method, cell.dataset, cell.epsilon, mode.name,
            served.throughput_qps, served.p50_ms, served.p95_ms,
            served.p99_ms, hit_rate, ms_per_q);
      }
    }
  }
  return 0;
}

}  // namespace
}  // namespace geer

int main(int argc, char** argv) { return geer::Main(argc, argv); }
