// Networked-serving bench: what the wire + router hop costs over the
// in-process QueryService, on the same Zipf workload. Each method cell
// replays ONE shuffled Zipf query set in three serving configurations:
//
//   inproc:     QueryService submitted to directly (the PR-7 serving
//               tier) through the closed-loop driver
//   net_closed: a full loopback deployment — two shard replicas + a
//               router on ephemeral ports — driven through NetSubmitter
//               by the SAME closed-loop driver (K clients, one query in
//               flight each)
//   net_open:   the same deployment under the open-loop burst driver
//               (every query submitted at once; measures pipelining of
//               the sender pool + server-side micro-batching)
//
// Before reporting, every networked answer is checked BIT-IDENTICAL to
// the in-process one — the wire tier's determinism contract (the λ each
// replica would derive is pre-derived once here and shipped in options,
// matching what the shards compute; net_determinism_test pins the
// derivation itself). The numbers land in EXPERIMENTS.md ("Networked
// serving"); ctest runs it at --scale=0.02 (bench_net_throughput_smoke)
// for the bit-identity check.
//
//   bench_net_throughput [--scale=f] [--seed=n] [--tp-scale=f]
//                        [--threads=n] [--clients=n] [--rounds=n] [--csv]

#include <cstdio>
#include <cstring>
#include <numeric>

#include "bench/bench_common.h"
#include "core/registry.h"
#include "eval/arrival_trace.h"
#include "eval/experiment.h"
#include "linalg/spectral.h"
#include "net/router.h"
#include "net/shard_service.h"
#include "net/submitter.h"
#include "serve/query_service.h"
#include "util/check.h"

namespace geer {
namespace {

std::vector<QueryPair> ZipfQueries(NodeId n, int rounds, std::uint64_t seed) {
  std::vector<NodeId> ranking(n);
  std::iota(ranking.begin(), ranking.end(), NodeId{0});
  return MakeZipfQueries(ranking, static_cast<std::size_t>(128) * rounds, 0.8,
                         seed);
}

void Report(bool csv, const char* method, const char* dataset, double epsilon,
            const char* mode, std::size_t queries,
            const ServedWorkloadResult& r) {
  const double ms_per_q =
      r.answered > 0 ? r.wall_seconds * 1e3 / static_cast<double>(r.answered)
                     : 0.0;
  if (csv) {
    std::printf("%s,%s,%g,%s,%zu,%.1f,%.4f,%.4f,%.4f,%.2f,%.4f\n", method,
                dataset, epsilon, mode, queries, r.throughput_qps, r.p50_ms,
                r.p95_ms, r.p99_ms, r.avg_batch, ms_per_q);
  } else {
    std::printf("%-8s %-10s %6g %-11s %12.1f %9.3f %9.3f %9.3f %9.2f %9.4f\n",
                method, dataset, epsilon, mode, r.throughput_qps, r.p50_ms,
                r.p95_ms, r.p99_ms, r.avg_batch, ms_per_q);
  }
}

int Main(int argc, char** argv) {
  bench::BenchArgs args;
  int threads = 2;
  int clients = 4;
  int rounds = 2;
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
    } else if (auto v = value("--clients")) {
      clients = std::atoi(v->c_str());
    } else if (auto v = value("--rounds")) {
      rounds = std::atoi(v->c_str());
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
      {"GEER", "facebook", 0.2},
      {"SMM", "dblp", 0.05},
  };

  if (args.csv) {
    std::printf(
        "method,dataset,epsilon,mode,queries,throughput_qps,p50_ms,p95_ms,"
        "p99_ms,avg_batch,ms_per_q\n");
  } else {
    std::printf(
        "# zipf(0.8) trace: %d queries; 2 shard replicas + router on "
        "loopback; threads=%d clients=%d tp/tpc scale=%g\n",
        128 * rounds, threads, clients, args.tp_scale);
    std::printf("%-8s %-10s %6s %-11s %12s %9s %9s %9s %9s %9s\n", "method",
                "dataset", "eps", "mode", "qps", "p50_ms", "p95_ms", "p99_ms",
                "avg_batch", "ms/q");
  }

  for (const Cell& cell : cells) {
    auto ds = MakeDataset(cell.dataset, args.scale > 0 ? args.scale : 0.1);
    GEER_CHECK(ds.has_value());
    const NodeId n = ds->graph.NumNodes();
    const std::vector<QueryPair> queries = ZipfQueries(n, rounds, args.seed);

    // One λ, derived the way a shard would and shipped in options to
    // every replica AND the in-process service — identical inputs are
    // the precondition of the bit-identity check below.
    ErOptions opt = args.BaseOptions(cell.epsilon);
    opt.lambda = ComputeSpectralBoundsT<UnitWeight>(ds->graph).lambda;

    ServeOptions serve;
    serve.threads = threads;
    serve.max_batch_size = 32;
    serve.max_linger_seconds = 0.0;

    // inproc: the QueryService is the submitter.
    auto estimator = CreateEstimator(cell.method, ds->graph, opt);
    GEER_CHECK(estimator != nullptr);
    ServedWorkloadResult inproc;
    {
      QueryService service(*estimator, serve);
      inproc = RunClosedLoopWorkload(service, queries, clients);
    }
    GEER_CHECK_EQ(inproc.answered, queries.size()) << cell.method;
    Report(args.csv, cell.method, cell.dataset, cell.epsilon, "inproc",
           queries.size(), inproc);

    // Loopback deployment: two full replicas + a router.
    net::ShardOptions shard;
    shard.num_shards = 2;
    shard.method = cell.method;
    shard.er = opt;
    shard.serve = serve;
    std::string error;
    net::ShardServer shard0(ds->graph, shard);
    shard.shard_id = 1;
    net::ShardServer shard1(ds->graph, shard);
    GEER_CHECK(shard0.Start(&error)) << error;
    GEER_CHECK(shard1.Start(&error)) << error;
    net::RouterOptions router_options;
    router_options.connections_per_shard = clients;
    net::Router router({{"127.0.0.1", shard0.port()},
                        {"127.0.0.1", shard1.port()}},
                       router_options);
    GEER_CHECK(router.Start(&error)) << error;

    const struct {
      const char* name;
      bool closed;
    } net_modes[] = {{"net_closed", true}, {"net_open", false}};
    for (const auto& mode : net_modes) {
      net::NetSubmitter submitter("127.0.0.1", router.port(), clients);
      GEER_CHECK(submitter.Connect(&error)) << error;
      ServedWorkloadResult net_result;
      if (mode.closed) {
        net_result = RunClosedLoopWorkload(submitter, queries, clients);
      } else {
        const auto trace = MakeOpenLoopTrace(queries, /*qps=*/0.0, args.seed);
        net_result = RunServedWorkload(submitter, trace,
                                       /*deadline_seconds=*/0.0,
                                       /*realtime=*/false);
      }
      submitter.Close();
      GEER_CHECK_EQ(net_result.answered, queries.size())
          << cell.method << " " << mode.name;
      for (std::size_t i = 0; i < queries.size(); ++i) {
        GEER_CHECK(net_result.values[i] == inproc.values[i])
            << cell.method << " " << mode.name
            << " networked answer diverged from in-process at query " << i;
      }
      Report(args.csv, cell.method, cell.dataset, cell.epsilon, mode.name,
             queries.size(), net_result);
    }

    router.Stop();
    router.Wait();
    shard0.Stop();
    shard0.Wait();
    shard1.Stop();
    shard1.Wait();
  }
  return 0;
}

}  // namespace
}  // namespace geer

int main(int argc, char** argv) { return geer::Main(argc, argv); }
