#include "net/roles.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <numeric>
#include <optional>
#include <thread>

#include "eval/arrival_trace.h"
#include "eval/datasets.h"
#include "eval/experiment.h"
#include "net/client.h"
#include "net/router.h"
#include "net/shard_service.h"
#include "net/submitter.h"
#include "obs/stats.h"
#include "obs/trace.h"
#include "util/flags.h"

namespace geer::net {
namespace {

/// HOST:PORT with PORT in 1–65535.
std::optional<ShardAddress> ParseHostPort(const std::string& text) {
  const std::size_t colon = text.rfind(':');
  if (colon == std::string::npos || colon == 0) return std::nullopt;
  const auto port =
      ParseNumber<std::uint16_t>(std::string_view(text).substr(colon + 1));
  if (!port || *port == 0) return std::nullopt;
  return ShardAddress{text.substr(0, colon), *port};
}

bool WritePortFile(const std::string& path, std::uint16_t port) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "%u\n", static_cast<unsigned>(port));
  std::fclose(f);
  return true;
}

/// Blocks until `stopping()` (via poll) or the guard timeout, then makes
/// sure the server is stopped. The guard keeps a CI deployment from
/// outliving its test when the teardown signal is lost.
template <typename Server>
int ServeUntilDone(Server& server, double timeout_seconds,
                   const char* role) {
  std::atomic<bool> timed_out{false};
  std::thread watchdog([&] {
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(
                timeout_seconds > 0.0 ? timeout_seconds : 3600.0));
    while (!server.stopping()) {
      if (timeout_seconds > 0.0 &&
          std::chrono::steady_clock::now() >= deadline) {
        timed_out.store(true);
        server.Stop();
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  });
  server.Wait();
  watchdog.join();
  if (timed_out.load()) {
    std::fprintf(stderr, "# %s: timeout guard fired (--timeout-seconds)\n",
                 role);
  }
  return 0;
}

int NetUsage() {
  std::fprintf(
      stderr,
      "usage: geer net shard  (--dataset=NAME [--scale=F] | --graph=PATH)\n"
      "                       [--method=NAME] [--epsilon=F] [--seed=N]\n"
      "                       [--threads=N] [--batch-size=N] [--linger-ms=F]\n"
      "                       [--shard-id=N] [--num-shards=N] [--host=H]\n"
      "                       [--port=P] [--port-file=PATH]\n"
      "                       [--timeout-seconds=F] [--trace-out=PATH]\n"
      "       geer net router --shards=H:P,H:P,... [--strategy=range|hash]\n"
      "                       [--connections=N] [--no-propagate-shutdown]\n"
      "                       [--host=H] [--port=P] [--port-file=PATH]\n"
      "                       [--timeout-seconds=F]\n"
      "       geer net client --connect=H:P [--clients=K] [--queries=N]\n"
      "                       [--zipf-exp=F] [--qps=F] [--deadline-ms=F]\n"
      "                       [--seed=N] [--csv] [--shutdown]\n"
      "       geer net stats  --connect=H:P [--prefix=NAME] [--raw]\n");
  return 2;
}

}  // namespace

int RunShardRole(const std::vector<std::string>& args) {
  std::string dataset_name;
  std::string graph_path;
  double scale = 1.0;
  std::string port_file;
  std::string trace_out;
  double timeout_seconds = 0.0;
  ShardOptions options;
  double linger_ms = 0.0;
  for (const std::string& arg : args) {
    FlagArg f(arg);
    if (f.Num("--linger-ms", &linger_ms)) {
      options.serve.max_linger_seconds = linger_ms / 1e3;
    } else if (!(f.Str("--dataset", &dataset_name) ||
                 f.Str("--graph", &graph_path) || f.Num("--scale", &scale) ||
                 f.Str("--method", &options.method) ||
                 f.Num("--epsilon", &options.er.epsilon) ||
                 f.Num("--delta", &options.er.delta) ||
                 f.Num("--tau", &options.er.tau) ||
                 f.Num("--seed", &options.er.seed) ||
                 f.Num("--threads", &options.serve.threads) ||
                 f.Num("--batch-size", &options.serve.max_batch_size) ||
                 f.Num("--shard-id", &options.shard_id) ||
                 f.Num("--num-shards", &options.num_shards) ||
                 f.Str("--host", &options.host) ||
                 f.Num("--port", &options.port) ||
                 f.Str("--port-file", &port_file) ||
                 f.Str("--trace-out", &trace_out) ||
                 f.Num("--timeout-seconds", &timeout_seconds))) {
      return NetUsage();
    }
    if (f.bad()) return NetUsage();
  }
  std::optional<Dataset> dataset;
  if (!graph_path.empty()) {
    dataset = LoadDatasetFromFile(graph_path);
  } else if (!dataset_name.empty()) {
    dataset = MakeDataset(dataset_name, scale);
  } else {
    std::fprintf(stderr, "error: shard needs --dataset or --graph\n");
    return 2;
  }
  if (!dataset) {
    std::fprintf(stderr, "error: cannot load replica graph\n");
    return 1;
  }
  // Install the tracer BEFORE the service exists so estimator
  // construction and cache warming land in the trace too.
  std::unique_ptr<obs::Tracer> tracer;
  if (!trace_out.empty()) {
    tracer = std::make_unique<obs::Tracer>();
    obs::Tracer::Install(tracer.get());
  }
  ShardServer server(std::move(dataset->graph), options);
  std::string error;
  if (!server.Start(&error)) {
    std::fprintf(stderr, "error: shard start failed: %s\n", error.c_str());
    return 1;
  }
  if (!port_file.empty() && !WritePortFile(port_file, server.port())) {
    std::fprintf(stderr, "error: cannot write --port-file\n");
    server.Stop();
    return 1;
  }
  std::printf("# shard %d/%d serving %s on %s:%u (method=%s)\n",
              options.shard_id, options.num_shards, dataset->name.c_str(),
              options.host.c_str(), static_cast<unsigned>(server.port()),
              options.method.c_str());
  std::fflush(stdout);
  const int rc = ServeUntilDone(server, timeout_seconds, "shard");
  if (tracer != nullptr) {
    obs::Tracer::Install(nullptr);
    if (!tracer->WriteChromeTrace(trace_out)) {
      std::fprintf(stderr, "warning: cannot write --trace-out=%s\n",
                   trace_out.c_str());
    } else {
      std::fprintf(stderr, "# trace written to %s\n", trace_out.c_str());
    }
  }
  return rc;
}

int RunRouterRole(const std::vector<std::string>& args) {
  std::vector<ShardAddress> shards;
  std::string port_file;
  double timeout_seconds = 0.0;
  RouterOptions options;
  for (const std::string& arg : args) {
    FlagArg f(arg);
    std::string value;
    if (f.Str("--shards", &value)) {
      std::size_t start = 0;
      while (start <= value.size()) {
        const std::size_t comma = value.find(',', start);
        const std::string item = value.substr(
            start, comma == std::string::npos ? std::string::npos
                                              : comma - start);
        if (!item.empty()) {
          auto addr = ParseHostPort(item);
          if (!addr) {
            std::fprintf(stderr, "error: bad shard address '%s'\n",
                         item.c_str());
            return NetUsage();
          }
          shards.push_back(*addr);
        }
        if (comma == std::string::npos) break;
        start = comma + 1;
      }
    } else if (f.Str("--strategy", &value)) {
      auto strategy = ParseStrategy(value);
      if (!strategy) {
        std::fprintf(stderr, "error: unknown strategy '%s'\n", value.c_str());
        return 2;
      }
      options.strategy = *strategy;
    } else if (arg == "--no-propagate-shutdown") {
      options.propagate_shutdown = false;
    } else if (!(f.Num("--connections", &options.connections_per_shard) ||
                 f.Str("--host", &options.host) ||
                 f.Num("--port", &options.port) ||
                 f.Str("--port-file", &port_file) ||
                 f.Num("--timeout-seconds", &timeout_seconds)) ||
               f.bad()) {
      return NetUsage();
    }
  }
  if (shards.empty()) {
    std::fprintf(stderr, "error: router needs --shards=H:P,...\n");
    return 2;
  }
  Router router(std::move(shards), options);
  std::string error;
  if (!router.Start(&error)) {
    std::fprintf(stderr, "error: router start failed: %s\n", error.c_str());
    return 1;
  }
  if (!port_file.empty() && !WritePortFile(port_file, router.port())) {
    std::fprintf(stderr, "error: cannot write --port-file\n");
    router.Stop();
    return 1;
  }
  std::printf("# router over %d shard(s) on %s:%u (strategy=%s)\n",
              router.num_shards(), options.host.c_str(),
              static_cast<unsigned>(router.port()),
              StrategyName(options.strategy));
  std::fflush(stdout);
  return ServeUntilDone(router, timeout_seconds, "router");
}

int RunClientRole(const std::vector<std::string>& args) {
  std::string connect;
  int clients = 4;
  std::size_t num_queries = 100;
  double zipf_exponent = 0.0;
  double qps = 0.0;
  double deadline_ms = 0.0;
  std::uint64_t seed = 1;
  bool csv = false;
  bool shutdown_server = false;
  for (const std::string& arg : args) {
    FlagArg f(arg);
    if (arg == "--csv") {
      csv = true;
    } else if (arg == "--shutdown") {
      shutdown_server = true;
    } else if (!(f.Str("--connect", &connect) ||
                 f.Num("--clients", &clients) ||
                 f.Num("--queries", &num_queries) ||
                 f.Num("--zipf-exp", &zipf_exponent) ||
                 f.Num("--qps", &qps) ||
                 f.Num("--deadline-ms", &deadline_ms) ||
                 f.Num("--seed", &seed)) ||
               f.bad()) {
      return NetUsage();
    }
  }
  auto addr = ParseHostPort(connect);
  if (!addr) {
    std::fprintf(stderr, "error: client needs --connect=HOST:PORT\n");
    return NetUsage();
  }
  NetSubmitter submitter(addr->host, addr->port, clients);
  std::string error;
  if (!submitter.Connect(&error)) {
    std::fprintf(stderr, "error: connect failed: %s\n", error.c_str());
    return 1;
  }
  const HelloAckMsg& info = submitter.info();
  if (info.num_nodes < 2) {
    std::fprintf(stderr, "error: deployment serves a degenerate graph\n");
    return 1;
  }
  if (!csv) {
    std::printf("# connected: n=%u m=%llu epoch=%llu shards=%u\n",
                info.num_nodes,
                static_cast<unsigned long long>(info.num_edges),
                static_cast<unsigned long long>(info.epoch),
                info.num_shards);
  }
  // Node-id order doubles as the popularity ranking (registry datasets
  // ship degree-descending ids); exponent 0 degenerates to uniform.
  std::vector<NodeId> ranking(info.num_nodes);
  std::iota(ranking.begin(), ranking.end(), NodeId{0});
  const std::vector<QueryPair> queries =
      MakeZipfQueries(ranking, num_queries, zipf_exponent, seed);

  ServedWorkloadResult result;
  if (qps > 0.0) {
    const std::vector<TraceEvent> trace =
        MakeOpenLoopTrace(queries, qps, seed);
    result = RunServedWorkload(submitter, trace, deadline_ms / 1e3, true);
  } else {
    result = RunClosedLoopWorkload(submitter, queries, clients,
                                   deadline_ms / 1e3);
  }
  if (shutdown_server) {
    std::string err;
    if (!submitter.ShutdownServer(&err)) {
      std::fprintf(stderr, "warning: shutdown request failed: %s\n",
                   err.c_str());
    }
  }
  submitter.Close();

  if (csv) {
    std::printf(
        "mode,clients,queries,answered,failed,throughput_qps,p50_ms,p95_ms,"
        "p99_ms\n");
    std::printf("%s,%d,%zu,%zu,%zu,%.1f,%.3f,%.3f,%.3f\n",
                qps > 0.0 ? "open" : "closed", clients, result.num_events,
                result.answered, result.failed, result.throughput_qps,
                result.p50_ms, result.p95_ms, result.p99_ms);
  } else {
    std::printf(
        "# %s-loop: %zu/%zu answered in %.1f ms: p50=%.2f p95=%.2f "
        "p99=%.2f ms, %.0f q/s, clients=%d%s\n",
        qps > 0.0 ? "open" : "closed", result.answered, result.num_events,
        result.wall_seconds * 1e3, result.p50_ms, result.p95_ms,
        result.p99_ms, result.throughput_qps, clients,
        result.failed > 0 ? " — some FAILED" : "");
  }
  return result.failed > 0 ? 1 : 0;
}

int RunStatsRole(const std::vector<std::string>& args) {
  std::string connect;
  std::string prefix;
  bool raw = false;
  for (const std::string& arg : args) {
    const FlagArg f(arg);
    if (arg == "--raw") {
      raw = true;
    } else if (!(f.Str("--connect", &connect) ||
                 f.Str("--prefix", &prefix))) {
      return NetUsage();
    }
  }
  auto addr = ParseHostPort(connect);
  if (!addr) {
    std::fprintf(stderr, "error: stats needs --connect=HOST:PORT\n");
    return NetUsage();
  }
  Client client;
  std::string error;
  if (!client.Connect(addr->host, addr->port, &error)) {
    std::fprintf(stderr, "error: connect failed: %s\n", error.c_str());
    return 1;
  }
  StatsRequestMsg request;
  request.prefix = prefix;
  StatsReplyMsg reply;
  if (!client.Stats(request, &reply, &error)) {
    std::fprintf(stderr, "error: stats scrape failed: %s\n", error.c_str());
    return 1;
  }
  client.Close();
  if (!raw) {
    std::printf("# stats from %s:%u: shards=%u counters=%zu gauges=%zu "
                "histograms=%zu\n",
                addr->host.c_str(), static_cast<unsigned>(addr->port),
                reply.num_shards, reply.snapshot.counters.size(),
                reply.snapshot.gauges.size(),
                reply.snapshot.histograms.size());
  }
  std::fputs(obs::RenderPrometheusText(reply.snapshot).c_str(), stdout);
  if (!raw) {
    // Human summary per latency series, in ms (the exposition text above
    // is in ns, the recording unit).
    for (const auto& [name, h] : reply.snapshot.histograms) {
      if (h.count == 0) continue;
      std::printf("# %s: count=%llu mean=%.3fms p50=%.3fms p95=%.3fms "
                  "p99=%.3fms\n",
                  name.c_str(), static_cast<unsigned long long>(h.count),
                  static_cast<double>(h.sum_ns) /
                      static_cast<double>(h.count) / 1e6,
                  obs::HistogramQuantile(h, 0.5) / 1e6,
                  obs::HistogramQuantile(h, 0.95) / 1e6,
                  obs::HistogramQuantile(h, 0.99) / 1e6);
    }
  }
  return 0;
}

int RunNetCommand(const std::vector<std::string>& args) {
  if (args.empty()) return NetUsage();
  const std::string role = args[0];
  const std::vector<std::string> rest(args.begin() + 1, args.end());
  if (role == "shard") return RunShardRole(rest);
  if (role == "router") return RunRouterRole(rest);
  if (role == "client") return RunClientRole(rest);
  if (role == "stats") return RunStatsRole(rest);
  return NetUsage();
}

}  // namespace geer::net
