#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <future>
#include <memory>
#include <optional>
#include <thread>

#include "centrality/landmarks.h"
#include "core/batch_engine.h"
#include "core/registry.h"
#include "core/spectral_epoch.h"
#include "dyn/dynamic_graph.h"
#include "eval/datasets.h"
#include "graph/algorithms.h"
#include "graph/generators.h"
#include "linalg/laplacian_solver.h"
#include "linalg/spectral.h"
#include "loadgen.h"
#include "net/client.h"
#include "net/router.h"
#include "net/shard_service.h"
#include "net/submitter.h"
#include "serve/query_service.h"

namespace perfbench {

using geer::ErEstimator;
using geer::ErOptions;
using geer::QueryStats;

namespace {

// ---------------------------------------------------------------------------
// Pinned parameters. Changing any of them redefines the benchmark.
// ---------------------------------------------------------------------------

constexpr double kDelta = 0.01;
constexpr int kTau = 5;
constexpr double kZipfExponent = 1.2;
/// Set-ups per run; setup_s is their median.
constexpr int kSetupRepeats = 3;
/// Open-loop rates of the serving phases, in q/s: about 50% and 85% of
/// the serving capacity measured on the commit that defined the
/// benchmark. Absolute and never rescaled.
constexpr double kLowQps = 1000.0;
constexpr double kHighQps = 1700.0;
/// Rate-search service level: p99 latency limit.
constexpr double kP99LimitMs = 25.0;
/// batch_uniform: queries per RunQueryBatch call, engine workers, and the
/// leading batches whose work counters the determinism self-test pins.
constexpr std::size_t kBatchSize = 16;
constexpr int kEngineWorkers = 2;
constexpr std::size_t kCounterBatches = 8;
/// Dyn layer phase: edge updates per batch and the batch period.
constexpr std::size_t kUpdatesPerBatch = 20;
constexpr double kUpdatePeriodS = 0.1;
/// net_hot: closed-loop client connections, and the share of queries
/// the traced run records spans for (tens of thousands of queries a
/// second would otherwise make a trace of millions of spans).
constexpr int kNetClients = 2;
constexpr std::size_t kNetSpanEvery = 16;
/// Pinned accuracy sample: every pair among this many nodes, drawn with
/// a fixed seed (the estimators' own seed is fixed too, so err_p99_eps
/// is deterministic wherever the graph is).
constexpr std::size_t kOracleNodes = 20;
constexpr std::uint64_t kPinnedSeed = 0x5eed2023;
/// Ledger tolerance: blocking-path spans must cover the measured
/// end-to-end mean to within this share.
constexpr double kLedgerTolerancePct = 10.0;
/// Generator validity: a run whose generator lagged behind its schedule
/// by more than the service level's own p99 limit cannot measure it.
constexpr double kMaxLagP99Ms = 25.0;
/// End-to-end latency quantiles are read in the quietest tenth of a run's
/// windows: the tail of net_hot's ~0.1 ms round trip follows the load
/// other processes put on the host's cores, which comes and goes within a
/// run, and the median window moved with it by a third between runs.
constexpr double kQuietWindows = 0.1;

ErOptions EstimatorOptions(double epsilon, double lambda) {
  ErOptions options;
  options.epsilon = epsilon;
  options.delta = kDelta;
  options.tau = kTau;
  options.lambda = lambda;
  return options;  // options.seed stays at its pinned default
}

double SecondsSince(std::uint64_t start_ns) {
  return MsBetween(start_ns, NowNs()) / 1e3;
}

std::string Fmt(const char* format, double a, double b = 0.0,
                double c = 0.0) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), format, a, b, c);
  return buf;
}

// ---------------------------------------------------------------------------
// Accuracy oracle and checks
// ---------------------------------------------------------------------------

/// Pinned sample nodes: `count` distinct nodes, uniform or Zipf.
std::vector<NodeId> PinnedNodes(NodeId num_nodes, const ZipfSampler* zipf,
                                std::size_t count) {
  Rng rng(kPinnedSeed);
  std::vector<NodeId> nodes;
  while (nodes.size() < count) {
    const NodeId v = zipf != nullptr
                         ? zipf->Draw(rng)
                         : static_cast<NodeId>(rng.Below(num_nodes));
    if (std::find(nodes.begin(), nodes.end(), v) == nodes.end()) {
      nodes.push_back(v);
    }
  }
  return nodes;
}

/// Exact r(u, v) for every pair of AllPairs(nodes), from one CG solve per
/// node: r(u, v) = x_u[u] − x_u[v] − x_v[u] + x_v[v] with x_w = L† e_w.
std::vector<double> CgOracle(const geer::Graph& graph,
                             const std::vector<NodeId>& nodes) {
  geer::LaplacianSolver::Options options;
  options.tolerance = 1e-12;
  options.max_iterations = 50000;
  const geer::LaplacianSolver solver(graph, options);
  std::vector<geer::Vector> columns(nodes.size());
  std::atomic<std::size_t> next{0};
  auto work = [&] {
    for (std::size_t i = next++; i < nodes.size(); i = next++) {
      geer::Vector b(graph.NumNodes(), 0.0);
      b[nodes[i]] = 1.0;
      columns[i] = solver.Solve(b);
    }
  };
  std::thread helper(work);
  work();
  helper.join();
  std::vector<double> truth;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    for (std::size_t j = i + 1; j < nodes.size(); ++j) {
      const NodeId u = nodes[i];
      const NodeId v = nodes[j];
      truth.push_back(columns[i][u] - columns[i][v] - columns[j][u] +
                      columns[j][v]);
    }
  }
  return truth;
}

/// The ε guarantee on the pinned sample: at most a δ share of the answers
/// may be off by more than ε (an unanswered query counts as off).
/// Returns the p99 of |r′ − r| / ε.
double CheckEpsilon(const std::string& check,
                    const std::vector<double>& answers,
                    const std::vector<double>& truth, double epsilon,
                    RunResult& out) {
  std::vector<double> ratios;
  std::size_t outside = 0;
  for (std::size_t i = 0; i < answers.size(); ++i) {
    const double ratio = std::isfinite(answers[i])
                             ? std::abs(answers[i] - truth[i]) / epsilon
                             : HUGE_VAL;
    ratios.push_back(ratio);
    if (ratio > 1.0) ++outside;
  }
  const double share =
      static_cast<double>(outside) / static_cast<double>(answers.size());
  out.Check(check, share <= kDelta,
            Fmt("%.0f of %.0f answers off by more than eps (allowed share "
                "%.2f)",
                static_cast<double>(outside),
                static_cast<double>(answers.size()), kDelta));
  return Quantile(ratios, 0.99);
}

/// Served answers must equal a serial Estimate bit for bit.
void CheckBitEqual(const std::string& check, const std::vector<double>& served,
                   ErEstimator& serial, const std::vector<QueryPair>& pairs,
                   RunResult& out) {
  std::size_t differ = 0;
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    if (served[i] != serial.Estimate(pairs[i].s, pairs[i].t)) ++differ;
  }
  out.Check(check, differ == 0,
            Fmt("%.0f of %.0f served answers differ from serial Estimate",
                static_cast<double>(differ),
                static_cast<double>(pairs.size())));
}

/// Submits `pairs` through `submitter` and returns the answers (NaN for
/// a query that was not answered).
std::vector<double> SubmitAll(geer::QuerySubmitter& submitter,
                              const std::vector<QueryPair>& pairs) {
  std::vector<std::future<geer::QueryResult>> futures;
  for (const QueryPair& q : pairs) futures.push_back(submitter.Submit(q));
  submitter.Flush();
  std::vector<double> values;
  for (auto& f : futures) {
    const geer::QueryResult r = f.get();
    values.push_back(r.status == geer::ServeStatus::kAnswered
                         ? r.stats.value
                         : std::nan(""));
  }
  return values;
}

// ---------------------------------------------------------------------------
// Metric helpers
// ---------------------------------------------------------------------------

void SetupMetrics(const std::vector<double>& setups, RunResult& out) {
  out.end_to_end["setup_s"] = Quantile(setups, 0.5);
}

/// Latency quantiles of the timed phase: the kQuietWindows quantile over
/// its windows of the quantile of the queries issued in the window
/// (`issued_ns`).
void LatencyE2e(const Windows& windows,
                const std::vector<std::uint64_t>& issued_ns,
                const std::vector<double>& latency_ms, RunResult& out) {
  out.end_to_end["p50_ms"] =
      windows.Quantile(issued_ns, latency_ms, 0.5, kQuietWindows);
  out.end_to_end["p99_ms"] =
      windows.Quantile(issued_ns, latency_ms, 0.99, kQuietWindows);
}

/// Deterministic work counters of the `core` layer (QueryStats).
void CoreCounters(const std::vector<QueryStats>& stats, RunResult& out) {
  if (stats.empty()) return;
  double walks = 0, steps = 0, spmv = 0, ell_b = 0, early = 0;
  for (const QueryStats& s : stats) {
    walks += static_cast<double>(s.walks);
    steps += static_cast<double>(s.walk_steps);
    spmv += static_cast<double>(s.spmv_ops);
    ell_b += s.ell_b;
    early += s.early_stop ? 1.0 : 0.0;
  }
  const double n = static_cast<double>(stats.size());
  out.per_layer["core.walks_per_q"] = walks / n;
  out.per_layer["core.walk_steps_per_q"] = steps / n;
  out.per_layer["core.spmv_ops_per_q"] = spmv / n;
  out.per_layer["core.ell_b_mean"] = ell_b / n;
  out.per_layer["core.early_stop_frac"] = early / n;
}

/// Busy nanoseconds per unit of core work (walk step or SpMV arc).
void CoreRate(const std::vector<QueryStats>& stats, double busy_ns,
              RunResult& out) {
  double work = 0.0;
  for (const QueryStats& s : stats) {
    work += static_cast<double>(s.walk_steps + s.spmv_ops);
  }
  if (work > 0.0) out.per_layer["core.ns_per_step"] = busy_ns / work;
}

/// Generator lag of an open loop; also its validity check.
void LagMetrics(const std::vector<double>& lag_ms, RunResult& out) {
  const double p99 = Quantile(lag_ms, 0.99);
  const double max = lag_ms.empty()
                         ? 0.0
                         : *std::max_element(lag_ms.begin(), lag_ms.end());
  out.per_layer["gen.lag_ms_p99"] = p99;
  out.per_layer["gen.lag_ms_max"] = max;
  out.Check("generator_on_schedule", p99 <= kMaxLagP99Ms,
            Fmt("generator lag p99 %.3f ms, max %.3f ms (limit p99 %.1f ms)",
                p99, max, kMaxLagP99Ms));
}

/// One ledger line: the blocking-path parts must add up to the measured
/// end-to-end mean. Records the largest gap seen in ledger.gap_pct.
void Ledger(const std::string& what, double parts_ms, double total_ms,
            RunResult& out) {
  const double gap_pct =
      total_ms > 0.0 ? 100.0 * std::abs(total_ms - parts_ms) / total_ms : 0.0;
  double& worst = out.per_layer["ledger.gap_pct"];
  worst = std::max(worst, gap_pct);
  out.Check("ledger_" + what, gap_pct <= kLedgerTolerancePct,
            Fmt("parts %.4f ms vs end-to-end %.4f ms (gap %.2f%%)", parts_ms,
                total_ms, gap_pct));
}

void TraceOverhead(const SpanLog& log, std::size_t spans_before,
                   double phase_seconds, RunResult& out) {
  if (!log.enabled() || phase_seconds <= 0.0) return;
  const double spans = static_cast<double>(log.size() - spans_before);
  out.per_layer["trace.overhead_pct"] =
      100.0 * spans * SpanCostNs() / (phase_seconds * 1e9);
}

/// Traced run only: MakeDataset's two layers timed apart. The graph
/// layer replays the dataset's recipe (generator, then largest component
/// and non-bipartite repair) through the public graph functions; the
/// result must match the dataset's graph. Then λ alone.
void GraphLayerSplit(const std::string& dataset, const geer::Graph& graph,
                     SpanLog& log, RunResult& out) {
  const std::uint64_t t0 = NowNs();
  geer::Graph g = dataset == "youtube"
                      ? geer::gen::RMat(16, 3, /*seed=*/0x17)
                      : geer::gen::BarabasiAlbert(4000, 22, /*seed=*/0xFB);
  if (!geer::IsConnected(g)) g = geer::LargestConnectedComponent(g);
  if (geer::IsBipartite(g)) g = geer::EnsureNonBipartite(g);
  const std::uint64_t t1 = NowNs();
  (void)geer::ComputeSpectralBounds(graph);
  const std::uint64_t t2 = NowNs();
  log.Add("graph.build", 0, -1, t0, t1);
  log.Add("linalg.lanczos", 0, -1, t1, t2);
  out.per_layer["graph.build_s"] = MsBetween(t0, t1) / 1e3;
  out.per_layer["linalg.lanczos_s"] = MsBetween(t1, t2) / 1e3;
  out.Check("graph_recipe_matches_dataset",
            g.NumNodes() == graph.NumNodes() &&
                g.NumEdges() == graph.NumEdges(),
            "replayed " + dataset + " recipe has the dataset's n and m");
}

geer::Dataset MakeDatasetOrDie(const std::string& name) {
  std::optional<geer::Dataset> ds = geer::MakeDataset(name, 1.0);
  if (!ds.has_value()) {
    std::fprintf(stderr, "perfbench: unknown dataset %s\n", name.c_str());
    std::exit(2);
  }
  return std::move(*ds);
}

// ---------------------------------------------------------------------------
// batch_uniform: the paper's offline experiment
// ---------------------------------------------------------------------------

std::vector<QueryPair> UniformBatch(NodeId n, std::uint64_t seed,
                                    std::size_t index) {
  return UniformPairs(n, kBatchSize, StreamSeed(seed, 1000 + index));
}

struct BatchPass {
  std::vector<QueryStats> stats;
  double seconds = 0.0;
};

/// Batches [first, first + count) of `seed`'s stream, back to back.
BatchPass RunBatches(ErEstimator& estimator, NodeId n, std::uint64_t seed,
                     std::size_t first, std::size_t count, int workers) {
  BatchPass pass;
  geer::BatchOptions options;
  options.threads = workers;
  for (std::size_t k = first; k < first + count; ++k) {
    const std::vector<QueryPair> batch = UniformBatch(n, seed, k);
    std::vector<QueryStats> stats(batch.size());
    const std::uint64_t t0 = NowNs();
    geer::RunQueryBatch(estimator, batch, stats, options);
    pass.seconds += SecondsSince(t0);
    pass.stats.insert(pass.stats.end(), stats.begin(), stats.end());
  }
  return pass;
}

bool SameCounters(const std::vector<QueryStats>& a,
                  const std::vector<QueryStats>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].walks != b[i].walks || a[i].walk_steps != b[i].walk_steps ||
        a[i].spmv_ops != b[i].spmv_ops || a[i].ell_b != b[i].ell_b ||
        a[i].early_stop != b[i].early_stop) {
      return false;
    }
  }
  return true;
}

/// Traced batch_uniform run only: the serving layers on the same graph.
/// An in-process QueryService (2 workers, default batching, 64 MB session
/// cache, 64 pinned landmarks) takes Zipf(1.2) open-loop traffic at
/// kLowQps for half the run's seconds, then as long at kHighQps, then
/// the rate search and the dyn layer phase. Its answers are checked
/// bit-equal to serial and within ε.
void ServeLayers(geer::Dataset dataset, const RunConfig& config,
                 SpanLog& log, RunResult& out);

RunResult BatchUniform(const RunConfig& config, SpanLog& log) {
  RunResult out;
  constexpr double kEpsilon = 0.05;
  std::optional<geer::Dataset> ds;
  std::unique_ptr<ErEstimator> estimator;
  std::vector<double> setups;
  for (int r = 0; r < kSetupRepeats; ++r) {
    estimator.reset();
    ds.reset();
    const std::uint64_t t0 = NowNs();
    ds = MakeDatasetOrDie("youtube");
    const std::uint64_t t1 = NowNs();
    estimator = geer::CreateEstimator(
        "GEER", ds->graph, EstimatorOptions(kEpsilon, ds->spectral.lambda));
    const std::uint64_t t2 = NowNs();
    const std::int64_t root = log.Add("setup", r, -1, t0, t2);
    log.Add("graph.make_dataset", r, root, t0, t1);
    log.Add("core.create_estimator", r, root, t1, t2);
    setups.push_back(MsBetween(t0, t2) / 1e3);
  }
  SetupMetrics(setups, out);
  const NodeId n = ds->graph.NumNodes();

  // Warm-up: batch 0, untimed.
  RunBatches(*estimator, n, config.seed, 0, 1, kEngineWorkers);

  // Timed closed loop: batches 1, 2, … back to back.
  out.end_to_end["peak_rss_mb"] = PeakRssMb();
  geer::BatchOptions options;
  options.threads = kEngineWorkers;
  std::vector<double> call_ms, latency_ms, answered;
  std::vector<std::uint64_t> issued_ns, call_end_ns;
  std::vector<QueryStats> all_stats;
  const std::size_t spans_before = log.size();
  const std::uint64_t start = NowNs();
  std::size_t k = 1;
  for (; SecondsSince(start) < config.seconds; ++k) {
    const std::vector<QueryPair> batch = UniformBatch(n, config.seed, k);
    std::vector<QueryStats> stats(batch.size());
    const std::uint64_t t0 = NowNs();
    const geer::BatchReport report =
        geer::RunQueryBatch(*estimator, batch, stats, options);
    const std::uint64_t t1 = NowNs();
    log.Add("core.run_query_batch", k, -1, t0, t1);
    out.attempted += batch.size();
    out.failed += batch.size() - report.answered;
    call_ms.push_back(MsBetween(t0, t1));
    call_end_ns.push_back(t1);
    answered.push_back(static_cast<double>(report.answered));
    // Each query of an offline batch completes when its batch returns.
    for (std::size_t i = 0; i < report.answered; ++i) {
      latency_ms.push_back(call_ms.back());
      issued_ns.push_back(t0);
    }
    all_stats.insert(all_stats.end(), stats.begin(), stats.end());
  }
  const double wall_s = SecondsSince(start);
  const std::size_t batches = k - 1;
  // Per window: queries answered over the time spent in batch calls, so a
  // window's figure does not depend on how many whole batches fit in it.
  const Windows windows{start, config.seconds};
  std::vector<double> call_s;
  for (double ms : call_ms) call_s.push_back(ms / 1e3);
  out.end_to_end["throughput_qps"] =
      windows.Ratio(call_end_ns, answered, call_s);
  LatencyE2e(windows, issued_ns, latency_ms, out);
  TraceOverhead(log, spans_before, wall_s, out);

  // Accuracy on the pinned sample (estimator seed and nodes are pinned).
  const std::vector<NodeId> nodes = PinnedNodes(n, nullptr, kOracleNodes);
  const std::vector<QueryPair> pairs = AllPairs(nodes);
  std::vector<QueryStats> pinned(pairs.size());
  geer::RunQueryBatch(*estimator, pairs, pinned, options);
  std::vector<double> answers;
  for (const QueryStats& s : pinned) answers.push_back(s.value);
  out.end_to_end["err_p99_eps"] =
      CheckEpsilon("batch_uniform_epsilon", answers,
                   CgOracle(ds->graph, nodes), kEpsilon, out);

  if (!log.enabled()) return out;
  GraphLayerSplit("youtube", ds->graph, log, out);
  double busy_ns = 0.0;
  for (double ms : call_ms) busy_ns += ms * 1e6 * kEngineWorkers;
  CoreRate(all_stats, busy_ns, out);
  out.per_layer["batch_engine.call_ms_p50"] = Quantile(call_ms, 0.5);
  double calls_ms = 0.0;
  for (double ms : call_ms) calls_ms += ms;
  Ledger("batch_calls_cover_wall", calls_ms, wall_s * 1e3, out);

  // Determinism self-test on the leading batches of the timed phase.
  const std::size_t counted = std::min(kCounterBatches, batches);
  const std::vector<QueryStats> first(
      all_stats.begin(),
      all_stats.begin() + static_cast<std::ptrdiff_t>(counted * kBatchSize));
  CoreCounters(first, out);
  const BatchPass again =
      RunBatches(*estimator, n, config.seed, 1, counted, kEngineWorkers);
  const BatchPass other =
      RunBatches(*estimator, n, config.seed + 1, 1, counted, kEngineWorkers);
  out.Check("core_counters_repeat", SameCounters(first, again.stats),
            "work counters of the leading batches, rerun with the same seed");
  out.Check("core_counters_follow_seed", !SameCounters(first, other.stats),
            "work counters of the leading batches under seed + 1");
  // Worker scaling: two interleaved rounds of 1 and 2 workers on the same
  // batches (the `again` pass is the first 2-worker round).
  double one_worker_s = 0.0;
  double two_workers_s = again.seconds;
  one_worker_s += RunBatches(*estimator, n, config.seed, 1, counted, 1).seconds;
  two_workers_s += RunBatches(*estimator, n, config.seed, 1, counted,
                              kEngineWorkers)
                       .seconds;
  one_worker_s += RunBatches(*estimator, n, config.seed, 1, counted, 1).seconds;
  out.per_layer["batch_engine.scaling_2w"] = one_worker_s / two_workers_s;
  estimator.reset();  // the serving layers take over the dataset
  ServeLayers(std::move(*ds), config, log, out);
  return out;
}

// ---------------------------------------------------------------------------
// The serving layers: open loop into an in-process QueryService
// ---------------------------------------------------------------------------

geer::ServeOptions ServeZipfOptions(const geer::Graph& graph) {
  geer::ServeOptions options;  // default batching and 64 MB session cache
  options.threads = 2;
  options.landmarks = geer::SelectLandmarks(graph, 64);
  return options;
}

double Backlog(const geer::QueryService& service) {
  const geer::ServeMetrics m = service.Metrics();
  const std::uint64_t resolved = m.answered + m.unsupported + m.expired +
                                 m.rejected + m.cancelled + m.failed;
  return static_cast<double>(m.submitted - std::min(m.submitted, resolved));
}

/// Serve-layer and cache metrics over the interval [before, after].
void ServeLayerMetrics(const geer::ServeMetrics& before,
                       const geer::ServeMetrics& after,
                       const OpenLoopResult& r, RunResult& out) {
  const double batches = static_cast<double>(after.batches - before.batches);
  if (batches > 0) {
    out.per_layer["serve.avg_batch"] =
        static_cast<double>(after.coalesced - before.coalesced) / batches;
    out.per_layer["serve.flush_size"] =
        static_cast<double>(after.flush_size - before.flush_size) / batches;
    out.per_layer["serve.flush_linger"] =
        static_cast<double>(after.flush_linger - before.flush_linger) /
        batches;
    out.per_layer["serve.flush_drain"] =
        static_cast<double>(after.flush_drain - before.flush_drain) / batches;
  }
  out.per_layer["serve.queue_ms_p50"] = Quantile(r.queue_ms, 0.5);
  out.per_layer["serve.queue_ms_p99"] = Quantile(r.queue_ms, 0.99);
  out.per_layer["serve.exec_ms_p50"] = Quantile(r.exec_ms, 0.5);
  out.per_layer["serve.exec_ms_p99"] = Quantile(r.exec_ms, 0.99);
  out.per_layer["serve.backlog_max"] =
      r.backlog.empty() ? 0.0
                        : *std::max_element(r.backlog.begin(), r.backlog.end());
  const double hits = static_cast<double>(after.session_cache.hits -
                                          before.session_cache.hits);
  const double misses = static_cast<double>(after.session_cache.misses -
                                            before.session_cache.misses);
  if (hits + misses > 0) {
    out.per_layer["cache.hit_rate"] = hits / (hits + misses);
  }
  out.per_layer["cache.evictions"] = static_cast<double>(
      after.session_cache.evictions - before.session_cache.evictions);
  out.per_layer["cache.bytes"] =
      static_cast<double>(after.session_cache.bytes);
}

/// Ledger of a root span: its children (the blocking-path layers) must
/// cover it, i.e. its mean self time must be small against its mean.
void SpanLedger(const std::string& what, const SpanLog& log,
                const char* root, RunResult& out) {
  const double total = Mean(log.DurationsMs(root));
  Ledger(what, total - log.MeanSelfMs(root), total, out);
}

/// An in-process serving stack; members are destroyed service first.
struct ServeStack {
  std::optional<geer::Dataset> ds;
  /// The dyn layer phase's versioned copy of ds->graph; its snapshots
  /// are what the workers rebind to.
  std::unique_ptr<geer::DynamicGraph> dynamic;
  std::unique_ptr<ErEstimator> estimator;
  std::unique_ptr<geer::QueryService> service;
};

constexpr double kServeEpsilon = 0.1;

OpenLoopPhase ZipfPhase(double rate, double seconds,
                        const std::vector<QueryPair>& queries,
                        std::uint64_t schedule_seed,
                        geer::QueryService& service) {
  OpenLoopPhase phase;
  phase.rate_qps = rate;
  phase.seconds = seconds;
  phase.schedule_seed = schedule_seed;
  phase.queries = queries;
  phase.backlog_probe = [&service] { return Backlog(service); };
  return phase;
}

std::vector<QueryPair> PhaseQueries(const ZipfSampler& zipf, double rate,
                                    double seconds, std::uint64_t seed) {
  return ZipfPairs(zipf, static_cast<std::size_t>(rate * seconds * 1.3) + 64,
                   seed);
}

/// Highest Poisson rate meeting the service level, by geometric
/// bisection to 5% resolution, each probe a fresh 1 s phase.
double SearchMaxRate(geer::QueryService& service, const ZipfSampler& zipf,
                     std::uint64_t seed) {
  SpanLog off(false);
  double lo = kLowQps / 2.0;
  double hi = kHighQps * 3.0;
  for (int probe = 0; hi / lo > 1.05; ++probe) {
    const double rate = std::sqrt(lo * hi);
    const std::vector<QueryPair> queries =
        PhaseQueries(zipf, rate, 1.0, StreamSeed(seed, 300 + probe));
    const OpenLoopResult r = RunOpenLoop(
        service,
        ZipfPhase(rate, 1.0, queries, StreamSeed(seed, 400 + probe),
                  service),
        off);
    (MeetsServiceLevel(r, kP99LimitMs) ? lo : hi) = rate;
  }
  return lo;
}

/// The dynamic-graph layer under queries: the service's graph is wrapped
/// in a DynamicGraph whose epoch 0 has the same rows, so the workers
/// rebind onto its snapshots; after a warm-up, half of `seconds` of
/// kLowQps queries run beside the update stream. Also checks ε on the
/// final epoch.
void DynLayer(ServeStack& stack, const ZipfSampler& zipf,
              const RunConfig& config, SpanLog& log, RunResult& out);

void ServeLayers(geer::Dataset dataset, const RunConfig& config,
                 SpanLog& log, RunResult& out) {
  ServeStack stack;
  stack.ds = std::move(dataset);
  const geer::Graph& graph = stack.ds->graph;
  stack.estimator = geer::CreateEstimator(
      "GEER", graph,
      EstimatorOptions(kServeEpsilon, stack.ds->spectral.lambda));
  const geer::ServeOptions options = ServeZipfOptions(graph);
  const std::uint64_t t0 = NowNs();
  stack.service =
      std::make_unique<geer::QueryService>(*stack.estimator, options);
  const std::uint64_t t1 = NowNs();
  log.Add("serve.start_with_landmarks", 0, -1, t0, t1);
  out.per_layer["landmarks.warm_s"] = MsBetween(t0, t1) / 1e3;
  geer::QueryService& service = *stack.service;
  const ZipfSampler zipf(DegreeRanking(graph), kZipfExponent);
  const double seconds = config.seconds / 2;

  SpanLog off(false);
  {
    const auto warm =
        PhaseQueries(zipf, kLowQps, 1.0, StreamSeed(config.seed, 10));
    RunOpenLoop(service,
                ZipfPhase(kLowQps, 1.0, warm, StreamSeed(config.seed, 11),
                          service),
                off);
  }
  const auto queries =
      PhaseQueries(zipf, kLowQps, seconds, StreamSeed(config.seed, 12));
  const geer::ServeMetrics before = service.Metrics();
  const OpenLoopResult low = RunOpenLoop(
      service,
      ZipfPhase(kLowQps, seconds, queries, StreamSeed(config.seed, 13),
                service),
      log);
  const geer::ServeMetrics after = service.Metrics();
  out.attempted += low.attempted;
  out.failed += low.failed;
  LagMetrics(low.lag_ms, out);
  ServeLayerMetrics(before, after, low, out);
  out.per_layer["serve.p50_ms_low"] =
      low.windows.Quantile(low.due_ns, low.latency_ms, 0.5);
  out.per_layer["serve.p99_ms_low"] =
      low.windows.Quantile(low.due_ns, low.latency_ms, 0.99);
  // lag + queue + exec must cover the latency observed from the due time.
  SpanLedger("serve_lag_queue_exec", log, "serve.query", out);

  // Served answers on the pinned sample: bit-equal to serial, within ε.
  const std::vector<NodeId> nodes =
      PinnedNodes(graph.NumNodes(), &zipf, kOracleNodes);
  const std::vector<QueryPair> pairs = AllPairs(nodes);
  const std::vector<double> served = SubmitAll(service, pairs);
  std::unique_ptr<ErEstimator> serial = geer::CreateEstimator(
      "GEER", graph,
      EstimatorOptions(kServeEpsilon, stack.ds->spectral.lambda));
  CheckBitEqual("serve_bit_equal_serial", served, *serial, pairs, out);
  CheckEpsilon("serve_epsilon", served, CgOracle(graph, nodes),
               kServeEpsilon, out);

  const auto high_queries =
      PhaseQueries(zipf, kHighQps, seconds, StreamSeed(config.seed, 14));
  const OpenLoopResult high = RunOpenLoop(
      service,
      ZipfPhase(kHighQps, seconds, high_queries, StreamSeed(config.seed, 15),
                service),
      off);
  out.per_layer["serve.p50_ms_high"] = Quantile(high.latency_ms, 0.5);
  out.per_layer["serve.p99_ms_high"] = Quantile(high.latency_ms, 0.99);
  out.per_layer["serve.max_rate_qps"] =
      SearchMaxRate(service, zipf, config.seed);
  DynLayer(stack, zipf, config, log, out);
}

// --- the dyn layer ---------------------------------------------------------

/// Connectivity-safe update stream: inserts random non-edges and deletes
/// only edges it inserted itself, so the original graph stays a subgraph.
class ChurnGenerator {
 public:
  ChurnGenerator(const geer::DynamicGraph& graph, std::uint64_t seed)
      : graph_(graph), rng_(seed) {}

  std::vector<geer::EdgeUpdate> Next(std::size_t count) {
    std::vector<geer::EdgeUpdate> ops;
    std::vector<std::pair<NodeId, NodeId>> staged;
    while (ops.size() < count) {
      if (ops.size() % 2 == 1 && !inserted_.empty()) {
        const std::size_t i = rng_.Below(inserted_.size());
        const auto [u, v] = inserted_[i];
        inserted_[i] = inserted_.back();
        inserted_.pop_back();
        ops.push_back({geer::EdgeUpdateKind::kDelete, u, v, 1.0});
        continue;
      }
      const NodeId n = graph_.NumNodes();
      const NodeId u = static_cast<NodeId>(rng_.Below(n));
      const NodeId v = static_cast<NodeId>(rng_.Below(n));
      if (u == v || graph_.HasEdge(u, v)) continue;
      if (std::find(staged.begin(), staged.end(), std::make_pair(u, v)) !=
              staged.end() ||
          std::find(staged.begin(), staged.end(), std::make_pair(v, u)) !=
              staged.end()) {
        continue;
      }
      staged.push_back({u, v});
      ops.push_back({geer::EdgeUpdateKind::kInsert, u, v, 1.0});
    }
    for (const auto& e : staged) inserted_.push_back(e);
    return ops;
  }

 private:
  const geer::DynamicGraph& graph_;
  Rng rng_;
  std::vector<std::pair<NodeId, NodeId>> inserted_;
};

struct ChurnStats {
  std::vector<double> update_ms, commit_ms, swap_wait_ms, rebind_ms,
      touched;
  double post_hits = 0.0;
  double post_misses = 0.0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

/// The update stream of the dyn layer: stages a batch, commits it and swaps
/// it into the service as an incremental epoch. One spectral holder
/// carries the warm Lanczos state from epoch to epoch.
class Churn {
 public:
  Churn(ServeStack& stack, std::uint64_t seed)
      : stack_(stack),
        generator_(*stack.dynamic, seed),
        spectral_(geer::MakeSharedSpectral()) {}

  /// One update batch due at `due_ns`; records into `stats` and, when
  /// `log` is enabled, the update's spans.
  void Apply(std::uint64_t due_ns, SpanLog& log, ChurnStats& stats) {
    geer::DynamicGraph& graph = *stack_.dynamic;
    const std::uint64_t t_apply = NowNs();
    for (const geer::EdgeUpdate& op : generator_.Next(kUpdatesPerBatch)) {
      graph.Apply(op);
    }
    const std::uint64_t t_commit = NowNs();
    std::shared_ptr<const geer::DynSnapshot> snapshot = graph.Commit();
    const std::uint64_t t_committed = NowNs();
    // Rebind times, written on the scheduler thread and read here only
    // after the swap's future resolved.
    auto rebinds = std::make_shared<
        std::vector<std::pair<std::uint64_t, std::uint64_t>>>();
    auto rebind = [snapshot, spectral = spectral_,
                   rebinds](ErEstimator& estimator) {
      geer::GraphEpoch epoch;
      epoch.epoch = snapshot->epoch;
      epoch.touched = snapshot->touched;
      epoch.resized = snapshot->resized;
      epoch.incremental = true;
      epoch.spectral = spectral;
      const std::uint64_t t0 = NowNs();
      const bool ok = estimator.RebindGraph(*snapshot->graph, epoch);
      rebinds->push_back({t0, NowNs()});
      return ok;
    };
    const bool ok =
        stack_.service->ApplyUpdates(snapshot->epoch, rebind, snapshot).get();
    const std::uint64_t t_done = NowNs();
    ++stats.attempted;
    if (!ok || rebinds->empty()) {
      ++stats.failed;
      return;
    }
    stats.update_ms.push_back(MsBetween(due_ns, t_done));
    stats.commit_ms.push_back(MsBetween(t_commit, t_committed));
    stats.swap_wait_ms.push_back(
        MsBetween(t_committed, rebinds->front().first));
    double rebind_ms = 0.0;
    for (const auto& [b, e] : *rebinds) rebind_ms += MsBetween(b, e);
    stats.rebind_ms.push_back(rebind_ms);
    stats.touched.push_back(static_cast<double>(snapshot->touched.size()));
    if (log.enabled()) {
      const std::uint64_t id = snapshot->epoch;
      const std::int64_t root =
          log.Add("dyn.update", id, -1, due_ns, t_done, 5);
      log.Add("dyn.lag", id, root, due_ns, t_apply, 6);
      log.Add("dyn.stage", id, root, t_apply, t_commit, 6);
      log.Add("dyn.commit", id, root, t_commit, t_committed, 6);
      log.Add("dyn.swap_wait", id, root, t_committed, rebinds->front().first,
              6);
      for (const auto& [b, e] : *rebinds) {
        log.Add("dyn.rebind", id, root, b, e, 7);
      }
    }
  }

  /// Every kUpdatePeriodS from `start_ns` until `end_ns`, one batch; also
  /// samples the cache hit rate in the 25 ms after each swap. Runs on its
  /// own thread beside the query stream.
  void Run(std::uint64_t start_ns, std::uint64_t end_ns, SpanLog& log,
           ChurnStats& stats) {
    const auto period_ns = static_cast<std::uint64_t>(kUpdatePeriodS * 1e9);
    for (std::uint64_t due = start_ns + period_ns; due < end_ns;
         due += period_ns) {
      std::this_thread::sleep_until(
          Clock::time_point(std::chrono::nanoseconds(due)));
      Apply(due, log, stats);
      const geer::ServeMetrics m0 = stack_.service->Metrics();
      const std::uint64_t window_end =
          std::min(NowNs() + 25'000'000, due + period_ns);
      std::this_thread::sleep_until(
          Clock::time_point(std::chrono::nanoseconds(window_end)));
      const geer::ServeMetrics m1 = stack_.service->Metrics();
      stats.post_hits +=
          static_cast<double>(m1.session_cache.hits - m0.session_cache.hits);
      stats.post_misses += static_cast<double>(m1.session_cache.misses -
                                               m0.session_cache.misses);
    }
  }

 private:
  ServeStack& stack_;
  ChurnGenerator generator_;
  std::shared_ptr<geer::EpochShared<geer::EpochSpectral>> spectral_;
};

/// Open loop at kLowQps for `seconds` with the update stream beside it;
/// `log` records the updates' spans.
OpenLoopResult ChurnPhase(ServeStack& stack, Churn& churn,
                          const ZipfSampler& zipf, double seconds,
                          std::uint64_t seed, SpanLog& log,
                          ChurnStats& stats) {
  const auto queries =
      PhaseQueries(zipf, kLowQps, seconds, StreamSeed(seed, 1));
  const std::uint64_t start_ns = NowNs();
  const std::uint64_t end_ns =
      start_ns + static_cast<std::uint64_t>(seconds * 1e9);
  std::thread updater([&] { churn.Run(start_ns, end_ns, log, stats); });
  SpanLog off(false);
  OpenLoopResult r = RunOpenLoop(
      *stack.service,
      ZipfPhase(kLowQps, seconds, queries, StreamSeed(seed, 2),
                *stack.service),
      off);
  updater.join();
  return r;
}

void DynLayer(ServeStack& stack, const ZipfSampler& zipf,
              const RunConfig& config, SpanLog& log, RunResult& out) {
  stack.dynamic = std::make_unique<geer::DynamicGraph>(stack.ds->graph);
  geer::QueryService& service = *stack.service;
  Churn churn(stack, StreamSeed(config.seed, 20));
  // Warm-up: the first incremental epoch runs Lanczos cold (there is no
  // previous epoch to start from), then 1 s of queries and updates.
  SpanLog off(false);
  ChurnStats warm;
  churn.Apply(NowNs(), off, warm);
  ChurnPhase(stack, churn, zipf, 1.0, StreamSeed(config.seed, 21), off, warm);

  const geer::ServeMetrics before = service.Metrics();
  ChurnStats stats;
  const OpenLoopResult r = ChurnPhase(stack, churn, zipf, config.seconds / 2,
                                      StreamSeed(config.seed, 22), log, stats);
  const geer::ServeMetrics after = service.Metrics();
  out.attempted += r.attempted + warm.attempted + stats.attempted;
  out.failed += r.failed + warm.failed + stats.failed;
  out.notes.push_back(Fmt("update batches applied: %.0f of %.0f",
                          static_cast<double>(stats.update_ms.size()),
                          static_cast<double>(stats.attempted)));
  out.per_layer["dyn.update_ms_p50"] = Quantile(stats.update_ms, 0.5);
  out.per_layer["dyn.update_ms_p90"] = Quantile(stats.update_ms, 0.9);
  out.per_layer["dyn.commit_ms"] = Quantile(stats.commit_ms, 0.5);
  out.per_layer["dyn.swap_wait_ms"] = Quantile(stats.swap_wait_ms, 0.5);
  out.per_layer["dyn.rebind_ms"] = Quantile(stats.rebind_ms, 0.5);
  out.per_layer["dyn.touched_rows"] = Mean(stats.touched);
  out.per_layer["dyn.incremental_rebinds"] = static_cast<double>(
      after.incremental_rebinds - before.incremental_rebinds);
  if (stats.post_hits + stats.post_misses > 0) {
    out.per_layer["cache.hit_rate.post_swap"] =
        stats.post_hits / (stats.post_hits + stats.post_misses);
  }
  // lag + stage + commit + swap wait + rebinds must cover each update's
  // time from due to visible.
  SpanLedger("dyn_commit_swap_rebind", log, "dyn.update", out);

  // ε on the final epoch: served answers vs the CG oracle on its snapshot.
  std::shared_ptr<const geer::DynSnapshot> final_epoch =
      stack.dynamic->Current();
  const std::vector<NodeId> nodes =
      PinnedNodes(final_epoch->graph->NumNodes(), nullptr, kOracleNodes);
  const std::vector<QueryPair> pairs = AllPairs(nodes);
  CheckEpsilon("dyn_final_epoch_epsilon", SubmitAll(service, pairs),
               CgOracle(*final_epoch->graph, nodes), kServeEpsilon, out);
}

// ---------------------------------------------------------------------------
// net_hot: closed loop through a loopback router + 2 shards
// ---------------------------------------------------------------------------

struct Cluster {
  std::optional<geer::Dataset> ds;
  std::vector<std::unique_ptr<geer::net::ShardServer>> shards;
  std::unique_ptr<geer::net::Router> router;

  void Reset() {
    if (router) router->Stop();
    router.reset();
    for (auto& shard : shards) shard->Stop();
    shards.clear();
    ds.reset();
  }
  ~Cluster() { Reset(); }
};

constexpr double kNetEpsilon = 0.1;

bool StartCluster(Cluster& cluster, std::string* error) {
  cluster.ds = MakeDatasetOrDie("facebook");
  std::vector<geer::net::ShardAddress> addresses;
  for (int i = 0; i < 2; ++i) {
    geer::net::ShardOptions options;
    options.shard_id = i;
    options.num_shards = 2;
    options.method = "GEER";
    // λ is shipped to the shards, so no replica re-runs Lanczos.
    options.er = EstimatorOptions(kNetEpsilon, cluster.ds->spectral.lambda);
    options.serve.threads = 1;
    options.serve.max_batch_size = 32;
    options.serve.max_linger_seconds = 0.0;
    cluster.shards.push_back(std::make_unique<geer::net::ShardServer>(
        cluster.ds->graph, options));
    if (!cluster.shards.back()->Start(error)) return false;
    addresses.push_back({"127.0.0.1", cluster.shards.back()->port()});
  }
  cluster.router = std::make_unique<geer::net::Router>(
      addresses, geer::net::RouterOptions{});
  return cluster.router->Start(error);
}

struct ClientTrace {
  std::vector<double> rtt_ms, server_ms, batch_size;
  std::vector<std::uint64_t> sent_ns, done_ns;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

/// One closed-loop client: send, wait for the reply, repeat. Queries
/// before `timed_from_ns` are warm-up and not recorded.
void RunNetClient(std::uint16_t port, const std::vector<QueryPair>& queries,
                  std::uint64_t timed_from_ns, std::uint64_t end_ns,
                  std::uint64_t id_base, std::uint32_t lane, SpanLog& log,
                  ClientTrace& trace) {
  geer::net::Client client;
  std::string error;
  if (!client.Connect("127.0.0.1", port, &error)) {
    trace.attempted = trace.failed = 1;
    return;
  }
  for (std::size_t i = 0;; ++i) {
    const std::uint64_t t0 = NowNs();
    if (t0 >= end_ns) break;
    const QueryPair q = queries[i % queries.size()];
    geer::ServiceRequest request;
    request.s = q.s;
    request.t = q.t;
    geer::ServiceResponse response;
    const bool ok = client.Query(request, &response, &error);
    const std::uint64_t t1 = NowNs();
    if (t0 < timed_from_ns) continue;
    ++trace.attempted;
    if (!ok || response.status !=
                   static_cast<std::uint8_t>(geer::ServeStatus::kAnswered)) {
      ++trace.failed;
      continue;
    }
    const double rtt = MsBetween(t0, t1);
    trace.rtt_ms.push_back(rtt);
    trace.server_ms.push_back(response.server_ms);
    trace.batch_size.push_back(response.batch_size);
    trace.sent_ns.push_back(t0);
    trace.done_ns.push_back(t1);
    if (log.enabled() && i % kNetSpanEvery == 0) {
      // Where the server's time sits inside the round trip is not
      // observable from the client; the spans split the wire time evenly.
      const std::uint64_t wire_half =
          static_cast<std::uint64_t>((rtt - response.server_ms) / 2 * 1e6);
      const std::uint64_t id = id_base + i;
      const std::int64_t root = log.Add("net.rtt", id, -1, t0, t1, lane);
      log.Add("net.wire", id, root, t0, t0 + wire_half, lane + 10);
      log.Add("net.server", id, root, t0 + wire_half, t1 - wire_half,
              lane + 10);
      log.Add("net.wire", id, root, t1 - wire_half, t1, lane + 10);
    }
  }
}

RunResult NetHot(const RunConfig& config, SpanLog& log) {
  RunResult out;
  Cluster cluster;
  std::vector<double> setups;
  for (int r = 0; r < kSetupRepeats; ++r) {
    cluster.Reset();
    std::string error;
    const std::uint64_t t0 = NowNs();
    if (!StartCluster(cluster, &error)) {
      std::fprintf(stderr, "perfbench: cluster start failed: %s\n",
                   error.c_str());
      std::exit(2);
    }
    const std::uint64_t t1 = NowNs();
    log.Add("setup", r, -1, t0, t1);
    setups.push_back(MsBetween(t0, t1) / 1e3);
  }
  SetupMetrics(setups, out);
  const geer::Graph& graph = cluster.ds->graph;
  const ZipfSampler zipf(DegreeRanking(graph), kZipfExponent);
  const std::uint16_t port = cluster.router->port();

  out.end_to_end["peak_rss_mb"] = PeakRssMb();
  const std::size_t spans_before = log.size();
  const std::uint64_t warm_from = NowNs();
  const std::uint64_t timed_from = warm_from + 500'000'000;
  const std::uint64_t end = timed_from +
                            static_cast<std::uint64_t>(config.seconds * 1e9);
  std::vector<ClientTrace> traces(kNetClients);
  std::vector<std::vector<QueryPair>> streams;
  for (int c = 0; c < kNetClients; ++c) {
    streams.push_back(
        ZipfPairs(zipf, 1 << 16, StreamSeed(config.seed, 30 + c)));
  }
  {
    std::vector<std::thread> clients;
    for (int c = 0; c < kNetClients; ++c) {
      clients.emplace_back([&, c] {
        RunNetClient(port, streams[c], timed_from, end,
                     static_cast<std::uint64_t>(c) << 40,
                     static_cast<std::uint32_t>(c + 1), log, traces[c]);
      });
    }
    for (std::thread& t : clients) t.join();
  }
  const double wall_s = MsBetween(timed_from, NowNs()) / 1e3;
  ClientTrace all;
  for (const ClientTrace& t : traces) {
    all.attempted += t.attempted;
    all.failed += t.failed;
    all.rtt_ms.insert(all.rtt_ms.end(), t.rtt_ms.begin(), t.rtt_ms.end());
    all.server_ms.insert(all.server_ms.end(), t.server_ms.begin(),
                         t.server_ms.end());
    all.batch_size.insert(all.batch_size.end(), t.batch_size.begin(),
                          t.batch_size.end());
    all.sent_ns.insert(all.sent_ns.end(), t.sent_ns.begin(), t.sent_ns.end());
    all.done_ns.insert(all.done_ns.end(), t.done_ns.begin(), t.done_ns.end());
  }
  out.attempted = all.attempted;
  out.failed = all.failed;
  const Windows windows{timed_from, config.seconds};
  out.end_to_end["throughput_qps"] = windows.Rate(all.done_ns);
  LatencyE2e(windows, all.sent_ns, all.rtt_ms, out);
  TraceOverhead(log, spans_before, wall_s, out);

  // Correctness: answers through NetSubmitter are bit-equal to a serial
  // in-process estimator with the same λ, and within ε of the oracle.
  const std::vector<NodeId> nodes =
      PinnedNodes(graph.NumNodes(), &zipf, kOracleNodes);
  const std::vector<QueryPair> pairs = AllPairs(nodes);
  std::vector<double> served;
  {
    geer::net::NetSubmitter submitter("127.0.0.1", port, kNetClients);
    std::string error;
    if (submitter.Connect(&error)) served = SubmitAll(submitter, pairs);
    submitter.Close();
  }
  if (served.size() != pairs.size()) served.assign(pairs.size(), std::nan(""));
  std::unique_ptr<ErEstimator> serial = geer::CreateEstimator(
      "GEER", graph,
      EstimatorOptions(kNetEpsilon, cluster.ds->spectral.lambda));
  CheckBitEqual("net_hot_bit_equal_serial", served, *serial, pairs, out);
  out.end_to_end["err_p99_eps"] = CheckEpsilon(
      "net_hot_epsilon", served, CgOracle(graph, nodes), kNetEpsilon, out);

  if (!log.enabled()) return out;
  GraphLayerSplit("facebook", graph, log, out);
  std::vector<QueryStats> reference;
  for (const QueryPair& q : pairs) {
    reference.push_back(serial->EstimateWithStats(q.s, q.t));
  }
  CoreCounters(reference, out);
  std::vector<double> wire_ms;
  for (std::size_t i = 0; i < all.rtt_ms.size(); ++i) {
    wire_ms.push_back(all.rtt_ms[i] - all.server_ms[i]);
  }
  out.per_layer["net.rtt_ms_p50"] = Quantile(all.rtt_ms, 0.5);
  out.per_layer["net.rtt_ms_p99"] = Quantile(all.rtt_ms, 0.99);
  out.per_layer["net.server_ms_p50"] = Quantile(all.server_ms, 0.5);
  out.per_layer["net.server_ms_p99"] = Quantile(all.server_ms, 0.99);
  out.per_layer["net.wire_ms_p50"] = Quantile(wire_ms, 0.5);
  out.per_layer["net.avg_batch"] = Mean(all.batch_size);
  // Ledger: server + wire must cover the round trip implied by the
  // closed loop itself (Little's law: clients × wall / answered).
  const double parts = Mean(log.DurationsMs("net.server")) +
                       2.0 * Mean(log.DurationsMs("net.wire"));
  const double little = kNetClients * wall_s * 1e3 /
                        static_cast<double>(all.rtt_ms.size());
  Ledger("net_server_wire", parts, little, out);
  return out;
}

}  // namespace

const std::vector<MetricDef>& EndToEndMetrics() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s"},          {"throughput_qps", "1/s"},
      {"p50_ms", "ms"},          {"p99_ms", "ms"},
      {"err_p99_eps", "eps"},    {"peak_rss_mb", "MiB"},
  };
  return defs;
}

const std::vector<MetricDef>& LayerMetrics() {
  static const std::vector<MetricDef> defs = {
      {"graph.build_s", "s"},
      {"linalg.lanczos_s", "s"},
      {"core.walks_per_q", "count"},
      {"core.walk_steps_per_q", "count"},
      {"core.spmv_ops_per_q", "count"},
      {"core.ell_b_mean", "count"},
      {"core.early_stop_frac", "ratio"},
      {"core.ns_per_step", "ns"},
      {"batch_engine.call_ms_p50", "ms"},
      {"batch_engine.scaling_2w", "ratio"},
      {"serve.queue_ms_p50", "ms"},
      {"serve.queue_ms_p99", "ms"},
      {"serve.exec_ms_p50", "ms"},
      {"serve.exec_ms_p99", "ms"},
      {"serve.avg_batch", "count"},
      {"serve.flush_size", "ratio"},
      {"serve.flush_linger", "ratio"},
      {"serve.flush_drain", "ratio"},
      {"serve.backlog_max", "count"},
      {"serve.p50_ms_low", "ms"},
      {"serve.p99_ms_low", "ms"},
      {"serve.p50_ms_high", "ms"},
      {"serve.p99_ms_high", "ms"},
      {"serve.max_rate_qps", "1/s"},
      {"cache.hit_rate", "ratio"},
      {"cache.evictions", "count"},
      {"cache.bytes", "bytes"},
      {"cache.hit_rate.post_swap", "ratio"},
      {"landmarks.warm_s", "s"},
      {"dyn.update_ms_p50", "ms"},
      {"dyn.update_ms_p90", "ms"},
      {"dyn.commit_ms", "ms"},
      {"dyn.swap_wait_ms", "ms"},
      {"dyn.rebind_ms", "ms"},
      {"dyn.touched_rows", "count"},
      {"dyn.incremental_rebinds", "count"},
      {"net.rtt_ms_p50", "ms"},
      {"net.rtt_ms_p99", "ms"},
      {"net.server_ms_p50", "ms"},
      {"net.server_ms_p99", "ms"},
      {"net.wire_ms_p50", "ms"},
      {"net.avg_batch", "count"},
      {"gen.lag_ms_p99", "ms"},
      {"gen.lag_ms_max", "ms"},
      {"trace.overhead_pct", "%"},
      {"ledger.gap_pct", "%"},
  };
  return defs;
}

std::vector<std::string> WorkloadNames() {
  return {"batch_uniform", "net_hot"};
}

RunResult RunWorkload(const RunConfig& config, SpanLog& log) {
  return config.workload == "batch_uniform" ? BatchUniform(config, log)
                                            : NetHot(config, log);
}

}  // namespace perfbench
