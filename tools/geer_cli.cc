// geer — command-line ε-approximate effective-resistance queries.
//
// The tool a downstream user actually runs: load a SNAP edge list (or a
// named synthetic dataset), pick an algorithm, and answer PER queries from
// the command line or stdin. The first bare word selects a subcommand:
//
//   geer query   one-shot queries (the default when omitted)
//   geer batch   answer through the batch engine: queries are grouped by
//                the method's BatchPlan (groups sharing an endpoint share
//                walk populations / SpMV iterates)
//   geer serve   answer through the async serving front end
//                (serve/query_service.h): queries arrive as an open-loop
//                trace, coalesce in the micro-batching scheduler, and the
//                summary reports p50/p95/p99 client latency + throughput
//   geer dynamic replay a DYNAMIC workload (src/dyn/): the query stream
//                is interleaved with generated edge updates, each commit
//                publishing a new epoch that is swapped into the serving
//                scheduler between micro-batches; the summary reports
//                per-epoch commit/swap cost and latency percentiles
//   geer net     networked serving roles: shard | router | client
//   geer list    print registered estimators and datasets (with their
//                batch-sharing capability)
//
//   geer query --graph=com-dblp.txt --method=GEER --epsilon=0.05 --pair=3:17
//   geer serve --dataset=facebook --random=100 --qps=500
//   geer net shard --dataset=facebook --port=7001
//   geer net router --shards=127.0.0.1:7001,127.0.0.1:7002
//   geer net client --connect=127.0.0.1:7000 --queries=200 --zipf-exp=0.8
//
// Flags:
//   --graph=PATH        SNAP edge list (largest CC, bipartiteness broken)
//   --dataset=NAME      registry dataset (facebook|dblp|youtube|orkut|
//                       livejournal|friendster), --scale=F node scale
//   --method=NAME       GEER (default) | AMC | SMM | SMM-PengEll | TP |
//                       TPC | MC | MC2 | HAY | RP | EXACT | CG
//   --epsilon=F --delta=F --tau=N --seed=N   estimator knobs
//   --pair=S:T          one query (repeatable)
//   --random=N          N uniform random pairs
//   --edges=N           N uniform random edges
//   --stdin             read "s t" pairs from stdin
//   --stats             print per-query cost columns
//   --csv               machine-readable output
//   --weighted          treat --graph as a "u v w" conductance list and
//                       run the weighted instantiation of --method (every
//                       registered algorithm; "W-GEER" ≡ "GEER"); works
//                       with every subcommand, dynamic included
//                       (insert/delete/re-weight)
//   --threads=N         batch-engine worker threads (implies batch in
//                       query mode; 0 = hardware concurrency), or the
//                       serve/dynamic dispatch workers. Values are
//                       bit-identical at any thread count.
//   --qps=F             serve arrival rate (Poisson); 0 = one burst
//   --linger-ms=F       serve flush timer (default 2 ms)
//   --batch-size=N      serve coalescing cap (default 64; 1 = no
//                       coalescing, the micro-batching ablation)
//   --deadline-ms=F     per-query deadline; still-queued queries expire
//                       when it lapses (default: none)
//   --updates=N         dynamic: total generated edge updates (default 64)
//   --commit-every=K    dynamic: updates per commit/epoch (default 16)

#include <algorithm>
#include <cstdio>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/batch_engine.h"
#include "core/registry.h"
#include "dyn/dynamic_graph.h"
#include "eval/arrival_trace.h"
#include "eval/datasets.h"
#include "eval/dynamic_workload.h"
#include "eval/experiment.h"
#include "eval/queries.h"
#include "graph/algorithms.h"
#include "graph/weighted_io.h"
#include "linalg/spectral.h"
#include "net/roles.h"
#include "obs/stats.h"
#include "obs/trace.h"
#include "util/flags.h"
#include "util/timer.h"

namespace geer {
namespace {

struct CliArgs {
  std::string graph_path;
  std::string dataset;
  double scale = 1.0;
  std::string method = "GEER";
  ErOptions options;
  std::vector<QueryPair> explicit_pairs;
  std::size_t random_pairs = 0;
  std::size_t random_edges = 0;
  bool read_stdin = false;
  bool stats = false;
  bool csv = false;
  bool list = false;
  bool weighted = false;
  bool batch = false;
  int threads = 1;
  bool serve = false;
  double qps = 0.0;
  double linger_ms = 2.0;
  std::size_t serve_batch_size = 64;
  double deadline_ms = 0.0;
  bool dynamic = false;
  std::size_t dynamic_updates = 64;
  std::size_t commit_every = 16;
  std::string trace_out;  // serve/dynamic: Chrome trace_event JSON path
  bool obs_dump = false;  // serve/dynamic: print the metrics snapshot
};

// Scoped --trace-out support: installs a process tracer for the run,
// writes the Chrome trace_event JSON (chrome://tracing / Perfetto) on
// scope exit. Inactive (and free) when the path is empty.
class ScopedTraceExport {
 public:
  explicit ScopedTraceExport(const std::string& path) : path_(path) {
    if (!path_.empty()) {
      tracer_ = std::make_unique<obs::Tracer>();
      obs::Tracer::Install(tracer_.get());
    }
  }
  ~ScopedTraceExport() {
    if (tracer_ == nullptr) return;
    obs::Tracer::Install(nullptr);
    if (!tracer_->WriteChromeTrace(path_)) {
      std::fprintf(stderr, "warning: cannot write --trace-out=%s\n",
                   path_.c_str());
    } else {
      std::fprintf(stderr, "# trace written to %s\n", path_.c_str());
    }
  }
  ScopedTraceExport(const ScopedTraceExport&) = delete;
  ScopedTraceExport& operator=(const ScopedTraceExport&) = delete;

 private:
  std::string path_;
  std::unique_ptr<obs::Tracer> tracer_;
};

ServeOptions ServeOptionsFrom(const CliArgs& args) {
  ServeOptions options;
  options.max_batch_size = args.serve_batch_size;
  options.max_linger_seconds = args.linger_ms / 1e3;
  options.threads = args.threads;
  return options;
}

void MaybeDumpObs(const CliArgs& args, const ServeMetrics& metrics,
                  const std::string& method) {
  if (!args.obs_dump) return;
  std::fputs(
      obs::RenderPrometheusText(ServeStatsSnapshot(metrics, method)).c_str(),
      stdout);
}

// The `dynamic` path: interleave the query stream with generated edge
// updates (inserts, deletes of generated edges, weight changes on
// conductance graphs), committing every --commit-every ops and swapping
// the published epoch into the serving scheduler. Reports per-epoch
// commit/swap cost and client latency.
template <WeightPolicy WP>
int RunDynamicQueries(const typename WP::GraphT& graph,
                      const std::string& method, const ErOptions& options,
                      const std::vector<QueryPair>& queries,
                      const CliArgs& args) {
  DynamicGraphT<WP> dyn(graph);
  // Generation runs against a shadow copy so the replay below applies
  // each batch exactly once (the generator requires its batches applied
  // before the next call).
  DynamicGraphT<WP> shadow(graph);
  UpdateGeneratorT<WP> generator(shadow, options.seed);

  const std::size_t commit_every = std::max<std::size_t>(args.commit_every, 1);
  const std::size_t num_commits =
      (args.dynamic_updates + commit_every - 1) / commit_every;
  std::vector<DynTraceEvent> trace;
  trace.reserve(queries.size() + num_commits);
  std::size_t remaining = args.dynamic_updates;
  const std::size_t stride =
      num_commits > 0 ? std::max<std::size_t>(queries.size() /
                                                  (num_commits + 1),
                                              1)
                      : queries.size() + 1;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    trace.push_back(DynTraceEvent::Query(queries[i]));
    if (remaining > 0 && (i + 1) % stride == 0) {
      const std::size_t take = std::min(commit_every, remaining);
      std::vector<EdgeUpdate> batch = generator.NextBatch(take);
      for (const EdgeUpdate& op : batch) shadow.Apply(op);
      remaining -= take;
      trace.push_back(DynTraceEvent::Update(std::move(batch)));
    }
  }
  while (remaining > 0) {  // short query sets: trailing commits
    const std::size_t take = std::min(commit_every, remaining);
    std::vector<EdgeUpdate> batch = generator.NextBatch(take);
    for (const EdgeUpdate& op : batch) shadow.Apply(op);
    remaining -= take;
    trace.push_back(DynTraceEvent::Update(std::move(batch)));
  }

  ScopedTraceExport trace_export(args.trace_out);
  const DynamicWorkloadResult result = RunDynamicWorkload<WP>(
      dyn, method, options, trace, ServeOptionsFrom(args),
      args.deadline_ms / 1e3);

  if (args.csv) {
    std::printf("epoch,updates,touched,commit_ms,swap_ms,answered,p50_ms,"
                "p95_ms,p99_ms\n");
  } else {
    std::printf("%6s %8s %8s %10s %8s %9s %8s %8s %8s\n", "epoch", "updates",
                "touched", "commit_ms", "swap_ms", "answered", "p50", "p95",
                "p99");
  }
  for (const DynEpochStats& epoch : result.epochs) {
    if (args.csv) {
      std::printf("%llu,%zu,%zu,%.3f,%.3f,%zu,%.3f,%.3f,%.3f\n",
                  static_cast<unsigned long long>(epoch.epoch), epoch.updates,
                  epoch.touched, epoch.commit_ms, epoch.swap_ms,
                  epoch.answered, epoch.p50_ms, epoch.p95_ms, epoch.p99_ms);
    } else {
      std::printf("%6llu %8zu %8zu %10.3f %8.3f %9zu %8.2f %8.2f %8.2f\n",
                  static_cast<unsigned long long>(epoch.epoch), epoch.updates,
                  epoch.touched, epoch.commit_ms, epoch.swap_ms,
                  epoch.answered, epoch.p50_ms, epoch.p95_ms, epoch.p99_ms);
    }
  }
  if (!args.csv) {
    std::printf(
        "# dynamic %s: %zu queries + %zu updates over %zu commits, "
        "%zu/%zu answered in %.1f ms (%.0f q/s, workers=%d)%s\n",
        result.method.c_str(), result.num_queries,
        static_cast<std::size_t>(args.dynamic_updates), result.commits,
        result.answered, result.num_queries, result.wall_seconds * 1e3,
        result.throughput_qps, result.workers,
        result.failed > 0    ? " — some FAILED"
        : result.expired > 0 ? " — some expired"
                             : "");
  }
  MaybeDumpObs(args, result.metrics, result.method);
  return result.failed > 0 ? 1 : 0;
}

// The `serve` path: replay the query set as an open-loop arrival trace
// through the micro-batching QueryService and report what an interactive
// client sees — per-query latency and the tail summary.
int RunServedQueries(ErEstimator& estimator,
                     const std::vector<QueryPair>& queries,
                     const CliArgs& args) {
  const std::vector<TraceEvent> trace =
      MakeOpenLoopTrace(queries, args.qps, args.options.seed);
  ScopedTraceExport trace_export(args.trace_out);
  const ServedWorkloadResult result = RunServedWorkload(
      estimator, trace, ServeOptionsFrom(args), args.deadline_ms / 1e3);

  if (args.csv) std::printf("s,t,er,latency_ms,status\n");
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const QueryPair& q = trace[i].query;
    const bool answered = result.statuses[i] == ServeStatus::kAnswered;
    const char* status =
        answered ? "answered"
        : result.statuses[i] == ServeStatus::kUnsupported ? "unsupported"
        : result.statuses[i] == ServeStatus::kRejected    ? "rejected"
        : result.statuses[i] == ServeStatus::kFailed      ? "failed"
                                                          : "expired";
    if (args.csv) {
      std::printf("%u,%u,%.9g,%.3f,%s\n", q.s, q.t, result.values[i],
                  result.latency_ms[i], status);
    } else if (answered) {
      std::printf("r(%u, %u) = %.6f   (%.2f ms)\n", q.s, q.t,
                  result.values[i], result.latency_ms[i]);
    } else {
      std::printf("r(%u, %u): %s\n", q.s, q.t, status);
    }
  }
  if (!args.csv) {
    std::printf(
        "# served %zu/%zu queries in %.1f ms: p50=%.2f p95=%.2f p99=%.2f "
        "max=%.2f ms, %.0f q/s, avg_batch=%.1f, workers=%d%s\n",
        result.answered, result.num_events, result.wall_seconds * 1e3,
        result.p50_ms, result.p95_ms, result.p99_ms, result.max_ms,
        result.throughput_qps, result.avg_batch, result.workers,
        result.failed > 0    ? " — some FAILED"
        : result.expired > 0 ? " — some expired"
                             : "");
  }
  MaybeDumpObs(args, result.metrics, result.method);
  return result.failed > 0 ? 1 : 0;
}

// Query and batch output share one row format: s, t, er, then the
// per-query wall time in query mode only (meaningless under batch
// sharing/parallelism), then the cost columns under --stats.
void PrintRowHeader(const CliArgs& args, bool timed) {
  if (args.csv) {
    std::printf("s,t,er%s%s\n", timed ? ",ms" : "",
                args.stats ? ",walks,walk_steps,spmv_ops,ell,ell_b" : "");
  } else if (args.stats) {
    std::printf("%8s %8s %12s", "s", "t", "er");
    if (timed) std::printf(" %9s", "ms");
    std::printf(" %10s %12s %12s %6s %6s\n", "walks", "walk_steps",
                "spmv_ops", "ell", "ell_b");
  }
}

void PrintRow(const CliArgs& args, bool timed, const QueryPair& q,
              const QueryStats& st, double ms) {
  const auto walks = static_cast<unsigned long long>(st.walks);
  const auto walk_steps = static_cast<unsigned long long>(st.walk_steps);
  const auto spmv_ops = static_cast<unsigned long long>(st.spmv_ops);
  if (args.csv) {
    std::printf("%u,%u,%.9g", q.s, q.t, st.value);
    if (timed) std::printf(",%.3f", ms);
    if (args.stats) {
      std::printf(",%llu,%llu,%llu,%u,%u", walks, walk_steps, spmv_ops,
                  st.ell, st.ell_b);
    }
  } else if (args.stats) {
    std::printf("%8u %8u %12.6f", q.s, q.t, st.value);
    if (timed) std::printf(" %9.2f", ms);
    std::printf(" %10llu %12llu %12llu %6u %6u", walks, walk_steps, spmv_ops,
                st.ell, st.ell_b);
  } else {
    std::printf("r(%u, %u) = %.6f", q.s, q.t, st.value);
    if (timed) std::printf("   (%.2f ms)", ms);
  }
  std::printf("\n");
}

// Prints the skip line for a query the method cannot answer; true if
// `q` is skipped.
bool SkipUnsupported(const ErEstimator& estimator, const QueryPair& q,
                     const CliArgs& args) {
  if (estimator.SupportsQuery(q.s, q.t)) return false;
  if (!args.csv) {
    std::printf("r(%u, %u): unsupported by %s (edge-only method)\n", q.s, q.t,
                estimator.Name().c_str());
  }
  return true;
}

// The `query` path: answer one query at a time and time each.
int RunSerialQueries(ErEstimator& estimator,
                     const std::vector<QueryPair>& queries,
                     const CliArgs& args) {
  PrintRowHeader(args, /*timed=*/true);
  double total_ms = 0.0;
  std::size_t skipped = 0;
  for (const QueryPair& q : queries) {
    if (SkipUnsupported(estimator, q, args)) {
      ++skipped;
      continue;
    }
    Timer query_timer;
    const QueryStats st = estimator.EstimateWithStats(q.s, q.t);
    const double ms = query_timer.ElapsedMillis();
    total_ms += ms;
    PrintRow(args, /*timed=*/true, q, st, ms);
  }
  if (!args.csv) {
    const std::size_t answered = queries.size() - skipped;
    std::printf("# %zu queries in %.1f ms (%.2f ms avg)%s\n", answered,
                total_ms, total_ms / std::max<std::size_t>(answered, 1),
                skipped > 0 ? " — some skipped" : "");
  }
  return 0;
}

// The `batch` path (or any --threads): one engine run over the whole
// set, grouped by the method's plan, with amortized milliseconds. Rows
// come out in input order.
int RunBatchQueries(ErEstimator& estimator,
                    const std::vector<QueryPair>& queries,
                    const CliArgs& args) {
  std::vector<QueryStats> stats(queries.size());
  BatchOptions options;
  options.threads = args.threads;
  Timer batch_timer;
  const BatchReport report = RunQueryBatch(estimator, queries, stats, options);
  const double batch_ms = batch_timer.ElapsedMillis();

  PrintRowHeader(args, /*timed=*/false);
  std::size_t skipped = 0;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const QueryPair& q = queries[i];
    if (!report.processed[i]) {  // deadline cut (no CLI deadline)
      ++skipped;
      if (!args.csv) {
        std::printf("r(%u, %u): not answered (batch cut short)\n", q.s, q.t);
      }
      continue;
    }
    if (SkipUnsupported(estimator, q, args)) {
      ++skipped;
      continue;
    }
    PrintRow(args, /*timed=*/false, q, stats[i], 0.0);
  }
  if (!args.csv) {
    const std::size_t answered = queries.size() - skipped;
    std::printf(
        "# batch: %zu queries in %.1f ms (%.2f ms/query amortized, "
        "threads=%d, shared_precompute=%s)%s\n",
        answered, batch_ms, batch_ms / std::max<std::size_t>(answered, 1),
        report.workers, estimator.SharesBatchWork() ? "yes" : "no",
        skipped > 0 ? " — some skipped" : "");
  }
  return 0;
}

// Everything after loading, for either weight mode: build and validate
// the query set, pick the estimator, answer. `topology` is the graph's
// unweighted skeleton (random pairs/edges are drawn on it), and `lambda`
// is whatever the loader already knows; it is computed here only for
// methods that read it.
template <WeightPolicy WP>
int RunT(const CliArgs& args, const typename WP::GraphT& graph,
         const Graph& topology, std::optional<double> lambda) {
  // --- Build the query set ------------------------------------------------
  std::vector<QueryPair> queries = args.explicit_pairs;
  if (args.random_pairs > 0) {
    auto extra = RandomPairs(topology, args.random_pairs, args.options.seed);
    queries.insert(queries.end(), extra.begin(), extra.end());
  }
  if (args.random_edges > 0) {
    auto extra = RandomEdges(topology, args.random_edges, args.options.seed);
    queries.insert(queries.end(), extra.begin(), extra.end());
  }
  if (args.read_stdin) {
    unsigned long long s = 0, t = 0;
    while (std::scanf("%llu %llu", &s, &t) == 2) {
      queries.push_back({static_cast<NodeId>(s), static_cast<NodeId>(t)});
    }
  }
  if (queries.empty()) {
    std::fprintf(stderr,
                 "error: no queries (--pair / --random / --edges / --stdin)\n");
    return 2;
  }
  for (const auto& q : queries) {
    if (q.s >= graph.NumNodes() || q.t >= graph.NumNodes()) {
      std::fprintf(stderr, "error: query (%u,%u) out of range (n=%u)\n", q.s,
                   q.t, graph.NumNodes());
      return 1;
    }
  }

  // --- Build the estimator -----------------------------------------------
  // Only --weighted takes the "W-" display names.
  const std::vector<std::string> names = EstimatorNames();
  const std::string name =
      WP::kWeighted ? CanonicalEstimatorName(args.method) : args.method;
  if (std::find(names.begin(), names.end(), name) == names.end()) {
    std::fprintf(stderr, "error: unknown method '%s' (try `list`)\n",
                 args.method.c_str());
    return 2;
  }
  ErOptions options = args.options;
  options.lambda = lambda;
  // Lanczos preprocessing is only worth paying once, and only for the
  // methods that actually read λ (the walk-length formulas of Eq. 5/6).
  if (!options.lambda.has_value() && EstimatorReadsLambda(args.method)) {
    options.lambda = ComputeSpectralBoundsT<WP>(graph).lambda;
  }
  if (!EstimatorFeasibleT<WP>(args.method, graph, options)) {
    std::fprintf(stderr,
                 "error: %s is infeasible on this graph (memory budget)\n",
                 args.method.c_str());
    return 1;
  }
  if (args.dynamic) {
    // RunDynamicWorkload constructs (and epoch-rebinds) its own
    // estimator — building one here would duplicate the preprocessing.
    return RunDynamicQueries<WP>(graph, args.method, options, queries, args);
  }
  Timer build_timer;
  auto estimator = CreateEstimatorT<WP>(args.method, graph, options);
  if (!args.csv) {
    std::printf("# method=%s epsilon=%g delta=%g (constructed in %.0f ms)\n",
                estimator->Name().c_str(), options.epsilon, options.delta,
                build_timer.ElapsedMillis());
  }

  // --- Answer -------------------------------------------------------------
  if (args.serve) return RunServedQueries(*estimator, queries, args);
  if (args.batch || args.threads != 1) {
    return RunBatchQueries(*estimator, queries, args);
  }
  return RunSerialQueries(*estimator, queries, args);
}

std::optional<QueryPair> ParsePair(const std::string& text) {
  const std::size_t colon = text.find(':');
  if (colon == std::string::npos) return std::nullopt;
  const std::string_view view(text);
  const std::optional<NodeId> s = ParseNumber<NodeId>(view.substr(0, colon));
  const std::optional<NodeId> t = ParseNumber<NodeId>(view.substr(colon + 1));
  if (!s || !t) return std::nullopt;
  return QueryPair{*s, *t};
}

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [query|batch|serve|dynamic|net|list] ...\n"
      "  query   (--graph=PATH | --dataset=NAME) [--method=NAME]\n"
      "          [--epsilon=F] [--pair=S:T ...] [--random=N] [--edges=N]\n"
      "          [--stdin] [--stats] [--csv] [--weighted]\n"
      "  batch   query flags + [--threads=N]\n"
      "  serve   query flags + [--qps=F] [--linger-ms=F] [--batch-size=N]\n"
      "          [--deadline-ms=F] [--threads=N] [--trace-out=PATH]\n"
      "          [--obs-dump]\n"
      "  dynamic serve flags + [--updates=N] [--commit-every=K]\n"
      "  net     shard|router|client ... (see `%s net`)\n"
      "  list    print estimators and datasets\n",
      argv0, argv0);
  return 2;
}

void PrintNames(const char* label, const std::vector<std::string>& names) {
  std::printf("%s", label);
  for (const auto& name : names) std::printf(" %s", name.c_str());
  std::printf("\n");
}

// Loading is the one weight-specific step: the unit path reads a dataset
// or edge list together with its cached λ, the --weighted path a
// conductance list (λ left to RunT). Everything after it is RunT<WP>.
int Run(const CliArgs& args) {
  if (args.list) {
    PrintNames("estimators:", EstimatorNames());
    std::vector<std::string> sharing;
    for (const auto& name : EstimatorNames()) {
      if (EstimatorSharesBatchWork(name)) sharing.push_back(name);
    }
    PrintNames("batch shared-precompute:", sharing);
    PrintNames("datasets:", DatasetNames());
    return 0;
  }

  Timer load_timer;
  if (args.weighted) {
    if (args.graph_path.empty()) {
      std::fprintf(stderr, "error: --weighted requires --graph\n");
      return 2;
    }
    const auto graph = LoadWeightedEdgeList(args.graph_path);
    if (!graph) {
      std::fprintf(stderr, "error: cannot load weighted list '%s'\n",
                   args.graph_path.c_str());
      return 1;
    }
    const Graph skeleton = graph->Skeleton();
    if (!IsConnected(skeleton)) {
      std::fprintf(stderr,
                   "error: weighted input must be connected (use the largest "
                   "component)\n");
      return 1;
    }
    if (!args.csv) {
      std::printf("# weighted graph: n=%u m=%llu W=%.3f (loaded in %.0f ms)\n",
                  graph->NumNodes(),
                  static_cast<unsigned long long>(graph->NumEdges()),
                  graph->TotalWeight(), load_timer.ElapsedMillis());
    }
    return RunT<EdgeWeight>(args, *graph, skeleton, std::nullopt);
  }

  std::optional<Dataset> dataset;
  if (!args.graph_path.empty()) {
    dataset = LoadDatasetFromFile(args.graph_path);
    if (!dataset) {
      std::fprintf(stderr, "error: cannot load '%s'\n",
                   args.graph_path.c_str());
      return 1;
    }
  } else if (!args.dataset.empty()) {
    dataset = MakeDataset(args.dataset, args.scale);
    if (!dataset) {
      std::fprintf(stderr, "error: unknown dataset '%s'\n",
                   args.dataset.c_str());
      return 1;
    }
  } else {
    std::fprintf(stderr, "error: need --graph or --dataset\n");
    return 2;
  }
  if (!args.csv) {
    std::printf("# %s  (loaded in %.0f ms)\n",
                DescribeDataset(*dataset).c_str(), load_timer.ElapsedMillis());
  }
  return RunT<UnitWeight>(args, dataset->graph, dataset->graph,
                          dataset->spectral.lambda);
}

}  // namespace
}  // namespace geer

int main(int argc, char** argv) {
  using namespace geer;
  CliArgs args;
  int first_flag = 1;
  // Subcommand dispatch: a leading bare word picks the mode; everything
  // after it is the mode's flags. Omitting it means `query`.
  if (argc > 1 && argv[1][0] != '-') {
    const std::string command = argv[1];
    first_flag = 2;
    if (command == "net") {
      return net::RunNetCommand(
          std::vector<std::string>(argv + 2, argv + argc));
    } else if (command == "serve") {
      args.serve = true;
    } else if (command == "dynamic") {
      args.dynamic = true;
    } else if (command == "batch") {
      args.batch = true;
    } else if (command == "list") {
      args.list = true;
    } else if (command != "query") {
      std::fprintf(stderr, "error: unknown subcommand '%s'\n",
                   command.c_str());
      return Usage(argv[0]);
    }
  }
  for (int i = first_flag; i < argc; ++i) {
    const std::string arg = argv[i];
    FlagArg f(arg);
    std::string pair;
    if (f.Str("--pair", &pair)) {
      auto parsed = ParsePair(pair);
      if (!parsed) return Usage(argv[0]);
      args.explicit_pairs.push_back(*parsed);
    } else if (f.Num("--threads", &args.threads)) {
      args.batch = true;
    } else if (f.Num("--updates", &args.dynamic_updates) ||
               f.Num("--commit-every", &args.commit_every)) {
      args.dynamic = true;
    } else if (arg == "--obs-dump") {
      args.obs_dump = true;
    } else if (arg == "--stdin") {
      args.read_stdin = true;
    } else if (arg == "--stats") {
      args.stats = true;
    } else if (arg == "--csv") {
      args.csv = true;
    } else if (arg == "--weighted") {
      args.weighted = true;
    } else if (!(f.Str("--graph", &args.graph_path) ||
                 f.Str("--dataset", &args.dataset) ||
                 f.Num("--scale", &args.scale) ||
                 f.Str("--method", &args.method) ||
                 f.Num("--epsilon", &args.options.epsilon) ||
                 f.Num("--delta", &args.options.delta) ||
                 f.Num("--tau", &args.options.tau) ||
                 f.Num("--seed", &args.options.seed) ||
                 f.Num("--random", &args.random_pairs) ||
                 f.Num("--edges", &args.random_edges) ||
                 f.Num("--qps", &args.qps) ||
                 f.Num("--linger-ms", &args.linger_ms) ||
                 f.Num("--batch-size", &args.serve_batch_size) ||
                 f.Num("--deadline-ms", &args.deadline_ms) ||
                 f.Str("--trace-out", &args.trace_out))) {
      return Usage(argv[0]);
    }
    // A numeric flag whose value is not a complete number of its type.
    if (f.bad()) return Usage(argv[0]);
  }
  return Run(args);
}
