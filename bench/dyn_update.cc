// Dynamic-graph update bench: quantifies the two claims the src/dyn/
// subsystem makes.
//
//  1. Incremental Commit() beats a full from-scratch rebuild on
//     small-touch update batches: for touch fractions of ~0.1% / 1% /
//     10% of m, apply a generated update batch and time the incremental
//     CSR fold vs BuildFromScratch() (builder: edge-list sort + dedup +
//     per-row sorts) on the SAME pending state. Both weight modes.
//
//  2. Epoch-keyed SELECTIVE session invalidation retains most of the
//     SMM/GEER iterate-cache savings after a small update: on a
//     large-diameter grid (where iterate dependency sets are local
//     balls), warm a session, commit a touch-1% batch, rebind, and
//     report how much of the warm-cache SpMV saving survives
//     (retention = (cold − post) / (cold − warm)).
//
//   bench_dyn_update [--scale=F] [--seed=N] [--rounds=N] [--csv]
//
// CSV rows: metric,dataset,param,value. ctest runs it at --scale=0.02
// (bench_dyn_update_smoke) for its checks.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "core/batch_engine.h"
#include "core/smm.h"
#include "dyn/dynamic_graph.h"
#include "eval/datasets.h"
#include "graph/generators.h"
#include "graph/weighted_generators.h"
#include "util/check.h"
#include "util/timer.h"

namespace geer {
namespace {

struct Args {
  double scale = 0.25;
  std::uint64_t seed = 1;
  int rounds = 3;
  bool csv = false;
};

void Emit(const Args& args, const char* metric, const char* dataset,
          const std::string& param, double value) {
  if (args.csv) {
    std::printf("%s,%s,%s,%.6g\n", metric, dataset, param.c_str(), value);
  } else {
    std::printf("  %-24s %-10s %-12s %12.4g\n", metric, dataset,
                param.c_str(), value);
  }
}

template <WeightPolicy WP>
typename WP::GraphT LiftGraph(const Graph& skeleton, std::uint64_t seed);

template <>
Graph LiftGraph<UnitWeight>(const Graph& skeleton, std::uint64_t) {
  return skeleton;
}

template <>
WeightedGraph LiftGraph<EdgeWeight>(const Graph& skeleton,
                                    std::uint64_t seed) {
  return gen::WithUniformWeights(skeleton, 0.25, 4.0, seed);
}

// Part 1: incremental commit vs full rebuild across touch fractions.
template <WeightPolicy WP>
void BenchCommit(const Args& args, const char* mode, const char* dataset,
                 const Graph& skeleton) {
  for (const double frac : {0.001, 0.01, 0.1}) {
    double best_commit = 1e300;
    double best_rebuild = 1e300;
    std::size_t touched_rows = 0;
    std::size_t num_updates = 0;
    DynamicGraphT<WP> dyn(LiftGraph<WP>(skeleton, args.seed));
    UpdateGeneratorT<WP> generator(dyn, args.seed ^ 0xd15c);
    for (int round = 0; round < args.rounds; ++round) {
      const std::size_t count = std::max<std::size_t>(
          static_cast<std::size_t>(frac *
                                   static_cast<double>(skeleton.NumEdges())),
          1);
      const std::vector<EdgeUpdate> batch = generator.NextBatch(count);
      for (const EdgeUpdate& op : batch) dyn.Apply(op);
      num_updates = batch.size();
      Timer rebuild_timer;
      const typename WP::GraphT scratch = dyn.BuildFromScratch();
      best_rebuild = std::min(best_rebuild, rebuild_timer.ElapsedMillis());
      GEER_CHECK(scratch.NumEdges() > 0);
      Timer commit_timer;
      auto snapshot = dyn.Commit();
      best_commit = std::min(best_commit, commit_timer.ElapsedMillis());
      touched_rows = snapshot->touched.size();
      GEER_CHECK(snapshot->graph->NumEdges() == scratch.NumEdges());
    }
    char param[64];
    std::snprintf(param, sizeof(param), "%s_touch%g%%", mode, frac * 100.0);
    Emit(args, "commit_ms", dataset, param, best_commit);
    Emit(args, "rebuild_ms", dataset, param, best_rebuild);
    Emit(args, "commit_speedup", dataset, param,
         best_commit > 0 ? best_rebuild / best_commit : 0.0);
    if (!args.csv) {
      std::printf("    (updates=%zu touched_rows=%zu)\n", num_updates,
                  touched_rows);
    }
  }
}

// Part 2: post-update session-cache retention on a large-diameter grid.
void BenchSessionRetention(const Args& args) {
  const NodeId side = std::max<NodeId>(
      static_cast<NodeId>(40.0 * args.scale * 4.0), 12);
  const Graph grid = gen::Grid(side, side);
  ErOptions options;
  options.seed = args.seed;
  options.smm_iterations = 4;  // local dependency balls
  options.lambda = 0.9;        // pinned: ℓ formulas are bypassed anyway

  // Grouped workload: a few sources, a fan of nearby targets each.
  std::vector<QueryPair> queries;
  const NodeId n = grid.NumNodes();
  for (NodeId i = 0; i < 8; ++i) {
    const NodeId s = static_cast<NodeId>((i * n) / 8);
    for (NodeId j = 1; j <= 12; ++j) {
      const NodeId t = static_cast<NodeId>((s + j * 3) % n);
      if (t != s) queries.push_back({s, t});
    }
  }

  auto total_spmv = [](const std::vector<QueryStats>& stats) {
    std::uint64_t total = 0;
    for (const QueryStats& st : stats) total += st.spmv_ops;
    return static_cast<double>(total);
  };

  DynamicGraph dyn{Graph(grid)};
  auto snapshot = dyn.Current();
  SmmEstimator estimator(*snapshot->graph, options);
  estimator.EnableSessionCache(256ull << 20);

  std::vector<QueryStats> stats(queries.size());
  RunQueryBatch(estimator, queries, stats);
  const double cold = total_spmv(stats);
  RunQueryBatch(estimator, queries, stats);
  const double warm = total_spmv(stats);

  // Touch ~1% of rows with chord insertions, swap the epoch, re-query.
  UpdateGenerator generator(dyn, args.seed ^ 0xcafe);
  const std::size_t count =
      std::max<std::size_t>(static_cast<std::size_t>(grid.NumNodes()) / 200,
                            1);
  for (const EdgeUpdate& op : generator.NextBatch(count)) dyn.Apply(op);
  snapshot = dyn.Commit();
  GraphEpoch epoch;
  epoch.epoch = snapshot->epoch;
  epoch.touched = std::span<const NodeId>(snapshot->touched);
  epoch.resized = snapshot->resized;
  epoch.lambda = 0.9;
  GEER_CHECK(estimator.RebindGraph(*snapshot->graph, epoch));
  RunQueryBatch(estimator, queries, stats);
  const double post = total_spmv(stats);

  const double retention =
      cold > warm ? std::clamp((cold - post) / (cold - warm), 0.0, 1.0)
                  : 0.0;
  char param[64];
  std::snprintf(param, sizeof(param), "grid%ux%u_touch1%%", side, side);
  Emit(args, "session_cold_spmv", "grid", param, cold);
  Emit(args, "session_warm_spmv", "grid", param, warm);
  Emit(args, "session_post_update_spmv", "grid", param, post);
  Emit(args, "session_retention", "grid", param, retention);
}

int Main(int argc, char** argv) {
  Args args;
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
    } else if (auto v = value("--rounds")) {
      args.rounds = std::atoi(v->c_str());
    } else if (arg == "--csv") {
      args.csv = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return 2;
    }
  }

  if (args.csv) {
    std::printf("metric,dataset,param,value\n");
  } else {
    std::printf("# dyn_update: incremental Commit vs full rebuild + "
                "session retention (rounds=%d, best-of)\n",
                args.rounds);
  }
  auto dataset = MakeDataset("facebook", args.scale);
  GEER_CHECK(dataset.has_value());
  BenchCommit<UnitWeight>(args, "unit", "facebook", dataset->graph);
  BenchCommit<EdgeWeight>(args, "weighted", "facebook", dataset->graph);
  auto dblp = MakeDataset("dblp", args.scale);
  GEER_CHECK(dblp.has_value());
  BenchCommit<UnitWeight>(args, "unit", "dblp", dblp->graph);
  BenchSessionRetention(args);
  return 0;
}

}  // namespace
}  // namespace geer

int main(int argc, char** argv) { return geer::Main(argc, argv); }
