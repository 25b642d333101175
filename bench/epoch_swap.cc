// Epoch-swap latency bench: quantifies the incremental spectral
// maintenance claim — with GraphEpoch::incremental, swapping a
// small-touch epoch into a bound estimator is O(touched)-ish, not
// O(graph).
//
//  1. λ-dominated rebinds (SMM, which rederives λ on every swap): for
//     touch fractions of ~0.1% / 1% of m, commit a generated update
//     batch and time RebindGraph in `full` mode (no holder: private
//     cold Lanczos per swap, the pre-incremental behavior) vs `incr`
//     mode (shared spectral holder carried across epochs: warm-started
//     Lanczos seeded from the previous epoch's Ritz vectors).
//
//  2. Factor-dominated rebinds (EXACT): same sweep, `full` = fresh
//     O(n³) Cholesky per swap vs `incr` = rank-1 update/downdate per
//     changed edge behind the max(4, n/4) crossover heuristic.
//
//   bench_epoch_swap [--scale=F] [--seed=N] [--rounds=N] [--csv]
//
// CSV rows: metric,dataset,param,value (swap_ms, lower is better;
// swap_speedup = full/incr, higher is better). One warm-up epoch precedes the timed rounds in both modes so
// `incr` never charges its first (necessarily cold) swap.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "core/exact.h"
#include "core/smm.h"
#include "core/spectral_epoch.h"
#include "dyn/dynamic_graph.h"
#include "eval/datasets.h"
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
    std::printf("  %-16s %-10s %-22s %12.4g\n", metric, dataset,
                param.c_str(), value);
  }
}

GraphEpoch EpochInfo(const DynSnapshot& snapshot, bool incremental,
                     const std::shared_ptr<EpochShared<EpochSpectral>>& sp) {
  GraphEpoch epoch;
  epoch.epoch = snapshot.epoch;
  epoch.touched = std::span<const NodeId>(snapshot.touched);
  epoch.resized = snapshot.resized;
  epoch.incremental = incremental;
  epoch.spectral = sp;
  return epoch;
}

// Replays `rounds`+1 identical-seeded update epochs against a fresh
// estimator and returns the best post-warm-up swap latency. The factory
// builds the estimator on the initial snapshot; `incremental` selects
// the maintenance mode (and, for λ-readers, attaches a cross-epoch
// spectral holder).
template <typename MakeEstimator>
double TimeSwaps(const Args& args, const Graph& base, double frac,
                 bool incremental, bool attach_spectral,
                 MakeEstimator&& make) {
  DynamicGraph dyn{Graph(base)};
  auto snapshot = dyn.Current();
  auto estimator = make(*snapshot->graph);
  auto spectral = attach_spectral ? MakeSharedSpectral() : nullptr;
  UpdateGenerator generator(dyn, args.seed ^ 0x5a5a);
  const std::size_t count = std::max<std::size_t>(
      static_cast<std::size_t>(frac * static_cast<double>(base.NumEdges())),
      1);
  double best = 1e300;
  for (int round = 0; round <= args.rounds; ++round) {
    for (const EdgeUpdate& op : generator.NextBatch(count)) dyn.Apply(op);
    // The previous snapshot must outlive the rebind: EXACT diffs the old
    // CSR rows against the new ones to derive its rank-1 updates.
    auto prev = snapshot;
    snapshot = dyn.Commit();
    const GraphEpoch epoch = EpochInfo(*snapshot, incremental, spectral);
    Timer timer;
    GEER_CHECK(estimator->RebindGraph(*snapshot->graph, epoch));
    const double ms = timer.ElapsedMillis();
    if (round > 0) best = std::min(best, ms);  // round 0 = warm-up
  }
  return best;
}

template <typename MakeEstimator>
void BenchMode(const Args& args, const char* dataset, const char* name,
               const Graph& base, bool attach_spectral, MakeEstimator&& make) {
  for (const double frac : {0.001, 0.01}) {
    const double full =
        TimeSwaps(args, base, frac, /*incremental=*/false,
                  /*attach_spectral=*/false, make);
    const double incr = TimeSwaps(args, base, frac, /*incremental=*/true,
                                  attach_spectral, make);
    char param[64];
    std::snprintf(param, sizeof(param), "%s_touch%g%%_full", name,
                  frac * 100.0);
    Emit(args, "swap_ms", dataset, param, full);
    std::snprintf(param, sizeof(param), "%s_touch%g%%_incr", name,
                  frac * 100.0);
    Emit(args, "swap_ms", dataset, param, incr);
    std::snprintf(param, sizeof(param), "%s_touch%g%%", name, frac * 100.0);
    Emit(args, "swap_speedup", dataset, param, incr > 0 ? full / incr : 0.0);
  }
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
    std::printf("# epoch_swap: full-rebuild vs incremental RebindGraph "
                "(rounds=%d, best-of, 1 warm-up)\n",
                args.rounds);
  }

  ErOptions smm_options;
  smm_options.epsilon = 0.1;
  smm_options.seed = args.seed;
  auto make_smm = [&smm_options](const Graph& graph) {
    return std::make_unique<SmmEstimator>(graph, smm_options);
  };
  ErOptions exact_options;
  exact_options.seed = args.seed;
  auto make_exact = [&exact_options](const Graph& graph) {
    return std::make_unique<ExactEstimator>(graph, exact_options,
                                            graph.NumNodes());
  };

  // λ-dominated swaps on both serve datasets (dblp is the largest the
  // pinned suite runs); factor-dominated on facebook, where EXACT's
  // dense factor fits comfortably.
  auto facebook = MakeDataset("facebook", args.scale);
  GEER_CHECK(facebook.has_value());
  auto dblp = MakeDataset("dblp", args.scale);
  GEER_CHECK(dblp.has_value());
  BenchMode(args, "facebook", "smm", facebook->graph,
            /*attach_spectral=*/true, make_smm);
  BenchMode(args, "dblp", "smm", dblp->graph, /*attach_spectral=*/true,
            make_smm);
  BenchMode(args, "facebook", "exact", facebook->graph,
            /*attach_spectral=*/false, make_exact);
  return 0;
}

}  // namespace
}  // namespace geer

int main(int argc, char** argv) { return geer::Main(argc, argv); }
