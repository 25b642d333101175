// Shared command-line plumbing and cost projection for the figure
// benches. Every bench accepts:
//   --scale=<f>        dataset node-count scale (default 0.25)
//   --queries=<n>      queries per set (paper: 100)
//   --deadline=<sec>   per-(method,ε) budget; expired cells report partial
//                      averages marked '*' (the paper's one-day cutoff)
//   --ops-budget=<f>   projected-cost cutoff; cells projected above it are
//                      reported DNF without running
//   --epsilons=a,b,c   ε sweep (default 0.5,0.2,0.1,0.05,0.02,0.01)
//   --datasets=a,b     dataset subset
//   --tp-scale=<f>     TP/TPC sample-constant scale (timings are also
//                      reported extrapolated to scale 1; see EXPERIMENTS.md)
//   --graph=<path>     use a real SNAP edge list instead of the registry
//   --seed=<n>, --csv, --quick (3 datasets × 3 ε, scale 0.1)

#ifndef GEER_BENCH_BENCH_COMMON_H_
#define GEER_BENCH_BENCH_COMMON_H_

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "core/ell.h"
#include "core/options.h"
#include "core/rp.h"
#include "eval/datasets.h"
#include "eval/experiment.h"

namespace geer {
namespace bench {

struct BenchArgs {
  double scale = 0.25;
  std::size_t num_queries = 100;
  double deadline_seconds = 8.0;
  double ops_budget = 2e9;
  std::vector<double> epsilons = {0.5, 0.2, 0.1, 0.05, 0.02, 0.01};
  std::vector<std::string> datasets = DatasetNames();
  double tp_scale = 0.01;
  double tpc_scale = 0.01;
  std::uint64_t seed = 1;
  bool csv = false;
  std::string graph_path;

  static BenchArgs Parse(int argc, char** argv) {
    BenchArgs args;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      auto value = [&arg](const char* key) -> std::optional<std::string> {
        const std::string prefix = std::string(key) + "=";
        if (arg.rfind(prefix, 0) == 0) return arg.substr(prefix.size());
        return std::nullopt;
      };
      if (auto v = value("--scale")) {
        args.scale = std::atof(v->c_str());
      } else if (auto v = value("--queries")) {
        args.num_queries = static_cast<std::size_t>(std::atoll(v->c_str()));
      } else if (auto v = value("--deadline")) {
        args.deadline_seconds = std::atof(v->c_str());
      } else if (auto v = value("--ops-budget")) {
        args.ops_budget = std::atof(v->c_str());
      } else if (auto v = value("--epsilons")) {
        args.epsilons = ParseDoubles(*v);
      } else if (auto v = value("--datasets")) {
        args.datasets = ParseStrings(*v);
      } else if (auto v = value("--tp-scale")) {
        args.tp_scale = std::atof(v->c_str());
        args.tpc_scale = args.tp_scale;
      } else if (auto v = value("--seed")) {
        args.seed = static_cast<std::uint64_t>(std::atoll(v->c_str()));
      } else if (auto v = value("--graph")) {
        args.graph_path = *v;
      } else if (arg == "--csv") {
        args.csv = true;
      } else if (arg == "--quick") {
        args.scale = 0.1;
        args.num_queries = 25;
        args.deadline_seconds = 3.0;
        args.epsilons = {0.5, 0.1, 0.02};
        args.datasets = {"facebook", "dblp", "orkut"};
      } else if (arg == "--help" || arg == "-h") {
        std::printf("see bench/bench_common.h header comment for flags\n");
        std::exit(0);
      } else {
        std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
        std::exit(2);
      }
    }
    return args;
  }

  /// Loads the requested datasets (or the single --graph file).
  std::vector<Dataset> LoadDatasets() const {
    std::vector<Dataset> out;
    if (!graph_path.empty()) {
      auto ds = LoadDatasetFromFile(graph_path);
      if (!ds.has_value()) {
        std::fprintf(stderr, "cannot load %s\n", graph_path.c_str());
        std::exit(2);
      }
      out.push_back(std::move(*ds));
      return out;
    }
    for (const std::string& name : datasets) {
      auto ds = MakeDataset(name, scale);
      if (!ds.has_value()) {
        std::fprintf(stderr, "unknown dataset %s\n", name.c_str());
        std::exit(2);
      }
      out.push_back(std::move(*ds));
    }
    return out;
  }

  ErOptions BaseOptions(double epsilon) const {
    ErOptions opt;
    opt.epsilon = epsilon;
    opt.delta = 0.01;
    opt.tau = 5;
    opt.seed = seed;
    opt.tp_scale = tp_scale;
    opt.tpc_scale = tpc_scale;
    return opt;
  }

 private:
  static std::vector<double> ParseDoubles(const std::string& csv) {
    std::vector<double> out;
    std::size_t pos = 0;
    while (pos < csv.size()) {
      std::size_t comma = csv.find(',', pos);
      if (comma == std::string::npos) comma = csv.size();
      out.push_back(std::atof(csv.substr(pos, comma - pos).c_str()));
      pos = comma + 1;
    }
    return out;
  }
  static std::vector<std::string> ParseStrings(const std::string& csv) {
    std::vector<std::string> out;
    std::size_t pos = 0;
    while (pos < csv.size()) {
      std::size_t comma = csv.find(',', pos);
      if (comma == std::string::npos) comma = csv.size();
      out.push_back(csv.substr(pos, comma - pos));
      pos = comma + 1;
    }
    return out;
  }
};

/// Rough upfront cost projection (elementary walk steps / arc traversals)
/// for one query, used to skip configurations that would blow the ops
/// budget — the bench-level analogue of the paper's one-day cutoff.
inline double ProjectedOpsPerQuery(const std::string& method,
                                   const Dataset& ds,
                                   const ErOptions& opt) {
  const double m2 = static_cast<double>(ds.graph.NumArcs());
  const double avg_deg = ds.graph.AverageDegree();
  const double lambda = ds.spectral.lambda;
  const double ell_peng = PengEll(opt.epsilon, lambda, opt.max_ell);
  const double ell_ref = RefinedEll(
      opt.epsilon, lambda,
      static_cast<std::uint64_t>(std::max(avg_deg, 1.0)),
      static_cast<std::uint64_t>(std::max(avg_deg, 1.0)), opt.max_ell);
  if (method == "TP") {
    const double eta = 40.0 * ell_peng * ell_peng *
                       std::log(8.0 * std::max(ell_peng, 2.0) / opt.delta) /
                       (opt.epsilon * opt.epsilon) * opt.tp_scale;
    return 2.0 * eta * ell_peng * (ell_peng + 1.0) / 2.0;
  }
  if (method == "TPC") {
    // 3 collision populations × 2 walk sets × ~i/2 steps per length i.
    const double beta = 1.0 / m2;
    const double n_i = 40000.0 *
                       (ell_peng * std::sqrt(ell_peng * beta) / opt.epsilon +
                        std::pow(ell_peng, 3.0) * std::pow(beta, 1.5) /
                            (opt.epsilon * opt.epsilon)) *
                       opt.tpc_scale;
    return 6.0 * n_i * ell_peng * ell_peng / 2.0;
  }
  if (method == "MC") {
    const double eta = 3.0 * opt.mc_gamma_upper * avg_deg *
                       std::log(1.0 / opt.delta) /
                       (opt.epsilon * opt.epsilon);
    return eta * (m2 / avg_deg);  // expected trial length ≈ 2m/d(s)
  }
  if (method == "MC2") {
    const double gamma = opt.mc2_gamma_lower > 0 ? opt.mc2_gamma_lower
                                                 : 1.0 / m2;
    const double eta = 3.0 * std::log(1.0 / opt.delta) /
                       (opt.epsilon * opt.epsilon * gamma);
    return eta * (m2 / avg_deg);
  }
  if (method == "HAY") {
    const double trees = std::log(2.0 / opt.delta) /
                         (2.0 * opt.epsilon * opt.epsilon);
    return trees * 4.0 * m2 / avg_deg;  // Wilson ≈ O(n·cover-ish); coarse
  }
  if (method == "SMM" || method == "SMM-PengEll") {
    const double ell = method == "SMM" ? ell_ref : ell_peng;
    return 2.0 * ell * m2;  // dense iterations dominate
  }
  if (method == "AMC") {
    const double psi = 2.0 * std::ceil(ell_ref / 2.0) * (2.0 / avg_deg);
    const double eta_star = 2.0 * psi * psi *
                            std::log(2.0 * opt.tau / opt.delta) /
                            (opt.epsilon * opt.epsilon);
    // Adaptive stop typically fires after the first batch (η*/2^{τ−1}).
    return 2.0 * (eta_star / std::pow(2.0, opt.tau - 1)) * ell_ref;
  }
  if (method == "RP") {
    const double k = RpEstimator::DeriveDimensions(ds.graph, opt);
    return k * m2 * 30.0;  // k CG solves (~30 iterations) amortized
  }
  if (method == "EXACT") {
    const double n = static_cast<double>(ds.graph.NumNodes());
    return n * n * n / 3.0;  // Cholesky, amortized over the query set
  }
  return 0.0;  // GEER / CG: always attempt
}

/// Formats a result cell: "12.3" (ms), "12.3*" (partial), "DNF", "OOM".
inline std::string Cell(const MethodResult& res, bool extrapolate = false) {
  if (!res.feasible) return "OOM";
  if (res.queries_answered == 0) return "DNF";
  char buf[64];
  const double ms = extrapolate ? res.ExtrapolatedMillis() : res.avg_millis;
  std::snprintf(buf, sizeof(buf), "%.3g%s", ms,
                res.completed ? "" : "*");
  return buf;
}

}  // namespace bench
}  // namespace geer

#endif  // GEER_BENCH_BENCH_COMMON_H_
