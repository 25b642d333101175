// Fig. 4-style conductance-graph sweep smoke for the WEIGHTED figure
// workload: RunMethodT<EdgeWeight> over every registered algorithm on small
// conductance graphs (a social-skeleton with uniform random conductances
// and a resistive grid circuit), checked against the W-CG oracle. This
// is the eval-harness path the weighted figure benches drive
// (bench/ext_weighted, fig4-shape) — previously untested end-to-end.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "core/registry.h"
#include "eval/experiment.h"
#include "eval/queries.h"
#include "graph/generators.h"
#include "graph/weighted_generators.h"
#include "linalg/spectral.h"

namespace geer {
namespace {

struct SweepCase {
  std::string name;
  WeightedGraph graph;
  /// TP/TPC sample-constant scale: the slow-mixing grid needs a much
  /// smaller constant to stay a smoke test (its λ → 1 walk budget is the
  /// paper's own reason for benching walk methods on fast mixers).
  double walk_scale = 0.05;
};

std::vector<SweepCase> SweepGraphs() {
  std::vector<SweepCase> cases;
  cases.push_back({"er-uniform",
                   gen::WithUniformWeights(gen::ErdosRenyi(40, 300, 5), 0.25,
                                           4.0, 17),
                   0.05});
  // A (triangulated) resistive grid: the non-bipartite circuit fixture —
  // plain grids are bipartite and anathema to truncated walks.
  cases.push_back(
      {"tri-grid", gen::TriangulatedGridCircuit(4, 5, 0.5, 2.0, 23), 0.002});
  return cases;
}

TEST(WeightedSweepTest, Fig4StyleConductanceSweep) {
  ErOptions options;
  options.epsilon = 0.5;
  options.delta = 0.1;
  options.seed = 99;
  options.tp_scale = 0.05;   // scaled constants: this is a smoke of the
  options.tpc_scale = 0.05;  // harness path, not a statistical cell
  options.mc_gamma_upper = 8.0;

  for (SweepCase& sweep : SweepGraphs()) {
    const WeightedGraph& graph = sweep.graph;
    const Graph skeleton = graph.Skeleton();
    const std::vector<QueryPair> queries = RandomPairs(skeleton, 12, 3);

    // W-CG oracle supplies the ground truth for the error columns.
    ErOptions oracle_options = options;
    auto oracle = CreateWeightedEstimator("CG", graph, oracle_options);
    ASSERT_NE(oracle, nullptr);
    std::vector<double> truth;
    truth.reserve(queries.size());
    for (const QueryPair& q : queries) {
      truth.push_back(oracle->Estimate(q.s, q.t));
    }

    ErOptions run_options = options;
    run_options.tp_scale = sweep.walk_scale;
    run_options.tpc_scale = sweep.walk_scale;
    run_options.lambda = ComputeWeightedSpectralBounds(graph).lambda;
    RunConfig config;
    config.deadline_seconds = 30.0;
    for (const std::string& method : EstimatorNames()) {
      const MethodResult result =
          RunMethodT<EdgeWeight>(graph, sweep.name, method, run_options,
                                 queries, truth, config);
      ASSERT_TRUE(result.feasible) << method << " on " << sweep.name;
      EXPECT_TRUE(result.completed) << method << " on " << sweep.name;
      EXPECT_EQ(result.method, method);
      EXPECT_EQ(result.dataset, sweep.name);
      if (method == "MC2" || method == "HAY") {
        // Edge-only methods answer only the (rare) edge pairs of a
        // random-pair set; presence in the sweep without crashing is the
        // smoke here.
        continue;
      }
      EXPECT_EQ(result.queries_answered, queries.size())
          << method << " on " << sweep.name;
      EXPECT_TRUE(std::isfinite(result.avg_abs_error))
          << method << " on " << sweep.name;
      // Deterministic methods sit on the oracle; sampled ones stay
      // within a few ε at these scaled constants (loose on purpose —
      // the tight statistical cells live in estimator_contract_test).
      const bool deterministic = method == "EXACT" || method == "CG" ||
                                 method == "SMM" || method == "SMM-PengEll";
      const double bound = deterministic ? 2.0 * options.epsilon : 3.0;
      EXPECT_LE(result.avg_abs_error, bound)
          << method << " on " << sweep.name
          << " avg_abs_error=" << result.avg_abs_error;
    }
  }
}

// The sweep must also exercise the batch-engine path the figure benches
// actually run with threads > 1: identical answered counts and errors.
TEST(WeightedSweepTest, SweepIsThreadInvariant) {
  const WeightedGraph graph =
      gen::WithUniformWeights(gen::ErdosRenyi(40, 300, 5), 0.25, 4.0, 17);
  const Graph skeleton = graph.Skeleton();
  const std::vector<QueryPair> queries = RandomPairs(skeleton, 10, 4);
  ErOptions options;
  options.epsilon = 0.5;
  options.delta = 0.1;
  options.seed = 99;
  options.lambda = ComputeWeightedSpectralBounds(graph).lambda;

  for (const std::string& method : {std::string("GEER"), std::string("SMM")}) {
    RunConfig serial_config;
    serial_config.threads = 1;
    RunConfig parallel_config;
    parallel_config.threads = 4;
    const MethodResult serial = RunMethodT<EdgeWeight>(
        graph, "er-uniform", method, options, queries, {}, serial_config);
    const MethodResult parallel = RunMethodT<EdgeWeight>(
        graph, "er-uniform", method, options, queries, {}, parallel_config);
    EXPECT_EQ(serial.queries_answered, queries.size()) << method;
    EXPECT_EQ(parallel.queries_answered, queries.size()) << method;
    EXPECT_TRUE(parallel.shares_batch_work) << method;
  }
}

}  // namespace
}  // namespace geer
