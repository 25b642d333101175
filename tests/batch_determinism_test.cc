// The batch-determinism contract, enforced for every registered
// algorithm in both weight modes: EstimateBatch through the engine
// returns per-query values BIT-IDENTICAL to the serial Estimate loop —
// at 1, 2 and 8 worker threads, under a shuffled query order, and after
// interleaving batch and serial calls on the same instance. The
// shared-precomputation overrides (TP/TPC walk populations, SMM/GEER
// push vectors) must additionally do strictly less work on a
// grouped-by-source set than the serial loop.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "core/batch_engine.h"
#include "core/registry.h"
#include "core/smm.h"
#include "graph/generators.h"
#include "graph/weighted_generators.h"
#include "linalg/spectral.h"
#include "test_util.h"

namespace geer {
namespace {

ErOptions TestOptions() {
  ErOptions opt;
  opt.epsilon = 0.5;
  opt.delta = 0.1;
  opt.seed = 20260801;
  opt.tp_scale = 0.01;   // scaled constants keep the suite fast; this
  opt.tpc_scale = 0.01;  // suite checks determinism, not accuracy
  opt.mc_gamma_upper = 8.0;
  return opt;
}

// Same-source block (with a duplicate), scattered pairs, an s == t
// query, two genuine edges (so the edge-only baselines answer
// something), and a non-consecutive return to the shared source.
std::vector<QueryPair> TestQueries(const Graph& skeleton) {
  std::vector<QueryPair> queries = {{3, 1},  {3, 5},  {3, 9}, {3, 13},
                                    {3, 17}, {3, 5},  {7, 2}, {11, 4},
                                    {0, 19}, {6, 6},  {3, 2}};
  queries.push_back({0, skeleton.NeighborAt(0, 0)});
  queries.push_back({4, skeleton.NeighborAt(4, 0)});
  return queries;
}

// Answers the queries one at a time — the ground truth every batch mode
// must reproduce exactly. Unsupported queries keep NaN.
std::vector<double> SerialValues(ErEstimator* estimator,
                                 const std::vector<QueryPair>& queries) {
  std::vector<double> values(queries.size(),
                             std::numeric_limits<double>::quiet_NaN());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    if (!estimator->SupportsQuery(queries[i].s, queries[i].t)) continue;
    values[i] = estimator->Estimate(queries[i].s, queries[i].t);
  }
  return values;
}

template <typename Factory>
void CheckBitIdentical(const Graph& skeleton, const std::string& name,
                       const Factory& make) {
  const std::vector<QueryPair> queries = TestQueries(skeleton);
  auto serial_estimator = make();
  ASSERT_NE(serial_estimator, nullptr) << name;
  const std::vector<double> expected =
      SerialValues(serial_estimator.get(), queries);

  for (const int threads : {1, 2, 8}) {
    auto estimator = make();
    std::vector<QueryStats> stats(queries.size());
    BatchOptions options;
    options.threads = threads;
    const BatchReport report =
        RunQueryBatch(*estimator, queries, stats, options);
    EXPECT_TRUE(report.completed) << name << " threads=" << threads;
    for (std::size_t i = 0; i < queries.size(); ++i) {
      if (std::isnan(expected[i])) continue;  // unsupported
      EXPECT_EQ(stats[i].value, expected[i])
          << name << " threads=" << threads << " query #" << i << " ("
          << queries[i].s << "," << queries[i].t << ")";
    }
    // The batch must not perturb subsequent serial queries on the same
    // instance (no state leakage from the shared caches).
    EXPECT_EQ(estimator->Estimate(queries[0].s, queries[0].t), expected[0])
        << name << " serial-after-batch, threads=" << threads;
  }

  // Shuffled order: per-query answers must not move.
  std::vector<std::size_t> perm(queries.size());
  for (std::size_t i = 0; i < perm.size(); ++i) perm[i] = i;
  std::reverse(perm.begin(), perm.end());
  std::swap(perm[0], perm[perm.size() / 2]);
  std::vector<QueryPair> shuffled(queries.size());
  for (std::size_t i = 0; i < perm.size(); ++i) {
    shuffled[i] = queries[perm[i]];
  }
  auto estimator = make();
  std::vector<QueryStats> stats(shuffled.size());
  BatchOptions options;
  options.threads = 2;
  RunQueryBatch(*estimator, shuffled, stats, options);
  for (std::size_t i = 0; i < perm.size(); ++i) {
    if (std::isnan(expected[perm[i]])) continue;
    EXPECT_EQ(stats[i].value, expected[perm[i]])
        << name << " shuffled query #" << i;
  }
}

// The fixture is a fast-mixing dense ER graph: determinism (not
// accuracy) is under test, and a moderate λ keeps Peng's generic ℓ —
// which TP/TPC take as walk budget — small but NON-zero, so the walk
// machinery is actually exercised (ℓ explodes on slow-mixing fixtures;
// that is the paper's complaint about those baselines, not a batching
// property).
TEST(BatchDeterminismTest, UnweightedBitIdenticalAtAnyThreadCount) {
  const Graph graph = gen::ErdosRenyi(40, 400, 9);
  ErOptions opt = TestOptions();
  opt.lambda = ComputeSpectralBounds(graph).lambda;
  for (const std::string& name : EstimatorNames()) {
    CheckBitIdentical(graph, name, [&]() {
      return CreateEstimator(name, graph, opt);
    });
  }
}

TEST(BatchDeterminismTest, WeightedBitIdenticalAtAnyThreadCount) {
  const Graph skeleton = gen::ErdosRenyi(40, 400, 9);
  const WeightedGraph graph =
      gen::WithUniformWeights(skeleton, 0.5, 2.0, 99);
  ErOptions opt = TestOptions();
  opt.lambda = ComputeWeightedSpectralBounds(graph).lambda;
  for (const std::string& name : EstimatorNames()) {
    CheckBitIdentical(skeleton, "W-" + name, [&]() {
      return CreateWeightedEstimator(name, graph, opt);
    });
  }
}

TEST(BatchDeterminismTest, RegistryCapabilityMatchesInstances) {
  const Graph graph = testing::DenseTestGraph(16);
  const WeightedGraph wgraph =
      gen::WithUniformWeights(graph, 0.5, 2.0, 7);
  ErOptions opt = TestOptions();
  opt.lambda = ComputeSpectralBounds(graph).lambda;
  for (const std::string& name : EstimatorNames()) {
    auto est = CreateEstimator(name, graph, opt);
    ASSERT_NE(est, nullptr) << name;
    EXPECT_EQ(est->SharesBatchWork(), EstimatorSharesBatchWork(name))
        << name;
    EXPECT_EQ(est->SharesBatchWork(),
              EstimatorSharesBatchWork("W-" + name))
        << name;
    auto west = CreateWeightedEstimator(name, wgraph, opt);
    ASSERT_NE(west, nullptr) << name;
    EXPECT_EQ(west->SharesBatchWork(), EstimatorSharesBatchWork(name))
        << name;
  }
}

// On a grouped-by-source set, the sharing overrides must do strictly
// less total walk/SpMV work than the serial loop while returning the
// same values (the savings the EXPERIMENTS.md micro bench quantifies).
// SMM/GEER get the slow-mixing dense fixture (deep SpMV iterate
// sequences to share); TP/TPC get the dense ER fixture for the ℓ reason
// above (their per-length walk populations shared either way).
TEST(BatchDeterminismTest, SharedPrecomputationDoesStrictlyLessWork) {
  const Graph dense = testing::DenseTestGraph(20);
  const Graph er = gen::ErdosRenyi(40, 400, 9);
  ErOptions dense_opt = TestOptions();
  dense_opt.lambda = ComputeSpectralBounds(dense).lambda;
  ErOptions er_opt = TestOptions();
  er_opt.lambda = ComputeSpectralBounds(er).lambda;
  std::vector<QueryPair> queries;
  for (NodeId t = 0; t < 12; ++t) {
    if (t != 3) queries.push_back({3, t});  // one source, many targets
  }
  for (const std::string& name : EstimatorNames()) {
    if (!EstimatorSharesBatchWork(name)) continue;
    const bool walk_based = name == "TP" || name == "TPC";
    const Graph& graph = walk_based ? er : dense;
    const ErOptions& opt = walk_based ? er_opt : dense_opt;
    auto serial = CreateEstimator(name, graph, opt);
    std::uint64_t serial_work = 0;
    for (const QueryPair& q : queries) {
      const QueryStats st = serial->EstimateWithStats(q.s, q.t);
      serial_work += st.walk_steps + st.spmv_ops;
    }
    auto batched = CreateEstimator(name, graph, opt);
    std::vector<QueryStats> stats(queries.size());
    RunQueryBatch(*batched, queries, stats);
    std::uint64_t batch_work = 0;
    for (const QueryStats& st : stats) {
      batch_work += st.walk_steps + st.spmv_ops;
    }
    EXPECT_LT(batch_work, serial_work) << name;
    EXPECT_GT(batch_work, 0u) << name;
  }
}

// The iterate cache is memory-bounded; iterating past its cap hands the
// query a private copy of the boundary state. The spilled tail must stay
// bit-identical to the uncached iterator at every depth (the default cap
// never triggers on test-sized graphs, so pin a tiny one here).
TEST(BatchDeterminismTest, SmmSourceCacheSpillsBitIdentically) {
  const Graph graph = testing::DenseTestGraph(20);
  TransitionOperator op_cached(graph);
  TransitionOperator op_plain(graph);
  SmmSourceCache cache(graph, &op_cached, /*source=*/3, /*max_cached=*/2);
  EXPECT_EQ(cache.max_cached_iterations(), 2u);
  SmmIterator cached(graph, &op_cached, 3, 7, &cache);
  SmmIterator plain(graph, &op_plain, 3, 7);
  for (std::uint32_t j = 0; j < 8; ++j) {  // well past the cap of 2
    EXPECT_EQ(cached.rb(), plain.rb()) << "depth " << j;
    EXPECT_EQ(cached.NextIterationCost(), plain.NextIterationCost())
        << "depth " << j;
    cached.Advance();
    plain.Advance();
  }
  EXPECT_EQ(cached.rb(), plain.rb());
  // A second query on the same cache re-reads the cached prefix and
  // spills again, still bit-identically.
  SmmIterator cached2(graph, &op_cached, 3, 11, &cache);
  SmmIterator plain2(graph, &op_plain, 3, 11);
  for (std::uint32_t j = 0; j < 6; ++j) {
    cached2.Advance();
    plain2.Advance();
  }
  EXPECT_EQ(cached2.rb(), plain2.rb());
}

}  // namespace
}  // namespace geer
