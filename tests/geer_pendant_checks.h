// GEER on graphs with pendant trees: the checks the unweighted and the
// weighted suites both run (geer_algorithm_test, weighted_er_test). GEER
// reduces every query to the 2-core by the series law and answers the
// core pair on the 2-core graph C, so a pair inside one tree is exact
// with no walks, and every other answer must keep the ε guarantee and
// the bit-identity contracts of serial, batched and served queries.

#ifndef GEER_TESTS_GEER_PENDANT_CHECKS_H_
#define GEER_TESTS_GEER_PENDANT_CHECKS_H_

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/batch_engine.h"
#include "core/exact.h"
#include "core/geer.h"
#include "graph/builder.h"
#include "graph/weight_policy.h"
#include "linalg/spectral.h"
#include "serve/query_service.h"
#include "test_util.h"

namespace geer {
namespace testing {

/// DenseTestGraph(16) with trees hanging off three of its nodes: on node
/// 3 a branching tree 3-16, 16-17, 17-18, 16-19, 19-20; on node 9 the
/// path 9-21-22; on node 12 the leaf 23. The 2-core is nodes 0..15.
inline Graph DenseGraphWithTrees() {
  GraphBuilder b(24);
  b.AddEdges(DenseTestGraph(16).Edges());
  for (const auto& [u, v] : {std::pair<NodeId, NodeId>{3, 16},
                            {16, 17}, {17, 18}, {16, 19}, {19, 20},
                            {9, 21}, {21, 22}, {12, 23}}) {
    b.AddEdge(u, v);
  }
  return b.Build();
}

/// DenseGraphWithTrees relabelled by v → 7v mod 24, so core and tree ids
/// interleave: the 2-core's 16 nodes keep G ids up to 22, and C's ids
/// (their ranks) differ from G's. Tree node 20 hangs off root 21.
inline Graph ShuffledGraphWithTrees() {
  GraphBuilder b(24);
  for (const auto& [u, v] : DenseGraphWithTrees().Edges()) {
    b.AddEdge((7 * u) % 24, (7 * v) % 24);
  }
  return b.Build();
}

/// Pairs inside one tree (or a tree node and its own root).
inline std::vector<QueryPair> SameTreePairs() {
  return {{17, 20}, {20, 17}, {18, 3}, {16, 19}, {18, 16}, {21, 22},
          {9, 22}, {23, 12}};
}

/// Every unordered pair s < t.
inline std::vector<QueryPair> EveryPair(NodeId n) {
  std::vector<QueryPair> pairs;
  for (NodeId s = 0; s < n; ++s) {
    for (NodeId t = s + 1; t < n; ++t) pairs.push_back({s, t});
  }
  return pairs;
}

inline std::uint64_t BitsOf(double x) {
  return std::bit_cast<std::uint64_t>(x);
}

template <WeightPolicy WP>
void ExpectSameTreePairsExact(const typename WP::GraphT& graph) {
  GeerEstimatorT<WP> geer(graph);
  ExactEstimatorT<WP> exact(graph);
  ASSERT_NE(geer.core(), nullptr);
  for (const QueryPair& q : SameTreePairs()) {
    const QueryStats stats = geer.EstimateWithStats(q.s, q.t);
    EXPECT_NEAR(stats.value, exact.Estimate(q.s, q.t), 1e-12)
        << "(" << q.s << "," << q.t << ")";
    EXPECT_EQ(stats.walks, 0u) << "(" << q.s << "," << q.t << ")";
    EXPECT_EQ(stats.spmv_ops, 0u) << "(" << q.s << "," << q.t << ")";
  }
}

/// Every pair within ε of EXACT but for a δ share plus three binomial
/// standard deviations.
template <WeightPolicy WP>
void ExpectEveryPairWithinEpsilon(const typename WP::GraphT& graph) {
  ErOptions opt;
  opt.epsilon = 0.1;
  GeerEstimatorT<WP> geer(graph, opt);
  ExactEstimatorT<WP> exact(graph);
  const std::vector<QueryPair> pairs = EveryPair(graph.NumNodes());
  std::size_t outside = 0;
  for (const QueryPair& q : pairs) {
    const double error =
        std::abs(geer.Estimate(q.s, q.t) - exact.Estimate(q.s, q.t));
    if (error > opt.epsilon) ++outside;
  }
  const double n = static_cast<double>(pairs.size());
  const double allowed =
      opt.delta + 3.0 * std::sqrt(opt.delta * (1.0 - opt.delta) / n);
  EXPECT_LE(static_cast<double>(outside) / n, allowed)
      << outside << " of " << pairs.size() << " pairs off by more than ε";
}

/// Estimate(s, t) ≡ Estimate(t, s) bitwise, on a fresh estimator each way.
template <WeightPolicy WP>
void ExpectSymmetricBitwise(const typename WP::GraphT& graph) {
  GeerEstimatorT<WP> forward(graph);
  GeerEstimatorT<WP> backward(graph);
  for (const QueryPair& q : EveryPair(graph.NumNodes())) {
    EXPECT_EQ(BitsOf(forward.Estimate(q.s, q.t)),
              BitsOf(backward.Estimate(q.t, q.s)))
        << "(" << q.s << "," << q.t << ")";
  }
}

/// Serial answers = RunQueryBatch at 1, 2 and 4 threads = QueryService
/// (two workers, session caches on), bit for bit. The query list mixes
/// both orientations, repeats, tree-internal and core pairs, so the
/// batch path reads streams for reduced endpoints and admits them by
/// their reduced use counts.
template <WeightPolicy WP>
void ExpectBatchAndServeMatchSerial(const typename WP::GraphT& graph) {
  std::vector<QueryPair> queries = EveryPair(graph.NumNodes());
  for (const QueryPair& q : EveryPair(graph.NumNodes())) {
    if ((q.s + q.t) % 3 == 0) queries.push_back({q.t, q.s});
  }
  for (const QueryPair& q : SameTreePairs()) queries.push_back(q);
  queries.push_back({5, 5});
  queries.push_back({20, 20});

  GeerEstimatorT<WP> serial(graph);
  std::vector<double> expected;
  for (const QueryPair& q : queries) {
    expected.push_back(serial.Estimate(q.s, q.t));
  }
  for (const int threads : {1, 2, 4}) {
    GeerEstimatorT<WP> geer(graph);
    std::vector<QueryStats> stats(queries.size());
    BatchOptions options;
    options.threads = threads;
    const BatchReport report = RunQueryBatch(geer, queries, stats, options);
    ASSERT_EQ(report.answered, queries.size());
    for (std::size_t i = 0; i < queries.size(); ++i) {
      EXPECT_EQ(BitsOf(stats[i].value), BitsOf(expected[i]))
          << "threads=" << threads << " (" << queries[i].s << ","
          << queries[i].t << ")";
    }
  }
  GeerEstimatorT<WP> primary(graph);
  ServeOptions options;
  options.threads = 2;
  options.max_batch_size = 8;
  options.max_linger_seconds = 0.0;
  QueryService service(primary, options);
  std::vector<std::future<QueryResult>> futures;
  for (const QueryPair& q : queries) futures.push_back(service.Submit(q));
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const QueryResult result = futures[i].get();
    ASSERT_EQ(result.status, ServeStatus::kAnswered);
    EXPECT_EQ(BitsOf(result.stats.value), BitsOf(expected[i]))
        << "served (" << queries[i].s << "," << queries[i].t << ")";
  }
  service.Shutdown();
}

/// Clones adopt the primary's core (forest, C and id map) instead of
/// peeling and copying their own, and so do the per-call clones of
/// RunQueryBatch.
template <WeightPolicy WP>
void ExpectClonesShareTheForest(const typename WP::GraphT& graph) {
  GeerEstimatorT<WP> geer(graph);
  ASSERT_NE(geer.core(), nullptr);
  EXPECT_LT(geer.core()->graph().NumNodes(), graph.NumNodes());
  const std::unique_ptr<ErEstimator> clone = geer.CloneForBatch();
  const auto* typed = dynamic_cast<const GeerEstimatorT<WP>*>(clone.get());
  ASSERT_NE(typed, nullptr);
  EXPECT_EQ(typed->core(), geer.core());
  EXPECT_EQ(&typed->core()->graph(), &geer.core()->graph());
  const std::unique_ptr<ErEstimator> grandchild = typed->CloneForBatch();
  EXPECT_EQ(
      dynamic_cast<const GeerEstimatorT<WP>*>(grandchild.get())->core(),
      geer.core());
}

/// `after` is `before` plus edges that close a cycle through tree nodes.
/// A primary and its clone, both with warm session caches, rebind to it
/// as one epoch: they peel and copy C once between them, and answer
/// every pair bit-identically to an estimator built fresh on `after`.
template <WeightPolicy WP>
void ExpectRebindMatchesFresh(const typename WP::GraphT& before,
                              const typename WP::GraphT& after,
                              std::vector<NodeId> touched) {
  GeerEstimatorT<WP> geer(before);
  geer.EnableSessionCache();
  std::unique_ptr<ErEstimator> clone = geer.CloneForBatch();
  clone->EnableSessionCache();
  const std::vector<QueryPair> pairs = EveryPair(before.NumNodes());
  std::vector<QueryStats> warm(pairs.size());
  geer.EstimateBatch(pairs, warm);
  clone->EstimateBatch(pairs, warm);
  const PendantCore<typename WP::GraphT>* old_core = geer.core();

  GraphEpoch epoch;
  epoch.epoch = 1;
  epoch.touched = touched;
  epoch.lambda = ComputeSpectralBoundsT<WP>(after).lambda;
  ASSERT_TRUE(geer.RebindGraph(after, epoch));
  ASSERT_TRUE(clone->RebindGraph(after, epoch));
  const auto* typed = dynamic_cast<const GeerEstimatorT<WP>*>(clone.get());
  EXPECT_NE(geer.core(), old_core);
  EXPECT_EQ(typed->core(), geer.core());

  ErOptions opt;
  opt.lambda = epoch.lambda;
  GeerEstimatorT<WP> fresh(after, opt);
  std::vector<QueryStats> rebound(pairs.size());
  std::vector<QueryStats> cloned(pairs.size());
  geer.EstimateBatch(pairs, rebound);
  clone->EstimateBatch(pairs, cloned);
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const double expected = fresh.Estimate(pairs[i].s, pairs[i].t);
    EXPECT_EQ(BitsOf(rebound[i].value), BitsOf(expected))
        << "(" << pairs[i].s << "," << pairs[i].t << ")";
    EXPECT_EQ(BitsOf(cloned[i].value), BitsOf(expected))
        << "clone (" << pairs[i].s << "," << pairs[i].t << ")";
    EXPECT_EQ(BitsOf(geer.Estimate(pairs[i].s, pairs[i].t)),
              BitsOf(expected))
        << "serial (" << pairs[i].s << "," << pairs[i].t << ")";
  }
}

}  // namespace testing
}  // namespace geer

#endif  // GEER_TESTS_GEER_PENDANT_CHECKS_H_
