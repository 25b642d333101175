// Shared fixtures and oracles for the test suite.

#ifndef GEER_TESTS_TEST_UTIL_H_
#define GEER_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/exact.h"
#include "graph/builder.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "linalg/dense.h"
#include "linalg/transition.h"

namespace geer {
namespace testing {

/// Exact ER via the dense pseudo-inverse — the oracle most estimator
/// tests compare against.
inline double ExactEr(const Graph& graph, NodeId s, NodeId t) {
  ExactEstimator exact(graph);
  return exact.Estimate(s, t);
}

/// Closed form for the cycle C_n: r(i,j) = k(n−k)/n with k = hop distance.
inline double CycleEr(NodeId n, NodeId i, NodeId j) {
  const double k = std::min<double>((i > j ? i - j : j - i),
                                    n - (i > j ? i - j : j - i));
  return k * (static_cast<double>(n) - k) / static_cast<double>(n);
}

/// A small connected non-bipartite test graph (triangle with a tail):
///   0-1, 1-2, 2-0, 2-3, 3-4.
inline Graph TriangleWithTail() {
  GraphBuilder b(5);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.AddEdge(2, 0);
  b.AddEdge(2, 3);
  b.AddEdge(3, 4);
  return b.Build();
}

/// A moderate non-bipartite well-connected graph for randomized-estimator
/// tests: complete core + ring, n nodes.
inline Graph DenseTestGraph(NodeId n = 24) {
  GraphBuilder b(n);
  const NodeId core = n / 2;
  for (NodeId u = 0; u < core; ++u) {
    for (NodeId v = u + 1; v < core; ++v) b.AddEdge(u, v);
  }
  for (NodeId u = 0; u < n; ++u) b.AddEdge(u, (u + 1) % n);
  return b.Build();
}

/// Expects a reported top-two to equal TopTwo(values), bit for bit.
inline void ExpectTopTwoOf(std::pair<double, double> reported,
                           const Vector& values, const std::string& where) {
  const auto [max1, max2] = TopTwo(values);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(reported.first),
            std::bit_cast<std::uint64_t>(max1))
      << where << " max1 " << reported.first << " vs " << max1;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(reported.second),
            std::bit_cast<std::uint64_t>(max2))
      << where << " max2 " << reported.second << " vs " << max2;
}

/// One-hot at `source`, then `steps` ApplyAuto calls, expecting the
/// reported top-two after each to equal a full scan. Returns whether the
/// vector went dense.
template <WeightPolicy WP>
bool ExpectTopTwoAlongIteration(const typename WP::GraphT& graph,
                                NodeId source, int steps,
                                const std::string& name) {
  TransitionOperatorT<WP> op(graph);
  typename TransitionOperatorT<WP>::SparseVector x;
  x.InitOneHot(source, graph);
  ExpectTopTwoOf(x.top_two, x.values, name + " one-hot");
  for (int i = 1; i <= steps; ++i) {
    op.ApplyAuto(&x);
    ExpectTopTwoOf(x.top_two, x.values, name + " step " + std::to_string(i));
  }
  return x.dense;
}

}  // namespace testing
}  // namespace geer

#endif  // GEER_TESTS_TEST_UTIL_H_
