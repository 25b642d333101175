#include "linalg/transition.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "graph/generators.h"
#include "graph/weighted_generators.h"
#include "rw/rng.h"
#include "test_util.h"

namespace geer {
namespace {

TEST(TransitionTest, DenseApplyIsRowStochasticTransposeAction) {
  // y = P x with x = 𝟙 gives 𝟙 (each row of P sums to 1).
  Graph g = testing::TriangleWithTail();
  TransitionOperator op(g);
  Vector x(g.NumNodes(), 1.0);
  Vector y;
  op.ApplyDense(x, &y);
  for (double v : y) EXPECT_NEAR(v, 1.0, 1e-12);
}

TEST(TransitionTest, OneHotGivesColumnProbabilities) {
  // After one application of P to e_s: y(v) = P(v,s) = 1/d(v) if v~s.
  Graph g = testing::TriangleWithTail();
  TransitionOperator op(g);
  TransitionOperator::SparseVector x;
  x.InitOneHot(2, g);
  op.ApplyAuto(&x);
  // Node 2 has neighbors {0, 1, 3}; d(0)=2, d(1)=2, d(3)=2.
  EXPECT_NEAR(x.values[0], 0.5, 1e-12);
  EXPECT_NEAR(x.values[1], 0.5, 1e-12);
  EXPECT_NEAR(x.values[3], 0.5, 1e-12);
  EXPECT_NEAR(x.values[2], 0.0, 1e-12);
}

TEST(TransitionTest, SparseAndDenseAgree) {
  Graph g = gen::ErdosRenyi(60, 150, 3);
  TransitionOperator op(g);
  TransitionOperator::SparseVector sparse;
  sparse.InitOneHot(7, g);
  Vector dense(g.NumNodes(), 0.0);
  dense[7] = 1.0;
  Vector scratch;
  for (int iter = 0; iter < 6; ++iter) {
    op.ApplyAuto(&sparse);
    op.ApplyDense(dense, &scratch);
    dense.swap(scratch);
    for (NodeId v = 0; v < g.NumNodes(); ++v) {
      ASSERT_NEAR(sparse.values[v], dense[v], 1e-12)
          << "iter " << iter << " node " << v;
    }
  }
}

TEST(TransitionTest, IteratedVectorIsWalkDistributionTransposed) {
  // s*(v) after i steps = p_i(v, s): each entry is the probability a walk
  // FROM v reaches s, so columns need not sum to one, but
  // Σ_v d(v)·s*(v) = d(s) by reversibility.
  Graph g = testing::DenseTestGraph(16);
  TransitionOperator op(g);
  const NodeId s = 3;
  TransitionOperator::SparseVector x;
  x.InitOneHot(s, g);
  for (int i = 0; i < 5; ++i) {
    op.ApplyAuto(&x);
    double weighted = 0.0;
    for (NodeId v = 0; v < g.NumNodes(); ++v) {
      weighted += static_cast<double>(g.Degree(v)) * x.values[v];
    }
    EXPECT_NEAR(weighted, static_cast<double>(g.Degree(s)), 1e-9);
  }
}

TEST(TransitionTest, SupportDegreeSumTracked) {
  // A path keeps the support below the dense-switch threshold, so the
  // sparse scatter path and its Eq. 17 cost bookkeeping stay exercised.
  Graph g = gen::Path(20);
  TransitionOperator op(g);
  TransitionOperator::SparseVector x;
  x.InitOneHot(10, g);  // interior node, degree 2
  EXPECT_EQ(x.support_degree_sum, 2u);
  op.ApplyAuto(&x);
  // Support is now {9, 11}, both interior: degree sum 4.
  EXPECT_FALSE(x.dense);
  EXPECT_EQ(x.support_degree_sum, 4u);
  op.ApplyAuto(&x);
  // Support {8, 10, 12}: degree sum 6.
  EXPECT_FALSE(x.dense);
  EXPECT_EQ(x.support_degree_sum, 6u);
}

TEST(TransitionTest, StarSaturatesToDenseImmediately) {
  // One hop from the hub reaches all leaves (> 25% of n), so the operator
  // flips to dense mode and charges the full arc count from then on.
  Graph g = gen::Star(6);
  TransitionOperator op(g);
  TransitionOperator::SparseVector x;
  x.InitOneHot(0, g);  // hub
  EXPECT_EQ(x.support_degree_sum, 5u);
  op.ApplyAuto(&x);
  op.ApplyAuto(&x);
  EXPECT_TRUE(x.dense);
  EXPECT_EQ(x.support_degree_sum, g.NumArcs());
}

TEST(TransitionTest, SwitchesToDenseOnSaturation) {
  Graph g = gen::Complete(20);
  TransitionOperator op(g);
  TransitionOperator::SparseVector x;
  x.InitOneHot(0, g);
  op.ApplyAuto(&x);  // support jumps to n−1 > 25% of n
  op.ApplyAuto(&x);
  EXPECT_TRUE(x.dense);
  EXPECT_EQ(x.support_degree_sum, g.NumArcs());
}

TEST(TransitionTest, StationaryVectorIsFixedPoint) {
  // π(v) = d(v)/2m satisfies P π = π... careful: our operator computes
  // y(u) = Σ_{v~u} x(v)/d(u); with x = π this gives y(u) = d(u)/2m / ...
  // Actually (Pπ)(u) = (1/d(u))Σ_{v~u} d(v)/2m which is NOT π in general.
  // The true invariant is x = 𝟙 (row-stochastic). For the reversed chain,
  // D^{-1}A fixes 𝟙; check a degree-weighted identity instead:
  // Σ_u d(u)(Px)(u) = Σ_v d(v)x(v).
  Graph g = gen::BarabasiAlbert(50, 3, 2);
  TransitionOperator op(g);
  Rng rng(4);
  Vector x(g.NumNodes());
  for (auto& v : x) v = rng.NextDouble();
  Vector y;
  op.ApplyDense(x, &y);
  double lhs = 0.0;
  double rhs = 0.0;
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    lhs += static_cast<double>(g.Degree(v)) * y[v];
    rhs += static_cast<double>(g.Degree(v)) * x[v];
  }
  EXPECT_NEAR(lhs, rhs, 1e-9);
}

using testing::ExpectTopTwoOf;
constexpr auto AlongIteration = testing::ExpectTopTwoAlongIteration<UnitWeight>;

TEST(TransitionTopTwoTest, SparseStepsMatchFullScan) {
  // A path stays in scatter mode throughout.
  EXPECT_FALSE(AlongIteration(gen::Path(40), 20, 8, "path"));
  EXPECT_FALSE(AlongIteration(gen::Path(40), 0, 8, "path end"));
}

TEST(TransitionTopTwoTest, DenseSwitchMatchesFullScan) {
  // Both the scatter steps before the switch and the gather steps after.
  EXPECT_TRUE(AlongIteration(gen::ErdosRenyi(60, 150, 3), 7, 8, "er"));
  EXPECT_TRUE(AlongIteration(gen::Star(6), 0, 4, "star hub"));
  EXPECT_TRUE(AlongIteration(gen::Star(6), 3, 4, "star leaf"));
  EXPECT_TRUE(AlongIteration(gen::Complete(20), 0, 4, "complete"));
}

TEST(TransitionTopTwoTest, TwoNodeGraph) {
  // n = 2 goes dense on the first step; the iterate alternates between
  // e_1 and e_0, so max2 is always the off-support zero.
  const Graph g = gen::Path(2);
  EXPECT_TRUE(AlongIteration(g, 0, 3, "two-node"));
  TransitionOperator op(g);
  TransitionOperator::SparseVector x;
  x.InitOneHot(0, g);
  op.ApplyAuto(&x);
  EXPECT_EQ(x.top_two, (std::pair<double, double>{1.0, 0.0}));
}

TEST(TransitionTopTwoTest, TiedMaxima) {
  // From the star's hub every leaf gets P(leaf, hub) = 1: a tie in the
  // scatter step. The next step (gather: the support is past the
  // threshold) returns all mass to the hub, and the one after ties the
  // leaves again, now in gather mode.
  const Graph star = gen::Star(6);
  TransitionOperator star_op(star);
  TransitionOperator::SparseVector x;
  x.InitOneHot(0, star);
  star_op.ApplyAuto(&x);
  EXPECT_FALSE(x.dense);
  EXPECT_EQ(x.top_two, (std::pair<double, double>{1.0, 1.0}));
  ExpectTopTwoOf(x.top_two, x.values, "star scatter tie");
  star_op.ApplyAuto(&x);
  star_op.ApplyAuto(&x);
  EXPECT_TRUE(x.dense);
  EXPECT_EQ(x.top_two, (std::pair<double, double>{1.0, 1.0}));
  ExpectTopTwoOf(x.top_two, x.values, "star gather tie");

  const Graph path = gen::Path(20);
  TransitionOperator path_op(path);
  x.InitOneHot(10, path);
  path_op.ApplyAuto(&x);
  EXPECT_FALSE(x.dense);
  EXPECT_EQ(x.top_two, (std::pair<double, double>{0.5, 0.5}));
  ExpectTopTwoOf(x.top_two, x.values, "path tie");
}

TEST(TransitionTopTwoTest, SupportHoldingExactZeros) {
  // The smallest subnormal halves to exactly 0 on a degree-2 node, so the
  // new support holds exact-zero entries. Alone they give {0, 0}; beside
  // a single non-zero entry the zero is max2.
  const double tiny = std::numeric_limits<double>::denorm_min();
  const Graph g = gen::Path(20);
  TransitionOperator op(g);
  TransitionOperator::SparseVector x;
  x.InitOneHot(10, g);
  x.values[10] = tiny;
  op.ApplyAuto(&x);
  ASSERT_FALSE(x.dense);
  ASSERT_EQ(x.support.size(), 2u);
  EXPECT_EQ(x.values[9], 0.0);
  EXPECT_EQ(x.values[11], 0.0);
  EXPECT_EQ(x.top_two, (std::pair<double, double>{0.0, 0.0}));
  ExpectTopTwoOf(x.top_two, x.values, "zeros only");

  x.InitOneHot(0, g);  // path end: one neighbor
  x.values[10] = tiny;
  x.support.push_back(10);
  x.support_degree_sum += g.Degree(10);
  op.ApplyAuto(&x);
  ASSERT_FALSE(x.dense);
  ASSERT_EQ(x.support.size(), 3u);
  EXPECT_EQ(x.top_two, (std::pair<double, double>{0.5, 0.0}));
  ExpectTopTwoOf(x.top_two, x.values, "one non-zero beside zeros");
}

TEST(NormalizedAdjacencyTest, TopEigenvectorIsFixed) {
  Graph g = gen::BarabasiAlbert(40, 2, 6);
  NormalizedAdjacencyOperator op(g);
  Vector y;
  op.Apply(op.TopEigenvector(), &y);
  for (std::size_t i = 0; i < y.size(); ++i) {
    EXPECT_NEAR(y[i], op.TopEigenvector()[i], 1e-10);
  }
}

TEST(NormalizedAdjacencyTest, OperatorIsSymmetric) {
  Graph g = gen::ErdosRenyi(30, 80, 9);
  NormalizedAdjacencyOperator op(g);
  Rng rng(1);
  Vector x(g.NumNodes());
  Vector z(g.NumNodes());
  for (auto& v : x) v = rng.NextGaussian();
  for (auto& v : z) v = rng.NextGaussian();
  Vector nx;
  Vector nz;
  op.Apply(x, &nx);
  op.Apply(z, &nz);
  EXPECT_NEAR(Dot(z, nx), Dot(x, nz), 1e-9);
}

// Apply visits rows in degree order, four at a time; every y(u) must
// still carry the bits of the plain row-by-row loop below, which sums
// (w(u,v)·x(v))·w(v)^{-1/2} in CSR order and scales by w(u)^{-1/2}.
template <WeightPolicy WP>
void ExpectApplyMatchesRowLoop(const typename WP::GraphT& g,
                               const std::string& label) {
  const NodeId n = g.NumNodes();
  Vector inv(n);
  for (NodeId v = 0; v < n; ++v) {
    inv[v] = 1.0 / std::sqrt(WP::NodeWeight(g, v));
  }
  const NormalizedAdjacencyOperatorT<WP> op(g);
  Rng rng(n);
  for (int trial = 0; trial < 3; ++trial) {
    Vector x(n);
    for (double& e : x) e = rng.NextGaussian();
    if (trial == 1) x[n / 2] = 0.0;      // a zero and a negative zero
    if (trial == 1) x[n / 3] = -0.0;
    if (trial == 2) x[0] = 1e300;        // huge next to tiny entries
    Vector y;
    op.Apply(x, &y);
    ASSERT_EQ(y.size(), static_cast<std::size_t>(n)) << label;
    const auto& offsets = g.Offsets();
    const auto& adj = g.NeighborArray();
    for (NodeId u = 0; u < n; ++u) {
      double acc = 0.0;
      for (std::uint64_t k = offsets[u]; k < offsets[u + 1]; ++k) {
        const NodeId v = adj[k];
        acc += WP::ArcWeight(g, k) * x[v] * inv[v];
      }
      const double want = acc * inv[u];
      ASSERT_EQ(std::bit_cast<std::uint64_t>(y[u]),
                std::bit_cast<std::uint64_t>(want))
          << label << " trial " << trial << " row " << u << " degree "
          << g.Degree(u);
    }
  }
}

// Skewed degrees (hubs next to leaves, so rows of one lockstep group end
// at different lengths) and node counts that are not multiples of 4.
std::vector<std::pair<std::string, Graph>> SkewedGraphs() {
  std::vector<std::pair<std::string, Graph>> out = {
      {"BA(1001, 3)", gen::BarabasiAlbert(1001, 3, 21)},
      {"Lollipop(30, 47)", gen::Lollipop(30, 47)},
      {"Star(403)", gen::Star(403)},
      {"ER(7, 12)", gen::ErdosRenyi(7, 12, 4)},
      {"RMat(11, 6)", gen::RMat(11, 6, 0x33)},
  };
  for (std::size_t i = 0; i + 1 < out.size(); ++i) {
    EXPECT_NE(out[i].second.NumNodes() % 4, 0u) << out[i].first;
  }
  return out;
}

TEST(NormalizedAdjacencyTest, ApplyMatchesRowLoopBitwise) {
  for (const auto& [label, g] : SkewedGraphs()) {
    ExpectApplyMatchesRowLoop<UnitWeight>(g, label);
  }
}

TEST(NormalizedAdjacencyTest, WeightedApplyMatchesRowLoopBitwise) {
  std::uint64_t seed = 5;
  for (const auto& [label, g] : SkewedGraphs()) {
    ExpectApplyMatchesRowLoop<EdgeWeight>(
        gen::WithUniformWeights(g, 0.01, 100.0, ++seed), "weighted " + label);
  }
}

}  // namespace
}  // namespace geer
