#include "linalg/transition.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "graph/weighted_generators.h"
#include "graph/weighted_graph.h"
#include "test_util.h"

namespace geer {
namespace {

WeightedGraph SmallTestCircuit() {
  // Triangle 0-1-2 with a tail 2-3, mixed conductances.
  WeightedGraphBuilder b;
  b.AddEdge(0, 1, 2.0).AddEdge(1, 2, 1.0).AddEdge(0, 2, 0.5).AddEdge(2, 3,
                                                                     4.0);
  return b.Build();
}

TEST(WeightedTransitionTest, RowStochastic) {
  WeightedGraph g = SmallTestCircuit();
  WeightedTransitionOperator op(g);
  Vector ones(g.NumNodes(), 1.0);
  Vector y;
  op.ApplyDense(ones, &y);
  for (double v : y) EXPECT_NEAR(v, 1.0, 1e-12);
}

TEST(WeightedTransitionTest, OneHotGivesColumnProbabilities) {
  // After one application to e_s: y(v) = P(v, s) = w(v,s)/w(v).
  WeightedGraph g = SmallTestCircuit();
  WeightedTransitionOperator op(g);
  WeightedTransitionOperator::SparseVector x;
  x.InitOneHot(2, g);
  op.ApplyAuto(&x);
  EXPECT_NEAR(x.values[0], 0.5 / 2.5, 1e-12);   // w(0,2)/w(0)
  EXPECT_NEAR(x.values[1], 1.0 / 3.0, 1e-12);   // w(1,2)/w(1)
  EXPECT_NEAR(x.values[3], 4.0 / 4.0, 1e-12);   // w(3,2)/w(3)
  EXPECT_NEAR(x.values[2], 0.0, 1e-12);
}

TEST(WeightedTransitionTest, SparseAgreesWithDense) {
  WeightedGraph g = gen::TriangulatedGridCircuit(5, 5, 0.5, 2.0, 7);
  WeightedTransitionOperator op(g);
  WeightedTransitionOperator::SparseVector sparse;
  sparse.InitOneHot(12, g);
  Vector dense(g.NumNodes(), 0.0);
  dense[12] = 1.0;
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

TEST(WeightedTransitionTest, DetailedBalanceOfWeightedChain) {
  // Reversibility: w(u) P(u,v) = w(u,v) = w(v) P(v,u).
  WeightedGraph g = gen::TriangulatedGridCircuit(3, 4, 0.25, 4.0, 9);
  WeightedTransitionOperator op(g);
  for (NodeId u = 0; u < g.NumNodes(); ++u) {
    Vector eu(g.NumNodes(), 0.0);
    eu[u] = 1.0;
    Vector pu;
    op.ApplyDense(eu, &pu);  // pu(v) = P(v, u)
    for (NodeId v = 0; v < g.NumNodes(); ++v) {
      EXPECT_NEAR(g.Strength(v) * pu[v], g.EdgeWeight(v, u), 1e-10);
    }
  }
}

TEST(WeightedTransitionTest, SupportDegreeSumMatchesUnweightedCostModel) {
  // The Eq. 17 cost is arc traversals: weights must not change it.
  WeightedGraphBuilder b;
  b.AddEdge(0, 1, 5.0).AddEdge(1, 2, 0.25).AddEdge(2, 3, 1.0).AddEdge(3, 4,
                                                                      2.0);
  WeightedGraph g = b.Build();  // path of 5 nodes
  WeightedTransitionOperator op(g);
  WeightedTransitionOperator::SparseVector x;
  x.InitOneHot(2, g);
  EXPECT_EQ(x.support_degree_sum, 2u);
  op.ApplyAuto(&x);
  EXPECT_EQ(x.support_degree_sum, 4u);  // support {1,3}, degrees 2+2
}

TEST(WeightedTransitionTest, SwitchesToDenseOnSaturation) {
  WeightedGraph g = gen::TriangulatedGridCircuit(4, 4, 1.0, 1.0, 1);
  WeightedTransitionOperator op(g);
  WeightedTransitionOperator::SparseVector x;
  x.InitOneHot(5, g);
  for (int i = 0; i < 6; ++i) op.ApplyAuto(&x);
  EXPECT_TRUE(x.dense);
  EXPECT_EQ(x.support_degree_sum, g.NumArcs());
}

TEST(WeightedTransitionTest, MassConservedUnderIteration) {
  // P is a stochastic-matrix action on column vectors through P(v,u)
  // entries weighted by strengths; the strength-weighted total
  // Σ_v w(v)·x_i(v) is invariant when x_0 = e_s (detailed balance).
  WeightedGraph g = SmallTestCircuit();
  WeightedTransitionOperator op(g);
  WeightedTransitionOperator::SparseVector x;
  x.InitOneHot(1, g);
  auto weighted_mass = [&g](const Vector& v) {
    double sum = 0.0;
    for (NodeId u = 0; u < g.NumNodes(); ++u) sum += v[u] * g.Strength(u);
    return sum;
  };
  const double initial = weighted_mass(x.values);
  for (int i = 0; i < 10; ++i) {
    op.ApplyAuto(&x);
    EXPECT_NEAR(weighted_mass(x.values), initial, 1e-9);
  }
}

using testing::ExpectTopTwoOf;
constexpr auto AlongIteration = testing::ExpectTopTwoAlongIteration<EdgeWeight>;

WeightedGraph WeightedPath(NodeId n) {
  WeightedGraphBuilder b;
  for (NodeId v = 0; v + 1 < n; ++v) b.AddEdge(v, v + 1, 0.5 + 0.25 * v);
  return b.Build();
}

TEST(WeightedTransitionTopTwoTest, SparseStepsMatchFullScan) {
  EXPECT_FALSE(AlongIteration(WeightedPath(40), 20, 8, "path"));
  EXPECT_FALSE(AlongIteration(SmallTestCircuit(), 3, 2, "tail"));
}

TEST(WeightedTransitionTopTwoTest, DenseSwitchMatchesFullScan) {
  EXPECT_TRUE(AlongIteration(gen::TriangulatedGridCircuit(4, 4, 1.0, 1.0, 1),
                             5, 6, "uniform grid"));
  EXPECT_TRUE(AlongIteration(gen::TriangulatedGridCircuit(5, 5, 0.5, 2.0, 7),
                             12, 8, "mixed grid"));
  EXPECT_TRUE(AlongIteration(SmallTestCircuit(), 1, 6, "circuit"));
}

TEST(WeightedTransitionTopTwoTest, TwoNodeGraph) {
  WeightedGraphBuilder b;
  b.AddEdge(0, 1, 3.0);
  const WeightedGraph g = b.Build();
  EXPECT_TRUE(AlongIteration(g, 0, 3, "two-node"));
}

TEST(WeightedTransitionTopTwoTest, TiedMaxima) {
  // Equal conductances from the hub: every leaf gets w/w = 1 (scatter),
  // two steps later again (gather).
  WeightedGraphBuilder b;
  for (NodeId leaf = 1; leaf <= 5; ++leaf) b.AddEdge(0, leaf, 2.5);
  const WeightedGraph star = b.Build();
  WeightedTransitionOperator op(star);
  WeightedTransitionOperator::SparseVector x;
  x.InitOneHot(0, star);
  op.ApplyAuto(&x);
  EXPECT_FALSE(x.dense);
  EXPECT_EQ(x.top_two, (std::pair<double, double>{1.0, 1.0}));
  ExpectTopTwoOf(x.top_two, x.values, "star scatter tie");
  op.ApplyAuto(&x);
  op.ApplyAuto(&x);
  EXPECT_TRUE(x.dense);
  EXPECT_EQ(x.top_two, (std::pair<double, double>{1.0, 1.0}));
  ExpectTopTwoOf(x.top_two, x.values, "star gather tie");
}

TEST(WeightedTransitionTopTwoTest, SupportHoldingExactZeros) {
  // Node 1 has strength ~1e300 but a 1e-300 edge to node 2, so one step
  // from e_2 puts P(1, 2) = 1e-300/1e300 — exactly 0 after underflow —
  // on the support beside P(3, 2) = 1/2.
  WeightedGraphBuilder b;
  b.AddEdge(0, 1, 1e300).AddEdge(1, 2, 1e-300);
  for (NodeId v = 2; v + 1 < 12; ++v) b.AddEdge(v, v + 1, 1.0);
  const WeightedGraph g = b.Build();
  WeightedTransitionOperator op(g);
  WeightedTransitionOperator::SparseVector x;
  x.InitOneHot(2, g);
  op.ApplyAuto(&x);
  ASSERT_FALSE(x.dense);
  ASSERT_EQ(x.support.size(), 2u);
  EXPECT_EQ(x.values[1], 0.0);
  EXPECT_EQ(x.top_two, (std::pair<double, double>{0.5, 0.0}));
  ExpectTopTwoOf(x.top_two, x.values, "zero beside one non-zero");
  for (int i = 0; i < 4; ++i) {
    op.ApplyAuto(&x);
    ExpectTopTwoOf(x.top_two, x.values,
                   "after zero step " + std::to_string(i));
  }
}

TEST(NormalizedWeightedAdjacencyTest, TopEigenvectorIsFixedPoint) {
  WeightedGraph g = gen::TriangulatedGridCircuit(4, 5, 0.5, 3.0, 21);
  NormalizedWeightedAdjacencyOperator op(g);
  Vector y;
  op.Apply(op.TopEigenvector(), &y);
  for (std::size_t i = 0; i < y.size(); ++i) {
    EXPECT_NEAR(y[i], op.TopEigenvector()[i], 1e-10);
  }
}

TEST(NormalizedWeightedAdjacencyTest, UnitNorm) {
  WeightedGraph g = SmallTestCircuit();
  NormalizedWeightedAdjacencyOperator op(g);
  EXPECT_NEAR(Norm2(op.TopEigenvector()), 1.0, 1e-12);
}

}  // namespace
}  // namespace geer
