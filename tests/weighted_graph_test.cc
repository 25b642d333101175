#include "graph/weighted_graph.h"

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "graph/weighted_generators.h"

namespace geer {
namespace {

TEST(WeightedGraphTest, EmptyGraph) {
  WeightedGraph g;
  EXPECT_EQ(g.NumNodes(), 0u);
  EXPECT_EQ(g.NumEdges(), 0u);
  EXPECT_DOUBLE_EQ(g.TotalWeight(), 0.0);
}

TEST(WeightedGraphTest, BuilderBasicTriangle) {
  WeightedGraphBuilder b;
  b.AddEdge(0, 1, 2.0).AddEdge(1, 2, 3.0).AddEdge(0, 2, 5.0);
  WeightedGraph g = b.Build();
  EXPECT_EQ(g.NumNodes(), 3u);
  EXPECT_EQ(g.NumEdges(), 3u);
  EXPECT_EQ(g.NumArcs(), 6u);
  EXPECT_DOUBLE_EQ(g.Strength(0), 7.0);
  EXPECT_DOUBLE_EQ(g.Strength(1), 5.0);
  EXPECT_DOUBLE_EQ(g.Strength(2), 8.0);
  EXPECT_DOUBLE_EQ(g.TotalWeight(), 10.0);
}

TEST(WeightedGraphTest, ParallelEdgesMergeBySummingConductance) {
  // Two parallel resistors of 4Ω and 4Ω (conductance 0.25 each) behave as
  // one 2Ω resistor (conductance 0.5).
  WeightedGraphBuilder b;
  b.AddEdge(0, 1, 0.25).AddEdge(1, 0, 0.25).AddEdge(1, 2, 1.0);
  WeightedGraph g = b.Build();
  EXPECT_EQ(g.NumEdges(), 2u);
  EXPECT_DOUBLE_EQ(g.EdgeWeight(0, 1), 0.5);
  EXPECT_DOUBLE_EQ(g.EdgeWeight(1, 0), 0.5);
}

TEST(WeightedGraphTest, SelfLoopsDroppedButNodeInterned) {
  WeightedGraphBuilder b;
  b.AddEdge(0, 1, 1.0).AddEdge(2, 2, 9.0);
  WeightedGraph g = b.Build();
  EXPECT_EQ(g.NumNodes(), 3u);  // node 2 exists, isolated
  EXPECT_EQ(g.NumEdges(), 1u);
  EXPECT_EQ(g.Degree(2), 0u);
  EXPECT_DOUBLE_EQ(g.Strength(2), 0.0);
}

TEST(WeightedGraphTest, EdgeWeightLookup) {
  WeightedGraphBuilder b;
  b.AddEdge(0, 1, 1.5).AddEdge(0, 3, 2.5).AddEdge(0, 2, 3.5);
  WeightedGraph g = b.Build();
  EXPECT_DOUBLE_EQ(g.EdgeWeight(0, 1), 1.5);
  EXPECT_DOUBLE_EQ(g.EdgeWeight(0, 2), 3.5);
  EXPECT_DOUBLE_EQ(g.EdgeWeight(0, 3), 2.5);
  EXPECT_DOUBLE_EQ(g.EdgeWeight(1, 2), 0.0);
  EXPECT_FALSE(g.HasEdge(2, 3));
  EXPECT_TRUE(g.HasEdge(3, 0));
}

TEST(WeightedGraphTest, AdjacencySortedWithParallelWeights) {
  WeightedGraphBuilder b;
  b.AddEdge(2, 0, 1.0).AddEdge(2, 3, 2.0).AddEdge(2, 1, 3.0);
  WeightedGraph g = b.Build();
  const auto nbrs = g.Neighbors(2);
  ASSERT_EQ(nbrs.size(), 3u);
  EXPECT_EQ(nbrs[0], 0u);
  EXPECT_EQ(nbrs[1], 1u);
  EXPECT_EQ(nbrs[2], 3u);
  const auto wts = g.Weights(2);
  EXPECT_DOUBLE_EQ(wts[0], 1.0);
  EXPECT_DOUBLE_EQ(wts[1], 3.0);
  EXPECT_DOUBLE_EQ(wts[2], 2.0);
}

TEST(WeightedGraphTest, EdgesListsCanonicalOrder) {
  WeightedGraphBuilder b;
  b.AddEdge(3, 1, 0.5).AddEdge(0, 1, 1.5).AddEdge(2, 0, 2.5);
  const auto edges = b.Build().Edges();
  ASSERT_EQ(edges.size(), 3u);
  EXPECT_EQ(edges[0], (WeightedEdge{0, 1, 1.5}));
  EXPECT_EQ(edges[1], (WeightedEdge{0, 2, 2.5}));
  EXPECT_EQ(edges[2], (WeightedEdge{1, 3, 0.5}));
}

TEST(WeightedGraphTest, FromUnweightedMatchesSkeleton) {
  Graph g = gen::BarabasiAlbert(50, 3, 7);
  WeightedGraph wg = FromUnweighted(g);
  EXPECT_EQ(wg.NumNodes(), g.NumNodes());
  EXPECT_EQ(wg.NumEdges(), g.NumEdges());
  EXPECT_DOUBLE_EQ(wg.TotalWeight(), static_cast<double>(g.NumEdges()));
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    EXPECT_DOUBLE_EQ(wg.Strength(v), static_cast<double>(g.Degree(v)));
  }
  Graph back = wg.Skeleton();
  EXPECT_EQ(back.NumEdges(), g.NumEdges());
  EXPECT_EQ(back.NeighborArray(), g.NeighborArray());
}

TEST(WeightedGraphTest, StrengthSumsToTwiceTotalWeight) {
  WeightedGraph g = gen::GridCircuit(5, 7, 0.5, 2.0, 11);
  double sum = 0.0;
  for (NodeId v = 0; v < g.NumNodes(); ++v) sum += g.Strength(v);
  EXPECT_NEAR(sum, 2.0 * g.TotalWeight(), 1e-9);
}

TEST(WeightedGraphDeathTest, RejectsNonPositiveWeight) {
  WeightedGraphBuilder b;
  EXPECT_DEATH(b.AddEdge(0, 1, 0.0), "positive");
  EXPECT_DEATH(b.AddEdge(0, 1, -1.0), "positive");
}

TEST(WeightedGraphDeathTest, RejectsReservedNodeId) {
  const NodeId reserved = 0xFFFFFFFFu;
  WeightedGraphBuilder b;
  EXPECT_DEATH(b.AddEdge(0, reserved, 1.0), "reserved");
  EXPECT_DEATH(b.AddEdge(reserved, reserved, 1.0), "reserved");
  b.AddEdge(0, reserved - 1, 1.0);
  EXPECT_EQ(b.NumNodes(), reserved);
}

TEST(WeightedGeneratorsTest, SeriesChainTopology) {
  WeightedGraph g = gen::SeriesChain({1.0, 2.0, 4.0});
  EXPECT_EQ(g.NumNodes(), 4u);
  EXPECT_EQ(g.NumEdges(), 3u);
  EXPECT_DOUBLE_EQ(g.EdgeWeight(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(g.EdgeWeight(1, 2), 0.5);
  EXPECT_DOUBLE_EQ(g.EdgeWeight(2, 3), 0.25);
}

TEST(WeightedGeneratorsTest, ParallelPathsTopology) {
  WeightedGraph g = gen::ParallelPaths({1.0, 1.0, 2.0});
  EXPECT_EQ(g.NumNodes(), 5u);
  EXPECT_EQ(g.NumEdges(), 6u);
  // Each path contributes two series halves with conductance 2/R.
  EXPECT_DOUBLE_EQ(g.EdgeWeight(0, 2), 2.0);
  EXPECT_DOUBLE_EQ(g.EdgeWeight(2, 1), 2.0);
  EXPECT_DOUBLE_EQ(g.EdgeWeight(0, 4), 1.0);
}

TEST(WeightedGeneratorsTest, LadderTopology) {
  WeightedGraph g = gen::Ladder(4, 2.0, 0.5);
  EXPECT_EQ(g.NumNodes(), 8u);
  EXPECT_EQ(g.NumEdges(), 3u + 3u + 4u);
  EXPECT_DOUBLE_EQ(g.EdgeWeight(0, 1), 2.0);   // rail
  EXPECT_DOUBLE_EQ(g.EdgeWeight(0, 4), 0.5);   // rung
}

TEST(WeightedGeneratorsTest, GridCircuitDeterministicInSeed) {
  WeightedGraph a = gen::GridCircuit(4, 4, 0.5, 2.0, 3);
  WeightedGraph b = gen::GridCircuit(4, 4, 0.5, 2.0, 3);
  WeightedGraph c = gen::GridCircuit(4, 4, 0.5, 2.0, 4);
  EXPECT_EQ(a.WeightArray(), b.WeightArray());
  EXPECT_NE(a.WeightArray(), c.WeightArray());
  for (const double w : a.WeightArray()) {
    EXPECT_GE(w, 0.5);
    EXPECT_LE(w, 2.0);
  }
}

TEST(WeightedGeneratorsTest, TriangulatedGridHasDiagonals) {
  WeightedGraph g = gen::TriangulatedGridCircuit(3, 3, 1.0, 1.0, 1);
  // 3x3: 12 axis edges + 4 diagonals.
  EXPECT_EQ(g.NumEdges(), 16u);
  EXPECT_TRUE(g.HasEdge(0, 4));  // (0,0) -> (1,1)
}

TEST(WeightedGeneratorsTest, WithUniformWeightsPreservesTopology) {
  Graph g = gen::ErdosRenyi(40, 120, 5);
  WeightedGraph wg = gen::WithUniformWeights(g, 0.1, 1.0, 9);
  EXPECT_EQ(wg.NumEdges(), g.NumEdges());
  EXPECT_EQ(wg.NeighborArray(), g.NeighborArray());
  for (const double w : wg.WeightArray()) {
    EXPECT_GE(w, 0.1);
    EXPECT_LE(w, 1.0);
  }
}

}  // namespace
}  // namespace geer
