#include "graph/algorithms.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "graph/builder.h"
#include "graph/generators.h"

namespace geer {
namespace {

TEST(ConnectivityTest, ConnectedPath) {
  EXPECT_TRUE(IsConnected(gen::Path(10)));
}

TEST(ConnectivityTest, DisconnectedTwoEdges) {
  Graph g = BuildGraph(4, {{0, 1}, {2, 3}});
  EXPECT_FALSE(IsConnected(g));
}

TEST(ConnectivityTest, SingleNodeIsConnected) {
  EXPECT_TRUE(IsConnected(BuildGraph(1, {})));
}

TEST(ConnectivityTest, IsolatedNodeDisconnects) {
  Graph g = BuildGraph(3, {{0, 1}});
  EXPECT_FALSE(IsConnected(g));
}

TEST(BipartiteTest, PathIsBipartite) {
  EXPECT_TRUE(IsBipartite(gen::Path(7)));
}

TEST(BipartiteTest, EvenCycleBipartiteOddCycleNot) {
  EXPECT_TRUE(IsBipartite(gen::Cycle(8)));
  EXPECT_FALSE(IsBipartite(gen::Cycle(9)));
}

TEST(BipartiteTest, CompleteBipartiteIsBipartite) {
  EXPECT_TRUE(IsBipartite(gen::CompleteBipartite(3, 4)));
}

TEST(BipartiteTest, TriangleIsNotBipartite) {
  EXPECT_FALSE(IsBipartite(gen::Complete(3)));
}

TEST(BipartiteTest, DisconnectedBipartiteComponents) {
  Graph g = BuildGraph(5, {{0, 1}, {2, 3}, {3, 4}});
  EXPECT_TRUE(IsBipartite(g));
}

TEST(BipartiteTest, OneOddComponentBreaksBipartiteness) {
  Graph g = BuildGraph(6, {{0, 1}, {2, 3}, {3, 4}, {4, 2}});
  EXPECT_FALSE(IsBipartite(g));
}

TEST(ComponentsTest, LabelsDenseAndConsistent) {
  Graph g = BuildGraph(6, {{0, 1}, {1, 2}, {3, 4}});
  auto label = ConnectedComponents(g);
  ASSERT_EQ(label.size(), 6u);
  EXPECT_EQ(label[0], label[1]);
  EXPECT_EQ(label[1], label[2]);
  EXPECT_EQ(label[3], label[4]);
  EXPECT_NE(label[0], label[3]);
  EXPECT_NE(label[5], label[0]);
  EXPECT_NE(label[5], label[3]);
}

TEST(ComponentsTest, LargestComponentExtraction) {
  // Component A: {0,1,2} triangle; component B: {3,4}.
  Graph g = BuildGraph(5, {{0, 1}, {1, 2}, {2, 0}, {3, 4}});
  Graph lcc = LargestConnectedComponent(g);
  EXPECT_EQ(lcc.NumNodes(), 3u);
  EXPECT_EQ(lcc.NumEdges(), 3u);
  EXPECT_TRUE(IsConnected(lcc));
}

TEST(ComponentsTest, LargestComponentTieKeepsLowestLabel) {
  // Two 3-node components, {1, 3, 5} and {4, 6, 7}. Labels follow the
  // smallest node id, so {1, 3, 5} wins the tie whichever of the two is
  // the triangle.
  Graph triangle_first = LargestConnectedComponent(
      BuildGraph(8, {{4, 6}, {6, 7}, {1, 3}, {3, 5}, {5, 1}}));
  EXPECT_EQ(triangle_first.Offsets(),
            (std::vector<std::uint64_t>{0, 2, 4, 6}));
  EXPECT_EQ(triangle_first.NeighborArray(),
            (std::vector<NodeId>{1, 2, 0, 2, 0, 1}));
  Graph path_first = LargestConnectedComponent(
      BuildGraph(8, {{1, 3}, {3, 5}, {4, 6}, {6, 7}, {7, 4}}));
  EXPECT_EQ(path_first.Offsets(), (std::vector<std::uint64_t>{0, 1, 3, 4}));
  EXPECT_EQ(path_first.NeighborArray(), (std::vector<NodeId>{1, 0, 2, 1}));
}

TEST(ComponentsTest, LargestComponentMatchesRelabelledSubgraph) {
  // Sparse random graphs split into many components. The extraction must
  // equal rebuilding the kept component's edges under the monotone
  // relabelling.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const Graph g = gen::ErdosRenyi(300, 200 + 10 * seed, seed, false);
    const std::vector<std::uint32_t> label = ConnectedComponents(g);
    std::vector<std::uint64_t> size(g.NumNodes(), 0);
    for (std::uint32_t c : label) ++size[c];
    const std::uint32_t best = static_cast<std::uint32_t>(
        std::max_element(size.begin(), size.end()) - size.begin());
    std::vector<NodeId> remap(g.NumNodes(), 0);
    NodeId kept = 0;
    for (NodeId v = 0; v < g.NumNodes(); ++v) {
      if (label[v] == best) remap[v] = kept++;
    }
    GraphBuilder reference(kept);
    for (const auto& [u, v] : g.Edges()) {
      if (label[u] == best) reference.AddEdge(remap[u], remap[v]);
    }
    const Graph expected = reference.Build();
    const Graph lcc = LargestConnectedComponent(g);
    EXPECT_EQ(lcc.Offsets(), expected.Offsets()) << "seed " << seed;
    EXPECT_EQ(lcc.NeighborArray(), expected.NeighborArray())
        << "seed " << seed;
  }
}

TEST(ComponentsTest, LargestComponentOfConnectedIsIdentity) {
  Graph g = gen::Cycle(6);
  Graph lcc = LargestConnectedComponent(g);
  EXPECT_EQ(lcc.NumNodes(), g.NumNodes());
  EXPECT_EQ(lcc.NumEdges(), g.NumEdges());
}

TEST(EnsureNonBipartiteTest, FixesEvenCycle) {
  Graph g = gen::Cycle(8);
  Graph fixed = EnsureNonBipartite(g);
  EXPECT_FALSE(IsBipartite(fixed));
  EXPECT_EQ(fixed.NumEdges(), g.NumEdges() + 1);
  EXPECT_TRUE(IsConnected(fixed));
}

TEST(EnsureNonBipartiteTest, LeavesNonBipartiteUntouched) {
  Graph g = gen::Complete(5);
  Graph fixed = EnsureNonBipartite(g);
  EXPECT_EQ(fixed.NumEdges(), g.NumEdges());
}

TEST(EnsureNonBipartiteTest, FixesStar) {
  Graph fixed = EnsureNonBipartite(gen::Star(6));
  EXPECT_FALSE(IsBipartite(fixed));
}

TEST(BfsTest, DistancesOnPath) {
  Graph g = gen::Path(5);
  auto dist = BfsDistances(g, 0);
  for (NodeId v = 0; v < 5; ++v) EXPECT_EQ(dist[v], v);
}

TEST(BfsTest, UnreachableIsMax) {
  Graph g = BuildGraph(3, {{0, 1}});
  auto dist = BfsDistances(g, 0);
  EXPECT_EQ(dist[2], UINT32_MAX);
}

TEST(DiameterTest, PathDiameter) {
  EXPECT_EQ(ApproxDiameter(gen::Path(10)), 9u);
}

TEST(DiameterTest, CompleteDiameter) {
  EXPECT_EQ(ApproxDiameter(gen::Complete(6)), 1u);
}

TEST(DiameterTest, TreeDiameterExact) {
  // Double-sweep BFS is exact on trees.
  EXPECT_EQ(ApproxDiameter(gen::BalancedBinaryTree(4)), 6u);
}

}  // namespace
}  // namespace geer
