#include "graph/graph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <utility>
#include <vector>

#include "graph/builder.h"
#include "rw/rng.h"

namespace geer {
namespace {

TEST(GraphTest, EmptyGraph) {
  Graph g;
  EXPECT_EQ(g.NumNodes(), 0u);
  EXPECT_EQ(g.NumEdges(), 0u);
  EXPECT_EQ(g.NumArcs(), 0u);
  EXPECT_EQ(g.MaxDegree(), 0u);
  EXPECT_EQ(g.MinDegree(), 0u);
  EXPECT_DOUBLE_EQ(g.AverageDegree(), 0.0);
  EXPECT_TRUE(g.Edges().empty());
}

TEST(GraphTest, SingleEdge) {
  Graph g = BuildGraph(2, {{0, 1}});
  EXPECT_EQ(g.NumNodes(), 2u);
  EXPECT_EQ(g.NumEdges(), 1u);
  EXPECT_EQ(g.NumArcs(), 2u);
  EXPECT_EQ(g.Degree(0), 1u);
  EXPECT_EQ(g.Degree(1), 1u);
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(1, 0));
}

TEST(GraphTest, TriangleDegreesAndNeighbors) {
  Graph g = BuildGraph(3, {{0, 1}, {1, 2}, {2, 0}});
  EXPECT_EQ(g.NumEdges(), 3u);
  for (NodeId v = 0; v < 3; ++v) EXPECT_EQ(g.Degree(v), 2u);
  auto n0 = g.Neighbors(0);
  ASSERT_EQ(n0.size(), 2u);
  EXPECT_EQ(n0[0], 1u);
  EXPECT_EQ(n0[1], 2u);
}

TEST(GraphTest, NeighborsAreSorted) {
  Graph g = BuildGraph(6, {{0, 5}, {0, 2}, {0, 4}, {0, 1}, {0, 3}});
  auto adj = g.Neighbors(0);
  for (std::size_t i = 1; i < adj.size(); ++i) {
    EXPECT_LT(adj[i - 1], adj[i]);
  }
}

TEST(GraphTest, NeighborAtMatchesSpan) {
  Graph g = BuildGraph(5, {{0, 1}, {0, 2}, {0, 3}, {0, 4}, {1, 2}});
  auto adj = g.Neighbors(0);
  for (std::uint64_t k = 0; k < g.Degree(0); ++k) {
    EXPECT_EQ(g.NeighborAt(0, k), adj[k]);
  }
}

TEST(GraphTest, HasEdgeNegativeCases) {
  Graph g = BuildGraph(4, {{0, 1}, {1, 2}});
  EXPECT_FALSE(g.HasEdge(0, 2));
  EXPECT_FALSE(g.HasEdge(0, 3));
  EXPECT_FALSE(g.HasEdge(3, 3));
}

TEST(GraphTest, HasEdgeSearchesSmallerList) {
  // Star: hub degree n−1, leaves degree 1; exercise both directions.
  GraphBuilder b(50);
  for (NodeId v = 1; v < 50; ++v) b.AddEdge(0, v);
  Graph g = b.Build();
  EXPECT_TRUE(g.HasEdge(0, 17));
  EXPECT_TRUE(g.HasEdge(17, 0));
  EXPECT_FALSE(g.HasEdge(17, 18));
}

TEST(GraphTest, EdgesReturnsCanonicalPairs) {
  Graph g = BuildGraph(4, {{2, 1}, {3, 0}, {0, 1}});
  std::vector<Edge> edges = g.Edges();
  ASSERT_EQ(edges.size(), 3u);
  for (const auto& [u, v] : edges) EXPECT_LT(u, v);
  EXPECT_EQ(edges[0], (Edge{0, 1}));
  EXPECT_EQ(edges[1], (Edge{0, 3}));
  EXPECT_EQ(edges[2], (Edge{1, 2}));
}

TEST(GraphTest, DegreeStats) {
  Graph g = BuildGraph(4, {{0, 1}, {0, 2}, {0, 3}});
  EXPECT_EQ(g.MaxDegree(), 3u);
  EXPECT_EQ(g.MinDegree(), 1u);
  EXPECT_DOUBLE_EQ(g.AverageDegree(), 6.0 / 4.0);
}

TEST(GraphTest, IsolatedNodeCountsInN) {
  Graph g = BuildGraph(5, {{0, 1}});
  EXPECT_EQ(g.NumNodes(), 5u);
  EXPECT_EQ(g.Degree(4), 0u);
  EXPECT_EQ(g.MinDegree(), 0u);
}

TEST(GraphBuilderTest, DropsSelfLoops) {
  GraphBuilder b(3);
  b.AddEdge(1, 1);
  b.AddEdge(0, 1);
  Graph g = b.Build();
  EXPECT_EQ(g.NumEdges(), 1u);
  EXPECT_FALSE(g.HasEdge(1, 1));
}

TEST(GraphBuilderTest, DeduplicatesParallelEdges) {
  GraphBuilder b(3);
  b.AddEdge(0, 1);
  b.AddEdge(1, 0);
  b.AddEdge(0, 1);
  Graph g = b.Build();
  EXPECT_EQ(g.NumEdges(), 1u);
  EXPECT_EQ(g.Degree(0), 1u);
  EXPECT_EQ(g.Degree(1), 1u);
}

TEST(GraphBuilderTest, GrowsNodeCountFromEndpoints) {
  GraphBuilder b;
  b.AddEdge(0, 9);
  EXPECT_EQ(b.NumNodes(), 10u);
  Graph g = b.Build();
  EXPECT_EQ(g.NumNodes(), 10u);
}

TEST(GraphBuilderTest, ReusableAfterBuild) {
  GraphBuilder b(3);
  b.AddEdge(0, 1);
  Graph g1 = b.Build();
  b.AddEdge(1, 2);
  Graph g2 = b.Build();
  EXPECT_EQ(g1.NumEdges(), 1u);
  EXPECT_EQ(g2.NumEdges(), 2u);
}

TEST(GraphBuilderTest, AddEdgesBulk) {
  GraphBuilder b(4);
  b.AddEdges({{0, 1}, {1, 2}, {2, 3}});
  EXPECT_EQ(b.NumRecordedEdges(), 3u);
  EXPECT_EQ(b.Build().NumEdges(), 3u);
}

TEST(GraphBuilderTest, EmptyBuilder) {
  Graph empty = GraphBuilder().Build();
  EXPECT_EQ(empty.NumNodes(), 0u);
  EXPECT_EQ(empty.Offsets(), std::vector<std::uint64_t>{0});
  EXPECT_TRUE(empty.NeighborArray().empty());

  Graph isolated = GraphBuilder(4).Build();
  EXPECT_EQ(isolated.NumNodes(), 4u);
  EXPECT_EQ(isolated.Offsets(), std::vector<std::uint64_t>(5, 0));
  EXPECT_TRUE(isolated.NeighborArray().empty());
}

// The CSR arrays a std::set reference builds from the same edge list:
// n = max(hint, largest endpoint + 1), self-loops and duplicates dropped,
// rows sorted.
std::pair<std::vector<std::uint64_t>, std::vector<NodeId>> ReferenceCsr(
    NodeId hint, const std::vector<Edge>& edges) {
  NodeId n = hint;
  for (const auto& [u, v] : edges) n = std::max(n, std::max(u, v) + 1);
  std::vector<std::set<NodeId>> rows(n);
  for (const auto& [u, v] : edges) {
    if (u == v) continue;
    rows[u].insert(v);
    rows[v].insert(u);
  }
  std::vector<std::uint64_t> offsets = {0};
  std::vector<NodeId> neighbors;
  for (const auto& row : rows) {
    neighbors.insert(neighbors.end(), row.begin(), row.end());
    offsets.push_back(neighbors.size());
  }
  return {offsets, neighbors};
}

TEST(GraphBuilderTest, MatchesSetReferenceOnRandomEdgeLists) {
  Rng rng(2024);
  for (int trial = 0; trial < 200; ++trial) {
    // Endpoints in [0, span); the hint is sometimes above every endpoint.
    const NodeId span = 1 + static_cast<NodeId>(rng.NextBounded(60));
    const NodeId hint = static_cast<NodeId>(rng.NextBounded(80));
    const std::uint64_t count = rng.NextBounded(400);
    GraphBuilder builder(hint);
    std::vector<Edge> edges;
    for (std::uint64_t i = 0; i < count; ++i) {
      Edge e{static_cast<NodeId>(rng.NextBounded(span)),
             static_cast<NodeId>(rng.NextBounded(span))};
      // Re-record some edges, in either orientation.
      if (!edges.empty() && rng.NextBounded(4) == 0) {
        e = edges[rng.NextBounded(edges.size())];
        if (rng.NextBounded(2) == 0) std::swap(e.first, e.second);
      }
      edges.push_back(e);
      builder.AddEdge(e.first, e.second);
      // Build midway: the builder keeps its edges and stays usable.
      if (i == count / 2) {
        const auto [offsets, neighbors] = ReferenceCsr(hint, edges);
        const Graph g = builder.Build();
        ASSERT_EQ(g.Offsets(), offsets) << "trial " << trial;
        ASSERT_EQ(g.NeighborArray(), neighbors) << "trial " << trial;
      }
    }
    const auto [offsets, neighbors] = ReferenceCsr(hint, edges);
    const Graph g = builder.Build();
    ASSERT_EQ(g.NumNodes(), offsets.size() - 1) << "trial " << trial;
    ASSERT_EQ(g.Offsets(), offsets) << "trial " << trial;
    ASSERT_EQ(g.NeighborArray(), neighbors) << "trial " << trial;
    ASSERT_EQ(BuildGraph(hint, edges).NeighborArray(), neighbors);
  }
}

TEST(GraphBuilderDeathTest, RejectsReservedNodeId) {
  const NodeId reserved = 0xFFFFFFFFu;
  GraphBuilder b;
  EXPECT_DEATH(b.AddEdge(0, reserved), "reserved");
  EXPECT_DEATH(b.AddEdge(reserved, 3), "reserved");
  EXPECT_DEATH(b.AddEdge(reserved, reserved), "reserved");
  // The largest usable id still builds.
  b.AddEdge(0, reserved - 1);
  EXPECT_EQ(b.NumNodes(), reserved);
}

TEST(GraphTest, CsrArraysConsistent) {
  Graph g = BuildGraph(4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}});
  const auto& offsets = g.Offsets();
  ASSERT_EQ(offsets.size(), 5u);
  EXPECT_EQ(offsets.front(), 0u);
  EXPECT_EQ(offsets.back(), g.NumArcs());
  EXPECT_EQ(g.NeighborArray().size(), g.NumArcs());
}

}  // namespace
}  // namespace geer
