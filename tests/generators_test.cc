#include "graph/generators.h"

#include <gtest/gtest.h>
#include <sched.h>

#include <cstdint>
#include <string>
#include <unordered_set>
#include <utility>

#include "graph/algorithms.h"
#include "graph/builder.h"
#include "rw/rng.h"
#include "util/thread_pool.h"

namespace geer {
namespace {

TEST(DeterministicGenTest, PathShape) {
  Graph g = gen::Path(6);
  EXPECT_EQ(g.NumNodes(), 6u);
  EXPECT_EQ(g.NumEdges(), 5u);
  EXPECT_EQ(g.Degree(0), 1u);
  EXPECT_EQ(g.Degree(3), 2u);
  EXPECT_TRUE(IsConnected(g));
}

TEST(DeterministicGenTest, CycleShape) {
  Graph g = gen::Cycle(7);
  EXPECT_EQ(g.NumEdges(), 7u);
  for (NodeId v = 0; v < 7; ++v) EXPECT_EQ(g.Degree(v), 2u);
}

TEST(DeterministicGenTest, CompleteShape) {
  Graph g = gen::Complete(6);
  EXPECT_EQ(g.NumEdges(), 15u);
  for (NodeId v = 0; v < 6; ++v) EXPECT_EQ(g.Degree(v), 5u);
}

TEST(DeterministicGenTest, StarShape) {
  Graph g = gen::Star(8);
  EXPECT_EQ(g.NumEdges(), 7u);
  EXPECT_EQ(g.Degree(0), 7u);
  EXPECT_EQ(g.Degree(5), 1u);
}

TEST(DeterministicGenTest, GridShape) {
  Graph g = gen::Grid(3, 4);
  EXPECT_EQ(g.NumNodes(), 12u);
  // 3 rows × 3 horizontal + 2 rows-gaps × 4 vertical = 9 + 8.
  EXPECT_EQ(g.NumEdges(), 17u);
  EXPECT_TRUE(IsBipartite(g));
  EXPECT_TRUE(IsConnected(g));
}

TEST(DeterministicGenTest, BarbellShape) {
  Graph g = gen::Barbell(4, 2);
  EXPECT_EQ(g.NumNodes(), 9u);
  // Two K4 (6 edges each) + bridge path of 2 edges.
  EXPECT_EQ(g.NumEdges(), 14u);
  EXPECT_TRUE(IsConnected(g));
  EXPECT_FALSE(IsBipartite(g));
}

TEST(DeterministicGenTest, LollipopShape) {
  Graph g = gen::Lollipop(5, 3);
  EXPECT_EQ(g.NumNodes(), 8u);
  EXPECT_EQ(g.NumEdges(), 10u + 3u);
  EXPECT_TRUE(IsConnected(g));
}

TEST(DeterministicGenTest, BinaryTreeShape) {
  Graph g = gen::BalancedBinaryTree(4);
  EXPECT_EQ(g.NumNodes(), 15u);
  EXPECT_EQ(g.NumEdges(), 14u);  // tree: n − 1 edges
  EXPECT_TRUE(IsConnected(g));
  EXPECT_TRUE(IsBipartite(g));
}

TEST(DeterministicGenTest, CompleteBipartiteShape) {
  Graph g = gen::CompleteBipartite(3, 5);
  EXPECT_EQ(g.NumNodes(), 8u);
  EXPECT_EQ(g.NumEdges(), 15u);
  EXPECT_TRUE(IsBipartite(g));
  EXPECT_EQ(g.Degree(0), 5u);
  EXPECT_EQ(g.Degree(3), 3u);
}

TEST(DeterministicGenTest, CavemanShape) {
  Graph g = gen::Caveman(4, 5);
  EXPECT_EQ(g.NumNodes(), 20u);
  EXPECT_EQ(g.NumEdges(), 4u * 10u + 4u);
  EXPECT_TRUE(IsConnected(g));
  EXPECT_FALSE(IsBipartite(g));
}

TEST(RandomGenTest, ErdosRenyiEdgeBudgetAndConnectivity) {
  Graph g = gen::ErdosRenyi(100, 300, 7);
  EXPECT_EQ(g.NumNodes(), 100u);
  EXPECT_EQ(g.NumEdges(), 300u);
  EXPECT_TRUE(IsConnected(g));
}

TEST(RandomGenTest, ErdosRenyiDeterministicInSeed) {
  Graph a = gen::ErdosRenyi(60, 150, 11);
  Graph b = gen::ErdosRenyi(60, 150, 11);
  Graph c = gen::ErdosRenyi(60, 150, 12);
  EXPECT_EQ(a.Edges(), b.Edges());
  EXPECT_NE(a.Edges(), c.Edges());
}

TEST(RandomGenTest, ErdosRenyiUnconnectedVariant) {
  Graph g = gen::ErdosRenyi(50, 30, 3, /*connect=*/false);
  EXPECT_EQ(g.NumEdges(), 30u);
}

TEST(RandomGenTest, BarabasiAlbertDegreesAndConnectivity) {
  Graph g = gen::BarabasiAlbert(300, 4, 99);
  EXPECT_EQ(g.NumNodes(), 300u);
  EXPECT_TRUE(IsConnected(g));
  // Every non-seed node attaches 4 edges.
  EXPECT_GE(g.MinDegree(), 4u);
  // Preferential attachment produces a hub well above the minimum.
  EXPECT_GT(g.MaxDegree(), 12u);
}

TEST(RandomGenTest, BarabasiAlbertEdgeCount) {
  const NodeId n = 200;
  const NodeId epn = 3;
  Graph g = gen::BarabasiAlbert(n, epn, 5);
  // Seed clique of epn+1 nodes + (n − epn − 1) nodes × epn edges.
  const std::uint64_t expected =
      static_cast<std::uint64_t>(epn + 1) * epn / 2 +
      static_cast<std::uint64_t>(n - epn - 1) * epn;
  EXPECT_EQ(g.NumEdges(), expected);
}

TEST(RandomGenTest, WattsStrogatzShape) {
  Graph g = gen::WattsStrogatz(500, 3, 0.1, 21);
  EXPECT_TRUE(IsConnected(g));
  // Average degree ≈ 2k = 6 (minus rare rewire collisions / LCC trim).
  EXPECT_NEAR(g.AverageDegree(), 6.0, 0.8);
}

TEST(RandomGenTest, WattsStrogatzZeroBetaIsRingLattice) {
  Graph g = gen::WattsStrogatz(40, 2, 0.0, 4);
  EXPECT_EQ(g.NumEdges(), 80u);
  for (NodeId v = 0; v < 40; ++v) EXPECT_EQ(g.Degree(v), 4u);
}

TEST(RandomGenTest, RMatConnectedPowerLaw) {
  Graph g = gen::RMat(10, 8, 17);
  EXPECT_TRUE(IsConnected(g));
  EXPECT_GT(g.NumNodes(), 500u);
  // Heavy tail: max degree far above average.
  EXPECT_GT(static_cast<double>(g.MaxDegree()), 4.0 * g.AverageDegree());
}

TEST(RandomGenTest, RMatDeterministicInSeed) {
  Graph a = gen::RMat(8, 4, 5);
  Graph b = gen::RMat(8, 4, 5);
  EXPECT_EQ(a.Edges(), b.Edges());
}

// R-MAT's serial sampling loop, kept as the reference RMat must match
// byte for byte: attempts in stream order, each deduplicated as it comes.
Graph SerialRMat(std::uint32_t scale, std::uint64_t edge_factor,
                 std::uint64_t seed, double a = 0.57, double b = 0.19,
                 double c = 0.19) {
  const double d = 1.0 - a - b - c;
  const NodeId n = static_cast<NodeId>(1u) << scale;
  const std::uint64_t target_edges = edge_factor * n;
  Rng rng(seed);
  GraphBuilder builder(n);
  std::unordered_set<std::uint64_t> seen;
  std::uint64_t attempts = 0;
  const std::uint64_t max_attempts = target_edges * 8;
  while (seen.size() < target_edges && attempts < max_attempts) {
    ++attempts;
    NodeId u = 0;
    NodeId v = 0;
    for (std::uint32_t bit = 0; bit < scale; ++bit) {
      const double p = rng.NextDouble();
      const double noise = 0.95 + 0.1 * rng.NextDouble();
      const double aa = a * noise;
      const double bb = b * noise;
      const double cc = c * noise;
      const double total = aa + bb + cc + d * noise;
      const NodeId below1 = p < aa / total;
      const NodeId below2 = p < (aa + bb) / total;
      const NodeId below3 = p < (aa + bb + cc) / total;
      u = (u << 1) | ((below1 | below2) ^ 1);
      v = (v << 1) | ((below1 ^ 1) & (below2 | (below3 ^ 1)));
    }
    if (u == v) continue;
    const std::uint64_t key = (static_cast<std::uint64_t>(std::min(u, v))
                               << 32) | std::max(u, v);
    if (seen.insert(key).second) builder.AddEdge(u, v);
  }
  return LargestConnectedComponent(builder.Build());
}

// Runs `fn` with this thread's affinity mask narrowed to its first
// `cpus` CPUs, then restores the mask. RMat sizes its team from the mask,
// and the team's threads inherit it.
template <typename Fn>
void WithCpus(int cpus, Fn fn) {
  cpu_set_t original;
  ASSERT_EQ(sched_getaffinity(0, sizeof(original), &original), 0);
  cpu_set_t narrowed;
  CPU_ZERO(&narrowed);
  int kept = 0;
  for (int cpu = 0; cpu < CPU_SETSIZE && kept < cpus; ++cpu) {
    if (CPU_ISSET(cpu, &original)) {
      CPU_SET(cpu, &narrowed);
      ++kept;
    }
  }
  ASSERT_EQ(sched_setaffinity(0, sizeof(narrowed), &narrowed), 0);
  ASSERT_EQ(ResolveWorkerCount(0, 1000), cpus);
  fn();
  ASSERT_EQ(sched_setaffinity(0, sizeof(original), &original), 0);
}

void ExpectSameCsr(const Graph& actual, const Graph& expected,
                   const std::string& label) {
  EXPECT_EQ(actual.NumNodes(), expected.NumNodes()) << label;
  EXPECT_TRUE(actual.Offsets() == expected.Offsets()) << label;
  EXPECT_TRUE(actual.NeighborArray() == expected.NeighborArray()) << label;
}

struct RMatCase {
  std::uint32_t scale;
  std::uint64_t edge_factor;
  std::uint64_t seed;
  double a = 0.57;
  double b = 0.19;
  double c = 0.19;
};

// RMat against the serial loop, on one thread and on the full team.
// (14, 8) and (15, 3) take several rounds and several chunks per team
// thread; in (4, 8) and (9, 300) the max_attempts cap binds (128 of 120
// possible edges; 153,600 of 130,816), the latter over dozens of rounds
// on the team. (13, 16) uses other quadrant probabilities.
TEST(RandomGenTest, RMatMatchesSerialLoopBytewise) {
  const RMatCase cases[] = {
      {4, 8, 3},      {8, 4, 5},       {10, 9, 0x15},
      {11, 5, 0x2A},  {14, 8, 0x51},   {15, 3, 0x17},
      {9, 300, 0x0C}, {13, 16, 9, 0.45, 0.15, 0.15},
  };
  const int all_cpus = ResolveWorkerCount(0, 1000);
  for (const RMatCase& c : cases) {
    const Graph expected =
        SerialRMat(c.scale, c.edge_factor, c.seed, c.a, c.b, c.c);
    for (int cpus : {1, all_cpus}) {
      const std::string label =
          "RMat(" + std::to_string(c.scale) + ", " +
          std::to_string(c.edge_factor) + ", " + std::to_string(c.seed) +
          ", " + std::to_string(c.a) + ", " + std::to_string(c.b) + ", " +
          std::to_string(c.c) + ") on " + std::to_string(cpus) + " cpus";
      WithCpus(cpus, [&] {
        ExpectSameCsr(
            gen::RMat(c.scale, c.edge_factor, c.seed, c.a, c.b, c.c),
            expected, label);
      });
    }
  }
}

TEST(RandomGenTest, SbmBlockStructure) {
  Graph g = gen::StochasticBlockModel(4, 25, 0.5, 0.01, 13);
  EXPECT_TRUE(IsConnected(g));
  EXPECT_GT(g.NumEdges(), 400u);  // ~4 · (25·24/2 · 0.5) intra alone
}

TEST(RunningExampleTest, MatchesPaperDegrees) {
  gen::RunningExample ex = gen::Fig2RunningExample();
  EXPECT_EQ(ex.graph.NumNodes(), 11u);
  EXPECT_EQ(ex.graph.Degree(ex.s), 2u);
  EXPECT_EQ(ex.graph.Degree(ex.t), 7u);
  EXPECT_TRUE(IsConnected(ex.graph));
  EXPECT_FALSE(IsBipartite(ex.graph));
}

}  // namespace
}  // namespace geer
