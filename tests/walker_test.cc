#include "rw/walker.h"

#include <gtest/gtest.h>

#include <vector>

#include "graph/generators.h"
#include "graph/weighted_generators.h"
#include "rw/alias.h"
#include "test_util.h"

namespace geer {
namespace {

TEST(WalkerTest, StepStaysOnNeighbors) {
  Graph g = testing::TriangleWithTail();
  Walker walker(g);
  Rng rng(1);
  for (int i = 0; i < 200; ++i) {
    const NodeId next = walker.Step(2, rng);
    EXPECT_TRUE(g.HasEdge(2, next));
  }
}

TEST(WalkerTest, StepIsUniformOverNeighbors) {
  Graph g = gen::Star(5);  // hub 0 with leaves 1..4
  Walker walker(g);
  Rng rng(2);
  std::vector<int> counts(5, 0);
  const int n = 40000;
  for (int i = 0; i < n; ++i) ++counts[walker.Step(0, rng)];
  for (NodeId leaf = 1; leaf < 5; ++leaf) {
    EXPECT_NEAR(counts[leaf], n / 4, 400);
  }
}

// Golden node sequences: the first 200 Step() calls from a fixed seed,
// plus the raw word after them. Step() runs through StepFromWords on
// pre-drawn words; these pin that it still visits exactly the nodes, and
// consumes exactly the words, of the draw-as-you-go step.
TEST(WalkerTest, StepSequenceIsPinned) {
  const NodeId golden[200] = {
      5,  8,  10, 2,  0,  6,  10, 2,  8,  10, 11, 1,  0,  2,  10, 3,  9,
      3,  10, 3,  2,  10, 3,  7,  5,  8,  3,  4,  9,  4,  7,  10, 9,  10,
      9,  3,  10, 5,  0,  4,  9,  2,  6,  0,  11, 9,  6,  10, 9,  7,  1,
      0,  11, 5,  7,  0,  1,  8,  2,  0,  6,  0,  3,  10, 1,  2,  11, 4,
      8,  10, 0,  7,  8,  2,  10, 1,  9,  6,  3,  10, 0,  10, 9,  2,  1,
      8,  4,  0,  3,  5,  3,  7,  6,  10, 11, 1,  11, 10, 1,  7,  2,  7,
      9,  6,  1,  7,  3,  8,  1,  4,  1,  9,  4,  2,  1,  4,  1,  9,  2,
      9,  3,  6,  9,  1,  9,  3,  1,  0,  6,  4,  9,  0,  10, 7,  9,  0,
      23, 22, 23, 0,  6,  5,  10, 8,  10, 3,  0,  2,  9,  2,  9,  5,  2,
      4,  1,  8,  3,  0,  23, 22, 21, 20, 21, 22, 21, 20, 19, 18, 17, 18,
      17, 16, 15, 14, 13, 14, 15, 16, 15, 14, 13, 14, 15, 16, 15, 14, 13,
      12, 13, 12, 13, 14, 15, 14, 15, 14, 15, 14, 15, 14};
  Graph g = testing::DenseTestGraph(24);
  Walker walker(g);
  Rng rng(77);
  NodeId cur = 0;
  for (int i = 0; i < 200; ++i) {
    cur = walker.Step(cur, rng);
    ASSERT_EQ(cur, golden[i]) << "step " << i;
  }
  EXPECT_EQ(rng.Next(), 0xa04a2ee884a32fa8ull);
}

TEST(WalkerTest, WeightedStepSequenceIsPinned) {
  const NodeId golden[200] = {
      6,  1,  2,  7,  13, 19, 18, 12, 6,  7,  8,  14, 13, 19, 13, 12, 6,
      1,  0,  1,  6,  12, 17, 16, 17, 16, 15, 10, 16, 15, 10, 15, 16, 15,
      16, 10, 11, 16, 17, 12, 18, 12, 17, 18, 19, 18, 19, 13, 14, 8,  9,
      4,  3,  2,  1,  0,  5,  6,  0,  1,  0,  1,  0,  5,  11, 5,  0,  5,
      6,  7,  8,  9,  14, 8,  13, 19, 14, 8,  14, 9,  14, 19, 13, 7,  8,
      2,  3,  9,  14, 8,  9,  8,  14, 9,  4,  9,  14, 13, 7,  8,  2,  3,
      8,  2,  1,  0,  6,  12, 11, 5,  11, 6,  5,  11, 6,  5,  10, 11, 17,
      11, 12, 6,  12, 6,  1,  2,  1,  2,  3,  8,  2,  8,  14, 9,  4,  3,
      2,  3,  9,  8,  13, 19, 13, 19, 18, 12, 13, 8,  7,  2,  8,  13, 12,
      6,  1,  6,  1,  6,  12, 13, 7,  12, 13, 12, 11, 17, 18, 19, 18, 12,
      13, 19, 18, 17, 16, 15, 16, 15, 10, 11, 6,  12, 13, 14, 9,  4,  9,
      14, 8,  14, 9,  3,  8,  9,  3,  4,  3,  9,  14, 9};
  WeightedGraph g = gen::TriangulatedGridCircuit(4, 5, 0.5, 2.0, 11);
  WeightedWalker walker(g);
  Rng rng(78);
  NodeId cur = 0;
  for (int i = 0; i < 200; ++i) {
    cur = walker.Step(cur, rng);
    ASSERT_EQ(cur, golden[i]) << "step " << i;
  }
  EXPECT_EQ(rng.Next(), 0x846a0c096624e3d2ull);
}

TEST(WalkerTest, StepFromWordsMatchesStep) {
  // The pure step on the words Step() would draw lands where Step() does.
  Graph g = testing::DenseTestGraph(12);
  Walker walker(g);
  Rng rng(9);
  Rng words_rng(9);
  NodeId cur = 3;
  for (int i = 0; i < 100; ++i) {
    const std::uint64_t word = words_rng.Next();
    const WordStep step = walker.StepFromWords(cur, &word);
    ASSERT_FALSE(step.needs_more);
    cur = walker.Step(cur, rng);
    ASSERT_EQ(step.next, cur);
  }
}

TEST(WalkerTest, WalkEndpointZeroLengthIsSource) {
  Graph g = gen::Cycle(5);
  Walker walker(g);
  Rng rng(3);
  EXPECT_EQ(walker.WalkEndpoint(2, 0, rng), 2u);
}

TEST(WalkerTest, WalkPathHasRequestedLength) {
  Graph g = gen::Cycle(7);
  Walker walker(g);
  Rng rng(4);
  std::vector<NodeId> path;
  walker.WalkPath(3, 10, rng, &path);
  ASSERT_EQ(path.size(), 10u);
  // Consecutive nodes adjacent; first node adjacent to source.
  EXPECT_TRUE(g.HasEdge(3, path[0]));
  for (std::size_t i = 1; i < path.size(); ++i) {
    EXPECT_TRUE(g.HasEdge(path[i - 1], path[i]));
  }
}

TEST(WalkerTest, WalkDistributionMatchesTransitionPower) {
  // Empirical endpoint distribution of length-2 walks from node 0 on the
  // triangle-with-tail graph vs exact p_2(0, ·).
  Graph g = testing::TriangleWithTail();
  Walker walker(g);
  Rng rng(5);
  std::vector<int> counts(g.NumNodes(), 0);
  const int n = 200000;
  for (int i = 0; i < n; ++i) ++counts[walker.WalkEndpoint(0, 2, rng)];
  // p_2(0,·): from 0 → {1,2} each 1/2; then from 1 → {0,2}/2,
  // from 2 → {0,1,3}/3. p_2(0,0)=1/4+1/6, p_2(0,1)=1/6, p_2(0,2)=1/4,
  // p_2(0,3)=1/6.
  const double expected[5] = {1.0 / 4 + 1.0 / 6, 1.0 / 6, 1.0 / 4, 1.0 / 6,
                              0.0};
  for (NodeId v = 0; v < 5; ++v) {
    EXPECT_NEAR(counts[v] / static_cast<double>(n), expected[v], 0.005)
        << "node " << v;
  }
}

TEST(WalkerTest, EscapeTrialProbabilityMatchesTheory) {
  // Pr[hit t before returning to s] = 1/(d(s)·r(s,t)).
  Graph g = testing::DenseTestGraph(12);
  const NodeId s = 0;
  const NodeId t = 7;
  const double r = testing::ExactEr(g, s, t);
  const double p_escape = 1.0 / (static_cast<double>(g.Degree(s)) * r);
  Walker walker(g);
  Rng rng(6);
  const int n = 150000;
  int hits = 0;
  for (int i = 0; i < n; ++i) {
    if (walker.EscapeTrial(s, t, 1u << 20, rng).outcome ==
        Walker::Absorption::kHitTarget) {
      ++hits;
    }
  }
  EXPECT_NEAR(hits / static_cast<double>(n), p_escape, 0.01);
}

TEST(WalkerTest, EscapeTrialStepLimit) {
  Graph g = gen::Path(50);
  Walker walker(g);
  Rng rng(7);
  int limited = 0;
  for (int i = 0; i < 50; ++i) {
    const WalkEscape trial = walker.EscapeTrial(0, 49, 3, rng);
    if (trial.outcome == Walker::Absorption::kStepLimit) {
      ++limited;
      EXPECT_EQ(trial.steps, 4u);  // the first step plus max_steps more
    } else {
      // From 0 the walk is back at 0 after 2 steps (0→1→0), else capped.
      EXPECT_TRUE(trial.outcome == Walker::Absorption::kReturned);
      EXPECT_EQ(trial.steps, 2u);
    }
  }
  EXPECT_GT(limited, 0);  // can't reach node 49 in 3 steps
}

TEST(WalkerTest, FirstVisitProbabilityEqualsEdgeEr) {
  // For (s,t) ∈ E: Pr[first visit to t uses edge (s,t)] = r(s,t).
  Graph g = testing::DenseTestGraph(12);
  const NodeId s = 0;
  const NodeId t = 1;
  ASSERT_TRUE(g.HasEdge(s, t));
  const double r = testing::ExactEr(g, s, t);
  Walker walker(g);
  Rng rng(8);
  const int n = 150000;
  int direct = 0;
  for (int i = 0; i < n; ++i) {
    const auto trial = walker.FirstVisitTrial(s, t, 1u << 20, rng);
    ASSERT_TRUE(trial.hit);
    if (trial.used_direct_edge) ++direct;
  }
  EXPECT_NEAR(direct / static_cast<double>(n), r, 0.01);
}

}  // namespace
}  // namespace geer
