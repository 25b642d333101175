#include "embed/er_embedding.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/exact.h"
#include "graph/generators.h"
#include "graph/weighted_generators.h"
#include "linalg/laplacian_solver.h"

namespace geer {
namespace {

TEST(ErEmbeddingTest, DimensionDerivation) {
  ErEmbeddingOptions opt;
  opt.epsilon = 0.5;
  const int k = ErEmbedding::DeriveDimensions(1000, opt);
  EXPECT_EQ(k, static_cast<int>(std::ceil(24.0 * std::log(1000.0) / 0.25)));
  opt.dimensions = 77;
  EXPECT_EQ(ErEmbedding::DeriveDimensions(1000, opt), 77);
}

TEST(ErEmbeddingTest, PairwiseWithinRelativeError) {
  Graph g = gen::BarabasiAlbert(60, 4, 3);
  ErEmbeddingOptions opt;
  opt.epsilon = 0.25;
  opt.seed = 7;
  ErEmbedding embedding(g, opt);
  ExactEstimator exact(g);
  for (auto [s, t] :
       {std::pair<NodeId, NodeId>{0, 30}, {5, 59}, {12, 13}, {7, 40}}) {
    const double truth = exact.Estimate(s, t);
    EXPECT_NEAR(embedding.PairwiseEr(s, t), truth,
                opt.epsilon * truth + 0.02)
        << "(" << s << "," << t << ")";
  }
}

TEST(ErEmbeddingTest, SelfDistanceZero) {
  Graph g = gen::Complete(10);
  ErEmbedding embedding(g, {.dimensions = 32});
  EXPECT_DOUBLE_EQ(embedding.PairwiseEr(4, 4), 0.0);
}

TEST(ErEmbeddingTest, SingleSourceMatchesPairwise) {
  Graph g = gen::ErdosRenyi(50, 200, 5);
  ErEmbedding embedding(g, {.dimensions = 64, .seed = 9});
  Vector er;
  embedding.SingleSource(17, &er);
  ASSERT_EQ(er.size(), g.NumNodes());
  EXPECT_DOUBLE_EQ(er[17], 0.0);
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    EXPECT_NEAR(er[v], embedding.PairwiseEr(17, v), 1e-12);
  }
}

TEST(ErEmbeddingTest, TopKNearestSortedAndConsistent) {
  Graph g = gen::BarabasiAlbert(80, 3, 11);
  ErEmbedding embedding(g, {.dimensions = 48, .seed = 13});
  const auto top = embedding.TopKNearest(0, 10);
  ASSERT_EQ(top.size(), 10u);
  Vector er;
  embedding.SingleSource(0, &er);
  for (std::size_t i = 0; i < top.size(); ++i) {
    EXPECT_NE(top[i].node, 0u);
    EXPECT_NEAR(top[i].er, er[top[i].node], 1e-12);
    if (i > 0) EXPECT_GE(top[i].er, top[i - 1].er);
  }
  // Nothing outside the top-10 may beat the 10th.
  for (NodeId v = 1; v < g.NumNodes(); ++v) {
    const bool in_top =
        std::any_of(top.begin(), top.end(),
                    [v](const ErNeighbor& nb) { return nb.node == v; });
    if (!in_top) EXPECT_GE(er[v], top.back().er - 1e-12);
  }
}

TEST(ErEmbeddingTest, TopKNearestPrefersDirectNeighborsOnStarlike) {
  // On K12 every other node is at ER 2/12 from node 3. ε = 0.3
  // (k = 663) keeps the JL error inside the 0.05 tolerance on every seed
  // tried; k = 64 misses it on about half of them.
  Graph g = gen::Complete(12);
  ErEmbedding embedding(g, {.epsilon = 0.3, .seed = 15});
  const auto top = embedding.TopKNearest(3, 11);
  EXPECT_EQ(top.size(), 11u);  // everyone else, all at ER 2/12
  for (const auto& nb : top) EXPECT_NEAR(nb.er, 2.0 / 12.0, 0.05);
}

TEST(ErEmbeddingTest, CountLargerThanGraphClamps) {
  Graph g = gen::Complete(6);
  ErEmbedding embedding(g, {.dimensions = 16});
  EXPECT_EQ(embedding.TopKNearest(0, 100).size(), 5u);
}

TEST(ErEmbeddingTest, AllEdgeErMatchesPairwiseInEdgeOrder) {
  Graph g = gen::ErdosRenyi(40, 100, 17);
  ErEmbedding embedding(g, {.dimensions = 40, .seed = 19});
  const auto edge_er = embedding.AllEdgeEr(g);
  const auto edges = g.Edges();
  ASSERT_EQ(edge_er.size(), edges.size());
  for (std::size_t e = 0; e < edges.size(); ++e) {
    EXPECT_NEAR(edge_er[e],
                embedding.PairwiseEr(edges[e].first, edges[e].second),
                1e-12);
  }
}

TEST(ErEmbeddingTest, DeterministicInSeed) {
  Graph g = gen::BarabasiAlbert(40, 3, 23);
  ErEmbedding a(g, {.dimensions = 24, .seed = 42});
  ErEmbedding b(g, {.dimensions = 24, .seed = 42});
  ErEmbedding c(g, {.dimensions = 24, .seed = 43});
  EXPECT_DOUBLE_EQ(a.PairwiseEr(1, 20), b.PairwiseEr(1, 20));
  EXPECT_NE(a.PairwiseEr(1, 20), c.PairwiseEr(1, 20));
}

TEST(ErEmbeddingTest, WeightedEmbeddingTracksWeightedOracle) {
  WeightedGraph g = gen::TriangulatedGridCircuit(5, 5, 0.5, 2.0, 25);
  ErEmbeddingOptions opt;
  opt.epsilon = 0.25;
  opt.seed = 27;
  ErEmbedding embedding(g, opt);
  WeightedLaplacianSolver oracle(g);
  for (auto [s, t] : {std::pair<NodeId, NodeId>{0, 24}, {3, 17}, {10, 11}}) {
    const double truth = oracle.EffectiveResistance(s, t);
    EXPECT_NEAR(embedding.PairwiseEr(s, t), truth,
                opt.epsilon * truth + 0.02);
  }
}

TEST(ErEmbeddingTest, WeightedUnitWeightsMatchUnweightedStatistically) {
  Graph g = gen::ErdosRenyi(40, 150, 29);
  WeightedGraph wg = FromUnweighted(g);
  ErEmbedding uw(g, {.dimensions = 256, .seed = 31});
  ErEmbedding w(wg, {.dimensions = 256, .seed = 31});
  // Same seed and unit weights: identical projection rows, identical
  // tables up to solver tolerance.
  for (auto [s, t] : {std::pair<NodeId, NodeId>{0, 20}, {7, 35}}) {
    EXPECT_NEAR(uw.PairwiseEr(s, t), w.PairwiseEr(s, t), 1e-6);
  }
}

TEST(ErEmbeddingDeathTest, MemoryBudgetEnforced) {
  Graph g = gen::Complete(64);
  ErEmbeddingOptions opt;
  opt.dimensions = 1024;
  opt.max_bytes = 1024;  // absurdly small
  EXPECT_DEATH(ErEmbedding(g, opt), "max_bytes");
}

}  // namespace
}  // namespace geer
