#include "sparsify/spectral_sparsifier.h"

#include <gtest/gtest.h>

#include <cmath>

#include "embed/er_embedding.h"
#include "graph/algorithms.h"
#include "graph/generators.h"
#include "linalg/laplacian_solver.h"
#include "graph/weighted_generators.h"

namespace geer {
namespace {

std::vector<double> ExactEdgeEr(const Graph& g) {
  LaplacianSolver solver(g);
  std::vector<double> er;
  for (const auto& [u, v] : g.Edges()) {
    er.push_back(solver.EffectiveResistance(u, v));
  }
  return er;
}

TEST(SparsifierTest, SampleCountFormula) {
  SparsifierOptions opt;
  opt.epsilon = 0.5;
  const double expected = 9.0 * 1000.0 * std::log(1000.0) / 0.25;
  EXPECT_EQ(SparsifierSampleCount(1000, opt),
            static_cast<std::uint64_t>(std::ceil(expected)));
  opt.oversample = 0.5;
  EXPECT_EQ(SparsifierSampleCount(1000, opt),
            static_cast<std::uint64_t>(std::ceil(0.5 * expected)));
}

TEST(SparsifierTest, PreservesQuadraticFormOnDenseGraph) {
  Graph g = gen::ErdosRenyi(120, 2500, 3);
  const auto er = ExactEdgeEr(g);
  SparsifierOptions opt;
  opt.epsilon = 0.5;
  opt.seed = 7;
  WeightedGraph h = SparsifyByEffectiveResistance(g, er, opt);
  const SparsifierQuality q = EvaluateSparsifier(g, h, 10, 11);
  EXPECT_LT(q.worst_ratio, 1.6);
  EXPECT_NEAR(q.mean_ratio, 1.0, 0.25);
}

TEST(SparsifierTest, ReducesEdgeCountOnDenseGraph) {
  // With m >> q's distinct support, the sparsifier must actually sparsify.
  Graph g = gen::ErdosRenyi(100, 3000, 5);
  const auto er = ExactEdgeEr(g);
  SparsifierOptions opt;
  opt.samples = 1500;
  opt.seed = 9;
  WeightedGraph h = SparsifyByEffectiveResistance(g, er, opt);
  EXPECT_LT(h.NumEdges(), g.NumEdges());
  EXPECT_GT(h.NumEdges(), 0u);
}

TEST(SparsifierTest, TotalWeightNearOriginal) {
  // E[w_H(e) summed] = total original weight: the estimator is unbiased.
  Graph g = gen::ErdosRenyi(80, 1500, 13);
  const auto er = ExactEdgeEr(g);
  SparsifierOptions opt;
  opt.epsilon = 0.4;
  opt.seed = 15;
  WeightedGraph h = SparsifyByEffectiveResistance(g, er, opt);
  EXPECT_NEAR(h.TotalWeight(), static_cast<double>(g.NumEdges()),
              0.15 * static_cast<double>(g.NumEdges()));
}

TEST(SparsifierTest, KeepsGraphConnectedWithEnoughSamples) {
  Graph g = gen::BarabasiAlbert(100, 4, 17);
  const auto er = ExactEdgeEr(g);
  SparsifierOptions opt;
  opt.epsilon = 0.5;
  opt.seed = 19;
  WeightedGraph h = SparsifyByEffectiveResistance(g, er, opt);
  EXPECT_TRUE(IsConnected(h.Skeleton()));
}

TEST(SparsifierTest, BridgeAlwaysSurvives) {
  // A bridge has r(e) = 1, the maximum leverage: with q ≳ n log n samples
  // it is kept with overwhelming probability (losing it disconnects H).
  Graph g = gen::Barbell(8, 1);
  const auto er = ExactEdgeEr(g);
  SparsifierOptions opt;
  opt.epsilon = 0.5;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    opt.seed = seed;
    WeightedGraph h = SparsifyByEffectiveResistance(g, er, opt);
    EXPECT_TRUE(IsConnected(h.Skeleton())) << "seed " << seed;
  }
}

TEST(SparsifierTest, EmbeddingProvidedErWorksEndToEnd) {
  // The intended pipeline: embed once, sparsify from the bulk edge ERs.
  Graph g = gen::ErdosRenyi(100, 2000, 21);
  ErEmbedding embedding(g, {.dimensions = 96, .seed = 23});
  const auto er = embedding.AllEdgeEr(g);
  SparsifierOptions opt;
  opt.epsilon = 0.5;
  opt.seed = 25;
  WeightedGraph h = SparsifyByEffectiveResistance(g, er, opt);
  const SparsifierQuality q = EvaluateSparsifier(g, h, 8, 27);
  EXPECT_LT(q.worst_ratio, 1.8);
}

TEST(SparsifierTest, WeightedOriginalRoundTrips) {
  WeightedGraph g = gen::WithUniformWeights(gen::ErdosRenyi(90, 1800, 29),
                                            0.5, 2.0, 31);
  ErEmbedding embedding(g, {.dimensions = 96, .seed = 33});
  const auto er = embedding.AllEdgeEr(g);
  SparsifierOptions opt;
  opt.epsilon = 0.5;
  opt.seed = 35;
  WeightedGraph h = SparsifyByEffectiveResistance(g, er, opt);
  const SparsifierQuality q = EvaluateSparsifier(g, h, 8, 37);
  EXPECT_LT(q.worst_ratio, 1.8);
  EXPECT_LT(h.NumEdges(), g.NumEdges());
}

TEST(SparsifierTest, OversampleTradesSparsityForQuality) {
  Graph g = gen::ErdosRenyi(100, 2400, 39);
  const auto er = ExactEdgeEr(g);
  SparsifierOptions sparse_opt;
  sparse_opt.epsilon = 0.5;
  sparse_opt.oversample = 0.1;
  sparse_opt.seed = 41;
  SparsifierOptions dense_opt = sparse_opt;
  dense_opt.oversample = 2.0;
  WeightedGraph h_sparse = SparsifyByEffectiveResistance(g, er, sparse_opt);
  WeightedGraph h_dense = SparsifyByEffectiveResistance(g, er, dense_opt);
  EXPECT_LT(h_sparse.NumEdges(), h_dense.NumEdges());
  const auto q_sparse = EvaluateSparsifier(g, h_sparse, 8, 43);
  const auto q_dense = EvaluateSparsifier(g, h_dense, 8, 43);
  EXPECT_LE(q_dense.worst_ratio, q_sparse.worst_ratio + 0.05);
}

TEST(SparsifierTest, DeterministicInSeed) {
  Graph g = gen::ErdosRenyi(60, 600, 45);
  const auto er = ExactEdgeEr(g);
  SparsifierOptions opt;
  opt.epsilon = 0.6;
  opt.seed = 47;
  WeightedGraph a = SparsifyByEffectiveResistance(g, er, opt);
  WeightedGraph b = SparsifyByEffectiveResistance(g, er, opt);
  EXPECT_EQ(a.WeightArray(), b.WeightArray());
  EXPECT_EQ(a.NeighborArray(), b.NeighborArray());
}

TEST(SparsifierDeathTest, MismatchedErVectorRejected) {
  Graph g = gen::Complete(10);
  std::vector<double> er(3, 0.5);  // wrong size
  SparsifierOptions opt;
  EXPECT_DEATH(SparsifyByEffectiveResistance(g, er, opt), "per edge");
}

}  // namespace
}  // namespace geer
