// RP answers from the library's one JL sketch: RpEstimatorT<WP>'s
// Estimate is ErEmbedding::PairwiseEr on an embedding built from the same
// options, bit for bit, before and after an epoch rebind; and the one k
// formula stays well-defined where ⌈24 ln n / ε²⌉ exceeds INT_MAX.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>

#include "core/rp.h"
#include "embed/er_embedding.h"
#include "graph/generators.h"
#include "graph/weighted_generators.h"

namespace geer {
namespace {

template <typename GraphT>
void ExpectRpMatchesEmbedding(ErEstimator& rp, const GraphT& graph,
                              const ErEmbedding& embedding) {
  ASSERT_EQ(embedding.NumNodes(), graph.NumNodes());
  for (NodeId s = 0; s < graph.NumNodes(); ++s) {
    for (NodeId t = s; t < graph.NumNodes(); ++t) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(rp.Estimate(s, t)),
                std::bit_cast<std::uint64_t>(embedding.PairwiseEr(s, t)))
          << "(" << s << "," << t << ")";
    }
  }
}

// Builds RP on `g1`, checks it against an embedding of `g1`, then rebinds
// RP and a batch clone of it to `g2` at epoch 1 — the first rebind
// builds, the clone adopts — and checks both against an embedding of `g2`.
template <WeightPolicy WP>
void CheckRpIsEmbeddingQuery(const typename WP::GraphT& g1,
                             const typename WP::GraphT& g2) {
  ErOptions opt;
  opt.epsilon = 0.5;
  opt.seed = 77;
  const ErEmbeddingOptions eopt{.epsilon = opt.epsilon, .seed = opt.seed};

  RpEstimatorT<WP> rp(g1, opt);
  const ErEmbedding before(g1, eopt);
  EXPECT_EQ(rp.Dimensions(), before.Dimensions());
  ExpectRpMatchesEmbedding(rp, g1, before);

  std::unique_ptr<ErEstimator> clone = rp.CloneForBatch();
  GraphEpoch epoch;
  epoch.epoch = 1;
  ASSERT_TRUE(rp.RebindGraph(g2, epoch));
  ASSERT_TRUE(clone->RebindGraph(g2, epoch));
  const ErEmbedding after(g2, eopt);
  ExpectRpMatchesEmbedding(rp, g2, after);
  ExpectRpMatchesEmbedding(*clone, g2, after);
  EXPECT_NE(after.PairwiseEr(0, 1), before.PairwiseEr(0, 1));
}

TEST(RpSketchTest, UnitWeightEstimateIsEmbeddingPairwiseEr) {
  const Graph g1 = gen::BarabasiAlbert(60, 3, 5);
  const Graph g2 = gen::BarabasiAlbert(60, 4, 6);
  CheckRpIsEmbeddingQuery<UnitWeight>(g1, g2);
}

TEST(RpSketchTest, EdgeWeightEstimateIsEmbeddingPairwiseEr) {
  const WeightedGraph g1 =
      gen::WithUniformWeights(gen::BarabasiAlbert(60, 3, 5), 0.5, 2.0, 7);
  const WeightedGraph g2 =
      gen::WithUniformWeights(gen::BarabasiAlbert(60, 4, 6), 0.5, 2.0, 8);
  CheckRpIsEmbeddingQuery<EdgeWeight>(g1, g2);
}

TEST(RpSketchTest, DimensionsBeyondIntMaxAreInfeasibleNotWrapped) {
  // 24 ln 3 / 1e-8 ≈ 2.64e9 > INT_MAX: k saturates, and the sketch is
  // infeasible under the default budget and under an unlimited one.
  const Graph g = gen::Complete(3);
  ErOptions opt;
  opt.epsilon = 1e-4;
  EXPECT_GT(RpEstimator::DeriveDimensions(g, opt), 0);
  EXPECT_FALSE(RpEstimator::Feasible(g, opt));
  opt.rp_max_bytes = std::numeric_limits<std::uint64_t>::max();
  EXPECT_GT(RpEstimator::DeriveDimensions(g, opt), 0);
  EXPECT_FALSE(RpEstimator::Feasible(g, opt));
}

TEST(RpSketchDeathTest, DimensionsBeyondIntMaxDieNamingTheBudget) {
  const Graph g = gen::Complete(3);
  ErOptions opt;
  opt.epsilon = 1e-4;
  EXPECT_DEATH(RpEstimator(g, opt), "rp_max_bytes");
}

}  // namespace
}  // namespace geer
