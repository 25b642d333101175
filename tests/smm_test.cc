#include "core/smm.h"

#include <gtest/gtest.h>

#include <string>

#include "core/ell.h"
#include "graph/generators.h"
#include "graph/weighted_generators.h"
#include "linalg/spectral.h"
#include "test_util.h"

namespace geer {
namespace {

TEST(SmmIteratorTest, IteratesMatchTransitionPowers) {
  // s*(v) after i iterations = p_i(v, s).
  Graph g = testing::TriangleWithTail();
  TransitionOperator op(g);
  SmmIterator iter(g, &op, 0, 4);
  iter.Advance();
  // p_1(v, 0) = 1/d(v) for v ∈ N(0) = {1, 2}.
  EXPECT_NEAR(iter.svec()[1], 0.5, 1e-12);
  EXPECT_NEAR(iter.svec()[2], 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(iter.svec()[0], 0.0, 1e-12);
}

TEST(SmmIteratorTest, RbConvergesToTrueEr) {
  Graph g = testing::DenseTestGraph(16);
  const double truth = testing::ExactEr(g, 0, 9);
  TransitionOperator op(g);
  SmmIterator iter(g, &op, 0, 9);
  for (int i = 0; i < 400; ++i) iter.Advance();
  EXPECT_NEAR(iter.rb(), truth, 1e-9);
}

TEST(SmmIteratorTest, RbMonotoneTowardLimitOnNonBipartite) {
  // Partial sums approach r from below... not guaranteed monotone in
  // general, but the truncation error bound shrinks geometrically; check
  // the error after k iterations is ≤ C λ^k.
  Graph g = testing::DenseTestGraph(16);
  SpectralBounds sb = ComputeSpectralBounds(g);
  const double truth = testing::ExactEr(g, 2, 11);
  TransitionOperator op(g);
  SmmIterator iter(g, &op, 2, 11);
  for (int i = 0; i < 60; ++i) iter.Advance();
  const double tail_bound = std::pow(sb.lambda, 61.0) / (1.0 - sb.lambda) *
                            (1.0 / g.Degree(2) + 1.0 / g.Degree(11));
  EXPECT_LE(std::abs(iter.rb() - truth), tail_bound + 1e-9);
}

TEST(SmmIteratorTest, SpmvOpsAccumulate) {
  Graph g = gen::Complete(12);
  TransitionOperator op(g);
  SmmIterator iter(g, &op, 0, 1);
  EXPECT_EQ(iter.spmv_ops(), 0u);
  iter.Advance();
  EXPECT_GT(iter.spmv_ops(), 0u);
  const std::uint64_t after_one = iter.spmv_ops();
  iter.Advance();
  EXPECT_GT(iter.spmv_ops(), after_one);
}

TEST(SmmIteratorTest, NextIterationCostIsSupportDegreeSum) {
  Graph g = gen::Star(8);
  TransitionOperator op(g);
  SmmIterator iter(g, &op, 0, 3);  // hub and a leaf
  // supp(s*) = {0} (deg 7), supp(t*) = {3} (deg 1).
  EXPECT_EQ(iter.NextIterationCost(), 8u);
}

using testing::ExpectTopTwoOf;

// Every cached iterate's top-two, through the sparse steps and past the
// dense switch.
template <WeightPolicy WP>
void ExpectCachedTopTwos(const typename WP::GraphT& g, NodeId source) {
  TransitionOperatorT<WP> op(g);
  SmmSourceCacheT<WP> cache(g, &op, source);
  std::uint64_t fresh = 0;
  constexpr std::uint32_t kDepth = 10;
  cache.EnsureIterations(kDepth, &fresh);
  for (std::uint32_t j = 0; j <= kDepth; ++j) {
    ExpectTopTwoOf(cache.IterateTopTwo(j), cache.Iterate(j),
                   std::string(WP::kNamePrefix) + "iterate " +
                       std::to_string(j));
  }
  EXPECT_TRUE(cache.BoundaryState().dense);
}

TEST(SmmSourceCacheTest, IterateTopTwoMatchesFullScan) {
  const Graph g = gen::ErdosRenyi(60, 150, 3);
  ExpectCachedTopTwos<UnitWeight>(g, 7);
  ExpectCachedTopTwos<EdgeWeight>(gen::WithUniformWeights(g, 0.5, 2.0, 5),
                                  7);
}

// The iterator's top-two on both sides, with each side's stream capped at
// two iterates so it spills to a private copy from ℓ_b = 3 on.
template <WeightPolicy WP>
void ExpectIteratorTopTwos(const typename WP::GraphT& g, NodeId s,
                           NodeId t) {
  TransitionOperatorT<WP> op(g);
  SmmSourceCacheT<WP> s_cache(g, &op, s, /*max_cached=*/2);
  SmmSourceCacheT<WP> t_cache(g, &op, t, /*max_cached=*/2);
  SmmIteratorT<WP> cached(g, &op, s, t, &s_cache, &t_cache);
  SmmIteratorT<WP> uncached(g, &op, s, t);
  for (int i = 0; i <= 8; ++i) {
    const std::string where =
        std::string(WP::kNamePrefix) + "l_b " + std::to_string(i);
    ExpectTopTwoOf(cached.s_top_two(), cached.svec(), where + " cached s");
    ExpectTopTwoOf(cached.t_top_two(), cached.tvec(), where + " cached t");
    ExpectTopTwoOf(uncached.s_top_two(), uncached.svec(), where + " s");
    ExpectTopTwoOf(uncached.t_top_two(), uncached.tvec(), where + " t");
    cached.Advance();
    uncached.Advance();
  }
}

TEST(SmmIteratorTest, TopTwoMatchesFullScanPastTheCap) {
  const Graph g = gen::ErdosRenyi(60, 150, 3);
  ExpectIteratorTopTwos<UnitWeight>(g, 2, 41);
  ExpectIteratorTopTwos<EdgeWeight>(gen::WithUniformWeights(g, 0.5, 2.0, 5),
                                    2, 41);
}

TEST(SmmEstimatorTest, WithinEpsilonOfTruth) {
  Graph g = testing::DenseTestGraph(20);
  for (double eps : {0.5, 0.1, 0.02}) {
    ErOptions opt;
    opt.epsilon = eps;
    SmmEstimator smm(g, opt);
    for (auto [s, t] :
         {std::pair<NodeId, NodeId>{0, 10}, {1, 5}, {15, 19}}) {
      const double truth = testing::ExactEr(g, s, t);
      // SMM is deterministic: |r − r_ℓ| ≤ ε/2 guaranteed.
      EXPECT_LE(std::abs(smm.Estimate(s, t) - truth), eps / 2 + 1e-9)
          << "eps=" << eps << " s=" << s << " t=" << t;
    }
  }
}

TEST(SmmEstimatorTest, SameNodeZero) {
  // Regression: passing a temporary graph left the estimator with a
  // dangling pointer (caught by ASan); now rejected at compile time.
  Graph g = gen::Complete(6);
  SmmEstimator smm(g);
  EXPECT_DOUBLE_EQ(smm.Estimate(4, 4), 0.0);
}

TEST(SmmEstimatorTest, PengEllRunsLonger) {
  Graph g = testing::DenseTestGraph(24);
  ErOptions refined;
  refined.epsilon = 0.1;
  ErOptions peng = refined;
  peng.use_peng_ell = true;
  SmmEstimator smm_refined(g, refined);
  SmmEstimator smm_peng(g, peng);
  // High-degree pair: refined ℓ strictly shorter (Fig. 11's effect).
  QueryStats a = smm_refined.EstimateWithStats(0, 1);
  QueryStats b = smm_peng.EstimateWithStats(0, 1);
  EXPECT_LT(a.ell, b.ell);
  EXPECT_LE(a.spmv_ops, b.spmv_ops);
  // Both still within the deterministic guarantee.
  const double truth = testing::ExactEr(g, 0, 1);
  EXPECT_LE(std::abs(a.value - truth), 0.05 + 1e-9);
  EXPECT_LE(std::abs(b.value - truth), 0.05 + 1e-9);
}

TEST(SmmEstimatorTest, FixedIterationOverride) {
  Graph g = testing::DenseTestGraph(16);
  ErOptions opt;
  opt.smm_iterations = 123;
  SmmEstimator smm(g, opt);
  QueryStats stats = smm.EstimateWithStats(0, 5);
  EXPECT_EQ(stats.ell, 123u);
  EXPECT_EQ(stats.ell_b, 123u);
}

TEST(SmmEstimatorTest, GroundTruthModeIsVeryAccurate) {
  Graph g = gen::BarabasiAlbert(60, 4, 3);
  ErOptions opt;
  opt.smm_iterations = 1000;  // the paper's ground-truth recipe
  SmmEstimator smm(g, opt);
  const double truth = testing::ExactEr(g, 5, 50);
  EXPECT_NEAR(smm.Estimate(5, 50), truth, 1e-6);
}

}  // namespace
}  // namespace geer
