#include "core/geer.h"

#include <gtest/gtest.h>

#include <cmath>

#include "core/amc.h"
#include "core/smm.h"
#include "graph/generators.h"
#include "stats/bounds.h"
#include "test_util.h"

namespace geer {
namespace {

TEST(GeerTest, WithinEpsilonOfTruth) {
  Graph g = testing::DenseTestGraph(20);
  for (double eps : {0.5, 0.2, 0.1}) {
    ErOptions opt;
    opt.epsilon = eps;
    GeerEstimator geer(g, opt);
    const std::pair<NodeId, NodeId> pairs[] = {{0, 10}, {2, 15}, {1, 19}};
    for (auto [s, t] : pairs) {
      const double truth = testing::ExactEr(g, s, t);
      EXPECT_LE(std::abs(geer.Estimate(s, t) - truth), eps)
          << "eps=" << eps << " (" << s << "," << t << ")";
    }
  }
}

TEST(GeerTest, SameNodeZero) {
  // Regression: passing a temporary graph left the estimator with a
  // dangling pointer (caught by ASan); now rejected at compile time.
  Graph g = gen::Complete(8);
  GeerEstimator geer(g);
  EXPECT_DOUBLE_EQ(geer.Estimate(2, 2), 0.0);
}

TEST(GeerTest, SwitchPointWithinRange) {
  Graph g = testing::DenseTestGraph(24);
  ErOptions opt;
  opt.epsilon = 0.1;
  GeerEstimator geer(g, opt);
  QueryStats stats = geer.EstimateWithStats(0, 12);
  EXPECT_LE(stats.ell_b, stats.ell);
}

TEST(GeerTest, FixedLbOverrideHonored) {
  Graph g = testing::DenseTestGraph(24);
  ErOptions opt;
  opt.epsilon = 0.1;
  opt.geer_fixed_lb = 2;
  GeerEstimator geer(g, opt);
  QueryStats stats = geer.EstimateWithStats(0, 12);
  EXPECT_EQ(stats.ell_b, 2u);
}

TEST(GeerTest, FixedLbZeroDegradesToAmc) {
  // ℓ_b = 0 ⇒ pure AMC with one-hot inputs: identical estimates for the
  // same seed.
  Graph g = testing::DenseTestGraph(16);
  ErOptions opt;
  opt.epsilon = 0.3;
  opt.seed = 7;
  opt.geer_fixed_lb = 0;
  GeerEstimator geer(g, opt);
  AmcEstimator amc(g, opt);
  EXPECT_NEAR(geer.Estimate(0, 9), amc.Estimate(0, 9), 1e-12);
}

TEST(GeerTest, FixedLbFullDegradesToSmm) {
  // ℓ_b = ℓ ⇒ pure SMM: deterministic and equal to SMM's r_ℓ.
  Graph g = testing::DenseTestGraph(16);
  ErOptions opt;
  opt.epsilon = 0.2;
  opt.geer_fixed_lb = 1 << 20;  // clamped to ℓ
  GeerEstimator geer(g, opt);
  SmmEstimator smm(g, opt);
  QueryStats gs = geer.EstimateWithStats(0, 9);
  QueryStats ss = smm.EstimateWithStats(0, 9);
  EXPECT_EQ(gs.ell_b, ss.ell);
  EXPECT_NEAR(gs.value, ss.value, 1e-12);
  EXPECT_EQ(gs.walks, 0u);
}

TEST(GeerTest, DecomposesExactly) {
  // r' = r_b(ℓ_b) + r_f where E[r_f] = r_ℓ − r_{ℓb}: run GEER with a fixed
  // switch point, average r' over seeds, compare to SMM's r_ℓ.
  Graph g = testing::DenseTestGraph(14);
  ErOptions smm_opt;
  smm_opt.epsilon = 0.2;
  SmmEstimator smm(g, smm_opt);
  const double r_ell = smm.Estimate(0, 7);

  double sum = 0.0;
  const int reps = 30;
  for (int rep = 0; rep < reps; ++rep) {
    ErOptions opt;
    opt.epsilon = 0.2;
    opt.geer_fixed_lb = 2;
    opt.seed = 5000 + rep;
    GeerEstimator geer(g, opt);
    sum += geer.Estimate(0, 7);
  }
  EXPECT_NEAR(sum / reps, r_ell, 0.04);
}

TEST(GeerTest, UsesFewerWalksThanAmc) {
  // The headline claim: seeding AMC with flat iterates slashes ψ and thus
  // the sample budget.
  Graph g = gen::BarabasiAlbert(400, 8, 11);
  ErOptions opt;
  opt.epsilon = 0.05;
  GeerEstimator geer(g, opt);
  AmcEstimator amc(g, opt);
  const QueryStats gs = geer.EstimateWithStats(3, 200);
  const QueryStats as = amc.EstimateWithStats(3, 200);
  if (gs.ell_b > 0 && gs.ell > gs.ell_b) {
    EXPECT_LT(gs.eta_star, as.eta_star);
  }
  EXPECT_LE(gs.walks, as.walks);
}

TEST(GeerTest, RemainingSampleBudgetFormula) {
  // h(ℓf) = (2^τ − 1)⌈η*/2^{τ−1}⌉.
  const double eps = 0.1;
  const double delta = 0.01;
  const int tau = 5;
  const double psi = 1.0;
  const std::uint64_t eta_star = AmcMaxSamples(eps, psi, delta, tau);
  const std::uint64_t eta =
      static_cast<std::uint64_t>(std::ceil(eta_star / 16.0));
  EXPECT_EQ(GeerRemainingSampleBudget(eps, delta, tau, psi), 31 * eta);
  EXPECT_EQ(GeerRemainingSampleBudget(eps, delta, tau, 0.0), 0u);
}

TEST(GeerTest, RemainingSampleBudgetSaturates) {
  // η* itself past 2^64 (ε = 1e-9): the budget pins at UINT64_MAX.
  EXPECT_EQ(GeerRemainingSampleBudget(1e-9, 0.01, 5, 1e3), UINT64_MAX);
  // η* ≈ 1.4e19 fits in 64 bits, but (2^τ − 1)⌈η*/2^{τ−1}⌉ ≈ 2η* does
  // not: a wrapped product would be a small budget and stop SMM early.
  const double eps = 1e-6;
  const double delta = 0.01;
  const int tau = 5;
  const double psi =
      std::sqrt(1.4e19 * eps * eps / (2.0 * std::log(2.0 * tau / delta)));
  const std::uint64_t eta_star = AmcMaxSamples(eps, psi, delta, tau);
  ASSERT_GT(eta_star, 1ull << 63);
  ASSERT_LT(eta_star, UINT64_MAX);
  EXPECT_EQ(GeerRemainingSampleBudget(eps, delta, tau, psi), UINT64_MAX);
  // So does τ ≥ 64, where 2^τ − 1 alone overflows.
  EXPECT_EQ(GeerRemainingSampleBudget(0.5, 0.01, 64, 1.0), UINT64_MAX);
  // Budgets that fit are unchanged.
  EXPECT_EQ(GeerRemainingSampleBudget(0.5, 0.01, 3, 1.0),
            7 * AmcFirstBatchSize(AmcMaxSamples(0.5, 1.0, 0.01, 3), 3));
}

TEST(GeerTest, DeterministicPerSeed) {
  Graph g = testing::DenseTestGraph(16);
  ErOptions opt;
  opt.epsilon = 0.2;
  opt.seed = 42;
  GeerEstimator a(g, opt);
  GeerEstimator b(g, opt);
  EXPECT_DOUBLE_EQ(a.Estimate(1, 9), b.Estimate(1, 9));
}

TEST(GeerTest, HandlesAdjacentPairs) {
  Graph g = testing::DenseTestGraph(16);
  ErOptions opt;
  opt.epsilon = 0.1;
  GeerEstimator geer(g, opt);
  const double truth = testing::ExactEr(g, 0, 1);
  EXPECT_LE(std::abs(geer.Estimate(0, 1) - truth), 0.1);
}

TEST(GeerTest, HighDegreePairGetsShortEll) {
  // On a dense graph with big ε the refined ℓ can be tiny or zero; GEER
  // must still return the correct i=0-dominated value.
  Graph g = gen::Complete(200);
  ErOptions opt;
  opt.epsilon = 0.5;
  GeerEstimator geer(g, opt);
  QueryStats stats = geer.EstimateWithStats(0, 100);
  EXPECT_LE(stats.ell, 2u);
  EXPECT_NEAR(stats.value, 2.0 / 200.0, 0.5);
}

}  // namespace
}  // namespace geer
