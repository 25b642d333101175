// Cross-cutting contract tests every registered estimator must satisfy:
// determinism under a fixed seed, query-order independence (each query
// derives its own stream), symmetry within the accuracy budget, zero at
// s = t, and honest instrumentation. These pin the ErEstimator interface
// promises that the bench harness and downstream users rely on.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <type_traits>

#include "core/amc.h"
#include "core/exact.h"
#include "core/geer.h"
#include "core/hay.h"
#include "core/mc.h"
#include "core/mc2.h"
#include "core/registry.h"
#include "core/rp.h"
#include "core/smm.h"
#include "core/solver_er.h"
#include "core/tp.h"
#include "core/tpc.h"
#include "graph/generators.h"
#include "linalg/laplacian_solver.h"
#include "linalg/transition.h"
#include "rw/alias.h"
#include "rw/walker.h"
#include "test_util.h"
#include "graph/weighted_generators.h"

namespace geer {
namespace {

// PR 1's dangling-temporary guard, kept by every weight-generic template:
// graph-storing classes delete their rvalue overloads, so passing a
// temporary graph is a compile error. These static_asserts are the
// compile-fail check — if a template loses its deleted overload, this
// file stops compiling.
template <typename T, typename G>
constexpr bool kRejectsTemporaryGraph =
    !std::is_constructible_v<T, G&&, ErOptions> &&
    std::is_constructible_v<T, const G&, ErOptions>;

static_assert(kRejectsTemporaryGraph<GeerEstimator, Graph>);
static_assert(kRejectsTemporaryGraph<AmcEstimator, Graph>);
static_assert(kRejectsTemporaryGraph<SmmEstimator, Graph>);
static_assert(kRejectsTemporaryGraph<McEstimator, Graph>);
static_assert(kRejectsTemporaryGraph<Mc2Estimator, Graph>);
static_assert(kRejectsTemporaryGraph<TpEstimator, Graph>);
static_assert(kRejectsTemporaryGraph<TpcEstimator, Graph>);
static_assert(kRejectsTemporaryGraph<HayEstimator, Graph>);
static_assert(kRejectsTemporaryGraph<RpEstimator, Graph>);
static_assert(kRejectsTemporaryGraph<ExactEstimator, Graph>);
static_assert(kRejectsTemporaryGraph<SolverEstimator, Graph>);
static_assert(kRejectsTemporaryGraph<GeerEstimatorT<EdgeWeight>, WeightedGraph>);
static_assert(kRejectsTemporaryGraph<AmcEstimatorT<EdgeWeight>, WeightedGraph>);
static_assert(kRejectsTemporaryGraph<SmmEstimatorT<EdgeWeight>, WeightedGraph>);
static_assert(kRejectsTemporaryGraph<McEstimatorT<EdgeWeight>, WeightedGraph>);
static_assert(kRejectsTemporaryGraph<Mc2EstimatorT<EdgeWeight>, WeightedGraph>);
static_assert(kRejectsTemporaryGraph<TpEstimatorT<EdgeWeight>, WeightedGraph>);
static_assert(kRejectsTemporaryGraph<TpcEstimatorT<EdgeWeight>, WeightedGraph>);
static_assert(kRejectsTemporaryGraph<HayEstimatorT<EdgeWeight>, WeightedGraph>);
static_assert(kRejectsTemporaryGraph<RpEstimatorT<EdgeWeight>, WeightedGraph>);
static_assert(
    kRejectsTemporaryGraph<ExactEstimatorT<EdgeWeight>, WeightedGraph>);
static_assert(
    kRejectsTemporaryGraph<SolverEstimatorT<EdgeWeight>, WeightedGraph>);
// Substrate classes carry the same guard.
static_assert(!std::is_constructible_v<TransitionOperator, Graph&&>);
static_assert(!std::is_constructible_v<WeightedTransitionOperator,
                                       WeightedGraph&&>);
static_assert(!std::is_constructible_v<LaplacianSolver, Graph&&>);
static_assert(
    !std::is_constructible_v<WeightedLaplacianSolver, WeightedGraph&&>);
static_assert(!std::is_constructible_v<Walker, Graph&&>);
static_assert(!std::is_constructible_v<WeightedWalker, WeightedGraph&&>);

ErOptions FastOptions() {
  ErOptions opt;
  opt.epsilon = 0.3;
  opt.delta = 0.05;
  opt.seed = 2024;
  opt.tp_scale = 0.01;
  opt.tpc_scale = 0.001;
  opt.mc_gamma_upper = 8.0;
  return opt;
}

class EstimatorContractTest : public ::testing::TestWithParam<std::string> {
 protected:
  // Fast-mixing dense ER graph (λ ≈ 0.35): the contract properties under
  // test are mixing-independent, and a small Peng ℓ keeps TP/TPC cheap.
  void SetUp() override { graph_ = gen::ErdosRenyi(40, 400, 9); }
  Graph graph_;
};

TEST_P(EstimatorContractTest, DeterministicUnderFixedSeed) {
  ErOptions opt = FastOptions();
  auto a = CreateEstimator(GetParam(), graph_, opt);
  auto b = CreateEstimator(GetParam(), graph_, opt);
  ASSERT_NE(a, nullptr);
  for (auto [s, t] : {std::pair<NodeId, NodeId>{0, 1}, {2, 9}}) {
    if (!a->SupportsQuery(s, t)) continue;
    EXPECT_DOUBLE_EQ(a->Estimate(s, t), b->Estimate(s, t))
        << GetParam() << " (" << s << "," << t << ")";
  }
}

TEST_P(EstimatorContractTest, QueryOrderDoesNotChangeAnswers) {
  ErOptions opt = FastOptions();
  auto forward = CreateEstimator(GetParam(), graph_, opt);
  auto backward = CreateEstimator(GetParam(), graph_, opt);
  const std::pair<NodeId, NodeId> pairs[] = {{0, 1}, {2, 9}, {4, 12}};
  double fwd[3] = {0, 0, 0};
  double bwd[3] = {0, 0, 0};
  for (int i = 0; i < 3; ++i) {
    if (!forward->SupportsQuery(pairs[i].first, pairs[i].second)) continue;
    fwd[i] = forward->Estimate(pairs[i].first, pairs[i].second);
  }
  for (int i = 2; i >= 0; --i) {
    if (!backward->SupportsQuery(pairs[i].first, pairs[i].second)) continue;
    bwd[i] = backward->Estimate(pairs[i].first, pairs[i].second);
  }
  for (int i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(fwd[i], bwd[i]) << GetParam() << " query " << i;
  }
}

TEST_P(EstimatorContractTest, SameNodeIsZero) {
  auto estimator = CreateEstimator(GetParam(), graph_, FastOptions());
  if (estimator->SupportsQuery(5, 5)) {
    EXPECT_DOUBLE_EQ(estimator->Estimate(5, 5), 0.0) << GetParam();
  }
}

TEST_P(EstimatorContractTest, SymmetricWithinAccuracyBudget) {
  // r(s,t) = r(t,s); two randomized runs may differ by 2ε at most
  // (both within ε of the truth w.h.p.).
  ErOptions opt = FastOptions();
  auto estimator = CreateEstimator(GetParam(), graph_, opt);
  const NodeId s = 1, t = 10;
  if (!estimator->SupportsQuery(s, t)) GTEST_SKIP();
  const double forward = estimator->Estimate(s, t);
  const double backward = estimator->Estimate(t, s);
  const double budget =
      GetParam() == "RP" ? 0.7 * std::max(forward, backward) + 0.05
                         : 2.0 * opt.epsilon + 1e-9;
  EXPECT_NEAR(forward, backward, budget) << GetParam();
}

TEST_P(EstimatorContractTest, StatsValueMatchesEstimate) {
  auto a = CreateEstimator(GetParam(), graph_, FastOptions());
  auto b = CreateEstimator(GetParam(), graph_, FastOptions());
  if (!a->SupportsQuery(0, 9)) GTEST_SKIP();
  const QueryStats stats = a->EstimateWithStats(0, 9);
  EXPECT_DOUBLE_EQ(stats.value, b->Estimate(0, 9)) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(
    AllEstimators, EstimatorContractTest,
    ::testing::Values("GEER", "AMC", "SMM", "SMM-PengEll", "TP", "TPC", "MC",
                      "MC2", "HAY", "RP", "EXACT", "CG"),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// ---------------------------------------------------------------------------
// Weighted contract suite: every registry name must construct through
// CreateWeightedEstimator, answer deterministically, agree with the
// weighted CG oracle (W-CG) on a conductance fixture, and — on the
// unit-weight lift of the same topology — agree with the unweighted EXACT
// oracle. This pins the "write it once, run it on both" guarantee of the
// weight-generic refactor.
// ---------------------------------------------------------------------------

class WeightedEstimatorContractTest
    : public ::testing::TestWithParam<std::string> {
 protected:
  // Fast-mixing dense ER topology (as above) with conductances in
  // [1, 4]: w(e) ≥ 1 keeps the edge-only estimators' additive guarantee
  // on w(e)·r(e) an additive guarantee on r(e) too.
  void SetUp() override {
    topology_ = gen::ErdosRenyi(40, 400, 9);
    weighted_ = gen::WithUniformWeights(topology_, 1.0, 4.0, 21);
    unit_ = FromUnweighted(topology_);
  }

  Graph topology_;
  WeightedGraph weighted_;
  WeightedGraph unit_;
};

TEST_P(WeightedEstimatorContractTest, ConstructsWithWeightedName) {
  auto estimator =
      CreateWeightedEstimator(GetParam(), weighted_, FastOptions());
  ASSERT_NE(estimator, nullptr) << GetParam();
  EXPECT_EQ(estimator->Name(), "W-" + GetParam());
  // The "W-" display spelling is accepted as an alias.
  auto aliased =
      CreateWeightedEstimator("W-" + GetParam(), weighted_, FastOptions());
  ASSERT_NE(aliased, nullptr);
  EXPECT_EQ(aliased->Name(), "W-" + GetParam());
}

TEST_P(WeightedEstimatorContractTest, DeterministicUnderFixedSeed) {
  ErOptions opt = FastOptions();
  auto a = CreateWeightedEstimator(GetParam(), weighted_, opt);
  auto b = CreateWeightedEstimator(GetParam(), weighted_, opt);
  ASSERT_NE(a, nullptr);
  for (auto [s, t] : {std::pair<NodeId, NodeId>{0, 1}, {2, 9}}) {
    if (!a->SupportsQuery(s, t)) continue;
    EXPECT_DOUBLE_EQ(a->Estimate(s, t), b->Estimate(s, t))
        << GetParam() << " (" << s << "," << t << ")";
  }
}

TEST_P(WeightedEstimatorContractTest, AgreesWithWeightedCgOracle) {
  ErOptions opt = FastOptions();
  auto estimator = CreateWeightedEstimator(GetParam(), weighted_, opt);
  ASSERT_NE(estimator, nullptr);
  WeightedSolverEstimator oracle(weighted_);
  const std::pair<NodeId, NodeId> pairs[] = {{0, 1}, {2, 9}, {4, 12}};
  int answered = 0;
  for (auto [s, t] : pairs) {
    if (!estimator->SupportsQuery(s, t)) continue;
    ++answered;
    const double truth = oracle.Estimate(s, t);
    // RP's guarantee is relative (1±ε); everything else is additive ε.
    const double budget = GetParam() == "RP"
                              ? opt.epsilon * truth + 0.02
                              : opt.epsilon + 1e-9;
    EXPECT_NEAR(estimator->Estimate(s, t), truth, budget)
        << GetParam() << " (" << s << "," << t << ")";
  }
  EXPECT_GT(answered, 0) << GetParam();
}

TEST_P(WeightedEstimatorContractTest, UnitWeightsMatchUnweightedExact) {
  // On the unit-conductance lift the weighted instantiation answers the
  // SAME question as the unweighted stack; EXACT on the topology is the
  // oracle for both.
  ErOptions opt = FastOptions();
  auto estimator = CreateWeightedEstimator(GetParam(), unit_, opt);
  ASSERT_NE(estimator, nullptr);
  ExactEstimator exact(topology_);
  const std::pair<NodeId, NodeId> pairs[] = {{0, 1}, {5, 11}};
  for (auto [s, t] : pairs) {
    if (!estimator->SupportsQuery(s, t)) continue;
    const double truth = exact.Estimate(s, t);
    const double budget = GetParam() == "RP"
                              ? opt.epsilon * truth + 0.02
                              : opt.epsilon + 1e-9;
    EXPECT_NEAR(estimator->Estimate(s, t), truth, budget)
        << GetParam() << " (" << s << "," << t << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllWeighted, WeightedEstimatorContractTest,
    ::testing::Values("GEER", "AMC", "SMM", "SMM-PengEll", "TP", "TPC", "MC",
                      "MC2", "HAY", "RP", "EXACT", "CG"),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(WeightedOracleCrossCheckTest, CgAndExactAgreeOnConductances) {
  // The two deterministic oracles bound each other: CG at 1e-12 tolerance
  // and the dense augmented-Laplacian factorization must coincide.
  WeightedGraph g =
      gen::WithUniformWeights(gen::ErdosRenyi(40, 400, 9), 0.25, 4.0, 33);
  WeightedSolverEstimator cg(g);
  ExactEstimatorT<EdgeWeight> exact(g);
  for (auto [s, t] : {std::pair<NodeId, NodeId>{0, 1}, {3, 17}, {8, 29}}) {
    EXPECT_NEAR(cg.Estimate(s, t), exact.Estimate(s, t), 1e-8)
        << "(" << s << "," << t << ")";
  }
}

TEST(WeightedRegistryTest, ListsEveryUnweightedName) {
  // Every registered algorithm must be weight-generalizable.
  Graph topology = testing::TriangleWithTail();
  WeightedGraph lifted = FromUnweighted(topology);
  for (const auto& name : EstimatorNames()) {
    if (!WeightedEstimatorFeasible(name, lifted, FastOptions())) continue;
    EXPECT_NE(CreateWeightedEstimator(name, lifted, FastOptions()), nullptr)
        << name;
  }
  EXPECT_EQ(CreateWeightedEstimator("NOT-AN-ALGORITHM", lifted,
                                    FastOptions()),
            nullptr);
}

TEST(EstimatorInstrumentationTest, GeerSplitsLengthBetweenSmmAndAmc) {
  Graph g = testing::DenseTestGraph(18);
  ErOptions opt = FastOptions();
  opt.epsilon = 0.1;
  auto geer = CreateEstimator("GEER", g, opt);
  const QueryStats stats = geer->EstimateWithStats(0, 9);
  EXPECT_LE(stats.ell_b, stats.ell);
  if (stats.ell_b > 0) EXPECT_GT(stats.spmv_ops, 0u);
  if (stats.ell_b == stats.ell) EXPECT_EQ(stats.walks, 0u);
}

TEST(EstimatorInstrumentationTest, AmcBatchesBounded) {
  Graph g = testing::DenseTestGraph(18);
  ErOptions opt = FastOptions();
  auto amc = CreateEstimator("AMC", g, opt);
  const QueryStats stats = amc->EstimateWithStats(0, 9);
  EXPECT_GE(stats.batches, 1);
  EXPECT_LE(stats.batches, opt.tau);
  EXPECT_EQ(stats.walks % 2, 0u);  // always paired: one from s, one from t
  EXPECT_EQ(stats.walk_steps, stats.walks * stats.ell);
}

TEST(EstimatorInstrumentationTest, TruncationFlagOnNearBipartiteInput) {
  // A long odd cycle has λ ≈ 1: the required ℓ blows past a tiny cap and
  // estimators must disclose the truncation instead of silently lying.
  Graph g = gen::Cycle(401);
  ErOptions opt;
  opt.epsilon = 0.1;
  opt.max_ell = 32;
  for (const char* name : {"GEER", "AMC", "SMM"}) {
    auto estimator = CreateEstimator(name, g, opt);
    const QueryStats stats = estimator->EstimateWithStats(0, 200);
    EXPECT_TRUE(stats.truncated) << name;
    EXPECT_EQ(stats.ell, 32u) << name;
  }
}

}  // namespace
}  // namespace geer
