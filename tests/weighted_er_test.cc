// End-to-end accuracy tests for the weighted estimators (W-SMM, W-AMC,
// W-GEER) against the W-CG oracle, plus cross-checks against the
// unweighted stack on unit-weight inputs and circuit-theory laws.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <tuple>

#include "core/geer.h"
#include "core/smm.h"
#include "graph/generators.h"
#include "core/amc.h"
#include "core/solver_er.h"
#include "geer_pendant_checks.h"
#include "graph/weighted_generators.h"

namespace geer {
namespace {

std::unique_ptr<ErEstimator> MakeWeighted(const std::string& name,
                                                  const WeightedGraph& g,
                                                  const ErOptions& opt) {
  if (name == "W-SMM") return std::make_unique<WeightedSmmEstimator>(g, opt);
  if (name == "W-AMC") return std::make_unique<WeightedAmcEstimator>(g, opt);
  if (name == "W-GEER") {
    return std::make_unique<WeightedGeerEstimator>(g, opt);
  }
  return nullptr;
}

WeightedGraph WeightedFamily(const std::string& family) {
  if (family == "tri-grid") {
    return gen::TriangulatedGridCircuit(5, 5, 0.5, 2.0, 11);
  }
  if (family == "ba-weighted") {
    return gen::WithUniformWeights(gen::BarabasiAlbert(60, 4, 9), 0.25, 4.0,
                                   13);
  }
  // "skewed": dense core with two orders of magnitude weight spread.
  return gen::WithUniformWeights(gen::ErdosRenyi(40, 300, 17), 0.05, 5.0, 19);
}

using Param = std::tuple<std::string /*method*/, std::string /*family*/,
                         double /*epsilon*/>;

class WeightedConsistencyTest : public ::testing::TestWithParam<Param> {};

TEST_P(WeightedConsistencyTest, WithinEpsilonOfCgOracle) {
  const auto& [method, family, epsilon] = GetParam();
  WeightedGraph g = WeightedFamily(family);
  ErOptions opt;
  opt.epsilon = epsilon;
  opt.delta = 0.01;
  opt.seed = 99;
  auto estimator = MakeWeighted(method, g, opt);
  ASSERT_NE(estimator, nullptr);
  WeightedSolverEstimator oracle(g);

  const std::pair<NodeId, NodeId> pairs[] = {{0, 1}, {2, 17}, {5, 11}};
  for (auto [s, t] : pairs) {
    const double truth = oracle.Estimate(s, t);
    const double value = estimator->Estimate(s, t);
    EXPECT_LE(std::abs(value - truth), epsilon + 1e-9)
        << method << " on " << family << " (" << s << "," << t << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, WeightedConsistencyTest,
    ::testing::Combine(::testing::Values("W-SMM", "W-AMC", "W-GEER"),
                       ::testing::Values("tri-grid", "ba-weighted", "skewed"),
                       ::testing::Values(0.5, 0.2, 0.1)),
    [](const ::testing::TestParamInfo<Param>& info) {
      std::string name = std::get<0>(info.param) + "_" +
                         std::get<1>(info.param) + "_eps" +
                         std::to_string(static_cast<int>(
                             std::get<2>(info.param) * 100));
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(WeightedSmmTest, UnitWeightsMatchUnweightedSmmExactly) {
  // Same λ seed, same deterministic iteration: the two stacks must agree
  // to floating-point noise, not just within ε.
  Graph g = gen::BarabasiAlbert(50, 3, 21);
  ErOptions opt;
  opt.epsilon = 0.1;
  SmmEstimator unweighted(g, opt);
  WeightedGraph wg = FromUnweighted(g);  // estimators keep a pointer
  WeightedSmmEstimator weighted(wg, opt);
  for (auto [s, t] : {std::pair<NodeId, NodeId>{0, 25}, {3, 44}, {7, 9}}) {
    QueryStats a = unweighted.EstimateWithStats(s, t);
    QueryStats b = weighted.EstimateWithStats(s, t);
    EXPECT_EQ(a.ell, b.ell);
    EXPECT_NEAR(a.value, b.value, 1e-9);
  }
}

TEST(WeightedSmmTest, MatchesCircuitOracleOnSeries) {
  // Estimators assume non-bipartite inputs; a chain is bipartite, so add
  // a shortcut triangle at one end and check against CG rather than the
  // closed form.
  WeightedGraphBuilder b;
  b.AddEdge(0, 1, 1.0).AddEdge(1, 2, 0.5).AddEdge(2, 3, 0.25);
  b.AddEdge(0, 2, 0.1);  // makes a triangle: non-bipartite
  WeightedGraph g = b.Build();
  WeightedSolverEstimator oracle(g);
  ErOptions opt;
  opt.epsilon = 0.05;
  WeightedSmmEstimator smm(g, opt);
  for (auto [s, t] : {std::pair<NodeId, NodeId>{0, 3}, {1, 3}, {0, 2}}) {
    EXPECT_NEAR(smm.Estimate(s, t), oracle.Estimate(s, t), opt.epsilon);
  }
}

TEST(WeightedAmcTest, HeavierPairsGetShorterWalks) {
  // The refined weighted ℓ shrinks with the strengths of the query pair.
  WeightedGraph g = WeightedFamily("ba-weighted");
  ErOptions opt;
  opt.epsilon = 0.2;
  WeightedAmcEstimator amc(g, opt);
  // Find a high-strength and a low-strength node.
  NodeId heavy = 0, light = 0;
  for (NodeId v = 1; v < g.NumNodes(); ++v) {
    if (g.Strength(v) > g.Strength(heavy)) heavy = v;
    if (g.Strength(v) < g.Strength(light)) light = v;
  }
  const NodeId other = heavy == 0 ? 1 : 0;
  const NodeId other2 = light == g.NumNodes() - 1 ? g.NumNodes() - 2
                                                  : g.NumNodes() - 1;
  QueryStats heavy_stats = amc.EstimateWithStats(heavy, other);
  QueryStats light_stats = amc.EstimateWithStats(light, other2);
  EXPECT_LE(heavy_stats.ell, light_stats.ell);
}

TEST(WeightedGeerTest, SwitchesToWalksOnExpansiveGraphs) {
  // On a weighted expander with moderate ε GEER should not run SMM to ℓ.
  WeightedGraph g = WeightedFamily("skewed");
  ErOptions opt;
  opt.epsilon = 0.2;
  WeightedGeerEstimator geer(g, opt);
  QueryStats stats = geer.EstimateWithStats(0, 20);
  EXPECT_LE(stats.ell_b, stats.ell);
}

TEST(WeightedGeerTest, FixedLbOverrideRespected) {
  WeightedGraph g = WeightedFamily("tri-grid");
  ErOptions opt;
  opt.epsilon = 0.2;
  opt.geer_fixed_lb = 2;
  WeightedGeerEstimator geer(g, opt);
  QueryStats stats = geer.EstimateWithStats(0, 24);
  EXPECT_EQ(stats.ell_b, std::min<std::uint32_t>(2, stats.ell));
}

TEST(WeightedGeerTest, AgreesWithUnweightedGeerOnUnitWeights) {
  Graph g = gen::ErdosRenyi(50, 250, 23);
  ErOptions opt;
  opt.epsilon = 0.2;
  opt.seed = 5;
  GeerEstimator unweighted(g, opt);
  WeightedGraph wg = FromUnweighted(g);  // estimators keep a pointer
  WeightedGeerEstimator weighted(wg, opt);
  // Different RNG consumption patterns ⇒ different samples; both must
  // still land within ε of each other’s contract (2ε of each other).
  for (auto [s, t] : {std::pair<NodeId, NodeId>{0, 30}, {4, 41}}) {
    EXPECT_NEAR(weighted.Estimate(s, t), unweighted.Estimate(s, t),
                2.0 * opt.epsilon);
  }
}

TEST(WeightedEstimatorTest, SameNodeIsZero) {
  WeightedGraph g = WeightedFamily("tri-grid");
  ErOptions opt;
  opt.epsilon = 0.3;
  WeightedAmcEstimator amc(g, opt);
  WeightedGeerEstimator geer(g, opt);
  WeightedSmmEstimator smm(g, opt);
  EXPECT_DOUBLE_EQ(amc.Estimate(6, 6), 0.0);
  EXPECT_DOUBLE_EQ(geer.Estimate(6, 6), 0.0);
  EXPECT_DOUBLE_EQ(smm.Estimate(6, 6), 0.0);
}

TEST(WeightedEstimatorTest, DeterministicAcrossRepeats) {
  WeightedGraph g = WeightedFamily("ba-weighted");
  ErOptions opt;
  opt.epsilon = 0.3;
  opt.seed = 123;
  WeightedGeerEstimator geer(g, opt);
  const double first = geer.Estimate(2, 31);
  const double second = geer.Estimate(2, 31);
  EXPECT_DOUBLE_EQ(first, second);
}

TEST(WeightedEstimatorTest, ConductanceScalingLawHoldsWithinEpsilon) {
  // r(s,t; c·w) = r(s,t; w)/c — check the estimators track the oracle
  // under a global conductance rescale.
  WeightedGraph base = WeightedFamily("tri-grid");
  WeightedGraphBuilder scaled_builder;
  const double c = 4.0;
  for (const auto& e : base.Edges()) {
    scaled_builder.AddEdge(e.u, e.v, c * e.weight);
  }
  WeightedGraph scaled = scaled_builder.Build();
  ErOptions opt;
  opt.epsilon = 0.1;
  WeightedGeerEstimator geer(scaled, opt);
  WeightedSolverEstimator oracle(base);
  for (auto [s, t] : {std::pair<NodeId, NodeId>{0, 24}, {3, 17}}) {
    EXPECT_NEAR(geer.Estimate(s, t), oracle.Estimate(s, t) / c,
                opt.epsilon + 1e-9);
  }
}

// Pendant trees under conductances: offsets are Σ 1/w along the tree.

WeightedGraph WeightedTrees() {
  return gen::WithUniformWeights(testing::DenseGraphWithTrees(), 0.5, 2.0,
                                 29);
}

TEST(WeightedGeerPendantTest, SameTreePairsAreExactWithoutWalks) {
  testing::ExpectSameTreePairsExact<EdgeWeight>(WeightedTrees());
}

TEST(WeightedGeerPendantTest, EveryPairWithinEpsilonOfExact) {
  testing::ExpectEveryPairWithinEpsilon<EdgeWeight>(WeightedTrees());
}

TEST(WeightedGeerPendantTest, SymmetricBitwise) {
  testing::ExpectSymmetricBitwise<EdgeWeight>(WeightedTrees());
}

TEST(WeightedGeerPendantTest, BatchAndServeMatchSerialBitwise) {
  testing::ExpectBatchAndServeMatchSerial<EdgeWeight>(WeightedTrees());
}

TEST(WeightedGeerPendantTest, BatchAndServeMatchSerialOnShuffledIds) {
  const WeightedGraph graph = gen::WithUniformWeights(
      testing::ShuffledGraphWithTrees(), 0.5, 2.0, 29);
  testing::ExpectBatchAndServeMatchSerial<EdgeWeight>(graph);
  testing::ExpectEveryPairWithinEpsilon<EdgeWeight>(graph);
}

TEST(WeightedGeerPendantTest, ClonesShareOneForest) {
  testing::ExpectClonesShareTheForest<EdgeWeight>(WeightedTrees());
}

TEST(WeightedGeerPendantTest, RebindThroughFormerTreeMatchesFresh) {
  const WeightedGraph before = WeightedTrees();
  WeightedGraphBuilder b(before.NumNodes());
  for (const auto& e : before.Edges()) b.AddEdge(e.u, e.v, e.weight);
  b.AddEdge(18, 5, 1.25);
  const WeightedGraph after = b.Build();
  testing::ExpectRebindMatchesFresh<EdgeWeight>(before, after, {5, 18});
}

}  // namespace
}  // namespace geer
