#include "linalg/spectral.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "graph/generators.h"
#include "graph/weighted_generators.h"

namespace geer {
namespace {

TEST(WeightedSpectralTest, UnitWeightsMatchUnweighted) {
  Graph g = gen::BarabasiAlbert(50, 3, 3);
  SpectralBounds unweighted = ComputeSpectralBounds(g);
  SpectralBounds weighted = ComputeWeightedSpectralBounds(FromUnweighted(g));
  EXPECT_NEAR(weighted.lambda2, unweighted.lambda2, 1e-8);
  EXPECT_NEAR(weighted.lambda_n, unweighted.lambda_n, 1e-8);
  EXPECT_NEAR(weighted.lambda, unweighted.lambda, 1e-8);
}

TEST(WeightedSpectralTest, LanczosMatchesDenseOracle) {
  WeightedGraph g = gen::TriangulatedGridCircuit(4, 5, 0.5, 2.0, 5);
  SpectralBounds lanczos = ComputeWeightedSpectralBounds(g);
  SpectralBounds dense = ComputeWeightedSpectralBoundsDense(g);
  EXPECT_NEAR(lanczos.lambda2, dense.lambda2, 1e-7);
  EXPECT_NEAR(lanczos.lambda_n, dense.lambda_n, 1e-7);
}

// The cold run's certificate under conductance weights: λ₂, |λ_n| and λ
// on the outer side of the dense values, and within twice the residual
// tolerance when converged (kOracleSlack: rounding in both computations).
TEST(WeightedSpectralTest, CertifiedBoundsEncloseDenseOracle) {
  const SpectralOptions options;
  const double close = 2.0 * options.tolerance + 1e-12;
  const double kOracleSlack = 1e-13;
  const std::vector<std::pair<std::string, WeightedGraph>> fixtures = {
      {"tri-grid", gen::TriangulatedGridCircuit(6, 7, 0.5, 2.0, 5)},
      {"er-weighted",
       gen::WithUniformWeights(gen::ErdosRenyi(250, 1000, 12), 0.1, 10.0, 3)},
  };
  for (const auto& [name, g] : fixtures) {
    const SpectralBounds lanczos = ComputeWeightedSpectralBounds(g, options);
    const SpectralBounds dense = ComputeWeightedSpectralBoundsDense(g);
    EXPECT_GE(lanczos.lambda2, dense.lambda2 - kOracleSlack) << name;
    EXPECT_GE(std::abs(lanczos.lambda_n),
              std::abs(dense.lambda_n) - kOracleSlack)
        << name;
    EXPECT_GE(lanczos.lambda, dense.lambda - kOracleSlack) << name;
    if (lanczos.lanczos_converged) {
      EXPECT_LE(lanczos.lambda2 - dense.lambda2, close) << name;
      EXPECT_LE(dense.lambda_n - lanczos.lambda_n, close) << name;
      EXPECT_LE(lanczos.lambda - dense.lambda, close) << name;
    }
  }
}

TEST(WeightedSpectralTest, NonBipartiteCircuitHasLambdaBelowOne) {
  WeightedGraph g = gen::TriangulatedGridCircuit(4, 4, 0.5, 2.0, 7);
  SpectralBounds bounds = ComputeWeightedSpectralBounds(g);
  EXPECT_LT(bounds.lambda, 1.0);
  EXPECT_GT(bounds.lambda, 0.0);
}

TEST(WeightedSpectralTest, BipartiteGridHasLambdaNMinusOne) {
  // Weights cannot cure bipartiteness: the grid's walk spectrum keeps
  // λ_n = −1 (period 2), so estimators must reject / cap on such inputs.
  WeightedGraph g = gen::GridCircuit(4, 4, 0.5, 2.0, 9);
  SpectralBounds dense = ComputeWeightedSpectralBoundsDense(g);
  EXPECT_NEAR(dense.lambda_n, -1.0, 1e-9);
}

TEST(WeightedSpectralTest, ExtremeWeightSkewSlowsMixing) {
  // A near-cut: two cliques joined by a tiny conductance — λ₂ approaches 1
  // as the bridge weakens, the weighted analogue of the barbell.
  auto barbell_lambda = [](double bridge_conductance) {
    WeightedGraphBuilder b;
    for (NodeId u = 0; u < 6; ++u) {
      for (NodeId v = u + 1; v < 6; ++v) {
        b.AddEdge(u, v, 1.0);           // clique A
        b.AddEdge(u + 6, v + 6, 1.0);   // clique B
      }
    }
    b.AddEdge(0, 6, bridge_conductance);
    return ComputeWeightedSpectralBoundsDense(b.Build()).lambda2;
  };
  const double strong = barbell_lambda(1.0);
  const double weak = barbell_lambda(0.01);
  EXPECT_GT(weak, strong);
  EXPECT_GT(weak, 0.99);
}

}  // namespace
}  // namespace geer
