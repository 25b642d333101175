#include "linalg/spectral.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/ell.h"
#include "eval/datasets.h"
#include "graph/builder.h"
#include "graph/generators.h"
#include "graph/weighted_generators.h"
#include "linalg/lanczos.h"
#include "linalg/transition.h"
#include "util/thread_pool.h"

namespace geer {
namespace {

TEST(SpectralTest, CompleteGraphClosedForm) {
  // K_n: P has eigenvalues 1 and −1/(n−1) (n−1 times).
  const NodeId n = 10;
  SpectralBounds sb = ComputeSpectralBounds(gen::Complete(n));
  EXPECT_NEAR(sb.lambda2, -1.0 / (n - 1.0), 1e-8);
  EXPECT_NEAR(sb.lambda_n, -1.0 / (n - 1.0), 1e-8);
  EXPECT_NEAR(sb.lambda, 1.0 / (n - 1.0), 1e-8);
}

TEST(SpectralTest, OddCycleClosedForm) {
  // C_n: eigenvalues cos(2πk/n); for odd n, λ₂ = cos(2π/n) and
  // λ_n = cos(π(n−1)/n).
  const NodeId n = 9;
  SpectralBounds sb = ComputeSpectralBounds(gen::Cycle(n));
  EXPECT_NEAR(sb.lambda2, std::cos(2.0 * M_PI / n), 1e-8);
  EXPECT_NEAR(sb.lambda_n, std::cos(2.0 * M_PI * 4.0 / n), 1e-8);
}

TEST(SpectralTest, BipartiteReportsMinusOne) {
  SpectralBounds sb = ComputeSpectralBounds(gen::Cycle(8));
  EXPECT_NEAR(sb.lambda_n, -1.0, 1e-8);
  // λ is clamped below 1 so the ℓ formulas stay finite.
  EXPECT_LT(sb.lambda, 1.0);
}

TEST(SpectralTest, MatchesDenseOracleOnRandomGraphs) {
  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    Graph g = gen::ErdosRenyi(60, 180, seed);
    SpectralBounds lanczos = ComputeSpectralBounds(g);
    SpectralBounds dense = ComputeSpectralBoundsDense(g);
    EXPECT_NEAR(lanczos.lambda2, dense.lambda2, 1e-6) << "seed " << seed;
    EXPECT_NEAR(lanczos.lambda_n, dense.lambda_n, 1e-6) << "seed " << seed;
    EXPECT_NEAR(lanczos.lambda, dense.lambda, 1e-6) << "seed " << seed;
  }
}

TEST(SpectralTest, BarbellMixesSlowly) {
  // The barbell's bottleneck pushes λ₂ toward 1.
  SpectralBounds sb = ComputeSpectralBounds(gen::Barbell(8, 4));
  EXPECT_GT(sb.lambda2, 0.9);
}

TEST(SpectralTest, DenseExpanderMixesFast) {
  SpectralBounds sb = ComputeSpectralBounds(gen::ErdosRenyi(100, 1200, 5));
  EXPECT_LT(sb.lambda, 0.6);
}

TEST(SpectralTest, LambdaWithinUnitInterval) {
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    Graph g = gen::BarabasiAlbert(80, 3, seed);
    SpectralBounds sb = ComputeSpectralBounds(g);
    EXPECT_GE(sb.lambda, 0.0);
    EXPECT_LT(sb.lambda, 1.0);
    EXPECT_LE(sb.lambda2, 1.0);
    EXPECT_GE(sb.lambda_n, -1.0);
  }
}

// C_n plus one chord: odd cycles through the chord make it non-bipartite
// and the chord splits the cycle's doubly degenerate eigenvalues.
Graph CycleWithChord(NodeId n, NodeId chord_end) {
  GraphBuilder b(n);
  for (NodeId u = 0; u < n; ++u) b.AddEdge(u, (u + 1) % n);
  b.AddEdge(0, chord_end);
  return b.Build();
}

// The cold run's certificate: λ₂ and |λ_n| (hence λ) sit on the outer
// side of the dense values, and within twice the residual tolerance of
// them when the run converged. kOracleSlack absorbs rounding in both
// computations (Jacobi sweeps, Lanczos recurrence; ~2e-14 on these
// fixtures), which the residual does not cover.
TEST(SpectralTest, CertifiedBoundsEncloseDenseOracle) {
  const SpectralOptions options;
  const double close = 2.0 * options.tolerance + 1e-12;
  const double kOracleSlack = 1e-13;
  const std::vector<std::pair<std::string, Graph>> fixtures = {
      {"er", gen::ErdosRenyi(200, 1000, 4)},
      {"er-sparse", gen::ErdosRenyi(250, 350, 8)},
      {"ba", gen::BarabasiAlbert(250, 3, 2)},
      {"barbell", gen::Barbell(8, 4)},
      {"ws", gen::WattsStrogatz(240, 3, 0.1, 6)},
      {"cycle-chord", CycleWithChord(101, 40)},
  };
  for (const auto& [name, g] : fixtures) {
    const SpectralBounds lanczos = ComputeSpectralBounds(g, options);
    const SpectralBounds dense = ComputeSpectralBoundsDense(g);
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

// The residual certificate ends a cold run well inside its Krylov budget.
TEST(SpectralTest, ColdRunStopsOnCertificate) {
  const SpectralOptions options;
  const SpectralBounds sb =
      ComputeSpectralBounds(gen::ErdosRenyi(2000, 20000, 3), options);
  EXPECT_TRUE(sb.lanczos_converged);
  EXPECT_LT(sb.lanczos_iterations, options.max_iterations);
  EXPECT_LE(sb.lambda_residual, options.tolerance);
}

// λ reaches the answers only through ℓ. Pin the walk lengths of the three
// stand-ins (PengEll, and RefinedEll for the pair of two min-degree and
// of two max-degree nodes, at ε 0.05 and 0.1) so that a change to the λ
// computation that moves any of them fails here, not only in the ledger.
TEST(SpectralTest, StandInWalkLengthsPinned) {
  struct Pinned {
    const char* dataset;
    std::uint64_t min_degree;
    std::uint64_t max_degree;
    // {PengEll, RefinedEll(min, min), RefinedEll(max, max)} at ε 0.05, 0.1.
    std::uint32_t ell[2][3];
  };
  const Pinned pinned[] = {
      {"facebook", 22, 494, {{3, 1, 0}, {3, 0, 0}}},
      {"dblp", 3, 11, {{125, 106, 84}, {113, 94, 72}}},
      {"youtube", 1, 3263, {{55, 55, 0}, {50, 50, 0}}},
  };
  const double epsilons[2] = {0.05, 0.1};
  for (const Pinned& p : pinned) {
    const std::optional<Dataset> ds = MakeDataset(p.dataset);
    ASSERT_TRUE(ds.has_value()) << p.dataset;
    const Graph& g = ds->graph;
    std::uint64_t min_degree = g.Degree(0);
    std::uint64_t max_degree = g.Degree(0);
    for (NodeId v = 1; v < g.NumNodes(); ++v) {
      min_degree = std::min<std::uint64_t>(min_degree, g.Degree(v));
      max_degree = std::max<std::uint64_t>(max_degree, g.Degree(v));
    }
    ASSERT_EQ(min_degree, p.min_degree) << p.dataset;
    ASSERT_EQ(max_degree, p.max_degree) << p.dataset;
    const double lambda = ds->spectral.lambda;
    for (int e = 0; e < 2; ++e) {
      const double eps = epsilons[e];
      EXPECT_EQ(PengEll(eps, lambda), p.ell[e][0])
          << p.dataset << " eps " << eps;
      EXPECT_EQ(RefinedEll(eps, lambda, min_degree, min_degree), p.ell[e][1])
          << p.dataset << " eps " << eps;
      EXPECT_EQ(RefinedEll(eps, lambda, max_degree, max_degree), p.ell[e][2])
          << p.dataset << " eps " << eps;
    }
  }
}

// Lanczos on a team-parallel operator keeps every bit of the serial run
// at 1–4 threads (λ₂, λ_n, both certificate widths and the Krylov
// dimension), and ComputeSpectralBounds, which sizes its own team,
// reports the same numbers.
template <WeightPolicy WP>
void ExpectTeamLanczosBitIdentical(const typename WP::GraphT& g,
                                   const std::string& label) {
  const SpectralOptions options;
  LanczosOptions lopt;
  lopt.max_iterations = options.max_iterations;
  lopt.tolerance = options.tolerance;
  lopt.seed = options.seed;
  const NormalizedAdjacencyOperatorT<WP> op(g);
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  const LanczosResult want = LanczosExtremeEigenvalues(
      [&op](const Vector& x, Vector* y) { op.Apply(x, y); }, op.Dim(),
      {op.TopEigenvector()}, lopt);
  for (int size = 1; size <= 4; ++size) {
    ThreadTeam team(size);
    const LanczosResult got = LanczosExtremeEigenvalues(
        [&op, &team](const Vector& x, Vector* y) { op.Apply(x, y, &team); },
        op.Dim(), {op.TopEigenvector()}, lopt);
    EXPECT_EQ(bits(got.max_eigenvalue), bits(want.max_eigenvalue))
        << label << " team " << size;
    EXPECT_EQ(bits(got.min_eigenvalue), bits(want.min_eigenvalue))
        << label << " team " << size;
    EXPECT_EQ(bits(got.residual_hi), bits(want.residual_hi))
        << label << " team " << size;
    EXPECT_EQ(bits(got.residual_lo), bits(want.residual_lo))
        << label << " team " << size;
    EXPECT_EQ(got.iterations, want.iterations) << label << " team " << size;
  }
  const SpectralBounds sb = ComputeSpectralBoundsT<WP>(g, options);
  EXPECT_EQ(bits(sb.lambda2), bits(std::min(want.max_eigenvalue, 1.0)))
      << label;
  EXPECT_EQ(bits(sb.lambda_n), bits(std::max(want.min_eigenvalue, -1.0)))
      << label;
  EXPECT_EQ(bits(sb.lambda_residual),
            bits(std::abs(sb.lambda_n) > std::abs(sb.lambda2)
                     ? want.residual_lo
                     : want.residual_hi))
      << label;
  EXPECT_EQ(sb.lanczos_iterations, want.iterations) << label;
}

TEST(SpectralTest, TeamLanczosMatchesSerialOnStandIns) {
  const std::optional<Dataset> facebook = MakeDataset("facebook");
  const std::optional<Dataset> youtube = MakeDataset("youtube");
  ASSERT_TRUE(facebook.has_value() && youtube.has_value());
  ExpectTeamLanczosBitIdentical<UnitWeight>(facebook->graph, "facebook");
  ExpectTeamLanczosBitIdentical<UnitWeight>(youtube->graph, "youtube");
  ExpectTeamLanczosBitIdentical<EdgeWeight>(
      gen::WithUniformWeights(youtube->graph, 0.1, 10.0, 3),
      "weighted youtube");
}

// The warm path runs on a team too. A two-epoch warm chain (the seeded
// cold fallback, then a warm start on the graph with one more edge) has
// the same bits on 2 and 4 threads as on the caller alone: λ, its width,
// the Krylov dimension and both Ritz vectors.
struct WarmChain {
  std::vector<SpectralBounds> bounds;
  std::vector<SpectralWarmState> states;
};

template <WeightPolicy WP>
WarmChain RunWarmChain(const typename WP::GraphT& g0,
                       const typename WP::GraphT& g1, int threads) {
  SpectralOptions options;
  options.threads = threads;
  WarmChain chain;
  SpectralWarmState state;
  chain.bounds.push_back(
      ComputeSpectralBoundsWarmT<WP>(g0, 1, &state, options));
  chain.states.push_back(state);
  chain.bounds.push_back(
      ComputeSpectralBoundsWarmT<WP>(g1, 2, &state, options));
  chain.states.push_back(state);
  return chain;
}

bool SameBits(const Vector& a, const Vector& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

template <WeightPolicy WP>
void ExpectTeamWarmChainBitIdentical(const typename WP::GraphT& g0,
                                     const typename WP::GraphT& g1,
                                     const std::string& label) {
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  const WarmChain serial = RunWarmChain<WP>(g0, g1, 1);
  for (const int threads : {2, 4}) {
    const WarmChain team = RunWarmChain<WP>(g0, g1, threads);
    for (std::size_t e = 0; e < 2; ++e) {
      const std::string where = label + " team " + std::to_string(threads) +
                                " epoch " + std::to_string(e + 1);
      EXPECT_EQ(bits(team.bounds[e].lambda), bits(serial.bounds[e].lambda))
          << where;
      EXPECT_EQ(bits(team.bounds[e].lambda_residual),
                bits(serial.bounds[e].lambda_residual))
          << where;
      EXPECT_EQ(team.bounds[e].lanczos_iterations,
                serial.bounds[e].lanczos_iterations)
          << where;
      EXPECT_TRUE(
          SameBits(team.states[e].max_ritz, serial.states[e].max_ritz))
          << where;
      EXPECT_TRUE(
          SameBits(team.states[e].min_ritz, serial.states[e].min_ritz))
          << where;
    }
  }
}

Graph WithExtraEdge(const Graph& graph) {
  GraphBuilder b(graph.NumNodes());
  for (NodeId u = 0; u < graph.NumNodes(); ++u) {
    for (NodeId v : graph.Neighbors(u)) {
      if (u < v) b.AddEdge(u, v);
    }
  }
  NodeId far = graph.NumNodes() - 1;
  while (graph.HasEdge(0, far)) --far;
  b.AddEdge(0, far);
  return b.Build();
}

TEST(SpectralTest, TeamWarmChainMatchesSerial) {
  const std::optional<Dataset> facebook = MakeDataset("facebook");
  ASSERT_TRUE(facebook.has_value());
  const Graph g1 = WithExtraEdge(facebook->graph);
  ExpectTeamWarmChainBitIdentical<UnitWeight>(facebook->graph, g1,
                                              "facebook");
  ExpectTeamWarmChainBitIdentical<EdgeWeight>(
      gen::WithUniformWeights(facebook->graph, 0.1, 10.0, 3),
      gen::WithUniformWeights(g1, 0.1, 10.0, 3), "weighted facebook");
}

}  // namespace
}  // namespace geer
