#include "linalg/spectral.h"

#include <algorithm>
#include <cmath>

#include "linalg/jacobi_eigen.h"
#include "linalg/lanczos.h"
#include "linalg/transition.h"
#include "rw/rng.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace geer {
namespace {

// Arcs per thread of a Lanczos run's team: below two of these a graph's
// product is too short to pay for waking a helper (BM_LanczosTeam;
// EXPERIMENTS.md, "Parallel λ").
constexpr std::uint64_t kArcsPerTeamThread = 32768;

// options.threads, or one thread per kArcsPerTeamThread arcs, at most one
// per usable CPU.
template <typename GraphT>
int TeamSize(const GraphT& graph, const SpectralOptions& options) {
  if (options.threads > 0) return options.threads;
  return ResolveWorkerCount(0, graph.NumArcs() / kArcsPerTeamThread);
}

double ClampLambda(double lambda2, double lambda_n, double floor_gap) {
  const double raw = std::max(std::abs(lambda2), std::abs(lambda_n));
  return std::clamp(raw, 0.0, 1.0 - floor_gap);
}

SpectralBounds BoundsFromLanczos(const LanczosResult& res,
                                 double floor_gap) {
  SpectralBounds out;
  out.lambda2 = std::min(res.max_eigenvalue, 1.0);
  out.lambda_n = std::max(res.min_eigenvalue, -1.0);
  out.lambda = ClampLambda(out.lambda2, out.lambda_n, floor_gap);
  out.lanczos_iterations = res.iterations;
  out.lambda_residual = std::abs(out.lambda_n) > std::abs(out.lambda2)
                            ? res.residual_lo
                            : res.residual_hi;
  out.lanczos_converged = res.converged;
  return out;
}

}  // namespace

template <WeightPolicy WP>
SpectralBounds ComputeSpectralBoundsT(const typename WP::GraphT& graph,
                                      const SpectralOptions& options) {
  GEER_CHECK_GE(graph.NumNodes(), 2u);
  NormalizedAdjacencyOperatorT<WP> op(graph);
  LanczosOptions lopt;
  lopt.max_iterations = options.max_iterations;
  lopt.tolerance = options.tolerance;
  lopt.seed = options.seed;
  // Each product runs row-parallel on the team, with the serial bits.
  ThreadTeam team(TeamSize(graph, options));
  auto apply = [&op, &team](const Vector& x, Vector* y) {
    op.Apply(x, y, &team);
  };
  return BoundsFromLanczos(LanczosExtremeEigenvalues(
                               apply, op.Dim(), {op.TopEigenvector()}, lopt),
                           options.floor_gap);
}

template <WeightPolicy WP>
SpectralBounds ComputeSpectralBoundsWarmT(const typename WP::GraphT& graph,
                                          std::uint64_t epoch,
                                          SpectralWarmState* state,
                                          const SpectralOptions& options) {
  GEER_CHECK_GE(graph.NumNodes(), 2u);
  GEER_CHECK(state != nullptr);
  NormalizedAdjacencyOperatorT<WP> op(graph);
  LanczosOptions lopt;
  lopt.max_iterations = options.max_iterations;
  lopt.tolerance = options.tolerance;
  // Per-epoch seed: the cold FALLBACK of the warm path is reproducible
  // for (seed, epoch) yet distinct from the construction-time run, which
  // uses options.seed unmixed (a fresh estimator knows no epoch).
  lopt.seed = MixSeed(options.seed, epoch);
  lopt.want_ritz_vectors = true;
  std::vector<Vector> warm;
  if (state->valid && state->max_ritz.size() == op.Dim() &&
      state->min_ritz.size() == op.Dim()) {
    warm.push_back(state->max_ritz);
    warm.push_back(state->min_ritz);
    lopt.warm_start = &warm;
    lopt.stagnation_tolerance = options.warm_stagnation_tolerance;
  }
  ThreadTeam team(TeamSize(graph, options));
  auto apply = [&op, &team](const Vector& x, Vector* y) {
    op.Apply(x, y, &team);
  };
  LanczosResult res = LanczosExtremeEigenvalues(
      apply, op.Dim(), {op.TopEigenvector()}, lopt);

  state->epoch = epoch;
  state->max_ritz = std::move(res.max_ritz_vector);
  state->min_ritz = std::move(res.min_ritz_vector);
  state->valid = !state->max_ritz.empty() && !state->min_ritz.empty();
  return BoundsFromLanczos(res, options.floor_gap);
}

template <WeightPolicy WP>
SpectralBounds ComputeSpectralBoundsDenseT(const typename WP::GraphT& graph) {
  const NodeId n = graph.NumNodes();
  GEER_CHECK_GE(n, 2u);
  GEER_CHECK_LE(n, 4096u) << "dense spectral oracle limited to small graphs";
  Matrix normalized(n, n, 0.0);
  const auto& offsets = graph.Offsets();
  const auto& adj = graph.NeighborArray();
  for (NodeId u = 0; u < n; ++u) {
    const double wu = WP::NodeWeight(graph, u);
    GEER_CHECK(wu > 0.0);
    for (std::uint64_t k = offsets[u]; k < offsets[u + 1]; ++k) {
      const NodeId v = adj[k];
      normalized(u, v) =
          WP::ArcWeight(graph, k) / std::sqrt(wu * WP::NodeWeight(graph, v));
    }
  }
  EigenDecomposition eig = JacobiEigenSolve(normalized);
  SpectralBounds out;
  const std::size_t count = eig.eigenvalues.size();
  out.lambda_n = eig.eigenvalues.front();
  out.lambda2 = count >= 2 ? eig.eigenvalues[count - 2] : out.lambda_n;
  out.lambda = ClampLambda(out.lambda2, out.lambda_n, 1e-12);
  return out;
}

template SpectralBounds ComputeSpectralBoundsT<UnitWeight>(
    const Graph&, const SpectralOptions&);
template SpectralBounds ComputeSpectralBoundsT<EdgeWeight>(
    const WeightedGraph&, const SpectralOptions&);
template SpectralBounds ComputeSpectralBoundsWarmT<UnitWeight>(
    const Graph&, std::uint64_t, SpectralWarmState*, const SpectralOptions&);
template SpectralBounds ComputeSpectralBoundsWarmT<EdgeWeight>(
    const WeightedGraph&, std::uint64_t, SpectralWarmState*,
    const SpectralOptions&);
template SpectralBounds ComputeSpectralBoundsDenseT<UnitWeight>(const Graph&);
template SpectralBounds ComputeSpectralBoundsDenseT<EdgeWeight>(
    const WeightedGraph&);

}  // namespace geer
