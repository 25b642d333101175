// Spectral preprocessing (paper §3.1): compute λ = max(|λ₂|, |λ_n|) of
// the transition matrix P once per graph; it parameterizes the maximum
// walk lengths of Eq. (5) and Eq. (6). P is similar to the symmetric
// N = D_w^{-1/2} A_w D_w^{-1/2}, so Lanczos on N (with the known top
// eigenvector deflated) yields λ₂ and λ_n as the paper's ARPACK setup
// does. A cold run stops at a certified Ritz residual and reports the
// outer end of each certificate, so λ errs only high (a longer ℓ), up to
// rounding. Weight-generic: the same code serves the unweighted and
// weighted (conductance) stacks through graph/weight_policy.h.
//
// Memory is O(n), whatever the Krylov dimension k: Lanczos keeps three
// basis vectors and regenerates the others in a second pass of the
// recurrence whenever it needs a Ritz vector (linalg/lanczos.h). The
// extra k operator applications go to that regeneration; N's rows are
// summed four at a time in degree order (linalg/transition.h), with the
// bits of the row-by-row sum.

#ifndef GEER_LINALG_SPECTRAL_H_
#define GEER_LINALG_SPECTRAL_H_

#include <cstdint>

#include "graph/weight_policy.h"
#include "linalg/dense.h"

namespace geer {

/// The spectral quantities reused across all queries on a graph.
struct SpectralBounds {
  double lambda2 = 0.0;   ///< second-largest eigenvalue of P
  double lambda_n = 0.0;  ///< smallest eigenvalue of P
  double lambda = 0.0;    ///< max(|λ₂|, |λ_n|), clamped into [0, 1)
  int lanczos_iterations = 0;
  /// Ritz residual r of the extreme that sets λ. A cold run reports λ at
  /// the outer end θ + r of its certificate, so an eigenvalue lies in
  /// [λ − 2r, λ]; a warm run reports the raw Ritz value θ, with an
  /// eigenvalue in [θ − r, θ + r].
  double lambda_residual = 0.0;
  bool lanczos_converged = false;  ///< LanczosResult::converged
};

struct SpectralOptions {
  int max_iterations = 300;
  double tolerance = 1e-10;
  std::uint64_t seed = 42;
  /// Safety margin: λ is clamped to ≤ 1 − `floor_gap` so the walk-length
  /// formulas stay finite even if Lanczos slightly overshoots.
  double floor_gap = 1e-9;
  /// Ritz-value stagnation tolerance for WARM-started runs only (see
  /// LanczosOptions::stagnation_tolerance): with the previous epoch's
  /// Ritz vectors as the start, the extremes stabilize within a few
  /// iterations and the run exits early instead of spending the full
  /// Krylov budget — the O(touched)-ish half of the incremental-epoch
  /// swap. Cold construction-time runs stop on their residual
  /// certificate instead; the warm path's cold fallback (invalid warm
  /// state) records Ritz vectors and so keeps the full budget.
  double warm_stagnation_tolerance = 1e-9;
};

/// Computes λ₂, λ_n and λ for a connected graph under weight policy WP.
/// Non-bipartite inputs get λ < 1; bipartite inputs report λ_n = −1 (the
/// caller should reject them for walk-based estimators, or run
/// EnsureNonBipartite first).
template <WeightPolicy WP>
SpectralBounds ComputeSpectralBoundsT(const typename WP::GraphT& graph,
                                      const SpectralOptions& options = {});

/// Exact (dense Jacobi) spectral bounds for small graphs; test oracle.
template <WeightPolicy WP>
SpectralBounds ComputeSpectralBoundsDenseT(const typename WP::GraphT& graph);

/// Carry-over state for warm-started spectral maintenance across dynamic
/// epochs: the previous epoch's extreme Ritz vectors of N. A small edge
/// update perturbs N locally, so these vectors are near-eigenvectors of
/// the new operator and Lanczos converges in a handful of iterations
/// instead of a cold O(dozens). Invalidated (valid = false) whenever the
/// node count changes or the previous run produced no usable vectors.
struct SpectralWarmState {
  bool valid = false;
  std::uint64_t epoch = 0;  ///< epoch whose run produced the vectors
  Vector max_ritz;          ///< Ritz vector of the largest deflated Ritz value
  Vector min_ritz;          ///< Ritz vector of the smallest Ritz value
};

/// Warm-started spectral bounds for epoch `epoch` of a dynamic graph.
/// Reads `state` (when valid and dimension-matched) to seed the Lanczos
/// start vector, and overwrites it with this epoch's Ritz vectors on
/// return. The Lanczos seed is mixed with the epoch number, so both the
/// warm path and its deterministic cold fallback (state invalid /
/// resized graph) are reproducible AND distinguishable from the
/// construction-time cold run of ComputeSpectralBoundsT. The returned λ
/// generally differs from the cold λ in the last bits (documented drift
/// ≤ the Lanczos tolerance) — callers opt in via GraphEpoch::incremental.
template <WeightPolicy WP>
SpectralBounds ComputeSpectralBoundsWarmT(const typename WP::GraphT& graph,
                                          std::uint64_t epoch,
                                          SpectralWarmState* state,
                                          const SpectralOptions& options = {});

/// Unweighted entry points (historical names).
inline SpectralBounds ComputeSpectralBounds(
    const Graph& graph, const SpectralOptions& options = {}) {
  return ComputeSpectralBoundsT<UnitWeight>(graph, options);
}
inline SpectralBounds ComputeSpectralBoundsDense(const Graph& graph) {
  return ComputeSpectralBoundsDenseT<UnitWeight>(graph);
}

/// Weighted entry points. With unit weights the results match the
/// unweighted functions on the skeleton exactly.
inline SpectralBounds ComputeWeightedSpectralBounds(
    const WeightedGraph& graph, const SpectralOptions& options = {}) {
  return ComputeSpectralBoundsT<EdgeWeight>(graph, options);
}
inline SpectralBounds ComputeWeightedSpectralBoundsDense(
    const WeightedGraph& graph) {
  return ComputeSpectralBoundsDenseT<EdgeWeight>(graph);
}

extern template SpectralBounds ComputeSpectralBoundsT<UnitWeight>(
    const Graph&, const SpectralOptions&);
extern template SpectralBounds ComputeSpectralBoundsT<EdgeWeight>(
    const WeightedGraph&, const SpectralOptions&);
extern template SpectralBounds ComputeSpectralBoundsWarmT<UnitWeight>(
    const Graph&, std::uint64_t, SpectralWarmState*, const SpectralOptions&);
extern template SpectralBounds ComputeSpectralBoundsWarmT<EdgeWeight>(
    const WeightedGraph&, std::uint64_t, SpectralWarmState*,
    const SpectralOptions&);
extern template SpectralBounds ComputeSpectralBoundsDenseT<UnitWeight>(
    const Graph&);
extern template SpectralBounds ComputeSpectralBoundsDenseT<EdgeWeight>(
    const WeightedGraph&);

}  // namespace geer

#endif  // GEER_LINALG_SPECTRAL_H_
