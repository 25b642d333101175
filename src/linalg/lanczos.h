// Lanczos iteration for extreme eigenvalues of a symmetric operator: the
// plain three-term recurrence (no reorthogonalization against earlier
// basis vectors) with an explicit residual certificate. This replaces the
// paper's ARPACK dependency for the λ = max(|λ₂|, |λ_n|) preprocessing
// step (§3.1).

#ifndef GEER_LINALG_LANCZOS_H_
#define GEER_LINALG_LANCZOS_H_

#include <functional>
#include <vector>

#include "linalg/dense.h"

namespace geer {

/// Options controlling the Lanczos run.
struct LanczosOptions {
  int max_iterations = 200;   ///< Krylov dimension cap
  /// Residual/beta breakdown tolerance: a values-only run stops once
  /// both extreme Ritz residuals are ≤ this (see LanczosResult).
  double tolerance = 1e-10;
  std::uint64_t seed = 42;    ///< deterministic start vector
  /// When non-null and non-empty, the start vector is the (deflated,
  /// normalized) SUM of these vectors instead of the seeded random
  /// vector — the warm-start hook for incremental epoch maintenance,
  /// where the previous epoch's extreme Ritz vectors are excellent
  /// starts for the perturbed operator. Vectors whose dimension does
  /// not match, or whose deflated sum is numerically zero, fall back
  /// to the deterministic seeded cold start.
  const std::vector<Vector>* warm_start = nullptr;
  /// Ritz-value stagnation early exit (0 disables). When positive, each
  /// iteration past a small minimum solves the values-only tridiagonal
  /// problem (O(k²), small next to a step's SpMV for the few iterations
  /// a warm run takes) and stops once BOTH extreme Ritz values moved by
  /// less than this relative tolerance since the previous iteration.
  /// Ritz values need no orthogonal basis for this. Intended for the
  /// warm-started spectral path, where a near-eigenvector start
  /// converges the extremes in a handful of iterations.
  double stagnation_tolerance = 0.0;
  /// Selects what the run returns, and with it the stop rule.
  ///  - false (values only): the run stops as soon as both extreme Ritz
  ///    residuals are ≤ `tolerance` — first the O(k) T-residual, then,
  ///    when that passes, the explicit ‖Op·y − θ·y‖/‖y‖ — and returns
  ///    the certified outer ends θ_hi + r_hi and θ_lo − r_lo (with the
  ///    Ritz vectors y the certificate was evaluated on).
  ///  - true: the run returns the Ritz VECTORS of the extreme Ritz
  ///    values from T_k's eigenvectors (one k×k eigenvector accumulation
  ///    plus two basis combinations) with the raw Ritz values, and stops
  ///    only on an
  ///    invariant subspace, the stagnation exit or the `max_iterations`
  ///    cap: a small residual certifies a Ritz value, but a Ritz vector
  ///    only to residual/gap.
  bool want_ritz_vectors = false;
};

/// Result: extreme eigenvalue estimates of the operator restricted to the
/// subspace orthogonal to the supplied deflation vectors. In a values-only
/// run, r is the larger of the tridiagonal T-residual and the explicit
/// residual ‖Op·y − θ·y‖/‖y‖ of the Ritz vector y, evaluated with the
/// operator itself; the latter bounds the distance from θ to an
/// eigenvalue for any y ≠ 0, so the certificate does not rely on the
/// basis staying orthogonal (it does not: no reorthogonalization). The
/// operator has an eigenvalue in [θ − r, θ + r]. Values-only runs return
/// θ ± r on the outer side; Ritz-vector runs return θ with the
/// T-residual. The certificate does not rule out an extreme eigenvalue
/// the Krylov space missed altogether.
struct LanczosResult {
  double max_eigenvalue = 0.0;  ///< θ_hi + r_hi (values only), else θ_hi
  double min_eigenvalue = 0.0;  ///< θ_lo − r_lo (values only), else θ_lo
  double residual_hi = 0.0;     ///< r_hi: certificate width of the max
  double residual_lo = 0.0;     ///< r_lo: certificate width of the min
  int iterations = 0;           ///< Krylov dimension actually built
  /// True on an invariant subspace, on a certified residual (both
  /// r ≤ tolerance) or on the stagnation exit; false when the
  /// `max_iterations` cap ended the run. A capped values-only run still
  /// returns valid (wider) θ ± r bounds.
  bool converged = false;
  bool warm_started = false;    ///< start vector came from warm_start
  /// Ritz vectors for the extreme Ritz values, in operator coordinates;
  /// empty when the Krylov space is trivial. A values-only run returns
  /// the unit vectors y its certificate was evaluated on, so
  /// ‖Op·y − θ·y‖ ≤ r; a Ritz-vector run returns V_k·s for the
  /// eigenvector s of T_k.
  Vector max_ritz_vector;
  Vector min_ritz_vector;
};

/// Runs Lanczos on the symmetric operator `apply` (y ← Op·x) of dimension
/// `dim`, deflating the (orthonormal) vectors in `deflate` — pass the
/// known top eigenvector to expose λ₂. Each iteration costs one operator
/// application and O(dim) vector work; the k×dim basis is stored for the
/// Ritz vectors. The basis loses orthogonality only along Ritz vectors
/// that have converged (Paige 1980), which leaves the extreme Ritz values
/// accurate; the explicit residual certifies them.
LanczosResult LanczosExtremeEigenvalues(
    const std::function<void(const Vector&, Vector*)>& apply,
    std::size_t dim, const std::vector<Vector>& deflate,
    const LanczosOptions& options = {});

}  // namespace geer

#endif  // GEER_LINALG_LANCZOS_H_
