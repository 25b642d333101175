#include "linalg/lanczos.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "rw/rng.h"
#include "util/check.h"

namespace geer {
namespace {

// Eigenvalues of a symmetric tridiagonal matrix by bisection-free QL with
// implicit shifts (standard tql1/tql2-style routine). When `z` is
// non-null it must be the k×k identity on entry; the plane rotations are
// accumulated into it (tql2) so column j of the permuted result holds the
// eigenvector of the j-th smallest eigenvalue. The z accumulation never
// feeds back into diag/off, so the returned eigenvalues are bit-identical
// with and without it. Returns the sorted eigenvalues together with the
// sort permutation (identity when z is null — the values alone don't
// need it).
std::vector<double> TridiagonalEigenvalues(std::vector<double> diag,
                                           std::vector<double> off,
                                           Matrix* z = nullptr,
                                           std::vector<int>* perm = nullptr) {
  const int n = static_cast<int>(diag.size());
  if (n == 0) return {};
  off.push_back(0.0);  // off[i] couples i and i+1; pad.
  for (int l = 0; l < n; ++l) {
    int iter = 0;
    int m = 0;
    do {
      for (m = l; m < n - 1; ++m) {
        const double dd = std::abs(diag[m]) + std::abs(diag[m + 1]);
        if (std::abs(off[m]) <= 1e-15 * dd) break;
      }
      if (m != l) {
        GEER_CHECK_LT(iter++, 100) << "tridiagonal QL failed to converge";
        double g = (diag[l + 1] - diag[l]) / (2.0 * off[l]);
        double r = std::hypot(g, 1.0);
        g = diag[m] - diag[l] + off[l] / (g + std::copysign(r, g));
        double s = 1.0;
        double c = 1.0;
        double p = 0.0;
        int i = m - 1;
        for (; i >= l; --i) {
          double f = s * off[i];
          const double b = c * off[i];
          r = std::hypot(f, g);
          off[i + 1] = r;
          if (r == 0.0) {
            diag[i + 1] -= p;
            off[m] = 0.0;
            break;
          }
          s = f / r;
          c = g / r;
          g = diag[i + 1] - p;
          r = (diag[i] - g) * s + 2.0 * c * b;
          p = s * r;
          diag[i + 1] = g + p;
          g = c * r - b;
          if (z != nullptr) {
            for (int k = 0; k < n; ++k) {
              f = (*z)(k, i + 1);
              (*z)(k, i + 1) = s * (*z)(k, i) + c * f;
              (*z)(k, i) = c * (*z)(k, i) - s * f;
            }
          }
        }
        if (r == 0.0 && i >= l) continue;
        diag[l] -= p;
        off[l] = g;
        off[m] = 0.0;
      }
    } while (m != l);
  }
  if (perm != nullptr) {
    perm->resize(n);
    for (int i = 0; i < n; ++i) (*perm)[i] = i;
    std::sort(perm->begin(), perm->end(),
              [&diag](int a, int b) { return diag[a] < diag[b]; });
    std::vector<double> sorted(n);
    for (int i = 0; i < n; ++i) sorted[i] = diag[(*perm)[i]];
    return sorted;
  }
  std::sort(diag.begin(), diag.end());
  return diag;
}

void OrthogonalizeAgainst(const std::vector<Vector>& basis, Vector* v) {
  for (const Vector& b : basis) {
    const double coeff = Dot(b, *v);
    Axpy(-coeff, b, v);
  }
}

// Largest eigenvalue of the symmetric tridiagonal T_k (diagonal `diag`,
// off-diagonal `off`) as a Ritz value with a certified residual. θ is the
// upper end of a Sturm-count bisection bracket; x solves rows 1..k−1 of
// (T_k − θ)·x = 0 from the bottom up (x_{k−1} = 1), the stable direction
// for an extreme eigenvalue. The T-residual
//   r_T = √(‖(T_k − θ)·x‖² + (β_k·x_{k−1})²) / ‖x‖
// is evaluated explicitly, so it holds whatever the rounding in θ and x.
// It equals ‖Op·y − θ·y‖/‖y‖ for y = V_k·x only while the basis V_k is
// orthonormal; without reorthogonalization it is the cheap per-step stop
// test, and ExplicitResidual certifies the pair. O(k) per bisection
// step, where a QL sweep of T_k would be O(k²) per Lanczos iteration.
struct RitzBound {
  double value = 0.0;
  double residual = 0.0;
  Vector x;  ///< the Ritz vector's coordinates in the Lanczos basis
};

RitzBound LargestRitzBound(const std::vector<double>& diag,
                           const std::vector<double>& off, double beta_k) {
  const std::size_t k = diag.size();
  double lo = std::numeric_limits<double>::infinity();
  double hi = -lo;
  for (std::size_t i = 0; i < k; ++i) {
    const double radius = (i > 0 ? std::abs(off[i - 1]) : 0.0) +
                          (i + 1 < k ? std::abs(off[i]) : 0.0);
    lo = std::min(lo, diag[i] - radius);
    hi = std::max(hi, diag[i] + radius);
  }
  const double eps = std::numeric_limits<double>::epsilon();
  const double norm = std::max(std::abs(lo), std::abs(hi));
  const double pivot_floor =
      std::max(eps * norm, std::numeric_limits<double>::min());
  // Sturm count: the number of eigenvalues below x is the number of
  // negative pivots of the LDLᵀ factorization of T_k − x·I.
  const auto all_below = [&](double x) {
    std::size_t count = 0;
    double d = 1.0;
    for (std::size_t i = 0; i < k; ++i) {
      d = diag[i] - x - (i > 0 ? off[i - 1] * off[i - 1] / d : 0.0);
      if (std::abs(d) < pivot_floor) d = -pivot_floor;
      if (d < 0.0) ++count;
    }
    return count == k;
  };
  while (hi - lo > 4.0 * eps * norm) {
    const double mid = lo + 0.5 * (hi - lo);
    if (mid <= lo || mid >= hi) break;
    (all_below(mid) ? hi : lo) = mid;
  }
  const double theta = hi;

  Vector x(k, 0.0);
  x[k - 1] = 1.0;
  double rho = 0.0;
  for (std::size_t i = k - 1; i > 0; --i) {
    rho = theta - diag[i] - (i + 1 < k ? off[i] * off[i] / rho : 0.0);
    if (std::abs(rho) < pivot_floor) rho = pivot_floor;
    x[i - 1] = x[i] * rho / off[i - 1];
    if (std::abs(x[i - 1]) > 1e100) {
      for (std::size_t j = i - 1; j < k; ++j) x[j] *= 1e-100;
    }
  }
  double scale = 0.0;
  for (double e : x) scale = std::max(scale, std::abs(e));
  double residual2 = 0.0;
  double norm2 = 0.0;
  for (std::size_t i = 0; i < k; ++i) {
    double row = (diag[i] - theta) * x[i];
    if (i > 0) row += off[i - 1] * x[i - 1];
    if (i + 1 < k) row += off[i] * x[i + 1];
    residual2 += (row / scale) * (row / scale);
    norm2 += (x[i] / scale) * (x[i] / scale);
  }
  const double tail = beta_k * x[k - 1] / scale;
  return {theta, std::sqrt((residual2 + tail * tail) / norm2), std::move(x)};
}

// Both extreme Ritz values of T_k (diagonal `alpha`, off-diagonal the
// first k−1 entries of `beta`) with their certified residuals; the
// smallest is the largest of −T_k. The routine runs on −diag with the
// same off-diagonal, a matrix similar to −T_k under S = diag(1, −1, 1, …),
// so its x maps back to −T_k's eigenvector by the sign flips of S.
struct RitzExtremes {
  RitzBound lo;
  RitzBound hi;
};

RitzExtremes CertifyExtremes(const std::vector<double>& alpha,
                             const std::vector<double>& beta,
                             double beta_k) {
  const std::vector<double> off(beta.begin(),
                                beta.begin() + (alpha.size() - 1));
  std::vector<double> negated(alpha.size());
  for (std::size_t i = 0; i < alpha.size(); ++i) negated[i] = -alpha[i];
  RitzExtremes out;
  out.hi = LargestRitzBound(alpha, off, beta_k);
  out.lo = LargestRitzBound(negated, off, beta_k);
  out.lo.value = -out.lo.value;
  for (std::size_t i = 1; i < out.lo.x.size(); i += 2) {
    out.lo.x[i] = -out.lo.x[i];
  }
  return out;
}

// ‖Op·y − θ·y‖ for the unit Ritz vector y ∝ V_k·x, deflated, which it
// stores in `*y`: a bound on the distance from θ to an eigenvalue of the
// deflated operator for ANY y, so it needs neither an orthonormal basis
// nor an exact recurrence. One basis combination and one operator
// application.
double ExplicitResidual(
    const std::function<void(const Vector&, Vector*)>& apply,
    const std::vector<Vector>& basis, const std::vector<Vector>& deflate,
    const RitzBound& ritz, Vector* y) {
  y->assign(basis.front().size(), 0.0);
  for (std::size_t j = 0; j < ritz.x.size(); ++j) {
    Axpy(ritz.x[j], basis[j], y);
  }
  OrthogonalizeAgainst(deflate, y);
  const double norm = Norm2(*y);
  if (!(norm > 0.0)) return std::numeric_limits<double>::infinity();
  Scale(1.0 / norm, y);
  Vector residual(y->size(), 0.0);
  apply(*y, &residual);
  Axpy(-ritz.value, *y, &residual);
  return Norm2(residual);
}

}  // namespace

LanczosResult LanczosExtremeEigenvalues(
    const std::function<void(const Vector&, Vector*)>& apply,
    std::size_t dim, const std::vector<Vector>& deflate,
    const LanczosOptions& options) {
  GEER_CHECK_GT(dim, 0u);
  LanczosResult result;

  // Start vector: warm (sum of the caller's carried-over Ritz vectors,
  // deflated) when provided and usable, else the seeded random vector.
  Vector v(dim, 0.0);
  double norm = 0.0;
  if (options.warm_start != nullptr && !options.warm_start->empty()) {
    bool usable = true;
    for (const Vector& w0 : *options.warm_start) {
      if (w0.size() != dim) {
        usable = false;
        break;
      }
    }
    if (usable) {
      for (const Vector& w0 : *options.warm_start) Axpy(1.0, w0, &v);
      OrthogonalizeAgainst(deflate, &v);
      norm = Norm2(v);
      if (norm >= options.tolerance) result.warm_started = true;
    }
  }
  if (!result.warm_started) {
    // Random start vector, deflated and normalized.
    Rng rng(options.seed);
    for (double& e : v) e = rng.NextDouble() - 0.5;
    OrthogonalizeAgainst(deflate, &v);
    norm = Norm2(v);
    if (norm < options.tolerance) {
      // Deflation space covers the start vector (tiny graphs): retry once
      // with a different seed, else report the trivial subspace.
      Rng retry(options.seed + 0x51ed2700);
      for (double& e : v) e = retry.NextDouble() - 0.5;
      OrthogonalizeAgainst(deflate, &v);
      norm = Norm2(v);
      if (norm < options.tolerance) {
        result.converged = true;
        return result;
      }
    }
  }
  Scale(1.0 / norm, &v);

  std::vector<Vector> basis;
  basis.push_back(v);
  std::vector<double> alpha;
  std::vector<double> beta;
  Vector w(dim, 0.0);

  // A values-only run stops on its residual certificate and reports the
  // certified ends of the interval. A run that returns Ritz vectors keeps
  // the fixed budget (or the stagnation exit): the residual bounds an
  // eigenvalue's error, but a Ritz vector's error only by residual/gap.
  const bool certify = !options.want_ritz_vectors;
  // The certificate of the extremes: each end's residual becomes the
  // larger of its T-residual and the explicit residual of its Ritz
  // vector, which the result returns.
  RitzExtremes ritz;
  const auto certify_explicitly = [&] {
    ritz.lo.residual = std::max(
        ritz.lo.residual, ExplicitResidual(apply, basis, deflate, ritz.lo,
                                           &result.min_ritz_vector));
    ritz.hi.residual = std::max(
        ritz.hi.residual, ExplicitResidual(apply, basis, deflate, ritz.hi,
                                           &result.max_ritz_vector));
  };
  const int max_iter =
      std::min<int>(options.max_iterations, static_cast<int>(dim));
  double beta_k = 0.0;  // norm of the last step's residual vector
  bool certified = false;
  double prev_lo = 0.0;
  double prev_hi = 0.0;
  bool have_prev_ritz = false;
  for (int j = 0; j < max_iter; ++j) {
    apply(basis.back(), &w);
    const double a = Dot(basis.back(), w);
    alpha.push_back(a);
    // Three-term recurrence w ← w − a·v_j − β_{j−1}·v_{j−1}, deflated, with
    // no sweep against the earlier basis vectors: the basis loses
    // orthogonality only along Ritz vectors that have already converged
    // (Paige 1980), and the explicit residual below does not rely on it.
    // Deflation stays per step; without it θ_hi drifts to the deflated
    // eigenvalue.
    Axpy(-a, basis.back(), &w);
    if (j > 0) Axpy(-beta.back(), basis[basis.size() - 2], &w);
    OrthogonalizeAgainst(deflate, &w);
    beta_k = Norm2(w);
    result.iterations = j + 1;
    if (beta_k < options.tolerance) {
      result.converged = true;  // Invariant subspace found: exact values.
      break;
    }
    beta.push_back(beta_k);
    // Residual certificate: once both T-residuals are within `tolerance`
    // (O(k) bisection steps), confirm them with the explicit residuals
    // (O(k·dim), paid only here); if either is above, keep iterating.
    if (certify) {
      ritz = CertifyExtremes(alpha, beta, beta_k);
      if (ritz.lo.residual <= options.tolerance &&
          ritz.hi.residual <= options.tolerance) {
        certify_explicitly();
        if (ritz.lo.residual <= options.tolerance &&
            ritz.hi.residual <= options.tolerance) {
          result.converged = true;
          certified = true;
          break;
        }
      }
    }
    Scale(1.0 / beta_k, &w);
    basis.push_back(w);
    // Stagnation early exit: once the extreme Ritz values stop moving,
    // further Krylov growth only polishes interior values the caller
    // never reads. Ritz extremes are monotone in k (Cauchy interlacing),
    // so a sub-tolerance step is a reliable convergence signal when the
    // start vector is already near the extreme eigenvectors.
    if (options.stagnation_tolerance > 0.0 && alpha.size() >= 3) {
      std::vector<double> off(beta.begin(),
                              beta.begin() + (alpha.size() - 1));
      const std::vector<double> values = TridiagonalEigenvalues(alpha, off);
      const double lo = values.front();
      const double hi = values.back();
      if (have_prev_ritz &&
          std::abs(hi - prev_hi) <=
              options.stagnation_tolerance * std::max(1.0, std::abs(hi)) &&
          std::abs(lo - prev_lo) <=
              options.stagnation_tolerance * std::max(1.0, std::abs(lo))) {
        result.converged = true;
        break;
      }
      prev_lo = lo;
      prev_hi = hi;
      have_prev_ritz = true;
    }
  }
  if (alpha.empty()) return result;
  if (certify) {
    // A run that ended on the cap or an invariant subspace gets the same
    // explicit certificate at its last Krylov dimension.
    if (!certified) {
      ritz = CertifyExtremes(alpha, beta, beta_k);
      certify_explicitly();
    }
    result.min_eigenvalue = ritz.lo.value - ritz.lo.residual;
    result.max_eigenvalue = ritz.hi.value + ritz.hi.residual;
    result.residual_lo = ritz.lo.residual;
    result.residual_hi = ritz.hi.residual;
    return result;
  }
  const int k = static_cast<int>(alpha.size());
  std::vector<double> off(beta.begin(), beta.begin() + (k - 1));
  Matrix z(k, k, 0.0);
  for (int i = 0; i < k; ++i) z(i, i) = 1.0;
  std::vector<int> perm;
  const std::vector<double> values =
      TridiagonalEigenvalues(alpha, off, &z, &perm);
  result.min_eigenvalue = values.front();
  result.max_eigenvalue = values.back();
  // Residual β_k·|s_k| from the last row of T_k's eigenvector matrix.
  result.residual_lo = beta_k * std::abs(z(k - 1, perm.front()));
  result.residual_hi = beta_k * std::abs(z(k - 1, perm.back()));
  // Ritz vector = Σ_j basis_j · z(j, idx), in operator coordinates,
  // normalized: without reorthogonalization V_k·z is not a unit vector
  // once a converged extreme has ghost copies.
  const auto combine = [&](int col) {
    Vector out(dim, 0.0);
    for (int j = 0; j < k; ++j) Axpy(z(j, col), basis[j], &out);
    Scale(1.0 / Norm2(out), &out);
    return out;
  };
  result.min_ritz_vector = combine(perm.front());
  result.max_ritz_vector = combine(perm.back());
  return result;
}

}  // namespace geer
