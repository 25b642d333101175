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

// Extreme Ritz values of the symmetric tridiagonal T_k (diagonal
// `diag`, off-diagonal `off`) with certified residuals. θ is the upper
// end of a Sturm-count bisection bracket; x solves rows 1..k−1 of
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

// The bisection for the largest eigenvalue of one tridiagonal matrix:
// the Gershgorin bracket [lo, hi], halved at its midpoint until it is
// 4·eps·norm wide or the midpoint no longer splits it. θ is `hi`.
struct TopBisection {
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  double norm = 0.0;
  double pivot_floor = 0.0;
  double mid = 0.0;
  bool done = false;

  TopBisection(const std::vector<double>& diag,
               const std::vector<double>& off) {
    const std::size_t k = diag.size();
    for (std::size_t i = 0; i < k; ++i) {
      const double radius = (i > 0 ? std::abs(off[i - 1]) : 0.0) +
                            (i + 1 < k ? std::abs(off[i]) : 0.0);
      lo = std::min(lo, diag[i] - radius);
      hi = std::max(hi, diag[i] + radius);
    }
    norm = std::max(std::abs(lo), std::abs(hi));
    pivot_floor = std::max(kEps * norm, std::numeric_limits<double>::min());
  }

  // Sets `mid` and returns true while the bracket still needs a step.
  bool NextMid() {
    if (done || !(hi - lo > 4.0 * kEps * norm)) {
      done = true;
      return false;
    }
    mid = lo + 0.5 * (hi - lo);
    done = mid <= lo || mid >= hi;
    return !done;
  }
  void Update(bool all_below) { (all_below ? hi : lo) = mid; }

  static constexpr double kEps = std::numeric_limits<double>::epsilon();
};

// Sturm count: the number of eigenvalues of T below x is the number of
// negative pivots of the LDLᵀ factorization of T − x·I. One pivot, from
// the previous one, floored away from zero.
double SturmPivot(const std::vector<double>& diag,
                  const std::vector<double>& off, std::size_t i, double x,
                  double d, double pivot_floor) {
  d = diag[i] - x - (i > 0 ? off[i - 1] * off[i - 1] / d : 0.0);
  if (std::abs(d) < pivot_floor) d = -pivot_floor;
  return d;
}

// Whether all eigenvalues of each of two matrices sharing `off` lie below
// its bisection's midpoint, in one loop: the two pivot recurrences are
// independent division chains, so they overlap.
std::pair<bool, bool> BothAllBelow(const std::vector<double>& diag_a,
                                   const TopBisection& a,
                                   const std::vector<double>& diag_b,
                                   const TopBisection& b,
                                   const std::vector<double>& off) {
  std::size_t count_a = 0;
  std::size_t count_b = 0;
  double d_a = 1.0;
  double d_b = 1.0;
  for (std::size_t i = 0; i < diag_a.size(); ++i) {
    d_a = SturmPivot(diag_a, off, i, a.mid, d_a, a.pivot_floor);
    d_b = SturmPivot(diag_b, off, i, b.mid, d_b, b.pivot_floor);
    if (d_a < 0.0) ++count_a;
    if (d_b < 0.0) ++count_b;
  }
  return {count_a == diag_a.size(), count_b == diag_b.size()};
}

// The Ritz pair at θ = the converged bracket's top, with its T-residual.
RitzBound RitzAt(const std::vector<double>& diag,
                 const std::vector<double>& off, double beta_k,
                 const TopBisection& b) {
  const std::size_t k = diag.size();
  const double theta = b.hi;
  Vector x(k, 0.0);
  x[k - 1] = 1.0;
  double rho = 0.0;
  for (std::size_t i = k - 1; i > 0; --i) {
    rho = theta - diag[i] - (i + 1 < k ? off[i] * off[i] / rho : 0.0);
    if (std::abs(rho) < b.pivot_floor) rho = b.pivot_floor;
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
// so its x maps back to −T_k's eigenvector by the sign flips of S. The
// two bisections run in one loop, each with its own bracket and exit.
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
  TopBisection hi(alpha, off);
  TopBisection lo(negated, off);
  for (;;) {
    const bool step_hi = hi.NextMid();
    const bool step_lo = lo.NextMid();
    if (!step_hi && !step_lo) break;
    // A finished chain's count (at its last midpoint) is discarded.
    const auto [hi_below, lo_below] =
        BothAllBelow(alpha, hi, negated, lo, off);
    if (step_hi) hi.Update(hi_below);
    if (step_lo) lo.Update(lo_below);
  }
  RitzExtremes out;
  out.hi = RitzAt(alpha, off, beta_k, hi);
  out.lo = RitzAt(negated, off, beta_k, lo);
  out.lo.value = -out.lo.value;
  for (std::size_t i = 1; i < out.lo.x.size(); i += 2) {
    out.lo.x[i] = -out.lo.x[i];
  }
  return out;
}

// The recurrence's residual for basis vector v = v_j, in place on
// w = Op·v: w ← w − a·v − b·v_{j−1}, then w ← w − (d·w)·d for each
// deflation vector d in turn, then w ← scale·w. Returns ‖w‖² before the
// scaling. At j = 0, v_{−1} = 0 and b = 0: adding −0·0 = −0 leaves every
// entry's bits unchanged. Each entry is rounded exactly as the separate
// Axpy, Axpy, OrthogonalizeAgainst, Norm2 and Scale passes would round
// it, and each sum adds its terms in the same index order; the passes
// are fused into one sweep per deflation vector plus one, each folding
// in the dot product the next sweep needs.
double RecurrenceResidual(double a, const Vector& v, double b,
                          const Vector& prev,
                          const std::vector<Vector>& deflate, double scale,
                          Vector* w) {
  const std::size_t n = w->size();
  GEER_CHECK_EQ(v.size(), n);
  GEER_CHECK_EQ(prev.size(), n);
  for (const Vector& d : deflate) GEER_CHECK_EQ(d.size(), n);
  double* ws = w->data();
  const double* vs = v.data();
  const double* ps = prev.data();
  double fold = 0.0;
  if (deflate.empty()) {
    for (std::size_t i = 0; i < n; ++i) {
      const double wi = (ws[i] + -a * vs[i]) + -b * ps[i];
      fold += wi * wi;
      ws[i] = wi * scale;
    }
    return fold;
  }
  const double* first = deflate.front().data();
  for (std::size_t i = 0; i < n; ++i) {
    const double wi = (ws[i] + -a * vs[i]) + -b * ps[i];
    fold += first[i] * wi;
    ws[i] = wi;
  }
  for (std::size_t t = 0; t < deflate.size(); ++t) {
    const double coeff = fold;
    const double* d = deflate[t].data();
    fold = 0.0;
    if (t + 1 < deflate.size()) {
      const double* next = deflate[t + 1].data();
      for (std::size_t i = 0; i < n; ++i) {
        const double wi = ws[i] + -coeff * d[i];
        fold += next[i] * wi;
        ws[i] = wi;
      }
    } else {
      for (std::size_t i = 0; i < n; ++i) {
        const double wi = ws[i] + -coeff * d[i];
        fold += wi * wi;
        ws[i] = wi * scale;
      }
    }
  }
  return fold;
}

// The second pass: y_a = V_k·x_a and y_b = V_k·x_b (k = x_a.size()),
// without a stored basis. It regenerates v_1 … v_{k−1} from v_0 and the
// recorded α_j and β_j by the first pass's own sequence — apply,
// RecurrenceResidual, scale by 1/β_j — so every v_j has the first pass's
// bits, and adds x·v_j into both sums in j order. k − 1 operator
// applications and three scratch vectors.
void CombineBasis(const std::function<void(const Vector&, Vector*)>& apply,
                  const std::vector<Vector>& deflate, const Vector& v0,
                  const std::vector<double>& alpha,
                  const std::vector<double>& beta, const Vector& x_a,
                  const Vector& x_b, Vector* y_a, Vector* y_b) {
  const std::size_t k = x_a.size();
  GEER_CHECK_EQ(x_b.size(), k);
  y_a->assign(v0.size(), 0.0);
  y_b->assign(v0.size(), 0.0);
  Vector prev(v0.size(), 0.0);
  Vector cur = v0;
  Vector w(v0.size(), 0.0);
  double* ya = y_a->data();
  double* yb = y_b->data();
  for (std::size_t j = 0; j < k; ++j) {
    const double* c = cur.data();
    for (std::size_t i = 0; i < cur.size(); ++i) {  // both Axpy(x[j], v_j)
      ya[i] += x_a[j] * c[i];
      yb[i] += x_b[j] * c[i];
    }
    if (j + 1 == k) break;
    apply(cur, &w);
    RecurrenceResidual(alpha[j], cur, j > 0 ? beta[j - 1] : 0.0, prev,
                       deflate, 1.0 / beta[j], &w);
    prev.swap(cur);
    cur.swap(w);
  }
}

// ‖Op·y − θ·y‖ for the unit Ritz vector y ∝ V_k·x, deflated, which it
// takes in `*y` as V_k·x and leaves normalized: a bound on the distance
// from θ to an eigenvalue of the deflated operator for ANY y, so it needs
// neither an orthonormal basis nor an exact recurrence. One operator
// application.
double ExplicitResidual(
    const std::function<void(const Vector&, Vector*)>& apply,
    const std::vector<Vector>& deflate, double theta, Vector* y) {
  OrthogonalizeAgainst(deflate, y);
  const double norm = Norm2(*y);
  if (!(norm > 0.0)) return std::numeric_limits<double>::infinity();
  Scale(1.0 / norm, y);
  Vector residual(y->size(), 0.0);
  apply(*y, &residual);
  Axpy(-theta, *y, &residual);
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

  // The first pass keeps v_0 (for the second pass), v_{j−1} and v_j, and
  // records α and β; the Ritz vectors come from CombineBasis.
  const Vector v0 = v;
  Vector prev(dim, 0.0);
  Vector cur = std::move(v);
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
    CombineBasis(apply, deflate, v0, alpha, beta, ritz.lo.x, ritz.hi.x,
                 &result.min_ritz_vector, &result.max_ritz_vector);
    ritz.lo.residual =
        std::max(ritz.lo.residual,
                 ExplicitResidual(apply, deflate, ritz.lo.value,
                                  &result.min_ritz_vector));
    ritz.hi.residual =
        std::max(ritz.hi.residual,
                 ExplicitResidual(apply, deflate, ritz.hi.value,
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
    apply(cur, &w);
    const double a = Dot(cur, w);
    alpha.push_back(a);
    // Three-term recurrence w ← w − a·v_j − β_{j−1}·v_{j−1}, deflated, with
    // no sweep against the earlier basis vectors: the basis loses
    // orthogonality only along Ritz vectors that have already converged
    // (Paige 1980), and the explicit residual below does not rely on it.
    // Deflation stays per step; without it θ_hi drifts to the deflated
    // eigenvalue.
    beta_k = std::sqrt(RecurrenceResidual(a, cur, j > 0 ? beta.back() : 0.0,
                                          prev, deflate, 1.0, &w));
    result.iterations = j + 1;
    if (beta_k < options.tolerance) {
      result.converged = true;  // Invariant subspace found: exact values.
      break;
    }
    beta.push_back(beta_k);
    // Residual certificate: once both T-residuals are within `tolerance`
    // (O(k) bisection steps), confirm them with the explicit residuals
    // (a second pass of j operator applications, paid only here); if
    // either is above, keep iterating from the live v_{j−1} and v_j.
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
    prev.swap(cur);
    cur.swap(w);
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
  // Ritz vector = Σ_j v_j · z(j, idx), in operator coordinates,
  // normalized: without reorthogonalization V_k·z is not a unit vector
  // once a converged extreme has ghost copies.
  Vector x_lo(k);
  Vector x_hi(k);
  for (int j = 0; j < k; ++j) {
    x_lo[j] = z(j, perm.front());
    x_hi[j] = z(j, perm.back());
  }
  CombineBasis(apply, deflate, v0, alpha, beta, x_lo, x_hi,
               &result.min_ritz_vector, &result.max_ritz_vector);
  Scale(1.0 / Norm2(result.min_ritz_vector), &result.min_ritz_vector);
  Scale(1.0 / Norm2(result.max_ritz_vector), &result.max_ritz_vector);
  return result;
}

}  // namespace geer
