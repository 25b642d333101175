#include "linalg/lanczos.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "graph/generators.h"
#include "linalg/jacobi_eigen.h"
#include "linalg/spectral.h"
#include "linalg/transition.h"
#include "rw/rng.h"

namespace geer {
namespace {

// Wraps a dense symmetric matrix as an operator.
std::function<void(const Vector&, Vector*)> AsOperator(const Matrix& m) {
  return [&m](const Vector& x, Vector* y) { *y = MatVec(m, x); };
}

Matrix RandomSymmetric(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Matrix m(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j) {
      const double v = rng.NextGaussian();
      m(i, j) = v;
      m(j, i) = v;
    }
  }
  return m;
}

// ‖Op·y − θ·y‖ for a returned Ritz vector y.
double VectorResidual(const std::function<void(const Vector&, Vector*)>& op,
                      const Vector& y, double theta) {
  Vector r(y.size(), 0.0);
  op(y, &r);
  Axpy(-theta, y, &r);
  return Norm2(r);
}

// A values-only run's certificate is about the unit Ritz vectors it
// returns: each width r is at least ‖Op·y − θ·y‖ of its vector, where
// θ = (outer end) ∓ r. `slack` covers the rounding in recovering θ.
void ExpectCertifiesReturnedVectors(
    const std::function<void(const Vector&, Vector*)>& op,
    const LanczosResult& res, double slack, const std::string& label) {
  ASSERT_FALSE(res.max_ritz_vector.empty()) << label;
  ASSERT_FALSE(res.min_ritz_vector.empty()) << label;
  EXPECT_NEAR(Norm2(res.max_ritz_vector), 1.0, 1e-12) << label;
  EXPECT_NEAR(Norm2(res.min_ritz_vector), 1.0, 1e-12) << label;
  EXPECT_LE(VectorResidual(op, res.max_ritz_vector,
                           res.max_eigenvalue - res.residual_hi),
            res.residual_hi + slack)
      << label;
  EXPECT_LE(VectorResidual(op, res.min_ritz_vector,
                           res.min_eigenvalue + res.residual_lo),
            res.residual_lo + slack)
      << label;
}

TEST(LanczosTest, DiagonalExtremes) {
  Matrix m(5, 5, 0.0);
  const double diag[5] = {-2.0, 0.5, 1.0, 3.0, -1.0};
  for (int i = 0; i < 5; ++i) m(i, i) = diag[i];
  LanczosResult res = LanczosExtremeEigenvalues(AsOperator(m), 5, {});
  EXPECT_NEAR(res.max_eigenvalue, 3.0, 1e-8);
  EXPECT_NEAR(res.min_eigenvalue, -2.0, 1e-8);
}

TEST(LanczosTest, MatchesJacobiOnRandomSymmetric) {
  const std::size_t n = 30;
  Matrix m = RandomSymmetric(n, 123);
  EigenDecomposition dense = JacobiEigenSolve(m);
  LanczosResult res = LanczosExtremeEigenvalues(AsOperator(m), n, {});
  EXPECT_NEAR(res.max_eigenvalue, dense.eigenvalues.back(), 1e-7);
  EXPECT_NEAR(res.min_eigenvalue, dense.eigenvalues.front(), 1e-7);
}

TEST(LanczosTest, DeflationExposesSecondEigenvalue) {
  const std::size_t n = 25;
  Matrix m = RandomSymmetric(n, 321);
  EigenDecomposition dense = JacobiEigenSolve(m);
  // Deflate the top eigenvector; the max Ritz value is then λ_{n−1}.
  Vector top(n);
  for (std::size_t i = 0; i < n; ++i) {
    top[i] = dense.eigenvectors(i, n - 1);
  }
  LanczosResult res = LanczosExtremeEigenvalues(AsOperator(m), n, {top});
  EXPECT_NEAR(res.max_eigenvalue, dense.eigenvalues[n - 2], 1e-7);
}

TEST(LanczosTest, ConvergesOnLowRank) {
  // Rank-1 matrix v vᵀ: eigenvalues {‖v‖², 0,…}; Lanczos must stop early.
  const std::size_t n = 40;
  Rng rng(9);
  Vector v(n);
  for (auto& e : v) e = rng.NextGaussian();
  Matrix m(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) m(i, j) = v[i] * v[j];
  }
  LanczosResult res = LanczosExtremeEigenvalues(AsOperator(m), n, {});
  EXPECT_TRUE(res.converged);
  EXPECT_LT(res.iterations, 5);
  EXPECT_NEAR(res.max_eigenvalue, Dot(v, v), 1e-6);
}

TEST(LanczosTest, IterationCapRespected) {
  const std::size_t n = 50;
  Matrix m = RandomSymmetric(n, 8);
  LanczosOptions opt;
  opt.max_iterations = 10;
  LanczosResult res = LanczosExtremeEigenvalues(AsOperator(m), n, {}, opt);
  EXPECT_LE(res.iterations, 10);
  EXPECT_FALSE(res.converged);  // the cap, not a certificate, ended it
}

// At every Krylov dimension — certified or capped — a values-only run
// returns θ ± r such that [θ − r, θ + r] holds an eigenvalue, and stops
// once both residuals are within tolerance.
TEST(LanczosTest, ResidualCertificateHoldsAtEveryCap) {
  const std::size_t n = 40;
  Matrix m = RandomSymmetric(n, 77);
  EigenDecomposition dense = JacobiEigenSolve(m);
  const auto brackets_eigenvalue = [&](double center, double radius) {
    for (double e : dense.eigenvalues) {
      if (std::abs(e - center) <= radius + 1e-12) return true;
    }
    return false;
  };
  for (int cap = 1; cap <= static_cast<int>(n); ++cap) {
    LanczosOptions opt;
    opt.max_iterations = cap;
    LanczosResult res = LanczosExtremeEigenvalues(AsOperator(m), n, {}, opt);
    EXPECT_TRUE(brackets_eigenvalue(res.max_eigenvalue - res.residual_hi,
                                    res.residual_hi))
        << "cap " << cap;
    EXPECT_TRUE(brackets_eigenvalue(res.min_eigenvalue + res.residual_lo,
                                    res.residual_lo))
        << "cap " << cap;
    ExpectCertifiesReturnedVectors(AsOperator(m), res, 1e-14,
                                   "cap " + std::to_string(cap));
    if (res.converged) {
      EXPECT_LE(res.residual_hi, opt.tolerance) << "cap " << cap;
      EXPECT_LE(res.residual_lo, opt.tolerance) << "cap " << cap;
      EXPECT_GE(res.max_eigenvalue, dense.eigenvalues.back() - 1e-12);
      EXPECT_LE(res.min_eigenvalue, dense.eigenvalues.front() + 1e-12);
    }
  }
}

// Run far past convergence (tolerance 0, 300 steps on a 400-node graph),
// where the plain recurrence has long lost orthogonality and the extreme
// Ritz values have ghost copies: the run reports the cap, and its bounds
// still enclose the dense oracle's λ₂ and λ_n, and tightly.
TEST(LanczosTest, PastConvergenceBoundsEncloseDenseOracle) {
  // The Jacobi oracle on a 400×400 matrix is good to ~1e-13.
  const double kOracleSlack = 1e-12;
  const Graph g = gen::ErdosRenyi(400, 2400, 1);
  NormalizedAdjacencyOperator op(g);
  const auto apply = [&op](const Vector& x, Vector* y) { op.Apply(x, y); };
  LanczosOptions opt;
  opt.tolerance = 0.0;
  opt.max_iterations = 300;
  const LanczosResult res = LanczosExtremeEigenvalues(
      apply, op.Dim(), {op.TopEigenvector()}, opt);
  const SpectralBounds dense = ComputeSpectralBoundsDense(g);
  EXPECT_FALSE(res.converged);
  EXPECT_EQ(res.iterations, 300);
  EXPECT_GE(res.max_eigenvalue, dense.lambda2 - kOracleSlack);
  EXPECT_LE(res.min_eigenvalue, dense.lambda_n + kOracleSlack);
  EXPECT_LE(res.max_eigenvalue - dense.lambda2, 1e-10);
  EXPECT_LE(dense.lambda_n - res.min_eigenvalue, 1e-10);
  ExpectCertifiesReturnedVectors(apply, res, 1e-15, "ER(400, 2400)");
}

// A spectrum clustered toward 0 (1 down to 1e-12 geometrically) with an
// isolated −1, run to its cap: both ends converge early and then recur as
// ghosts, and the Ritz vectors V_k·x shrink below ‖x‖ — by up to ~5× here
// — so the tridiagonal residual alone understates the true one. The
// reported width must still cover the returned vector's explicit residual,
// and the exactly known extremes ±1 stay enclosed.
TEST(LanczosTest, ClusteredSpectrumCertificateIsExplicit) {
  const std::size_t n = 400;
  Vector diag(n);
  for (std::size_t i = 0; i + 1 < n; ++i) {
    diag[i] = std::pow(10.0, -12.0 * static_cast<double>(i) / (n - 2.0));
  }
  diag[n - 1] = -1.0;
  const auto apply = [&diag](const Vector& x, Vector* y) {
    y->resize(x.size());
    for (std::size_t i = 0; i < x.size(); ++i) (*y)[i] = diag[i] * x[i];
  };
  for (int cap : {200, 250, 300}) {
    LanczosOptions opt;
    opt.tolerance = 0.0;
    opt.max_iterations = cap;
    const LanczosResult res = LanczosExtremeEigenvalues(apply, n, {}, opt);
    EXPECT_FALSE(res.converged) << "cap " << cap;
    EXPECT_GE(res.max_eigenvalue, 1.0) << "cap " << cap;
    EXPECT_LE(res.min_eigenvalue, -1.0) << "cap " << cap;
    ExpectCertifiesReturnedVectors(apply, res, 4e-16,
                                   "cap " + std::to_string(cap));
  }
}

}  // namespace
}  // namespace geer
