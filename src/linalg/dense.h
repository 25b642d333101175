// Dense vector/matrix primitives. The library deliberately avoids external
// BLAS/LAPACK dependencies: everything an estimator needs (Cholesky,
// symmetric eigensolve, CG, Lanczos) is implemented here from scratch.

#ifndef GEER_LINALG_DENSE_H_
#define GEER_LINALG_DENSE_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "util/check.h"

namespace geer {

/// Dense column vector of doubles.
using Vector = std::vector<double>;

/// Dense row-major square/rectangular matrix.
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  std::size_t Rows() const { return rows_; }
  std::size_t Cols() const { return cols_; }

  double& operator()(std::size_t r, std::size_t c) {
    GEER_DCHECK(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    GEER_DCHECK(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  /// Raw row pointer (row-major layout).
  double* Row(std::size_t r) { return data_.data() + r * cols_; }
  const double* Row(std::size_t r) const { return data_.data() + r * cols_; }

  const std::vector<double>& Data() const { return data_; }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

// --- Vector kernels --------------------------------------------------------

/// Dot product. Vectors must have equal length.
double Dot(const Vector& x, const Vector& y);

/// Euclidean norm.
double Norm2(const Vector& x);

/// y ← y + alpha·x.
void Axpy(double alpha, const Vector& x, Vector* y);

/// x ← alpha·x.
void Scale(double alpha, Vector* x);

/// Sum of entries.
double Sum(const Vector& x);

/// Largest entry (requires non-empty x).
double Max(const Vector& x);

/// Smallest entry (requires non-empty x).
double Min(const Vector& x);

/// The two largest entries of x: {max1, max2}. For a one-element vector
/// max2 is 0 (matching the Eq. (9) convention where absent entries are 0).
std::pair<double, double> TopTwo(const Vector& x);

/// TopTwo's fold over a stream of entries, for loops that already visit
/// every entry and report the top-two without a second pass. Starting at
/// {0, 0} instead of TopTwo's {−1e300, −1e300} folds in the zeros a
/// sparse vector leaves implicit; over two or more non-negative entries
/// both starts give the same result.
struct TopTwoFold {
  double max1;
  double max2;

  void Add(double v) {
    if (v > max1) {
      max2 = max1;
      max1 = v;
    } else if (v > max2) {
      max2 = v;
    }
  }
  std::pair<double, double> Get() const { return {max1, max2}; }
};

/// Subtracts the mean from every entry (projection onto 𝟙^⊥), used when
/// solving singular Laplacian systems.
void RemoveMean(Vector* x);

/// y ← M·x for dense M.
Vector MatVec(const Matrix& m, const Vector& x);

}  // namespace geer

#endif  // GEER_LINALG_DENSE_H_
