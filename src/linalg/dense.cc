#include "linalg/dense.h"

#include <algorithm>
#include <cmath>

namespace geer {

double Dot(const Vector& x, const Vector& y) {
  GEER_CHECK_EQ(x.size(), y.size());
  double acc = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) acc += x[i] * y[i];
  return acc;
}

double Norm2(const Vector& x) { return std::sqrt(Dot(x, x)); }

void Axpy(double alpha, const Vector& x, Vector* y) {
  GEER_CHECK_EQ(x.size(), y->size());
  for (std::size_t i = 0; i < x.size(); ++i) (*y)[i] += alpha * x[i];
}

void Scale(double alpha, Vector* x) {
  for (double& v : *x) v *= alpha;
}

double Sum(const Vector& x) {
  double acc = 0.0;
  for (double v : x) acc += v;
  return acc;
}

double Max(const Vector& x) {
  GEER_CHECK(!x.empty());
  return *std::max_element(x.begin(), x.end());
}

double Min(const Vector& x) {
  GEER_CHECK(!x.empty());
  return *std::min_element(x.begin(), x.end());
}

std::pair<double, double> TopTwo(const Vector& x) {
  GEER_CHECK(!x.empty());
  TopTwoFold fold{-1e300, -1e300};
  for (double v : x) fold.Add(v);
  if (x.size() == 1) fold.max2 = 0.0;
  return fold.Get();
}

void RemoveMean(Vector* x) {
  if (x->empty()) return;
  const double mean = Sum(*x) / static_cast<double>(x->size());
  for (double& v : *x) v -= mean;
}

Vector MatVec(const Matrix& m, const Vector& x) {
  GEER_CHECK_EQ(m.Cols(), x.size());
  Vector y(m.Rows(), 0.0);
  for (std::size_t r = 0; r < m.Rows(); ++r) {
    const double* row = m.Row(r);
    double acc = 0.0;
    for (std::size_t c = 0; c < m.Cols(); ++c) acc += row[c] * x[c];
    y[r] = acc;
  }
  return y;
}

}  // namespace geer
