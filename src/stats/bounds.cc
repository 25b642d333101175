#include "stats/bounds.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace geer {

double EmpiricalBernsteinBound(std::uint64_t num_samples,
                               double empirical_variance, double range_psi,
                               double delta) {
  GEER_CHECK_GT(num_samples, 0u);
  GEER_CHECK(delta > 0.0 && delta < 1.0);
  GEER_CHECK_GE(empirical_variance, -1e-12);
  const double n = static_cast<double>(num_samples);
  const double log_term = std::log(3.0 / delta);
  const double var = std::max(empirical_variance, 0.0);
  return std::sqrt(2.0 * var * log_term / n) +
         3.0 * range_psi * log_term / n;
}

double HoeffdingBound(std::uint64_t num_samples, double range_psi,
                      double delta) {
  GEER_CHECK_GT(num_samples, 0u);
  GEER_CHECK(delta > 0.0 && delta < 1.0);
  const double n = static_cast<double>(num_samples);
  return range_psi * std::sqrt(std::log(2.0 / delta) / (2.0 * n));
}

std::uint64_t CeilToCount(double x) {
  constexpr double kTwoTo64 = 18446744073709551616.0;
  const double c = std::ceil(x);
  return c < kTwoTo64 ? static_cast<std::uint64_t>(c) : UINT64_MAX;
}

std::uint64_t HoeffdingSampleCount(double epsilon, double range_psi,
                                   double delta) {
  GEER_CHECK(epsilon > 0.0);
  GEER_CHECK(delta > 0.0 && delta < 1.0);
  const double n =
      range_psi * range_psi * std::log(2.0 / delta) / (2.0 * epsilon * epsilon);
  return CeilToCount(std::max(n, 1.0));
}

std::uint64_t AmcMaxSamples(double epsilon, double range_psi, double delta,
                            int num_batches_tau) {
  GEER_CHECK(epsilon > 0.0);
  GEER_CHECK(delta > 0.0 && delta < 1.0);
  GEER_CHECK_GE(num_batches_tau, 1);
  const double n = 2.0 * range_psi * range_psi *
                   std::log(2.0 * num_batches_tau / delta) /
                   (epsilon * epsilon);
  return CeilToCount(std::max(n, 1.0));
}

}  // namespace geer
