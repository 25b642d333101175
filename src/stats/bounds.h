// Concentration bounds used by the estimators:
//  * Hoeffding's inequality (Lemma 2.3) — a-priori sample-size bounds;
//  * the empirical Bernstein inequality of Audibert et al. (Lemma 3.2) —
//    AMC's data-dependent stopping rule f(η, σ̂², ψ, δ) (Eq. 7).

#ifndef GEER_STATS_BOUNDS_H_
#define GEER_STATS_BOUNDS_H_

#include <cstdint>

namespace geer {

/// Empirical Bernstein half-width (Eq. 7):
///   f(n, σ̂², ψ, δ) = sqrt(2 σ̂² log(3/δ) / n) + 3 ψ log(3/δ) / n
/// for i.i.d. variables in [0, ψ] with empirical variance σ̂².
double EmpiricalBernsteinBound(std::uint64_t num_samples,
                               double empirical_variance, double range_psi,
                               double delta);

/// Hoeffding half-width for n i.i.d. variables in an interval of width ψ:
///   ε(n, ψ, δ) = ψ sqrt(log(2/δ) / (2n)).
double HoeffdingBound(std::uint64_t num_samples, double range_psi,
                      double delta);

/// ⌈x⌉ as a sample count for x ≥ 0, saturating at UINT64_MAX (also for
/// NaN) where a plain cast would be undefined.
std::uint64_t CeilToCount(double x);

/// Hoeffding sample-size bound: smallest n with ε(n, ψ, δ) ≤ ε, i.e.
///   n = ⌈ψ² log(2/δ) / (2 ε²)⌉, saturating at UINT64_MAX.
std::uint64_t HoeffdingSampleCount(double epsilon, double range_psi,
                                   double delta);

/// AMC's maximum sample count η* (Eq. 8): 2 ψ² log(2τ/δ) / ε², the
/// Hoeffding count that makes the τ-th batch alone ε/2-accurate with
/// failure probability δ/τ. Saturates at UINT64_MAX (e.g. at ε = 1e-9).
std::uint64_t AmcMaxSamples(double epsilon, double range_psi, double delta,
                            int num_batches_tau);

}  // namespace geer

#endif  // GEER_STATS_BOUNDS_H_
