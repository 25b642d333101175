#include "rw/rng.h"

#include <cmath>

#include "util/check.h"

namespace geer {
namespace {

inline std::uint64_t SplitMix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& word : state_) word = SplitMix64(sm);
}

Rng Rng::FromState(std::uint64_t s0, std::uint64_t s1, std::uint64_t s2,
                   std::uint64_t s3) {
  GEER_CHECK((s0 | s1 | s2 | s3) != 0) << "xoshiro state must be non-zero";
  Rng rng;
  rng.state_[0] = s0;
  rng.state_[1] = s1;
  rng.state_[2] = s2;
  rng.state_[3] = s3;
  return rng;
}

double Rng::NextGaussian() {
  if (have_cached_gaussian_) {
    have_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  double u1 = 0.0;
  do {
    u1 = NextDouble();
  } while (u1 <= 0.0);
  const double u2 = NextDouble();
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double angle = 2.0 * M_PI * u2;
  cached_gaussian_ = radius * std::sin(angle);
  have_cached_gaussian_ = true;
  return radius * std::cos(angle);
}

Rng Rng::Fork() { return Rng(Next()); }

}  // namespace geer
