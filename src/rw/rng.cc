#include "rw/rng.h"

#include <bit>
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

// The coefficients of x^0 … x^255 in P(x) = x^256 + Σ p_j x^j, the
// characteristic polynomial of xoshiro256's linear state transition, in
// JumpPolynomial's bit order. A Berlekamp–Massey pass over one state
// bit's sequence recovers it (rng_test re-derives it that way).
constexpr Rng::JumpPolynomial kCharacteristicPolynomial = {
    0x9d116f2bb0f0f001ULL, 0x0280002bcefd1a5eULL, 0x04b4edcf26259f85ULL,
    0x0003c03c3f3ecb19ULL};

// A polynomial of degree < 512 over GF(2), in the same bit order.
using WidePolynomial = std::array<std::uint64_t, 8>;

// w mod P. Each set coefficient x^i with i ≥ 256 is replaced by
// x^(i−256) · Σ p_j x^j, whose terms all lie below x^i, so one
// descending pass leaves degree < 256.
Rng::JumpPolynomial ReduceModP(WidePolynomial w) {
  for (int i = 511; i >= 256; --i) {
    const std::uint64_t bit = std::uint64_t{1} << (i % 64);
    if ((w[i / 64] & bit) == 0) continue;
    w[i / 64] ^= bit;
    const int words = (i - 256) / 64;
    const int bits = (i - 256) % 64;
    for (int k = 0; k < 4; ++k) {
      w[k + words] ^= kCharacteristicPolynomial[k] << bits;
      if (bits != 0) {
        w[k + words + 1] ^= kCharacteristicPolynomial[k] >> (64 - bits);
      }
    }
  }
  return {w[0], w[1], w[2], w[3]};
}

// Spreads the 32 bits of x to the even bit positions of a word: over
// GF(2), squaring a polynomial doubles every exponent.
std::uint64_t SpreadBits(std::uint64_t x) {
  x &= 0xFFFFFFFFULL;
  x = (x | (x << 16)) & 0x0000FFFF0000FFFFULL;
  x = (x | (x << 8)) & 0x00FF00FF00FF00FFULL;
  x = (x | (x << 4)) & 0x0F0F0F0F0F0F0F0FULL;
  x = (x | (x << 2)) & 0x3333333333333333ULL;
  x = (x | (x << 1)) & 0x5555555555555555ULL;
  return x;
}

Rng::JumpPolynomial SquareModP(const Rng::JumpPolynomial& a) {
  WidePolynomial w;
  for (int k = 0; k < 4; ++k) {
    w[2 * k] = SpreadBits(a[k]);
    w[2 * k + 1] = SpreadBits(a[k] >> 32);
  }
  return ReduceModP(w);
}

Rng::JumpPolynomial TimesXModP(const Rng::JumpPolynomial& a) {
  const bool overflow = (a[3] >> 63) != 0;
  Rng::JumpPolynomial r = {a[0] << 1, (a[1] << 1) | (a[0] >> 63),
                           (a[2] << 1) | (a[1] >> 63),
                           (a[3] << 1) | (a[2] >> 63)};
  if (overflow) {
    for (int k = 0; k < 4; ++k) r[k] ^= kCharacteristicPolynomial[k];
  }
  return r;
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

Rng::JumpPolynomial Rng::JumpPolynomialFor(std::uint64_t words) {
  // Left-to-right square-and-multiply over the bits of `words`.
  JumpPolynomial r = {1, 0, 0, 0};
  for (int b = std::bit_width(words) - 1; b >= 0; --b) {
    r = SquareModP(r);
    if ((words >> b) & 1) r = TimesXModP(r);
  }
  return r;
}

void Rng::Jump(const JumpPolynomial& poly) {
  // By Cayley–Hamilton, T^n = Σ c_j T^j for x^n mod P = Σ c_j x^j, T
  // the state transition: sum the states T^j s at the set coefficients.
  std::uint64_t acc[4] = {0, 0, 0, 0};
  for (int j = 0; j < 256; ++j) {
    if ((poly[j / 64] >> (j % 64)) & 1) {
      for (int k = 0; k < 4; ++k) acc[k] ^= state_[k];
    }
    Next();
  }
  for (int k = 0; k < 4; ++k) state_[k] = acc[k];
}

Rng Rng::Fork() { return Rng(Next()); }

}  // namespace geer
