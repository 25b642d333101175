// Deterministic, fast pseudo-random number generation for Monte Carlo
// walk sampling. xoshiro256++ seeded via splitmix64: sub-nanosecond
// next(), 2^256−1 period, and reproducible across platforms — every
// randomized estimator in this library threads an explicit Rng so paper
// experiments replay bit-identically.

#ifndef GEER_RW_RNG_H_
#define GEER_RW_RNG_H_

#include <array>
#include <cstdint>

#include "util/check.h"

namespace geer {

/// One raw word mapped onto [0, bound) by Lemire's multiply-shift.
struct BoundedDraw {
  std::uint64_t index;  ///< ⌊x · bound / 2^64⌋
  bool accepted;        ///< false: x is in the biased sliver, redraw
};

/// Lemire's nearly-divisionless map of the raw word `x` onto [0, bound):
/// the high word of x·bound, rejected when the low word is below
/// 2^64 mod bound (probability < bound/2^64). Rng::NextBounded and the
/// pre-drawn-word walk steps (rw/walker.h, rw/alias.h) both go through
/// here, so a serial draw and a replayed word can never disagree.
inline BoundedDraw LemireBounded(std::uint64_t x, std::uint64_t bound) {
  const __uint128_t m = static_cast<__uint128_t>(x) * bound;
  const std::uint64_t low = static_cast<std::uint64_t>(m);
  // 2^64 mod bound < bound, so the division runs only when low < bound.
  const bool accepted = low >= bound || low >= (0 - bound) % bound;
  return {static_cast<std::uint64_t>(m >> 64), accepted};
}

/// The raw word `x` as a uniform double in [0, 1) with 53 bits of
/// precision (Rng::NextDouble's map).
inline double UnitDouble(std::uint64_t x) {
  return static_cast<double>(x >> 11) * 0x1.0p-53;
}

/// Mixes two 64-bit words into a decorrelated stream seed (splitmix64
/// finalizer). Content-addressed random streams — "the k-th walk from
/// source v" — chain it: MixSeed(MixSeed(seed, v), k). Deterministic and
/// platform-independent, like everything else in this header.
inline std::uint64_t MixSeed(std::uint64_t a, std::uint64_t b) {
  std::uint64_t x = a + 0x9e3779b97f4a7c15ULL * (b + 0x632be59bd9b4e019ULL);
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// xoshiro256++ PRNG (Blackman & Vigna). Not cryptographically secure.
class Rng {
 public:
  /// Seeds deterministically from `seed` via splitmix64.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Resumes a stream at the raw xoshiro256++ state (s0, s1, s2, s3),
  /// which must not be all zero. Replays a recorded stream position
  /// exactly, e.g. to reproduce a rare draw such as a Lemire rejection.
  static Rng FromState(std::uint64_t s0, std::uint64_t s1, std::uint64_t s2,
                       std::uint64_t s3);

  /// Next raw 64-bit value.
  std::uint64_t Next() {
    const std::uint64_t result = Rotl(state_[0] + state_[3], 23) + state_[0];
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  /// The raw xoshiro256++ state (s0, s1, s2, s3), as FromState takes it.
  std::array<std::uint64_t, 4> State() const {
    return {state_[0], state_[1], state_[2], state_[3]};
  }

  /// Advances the stream by `words` raw words, as that many Next() calls
  /// would: a word loop, ~0.44 ns a word. Past ~8,000 words,
  /// Jump(JumpPolynomialFor(words)) gets there sooner.
  void Discard(std::uint64_t words) {
    for (; words > 0; --words) Next();
  }

  /// A polynomial of degree < 256 over GF(2): bit j % 64 of word j / 64
  /// is the coefficient of x^j.
  using JumpPolynomial = std::array<std::uint64_t, 4>;

  /// x^words mod P(x), where P is the degree-256 characteristic
  /// polynomial of the xoshiro256 state transition (Haramoto et al.,
  /// "Efficient jump ahead for F2-linear random number generators",
  /// 2008). One squaring modulo P per bit of `words`, ~0.4 µs each.
  static JumpPolynomial JumpPolynomialFor(std::uint64_t words);

  /// Advances the stream by the distance `poly` encodes: after
  /// Jump(JumpPolynomialFor(n)) the state is the one n Next() calls
  /// would leave, whatever n. Costs 256 state steps (about a µs), so
  /// one polynomial moves many streams the same distance cheaply.
  void Jump(const JumpPolynomial& poly);

  /// Uniform integer in [0, bound). `bound` must be positive. Uses
  /// Lemire's nearly-divisionless method with rejection (unbiased): one
  /// word per draw, plus one more per (rare) rejection.
  std::uint64_t NextBounded(std::uint64_t bound) {
    GEER_DCHECK(bound > 0);
    for (;;) {
      const BoundedDraw draw = LemireBounded(Next(), bound);
      if (draw.accepted) return draw.index;
    }
  }

  /// Uniform double in [0, 1) with 53 bits of precision.
  double NextDouble() { return UnitDouble(Next()); }

  /// Standard normal via Box–Muller (used by the RP baseline tests).
  double NextGaussian();

  /// Bernoulli(p).
  bool NextBernoulli(double p) { return NextDouble() < p; }

  /// Forks an independent stream (used to give each query its own stream).
  Rng Fork();

  // UniformRandomBitGenerator interface for <algorithm> interop.
  using result_type = std::uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }
  result_type operator()() { return Next(); }

 private:
  static std::uint64_t Rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4];
  bool have_cached_gaussian_ = false;
  double cached_gaussian_ = 0.0;
};

}  // namespace geer

#endif  // GEER_RW_RNG_H_
