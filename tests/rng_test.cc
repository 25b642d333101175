#include "rw/rng.h"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <set>
#include <vector>

namespace geer {
namespace {

TEST(RngTest, DeterministicForSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, NextDoubleMeanNearHalf) {
  Rng rng(8);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.NextDouble();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(RngTest, NextBoundedRespectsBound) {
  Rng rng(3);
  for (std::uint64_t bound : {1ull, 2ull, 7ull, 1000ull}) {
    for (int i = 0; i < 1000; ++i) {
      EXPECT_LT(rng.NextBounded(bound), bound);
    }
  }
}

TEST(RngTest, NextBoundedRoughlyUniform) {
  Rng rng(5);
  const std::uint64_t bound = 10;
  const int n = 100000;
  std::vector<int> counts(bound, 0);
  for (int i = 0; i < n; ++i) ++counts[rng.NextBounded(bound)];
  for (std::uint64_t b = 0; b < bound; ++b) {
    EXPECT_NEAR(counts[b], n / static_cast<int>(bound), 500);
  }
}

TEST(RngTest, NextBoundedStreamIsPinned) {
  // Golden values: the first 1,000 NextBounded draws from a fixed seed,
  // folded with MixSeed, plus the raw word after them (which pins how
  // many words the draws consumed). Bound 2^63 + 1 rejects about half of
  // all words, so it pins the redraw loop too. Every walk in the library
  // replays through these draws; a change here changes every answer.
  struct Golden {
    std::uint64_t bound;
    std::uint64_t first[4];
    std::uint64_t fold;
    std::uint64_t next_word;
  };
  const Golden goldens[] = {
      {1ull, {0, 0, 0, 0}, 0x9e5ea7e719e73f44ull, 0xf72204653c55f8e2ull},
      {2ull, {1, 0, 0, 1}, 0x7d561fda4f307c4aull, 0xf72204653c55f8e2ull},
      {3ull, {1, 0, 0, 2}, 0xfddc1b198cdacd8cull, 0xf72204653c55f8e2ull},
      {7ull, {4, 0, 0, 5}, 0x6c054da41a46b512ull, 0xf72204653c55f8e2ull},
      {10ull, {6, 0, 1, 7}, 0x1f9abd33db3c38d8ull, 0xf72204653c55f8e2ull},
      {1000ull, {607, 39, 112, 764}, 0x8ff11bb65484d9d3ull,
       0xf72204653c55f8e2ull},
      {(1ull << 32) + 15,
       {2607972529ull, 170403487ull, 481743714ull, 3283965034ull},
       0x373ad61ea3045dd2ull,
       0xf72204653c55f8e2ull},
      {(1ull << 63) + 1,
       {5600578341840488074ull, 1034536745290602440ull,
        7052261188565118036ull, 5819510337605799061ull},
       0x0b044cc12789c184ull,
       0x0adc8c09fbee5429ull},
      {~0ull,
       {11201156683680976147ull, 731877401447167927ull,
        2069073490581204880ull, 14104522377130236071ull},
       0x407451af6a47fa01ull,
       0xf72204653c55f8e2ull},
  };
  for (const Golden& golden : goldens) {
    Rng rng(20261016);
    std::uint64_t fold = 0;
    for (int i = 0; i < 1000; ++i) {
      const std::uint64_t v = rng.NextBounded(golden.bound);
      if (i < 4) EXPECT_EQ(v, golden.first[i]) << "bound " << golden.bound;
      fold = MixSeed(fold, v);
    }
    EXPECT_EQ(fold, golden.fold) << "bound " << golden.bound;
    EXPECT_EQ(rng.Next(), golden.next_word) << "bound " << golden.bound;
  }
}

TEST(RngTest, LemireBoundedRejectsOnlyTheBiasedSliver) {
  // d = 3: 2^64 mod 3 = 1, and x·3 ≡ 0 (mod 2^64) only for x = 0.
  EXPECT_FALSE(LemireBounded(0, 3).accepted);
  EXPECT_TRUE(LemireBounded(1, 3).accepted);
  EXPECT_EQ(LemireBounded(1, 3).index, 0u);
  EXPECT_TRUE(LemireBounded(~0ull, 3).accepted);
  EXPECT_EQ(LemireBounded(~0ull, 3).index, 2u);
  // Powers of two divide 2^64: nothing is ever rejected.
  EXPECT_TRUE(LemireBounded(0, 4).accepted);
  EXPECT_EQ(LemireBounded(0, 4).index, 0u);
  EXPECT_TRUE(LemireBounded(0, 1).accepted);
  // d = 2^63 + 1: 2^64 mod d = 2^63 − 1, so x = 1 (low word d) passes and
  // x = 2 (low word 2d mod 2^64 = 2) is rejected.
  const std::uint64_t big = (1ull << 63) + 1;
  EXPECT_TRUE(LemireBounded(1, big).accepted);
  EXPECT_FALSE(LemireBounded(2, big).accepted);
}

TEST(RngTest, FromStateSetsTheRawState) {
  // s0 = s3 = 0 makes the first output rotl(0, 23) + 0 = 0.
  Rng zero_first = Rng::FromState(0, 5, 9, 0);
  EXPECT_EQ(zero_first.Next(), 0u);
  EXPECT_NE(zero_first.Next(), 0u);
  // Equal states give equal streams.
  Rng a = Rng::FromState(1, 2, 3, 4);
  Rng b = Rng::FromState(1, 2, 3, 4);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngDeathTest, FromStateRejectsAllZero) {
  EXPECT_DEATH(Rng::FromState(0, 0, 0, 0), "non-zero");
}

// Berlekamp–Massey over GF(2): the shortest linear recurrence that
// generates `bits`, as its connection polynomial C(x) = 1 + c_1 x + … +
// c_L x^L (coefficients c_0..c_L).
std::vector<int> BerlekampMassey(const std::vector<int>& bits) {
  const std::size_t n = bits.size();
  std::vector<int> c(n + 1, 0);
  std::vector<int> b(n + 1, 0);
  c[0] = b[0] = 1;
  std::size_t length = 0;
  std::size_t shift = 1;
  for (std::size_t i = 0; i < n; ++i) {
    int discrepancy = bits[i];
    for (std::size_t j = 1; j <= length; ++j) discrepancy ^= c[j] & bits[i - j];
    if (discrepancy == 0) {
      ++shift;
      continue;
    }
    const std::vector<int> previous = c;
    for (std::size_t j = 0; j + shift <= n; ++j) c[j + shift] ^= b[j];
    if (2 * length <= i) {
      length = i + 1 - length;
      b = previous;
      shift = 1;
    } else {
      ++shift;
    }
  }
  c.resize(length + 1);
  return c;
}

TEST(RngJumpTest, CharacteristicPolynomialMatchesBerlekampMassey) {
  // Every bit of the xoshiro256 state follows the transition's
  // characteristic polynomial P, which is primitive (the period is
  // 2^256 − 1), so 512 steps of one state bit pin it: degree 256, and
  // P(x) = x^256 C(1/x). x^256 mod P is P's low 256 coefficients, which
  // is what JumpPolynomialFor(256) must return.
  for (int word : {0, 3}) {
    for (int bit : {0, 41}) {
      Rng rng(0x5eed + word + bit);
      std::vector<int> bits;
      for (int step = 0; step < 512; ++step) {
        bits.push_back(static_cast<int>((rng.State()[word] >> bit) & 1));
        rng.Next();
      }
      const std::vector<int> c = BerlekampMassey(bits);
      ASSERT_EQ(c.size(), 257u) << "word " << word << " bit " << bit;
      Rng::JumpPolynomial low = {0, 0, 0, 0};
      for (int j = 0; j < 256; ++j) {
        if (c[256 - j] != 0) low[j / 64] |= std::uint64_t{1} << (j % 64);
      }
      EXPECT_EQ(low, Rng::JumpPolynomialFor(256))
          << "word " << word << " bit " << bit;
    }
  }
}

TEST(RngJumpTest, JumpEqualsStepping) {
  for (std::uint64_t seed : {std::uint64_t{1}, std::uint64_t{0xabcdef987}}) {
    for (std::uint64_t words :
         {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{2},
          std::uint64_t{255}, std::uint64_t{256}, std::uint64_t{257},
          (std::uint64_t{1} << 20) + 7}) {
      Rng stepped(seed);
      stepped.Discard(words);
      Rng jumped(seed);
      jumped.Jump(Rng::JumpPolynomialFor(words));
      EXPECT_EQ(jumped.State(), stepped.State())
          << "seed " << seed << " words " << words;
      EXPECT_EQ(jumped.Next(), stepped.Next());
    }
  }
}

TEST(RngJumpTest, JumpsCompose) {
  // Jump(a) then Jump(b) is Jump(a + b), for distances no loop could
  // step through.
  Rng distances(77);
  for (int trial = 0; trial < 8; ++trial) {
    const std::uint64_t a = distances.Next() >> 24;  // 40 bits
    const std::uint64_t b = distances.Next() >> 24;
    Rng two_jumps(trial + 1);
    two_jumps.Jump(Rng::JumpPolynomialFor(a));
    two_jumps.Jump(Rng::JumpPolynomialFor(b));
    Rng one_jump(trial + 1);
    one_jump.Jump(Rng::JumpPolynomialFor(a + b));
    EXPECT_EQ(two_jumps.State(), one_jump.State())
        << "a " << a << " b " << b;
  }
}

TEST(RngJumpTest, StateRoundTripsThroughFromState) {
  Rng rng(11);
  rng.Discard(5);
  const std::array<std::uint64_t, 4> s = rng.State();
  Rng copy = Rng::FromState(s[0], s[1], s[2], s[3]);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(copy.Next(), rng.Next());
}

TEST(RngTest, GaussianMomentsMatch) {
  Rng rng(11);
  const int n = 200000;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double g = rng.NextGaussian();
    sum += g;
    sum_sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.02);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(77);
  Rng forked = a.Fork();
  // The fork differs from the parent's continued stream.
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == forked.Next()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, WorksWithStdShuffleConcept) {
  Rng rng(1);
  EXPECT_EQ(Rng::min(), 0u);
  EXPECT_EQ(Rng::max(), ~0ULL);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 100; ++i) seen.insert(rng());
  EXPECT_EQ(seen.size(), 100u);  // no collisions expected in 100 draws
}

}  // namespace
}  // namespace geer
