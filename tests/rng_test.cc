#include "rw/rng.h"

#include <gtest/gtest.h>

#include <cmath>
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
