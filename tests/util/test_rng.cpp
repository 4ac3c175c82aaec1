#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "util/error.hpp"

namespace ecms {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_u64() == b.next_u64()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = r.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = r.uniform(-3.0, 5.5);
    ASSERT_GE(u, -3.0);
    ASSERT_LT(u, 5.5);
  }
}

TEST(Rng, UniformMeanIsHalf) {
  Rng r(11);
  double sum = 0.0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) sum += r.uniform();
  EXPECT_NEAR(sum / kN, 0.5, 0.01);
}

TEST(Rng, NormalMoments) {
  Rng r(13);
  double sum = 0.0, sum2 = 0.0;
  constexpr int kN = 200000;
  for (int i = 0; i < kN; ++i) {
    const double x = r.normal();
    sum += x;
    sum2 += x * x;
  }
  EXPECT_NEAR(sum / kN, 0.0, 0.02);
  EXPECT_NEAR(sum2 / kN, 1.0, 0.03);
}

TEST(Rng, NormalWithParamsScales) {
  Rng r(17);
  double sum = 0.0;
  constexpr int kN = 50000;
  for (int i = 0; i < kN; ++i) sum += r.normal(10.0, 2.0);
  EXPECT_NEAR(sum / kN, 10.0, 0.1);
}

TEST(Rng, UniformIndexBounds) {
  Rng r(19);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto k = r.uniform_index(7);
    ASSERT_LT(k, 7u);
    seen.insert(k);
  }
  EXPECT_EQ(seen.size(), 7u);  // all values hit
}

TEST(Rng, UniformIndexRejectsZero) {
  Rng r(19);
  EXPECT_THROW(r.uniform_index(0), Error);
}

TEST(Rng, BernoulliRate) {
  Rng r(23);
  int hits = 0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) hits += r.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / kN, 0.3, 0.01);
}

TEST(Rng, SplitStreamsAreIndependent) {
  Rng parent(29);
  Rng child = parent.split();
  // Child and parent should not produce the same next values.
  EXPECT_NE(parent.next_u64(), child.next_u64());
}

TEST(Rng, ForkIsDeterministic) {
  const Rng parent(29);
  Rng a = parent.fork(5);
  Rng b = parent.fork(5);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, ForkDoesNotAdvanceParent) {
  Rng parent(29);
  Rng untouched(29);
  (void)parent.fork(0);
  (void)parent.fork(123);
  // The parent stream is exactly where an unforked twin is.
  for (int i = 0; i < 10; ++i)
    EXPECT_EQ(parent.next_u64(), untouched.next_u64());
}

TEST(Rng, ForkStreamsDiverge) {
  const Rng parent(29);
  Rng a = parent.fork(0);
  Rng b = parent.fork(1);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_u64() == b.next_u64()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, ForkDependsOnParentState) {
  Rng p1(1), p2(2);
  Rng a = p1.fork(7);
  Rng b = p2.fork(7);
  EXPECT_NE(a.next_u64(), b.next_u64());
  // Advancing the parent changes what fork(i) yields.
  Rng p3(1);
  (void)p3.next_u64();
  Rng c = Rng(1).fork(7);
  Rng d = p3.fork(7);
  EXPECT_NE(c.next_u64(), d.next_u64());
}

TEST(Rng, ForkedStreamsLookUniform) {
  const Rng parent(31);
  // Mean over many forked streams' first draws should still be ~0.5.
  double sum = 0.0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    Rng child = parent.fork(static_cast<std::uint64_t>(i));
    sum += child.uniform();
  }
  EXPECT_NEAR(sum / kN, 0.5, 0.01);
}

TEST(Rng, PermutationIsAPermutation) {
  Rng r(31);
  const auto p = r.permutation(100);
  std::set<std::size_t> s(p.begin(), p.end());
  EXPECT_EQ(s.size(), 100u);
  EXPECT_EQ(*s.begin(), 0u);
  EXPECT_EQ(*s.rbegin(), 99u);
}

TEST(Rng, PermutationOfZeroIsEmpty) {
  Rng r(31);
  EXPECT_TRUE(r.permutation(0).empty());
}

// Known answers: every seeded experiment and code hash in the project rests
// on these exact streams, so any change to the generator, the uniform
// mapping, Box-Muller or the fork remix must show up here bit for bit.
struct KnownStream {
  std::uint64_t seed;
  std::uint64_t u64[4];
  double uni[3];
  double uni_lo_hi;  // uniform(-2, 3)
  double nor[3];
  unsigned bern;     // bernoulli(0.3) x16, draw i in bit i
  std::uint64_t after;
};

TEST(Rng, KnownAnswers) {
  const KnownStream known[] = {
      {0,
       {0x99ec5f36cb75f2b4ull, 0xbf6e1f784956452aull, 0x1a5f849d4933e6e0ull,
        0x6aa594f1262d2d2cull},
       {0x1.774b5a943f085p-1, 0x1.ffdf06ebb3d79p-1, 0x1.b05837bb4bd52p-2},
       0x1.5b46c5ed9d9e4p-1,
       {0x1.f350771c980fdp-2, -0x1.172f39e755d09p-2, 0x1.e6514f0e27fa3p+0},
       0x00a9,
       0xfce5eba9d25094c3ull},
      {20260101,
       {0x57e28e0407eb6adeull, 0xae12aadc7d2056a3ull, 0x007b518906d1df4full,
        0x98342917c27b3aebull},
       {0x1.e8bd17cf5cb99p-1, 0x1.f9288ce1fae6p-4, 0x1.cf31253b409bap-2},
       0x1.2fcd8d910d72ap+1,
       {-0x1.a4fc0be9fc7bap-1, -0x1.0283894ab85f6p-1, 0x1.086a5c12b7c8ep+0},
       0x0f4a,
       0x1a3ab7be2b4b0088ull},
  };
  for (const KnownStream& k : known) {
    Rng a(k.seed);
    for (const std::uint64_t v : k.u64) EXPECT_EQ(a.next_u64(), v);
    for (const double v : k.uni) EXPECT_EQ(a.uniform(), v);
    EXPECT_EQ(a.uniform(-2.0, 3.0), k.uni_lo_hi);
    for (const double v : k.nor) EXPECT_EQ(a.normal(), v);
    unsigned bern = 0;
    for (unsigned i = 0; i < 16; ++i) bern |= (a.bernoulli(0.3) ? 1u : 0u) << i;
    EXPECT_EQ(bern, k.bern) << "seed " << k.seed;
    EXPECT_EQ(a.next_u64(), k.after) << "seed " << k.seed;
  }

  Rng parent(7);
  parent.next_u64();
  Rng f = parent.fork(3);
  EXPECT_EQ(f.next_u64(), 0x1ba75266a2c0080aull);
  EXPECT_EQ(f.next_u64(), 0xf815058db0c6b1b7ull);
  EXPECT_EQ(f.next_u64(), 0x2c9cb79ff6957cf9ull);
  EXPECT_EQ(f.uniform(), 0x1.5a3b21649c55p-3);
  EXPECT_EQ(f.normal(1.0, 0.5), 0x1.1c8081f6e4fb2p-1);
}

}  // namespace
}  // namespace ecms
