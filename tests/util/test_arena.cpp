// Bump-arena contracts the solver workspaces rely on: aligned usable
// storage, grow-by-chaining, reset() coalescing to one block (steady state
// = zero heap traffic), and ArenaBuf's grow-only carving with the vector
// fallback when unbound.
#include "util/arena.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <numeric>
#include <vector>

namespace ecms::util {
namespace {

TEST(ArenaT, AllocationsAreAlignedAndUsable) {
  Arena a;
  std::byte* p1 = a.allocate(3, 1);
  std::byte* p8 = a.allocate(64, 8);
  std::byte* p64 = a.allocate(128, 64);
  ASSERT_NE(p1, nullptr);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p8) % 8, 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p64) % 64, 0u);
  // Writes to one carve must not bleed into another.
  std::memset(p8, 0xAB, 64);
  std::memset(p64, 0xCD, 128);
  EXPECT_EQ(std::to_integer<int>(p8[63]), 0xAB);
  EXPECT_EQ(std::to_integer<int>(p64[0]), 0xCD);
  EXPECT_GE(a.bytes_in_use(), 3u + 64u + 128u);
  EXPECT_GE(a.capacity(), a.bytes_in_use());
}

TEST(ArenaT, TypedSpansHoldValues) {
  Arena a;
  auto xs = a.allocate_span<double>(100);
  ASSERT_EQ(xs.size(), 100u);
  std::iota(xs.begin(), xs.end(), 0.0);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    EXPECT_EQ(xs[i], static_cast<double>(i));
  }
}

TEST(ArenaT, ResetRecyclesAndCoalesces) {
  Arena a;
  // Force a growth chain: many carves, each bigger than the last.
  for (std::size_t n = 1; n <= 1u << 16; n *= 4) a.allocate_span<double>(n);
  const std::size_t grown = a.capacity();
  a.reset();
  EXPECT_EQ(a.bytes_in_use(), 0u);
  EXPECT_EQ(a.resets(), 1u);
  // Coalesced: the whole former footprint fits one block, so re-carving it
  // must not grow capacity again.
  a.allocate(grown / 2, 8);
  EXPECT_EQ(a.capacity(), grown);
  a.reset();
  EXPECT_EQ(a.capacity(), grown);
  EXPECT_EQ(a.resets(), 2u);
}

TEST(ArenaT, OverAlignedCarvesHoldAfterCoalescing) {
  // Blocks come from the heap with only alignof(max_align_t); alignment
  // above that must be honored on the absolute address, including in the
  // fresh block reset() coalesces a growth chain into.
  Arena a;
  for (std::size_t n = 1; n <= 1u << 12; n *= 4) a.allocate_span<double>(n);
  a.reset();
  for (const std::size_t align : {32u, 64u, 128u, 4096u}) {
    a.allocate(3, 1);  // knock the cursor off every alignment
    std::byte* p = a.allocate(100, align);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % align, 0u)
        << "align " << align;
    std::memset(p, 0xEF, 100);
    EXPECT_EQ(std::to_integer<int>(p[99]), 0xEF);
  }
}

TEST(ArenaT, SteadyStateCapacityIsStable) {
  Arena a;
  std::size_t cap_after_first = 0;
  for (int round = 0; round < 8; ++round) {
    a.allocate_span<double>(500);
    a.allocate_span<double>(500);
    if (round == 0) {
      cap_after_first = a.capacity();
    } else {
      EXPECT_EQ(a.capacity(), cap_after_first) << "round " << round;
    }
    a.reset();
  }
}

TEST(ArenaT, BufWithoutArenaFallsBackToVector) {
  ArenaBuf<double> buf;  // never bound
  buf.assign(10, 1.5);
  ASSERT_EQ(buf.size(), 10u);
  for (double v : buf) EXPECT_EQ(v, 1.5);
  buf.resize(3);
  EXPECT_EQ(buf.span().size(), 3u);
  EXPECT_EQ(buf[2], 1.5);  // shrink keeps the prefix
}

TEST(ArenaT, BufGrowsOnlyWithinAGeneration) {
  Arena a;
  ArenaBuf<int> buf;
  buf.bind(&a);
  buf.assign(64, 7);
  int* const carved = buf.data();
  const std::size_t used = a.bytes_in_use();
  // Shrink and regrow inside the high-water mark: same storage, no carve.
  buf.resize(8);
  buf.resize(64);
  EXPECT_EQ(buf.data(), carved);
  EXPECT_EQ(a.bytes_in_use(), used);
  EXPECT_EQ(buf[63], 7);  // still the assigned contents
  // Growing past the mark re-carves.
  buf.resize(128);
  EXPECT_GT(a.bytes_in_use(), used);
}

TEST(ArenaT, BufCopyFromMatchesSource) {
  Arena a;
  ArenaBuf<double> buf;
  buf.bind(&a);
  std::vector<double> src(33);
  std::iota(src.begin(), src.end(), -16.0);
  buf.copy_from(std::span<const double>(src));
  ASSERT_EQ(buf.size(), src.size());
  for (std::size_t i = 0; i < src.size(); ++i) EXPECT_EQ(buf[i], src[i]);
}

TEST(ArenaT, RebindAfterResetStartsClean) {
  Arena a;
  ArenaBuf<double> buf;
  buf.bind(&a);
  buf.assign(256, 3.0);
  a.reset();
  buf.bind(&a);  // the contract: rebind + re-carve after every reset
  EXPECT_EQ(buf.size(), 0u);
  buf.assign(256, 4.0);
  for (double v : buf) EXPECT_EQ(v, 4.0);
  EXPECT_GE(a.capacity(), 256 * sizeof(double));
}

}  // namespace
}  // namespace ecms::util
