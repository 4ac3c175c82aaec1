// crc32() against the plain bytewise CRC-32 it replaced: same polynomial,
// same output, same chaining through `seed`, whatever the buffer length or
// alignment.
#include "util/crc32.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

namespace ecms::util {
namespace {

std::uint32_t bytewise_crc32(const unsigned char* p, std::size_t n,
                             std::uint32_t seed = 0) {
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (std::size_t i = 0; i < n; ++i) {
    c ^= p[i];
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
  }
  return c ^ 0xFFFFFFFFu;
}

std::vector<unsigned char> pattern(std::size_t n) {
  std::vector<unsigned char> v(n);
  std::uint32_t x = 0x12345678u;
  for (auto& b : v) {
    x = x * 1664525u + 1013904223u;
    b = static_cast<unsigned char>(x >> 24);
  }
  return v;
}

TEST(Crc32T, KnownCheckValue) {
  // The standard CRC-32 check value of "123456789".
  EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(crc32("", 0), 0u);
}

TEST(Crc32T, MatchesBytewiseAtEveryLength) {
  const std::vector<unsigned char> buf = pattern(1024);
  for (std::size_t n = 0; n <= buf.size(); ++n)
    ASSERT_EQ(crc32(buf.data(), n), bytewise_crc32(buf.data(), n)) << n;
}

TEST(Crc32T, MatchesBytewiseAtUnalignedStarts) {
  const std::vector<unsigned char> buf = pattern(1024 + 16);
  for (std::size_t start = 0; start < 16; ++start) {
    for (std::size_t n : {0u, 1u, 7u, 8u, 9u, 15u, 64u, 1000u, 1024u}) {
      ASSERT_EQ(crc32(buf.data() + start, n),
                bytewise_crc32(buf.data() + start, n))
          << start << "+" << n;
    }
  }
}

TEST(Crc32T, ChainedSeedsMatchOneShot) {
  const std::vector<unsigned char> buf = pattern(1024);
  for (std::size_t split = 0; split <= buf.size(); split += 13) {
    const std::uint32_t head = crc32(buf.data(), split);
    const std::uint32_t whole =
        crc32(buf.data() + split, buf.size() - split, head);
    ASSERT_EQ(whole, crc32(buf.data(), buf.size())) << split;
    ASSERT_EQ(whole, bytewise_crc32(buf.data() + split, buf.size() - split,
                                    bytewise_crc32(buf.data(), split)))
        << split;
  }
  // An arbitrary seed chains the same way as in the bytewise form.
  for (std::uint32_t seed : {1u, 0xDEADBEEFu, 0xFFFFFFFFu})
    EXPECT_EQ(crc32(buf.data() + 3, 517, seed),
              bytewise_crc32(buf.data() + 3, 517, seed));
}

}  // namespace
}  // namespace ecms::util
