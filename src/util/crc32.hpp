// CRC-32 (IEEE 802.3, polynomial 0xEDB88320), slice-by-8 table-driven.
//
// Used by the campaign result store (per-page payload checksums, commit
// frames), the supervisor/worker result protocol and the serve frame
// codec. Header-only so the base layers can include it without a link
// dependency (same rule as util/error.hpp).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace ecms::util {

namespace detail {
/// t[0] is the bytewise table; t[k][b] is the CRC of byte b followed by k
/// zero bytes, so eight bytes fold in with eight independent lookups.
inline const std::array<std::array<std::uint32_t, 256>, 8>& crc32_tables() {
  static const auto tables = [] {
    std::array<std::array<std::uint32_t, 256>, 8> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[0][i] = c;
    }
    for (std::size_t k = 1; k < 8; ++k)
      for (std::size_t i = 0; i < 256; ++i)
        t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    return t;
  }();
  return tables;
}

inline std::uint32_t load_le32(const unsigned char* p) {
  return std::uint32_t{p[0]} | std::uint32_t{p[1]} << 8 |
         std::uint32_t{p[2]} << 16 | std::uint32_t{p[3]} << 24;
}
}  // namespace detail

/// CRC-32 of `n` bytes at `data`. Chainable: pass a previous result as
/// `seed` to extend the checksum over a second buffer.
inline std::uint32_t crc32(const void* data, std::size_t n,
                           std::uint32_t seed = 0) {
  const auto& t = detail::crc32_tables();
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (; n >= 8; n -= 8, p += 8) {
    const std::uint32_t lo = c ^ detail::load_le32(p);
    const std::uint32_t hi = detail::load_le32(p + 4);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^ t[5][(lo >> 16) & 0xFFu] ^
        t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^
        t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; n > 0; --n, ++p) c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

/// FNV-1a 64-bit hash. The campaign layer uses it for config hashes and the
/// per-unit code-sequence digest (the bit-identity witness a resumed run is
/// compared by); circuit/program.cpp carries its own copy for topology keys.
inline std::uint64_t fnv1a64(const void* data, std::size_t n,
                             std::uint64_t h = 1469598103934665603ull) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace ecms::util
