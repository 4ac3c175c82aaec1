#include "util/arena.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "util/error.hpp"

namespace ecms::util {

namespace {
constexpr std::size_t kMinBlockBytes = 4096;
}  // namespace

std::byte* Arena::allocate(std::size_t bytes, std::size_t align) {
  ECMS_REQUIRE(align != 0 && (align & (align - 1)) == 0,
               "arena alignment must be a power of two");
  if (bytes == 0) bytes = 1;  // distinct non-null result, keeps spans simple
  if (blocks_.empty()) grow(std::max(bytes + align, kMinBlockBytes));

  // Align the absolute address, not the offset: blocks only carry the
  // allocator's alignof(max_align_t) guarantee, so an aligned offset could
  // still put a 64-byte request at 48 mod 64. The padding stays below
  // `align`, which grow(bytes + align) always leaves room for.
  auto aligned_offset = [&] {
    const auto base =
        reinterpret_cast<std::uintptr_t>(blocks_.back().data.get());
    return static_cast<std::size_t>(
        ((base + cursor_ + align - 1) & ~(std::uintptr_t{align} - 1)) - base);
  };
  std::size_t off = aligned_offset();
  if (off + bytes > blocks_.back().size) {
    grow(bytes + align);
    off = aligned_offset();
  }
  cursor_ = off + bytes;
  in_use_ += bytes;
  return blocks_.back().data.get() + off;
}

void Arena::grow(std::size_t min_bytes) {
  // Doubling keeps the number of chained blocks logarithmic; reset()
  // coalesces the chain so growth is transient, not a steady-state cost.
  const std::size_t last = blocks_.empty() ? 0 : blocks_.back().size;
  const std::size_t size = std::max({min_bytes, last * 2, kMinBlockBytes});
  blocks_.push_back({std::make_unique<std::byte[]>(size), size});
  cursor_ = 0;
}

void Arena::reset() {
  if (blocks_.size() > 1) {
    // Coalesce the growth chain into one block sized for the whole demand,
    // so the next generation carves from contiguous storage without growing.
    const std::size_t total = capacity();
    blocks_.clear();
    blocks_.push_back({std::make_unique<std::byte[]>(total), total});
  }
  cursor_ = 0;
  in_use_ = 0;
  ++resets_;
  ECMS_METRIC_COUNT("util.arena.resets", 1);
  ECMS_METRIC_GAUGE_SET("util.arena.bytes", capacity());
}

std::size_t Arena::capacity() const {
  std::size_t total = 0;
  for (const Block& b : blocks_) total += b.size;
  return total;
}

}  // namespace ecms::util
