#include "util/rng.hpp"

#include <cmath>

#include "util/error.hpp"

namespace ecms {

namespace {
std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}
}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64(sm);
}

std::uint64_t Rng::uniform_index(std::uint64_t n) {
  ECMS_REQUIRE(n > 0, "uniform_index needs n > 0");
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = n * (UINT64_MAX / n);
  std::uint64_t v = next_u64();
  while (v >= limit) v = next_u64();
  return v % n;
}

double Rng::normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  double u1 = uniform();
  while (u1 <= 0.0) u1 = uniform();
  const double u2 = uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  cached_normal_ = r * std::sin(theta);
  has_cached_normal_ = true;
  return r * std::cos(theta);
}

double Rng::normal(double mean, double sigma) {
  return mean + sigma * normal();
}

Rng Rng::split() { return Rng(next_u64()); }

Rng Rng::fork(std::uint64_t stream) const {
  // Fold the four state words and the stream index through splitmix64.
  // Each absorption step xors in new material and re-mixes, so child seeds
  // differ for any change of parent state or stream index.
  std::uint64_t x = stream ^ 0xD1B54A32D192ED03ull;
  std::uint64_t seed = splitmix64(x);
  for (std::uint64_t s : s_) {
    x ^= s;
    seed ^= splitmix64(x);
  }
  return Rng(seed);
}

std::vector<std::size_t> Rng::permutation(std::size_t n) {
  std::vector<std::size_t> idx(n);
  for (std::size_t i = 0; i < n; ++i) idx[i] = i;
  for (std::size_t i = n; i > 1; --i) {
    const std::size_t j = static_cast<std::size_t>(uniform_index(i));
    std::swap(idx[i - 1], idx[j]);
  }
  return idx;
}

}  // namespace ecms
