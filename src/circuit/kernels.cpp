#include "circuit/kernels.hpp"

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>

namespace ecms::circuit::kernels {

namespace {

// ---------------------------------------------------------------------------
// Scalar backend: the reference implementation. Per lane this is literally
// SparseLu::refactor()/solve_in_place() with an extra inner lane loop; the
// AVX2 backend (kernels_avx2.cpp) performs the identical op order 4 lanes
// at a time.
// ---------------------------------------------------------------------------

void refactor_scalar(const LuSymbolic& sy, const double* a, double* l,
                     double* u, double* work, std::size_t w) {
  const std::size_t n = sy.n;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::uint32_t s = sy.l_ptr[i]; s < sy.l_ptr[i + 1]; ++s) {
      double* row = work + static_cast<std::size_t>(sy.l_cols[s]) * w;
      for (std::size_t k = 0; k < w; ++k) row[k] = 0.0;
    }
    for (std::uint32_t s = sy.u_ptr[i]; s < sy.u_ptr[i + 1]; ++s) {
      double* row = work + static_cast<std::size_t>(sy.u_cols[s]) * w;
      for (std::size_t k = 0; k < w; ++k) row[k] = 0.0;
    }
    for (std::uint32_t s = sy.a_ptr[i]; s < sy.a_ptr[i + 1]; ++s) {
      double* row = work + static_cast<std::size_t>(sy.a_pcol[s]) * w;
      const double* av = a + static_cast<std::size_t>(sy.a_slot[s]) * w;
      for (std::size_t k = 0; k < w; ++k) row[k] += av[k];
    }
    for (std::uint32_t s = sy.l_ptr[i]; s < sy.l_ptr[i + 1]; ++s) {
      const std::uint32_t j = sy.l_cols[s];
      const double* wj = work + static_cast<std::size_t>(j) * w;
      const double* upiv = u + static_cast<std::size_t>(sy.u_ptr[j]) * w;
      double* ls = l + static_cast<std::size_t>(s) * w;
      for (std::size_t k = 0; k < w; ++k) ls[k] = wj[k] / upiv[k];
      for (std::uint32_t t = sy.u_ptr[j] + 1; t < sy.u_ptr[j + 1]; ++t) {
        double* row = work + static_cast<std::size_t>(sy.u_cols[t]) * w;
        const double* ut = u + static_cast<std::size_t>(t) * w;
        for (std::size_t k = 0; k < w; ++k) row[k] -= ls[k] * ut[k];
      }
    }
    for (std::uint32_t s = sy.u_ptr[i]; s < sy.u_ptr[i + 1]; ++s) {
      const double* row = work + static_cast<std::size_t>(sy.u_cols[s]) * w;
      double* us = u + static_cast<std::size_t>(s) * w;
      for (std::size_t k = 0; k < w; ++k) us[k] = row[k];
    }
  }
}

void solve_scalar(const LuSymbolic& sy, const double* l, const double* u,
                  double* pb, std::size_t w) {
  const std::size_t n = sy.n;
  for (std::size_t i = 0; i < n; ++i) {
    double* acc = pb + i * w;
    for (std::uint32_t s = sy.l_ptr[i]; s < sy.l_ptr[i + 1]; ++s) {
      const double* ls = l + static_cast<std::size_t>(s) * w;
      const double* pj = pb + static_cast<std::size_t>(sy.l_cols[s]) * w;
      for (std::size_t k = 0; k < w; ++k) acc[k] -= ls[k] * pj[k];
    }
  }
  for (std::size_t ii = n; ii > 0; --ii) {
    const std::size_t i = ii - 1;
    double* acc = pb + i * w;
    for (std::uint32_t s = sy.u_ptr[i] + 1; s < sy.u_ptr[i + 1]; ++s) {
      const double* us = u + static_cast<std::size_t>(s) * w;
      const double* pj = pb + static_cast<std::size_t>(sy.u_cols[s]) * w;
      for (std::size_t k = 0; k < w; ++k) acc[k] -= us[k] * pj[k];
    }
    const double* upiv = u + static_cast<std::size_t>(sy.u_ptr[i]) * w;
    for (std::size_t k = 0; k < w; ++k) acc[k] /= upiv[k];
  }
}

constexpr Kernels kScalar = {"scalar", refactor_scalar, solve_scalar};

bool env_forces_scalar() {
  const char* v = std::getenv("ECMS_FORCE_SCALAR_KERNELS");
  return v != nullptr && v[0] != '\0' && !(v[0] == '0' && v[1] == '\0');
}

const Kernels* detect_vector() {
#if defined(__x86_64__) || defined(_M_X64)
  if (avx2_kernels() != nullptr && __builtin_cpu_supports("avx2")) {
    return avx2_kernels();
  }
#endif
  return nullptr;
}

// -1 = undecided (consult env at first use), 0 = dispatch, 1 = scalar.
std::atomic<int> g_force_scalar{-1};

}  // namespace

const Kernels& scalar() { return kScalar; }

bool vector_available() { return detect_vector() != nullptr; }

void set_force_scalar(bool force) {
  g_force_scalar.store(force ? 1 : 0, std::memory_order_relaxed);
}

bool force_scalar() {
  int v = g_force_scalar.load(std::memory_order_relaxed);
  if (v < 0) {
    v = env_forces_scalar() ? 1 : 0;
    g_force_scalar.store(v, std::memory_order_relaxed);
  }
  return v == 1;
}

const Kernels& active() {
  if (force_scalar()) return kScalar;
  const Kernels* vec = detect_vector();
  return vec != nullptr ? *vec : kScalar;
}

const char* isa_summary() {
  if (force_scalar()) {
    return vector_available() ? "scalar (forced; vector backend available)"
                              : "scalar (forced)";
  }
  const Kernels* vec = detect_vector();
  if (vec == nullptr) return "scalar (no vector backend on this host)";
  return vec->name;
}

std::size_t preferred_width() {
  // Measured on the 16x16 array extraction: width 16 amortizes the per-chunk
  // bootstrap best on AVX2 (6.96 s vs 7.11 s at 8); 32+ regresses because
  // the SoA working set (a/l/u/work at nnz * W doubles) falls out of L2.
  const Kernels& k = active();
  if (std::strcmp(k.name, "avx2") == 0) return 16;
  return 4;
}

long first_degraded_row(const LuSymbolic& sy, const double* u,
                        std::size_t width, std::size_t lane) {
  for (std::size_t i = 0; i < sy.n; ++i) {
    double rmax = 0.0;
    for (std::uint32_t s = sy.u_ptr[i]; s < sy.u_ptr[i + 1]; ++s) {
      const double v = u[static_cast<std::size_t>(s) * width + lane];
      rmax = std::max(rmax, std::abs(v));
    }
    if (pivot_degraded(u[static_cast<std::size_t>(sy.u_ptr[i]) * width + lane],
                       rmax)) {
      return static_cast<long>(i);
    }
  }
  return -1;
}

}  // namespace ecms::circuit::kernels
