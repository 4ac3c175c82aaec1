// AVX2 backend of the batched SoA kernels. This translation unit is the
// only one compiled with -mavx2 (see src/circuit/CMakeLists.txt); nothing
// here runs unless the dispatcher checked __builtin_cpu_supports("avx2").
//
// Bit-identity: only lanewise vaddpd/vsubpd/vmulpd/vdivpd — each IEEE-754
// correctly rounded, so every lane computes exactly what the scalar backend
// computes. No FMA (vfmadd would contract mul+sub into one rounding) and no
// vector max/compare (NaN semantics differ from std::max); pivot health is
// judged by the scalar first_degraded_row() scan.
#include "circuit/kernels.hpp"

#if defined(__x86_64__) || defined(_M_X64)

#include <immintrin.h>

namespace ecms::circuit::kernels {

namespace {

void refactor_avx2(const LuSymbolic& sy, const double* a, double* l,
                   double* u, double* work, std::size_t w) {
  const std::size_t n = sy.n;
  const std::size_t wv = w & ~std::size_t{3};
  for (std::size_t i = 0; i < n; ++i) {
    const __m256d zero = _mm256_setzero_pd();
    for (std::uint32_t s = sy.l_ptr[i]; s < sy.l_ptr[i + 1]; ++s) {
      double* row = work + static_cast<std::size_t>(sy.l_cols[s]) * w;
      for (std::size_t k = 0; k < wv; k += 4) _mm256_storeu_pd(row + k, zero);
      for (std::size_t k = wv; k < w; ++k) row[k] = 0.0;
    }
    for (std::uint32_t s = sy.u_ptr[i]; s < sy.u_ptr[i + 1]; ++s) {
      double* row = work + static_cast<std::size_t>(sy.u_cols[s]) * w;
      for (std::size_t k = 0; k < wv; k += 4) _mm256_storeu_pd(row + k, zero);
      for (std::size_t k = wv; k < w; ++k) row[k] = 0.0;
    }
    for (std::uint32_t s = sy.a_ptr[i]; s < sy.a_ptr[i + 1]; ++s) {
      double* row = work + static_cast<std::size_t>(sy.a_pcol[s]) * w;
      const double* av = a + static_cast<std::size_t>(sy.a_slot[s]) * w;
      for (std::size_t k = 0; k < wv; k += 4) {
        _mm256_storeu_pd(row + k, _mm256_add_pd(_mm256_loadu_pd(row + k),
                                                _mm256_loadu_pd(av + k)));
      }
      for (std::size_t k = wv; k < w; ++k) row[k] += av[k];
    }
    for (std::uint32_t s = sy.l_ptr[i]; s < sy.l_ptr[i + 1]; ++s) {
      const std::uint32_t j = sy.l_cols[s];
      const double* wj = work + static_cast<std::size_t>(j) * w;
      const double* upiv = u + static_cast<std::size_t>(sy.u_ptr[j]) * w;
      double* ls = l + static_cast<std::size_t>(s) * w;
      for (std::size_t k = 0; k < wv; k += 4) {
        _mm256_storeu_pd(ls + k, _mm256_div_pd(_mm256_loadu_pd(wj + k),
                                               _mm256_loadu_pd(upiv + k)));
      }
      for (std::size_t k = wv; k < w; ++k) ls[k] = wj[k] / upiv[k];
      for (std::uint32_t t = sy.u_ptr[j] + 1; t < sy.u_ptr[j + 1]; ++t) {
        double* row = work + static_cast<std::size_t>(sy.u_cols[t]) * w;
        const double* ut = u + static_cast<std::size_t>(t) * w;
        for (std::size_t k = 0; k < wv; k += 4) {
          _mm256_storeu_pd(
              row + k,
              _mm256_sub_pd(_mm256_loadu_pd(row + k),
                            _mm256_mul_pd(_mm256_loadu_pd(ls + k),
                                          _mm256_loadu_pd(ut + k))));
        }
        for (std::size_t k = wv; k < w; ++k) row[k] -= ls[k] * ut[k];
      }
    }
    for (std::uint32_t s = sy.u_ptr[i]; s < sy.u_ptr[i + 1]; ++s) {
      const double* row = work + static_cast<std::size_t>(sy.u_cols[s]) * w;
      double* us = u + static_cast<std::size_t>(s) * w;
      for (std::size_t k = 0; k < wv; k += 4)
        _mm256_storeu_pd(us + k, _mm256_loadu_pd(row + k));
      for (std::size_t k = wv; k < w; ++k) us[k] = row[k];
    }
  }
}

void solve_avx2(const LuSymbolic& sy, const double* l, const double* u,
                double* pb, std::size_t w) {
  const std::size_t n = sy.n;
  const std::size_t wv = w & ~std::size_t{3};
  for (std::size_t i = 0; i < n; ++i) {
    double* acc = pb + i * w;
    for (std::uint32_t s = sy.l_ptr[i]; s < sy.l_ptr[i + 1]; ++s) {
      const double* ls = l + static_cast<std::size_t>(s) * w;
      const double* pj = pb + static_cast<std::size_t>(sy.l_cols[s]) * w;
      for (std::size_t k = 0; k < wv; k += 4) {
        _mm256_storeu_pd(
            acc + k,
            _mm256_sub_pd(_mm256_loadu_pd(acc + k),
                          _mm256_mul_pd(_mm256_loadu_pd(ls + k),
                                        _mm256_loadu_pd(pj + k))));
      }
      for (std::size_t k = wv; k < w; ++k) acc[k] -= ls[k] * pj[k];
    }
  }
  for (std::size_t ii = n; ii > 0; --ii) {
    const std::size_t i = ii - 1;
    double* acc = pb + i * w;
    for (std::uint32_t s = sy.u_ptr[i] + 1; s < sy.u_ptr[i + 1]; ++s) {
      const double* us = u + static_cast<std::size_t>(s) * w;
      const double* pj = pb + static_cast<std::size_t>(sy.u_cols[s]) * w;
      for (std::size_t k = 0; k < wv; k += 4) {
        _mm256_storeu_pd(
            acc + k,
            _mm256_sub_pd(_mm256_loadu_pd(acc + k),
                          _mm256_mul_pd(_mm256_loadu_pd(us + k),
                                        _mm256_loadu_pd(pj + k))));
      }
      for (std::size_t k = wv; k < w; ++k) acc[k] -= us[k] * pj[k];
    }
    const double* upiv = u + static_cast<std::size_t>(sy.u_ptr[i]) * w;
    for (std::size_t k = 0; k < wv; k += 4) {
      _mm256_storeu_pd(acc + k, _mm256_div_pd(_mm256_loadu_pd(acc + k),
                                              _mm256_loadu_pd(upiv + k)));
    }
    for (std::size_t k = wv; k < w; ++k) acc[k] /= upiv[k];
  }
}

constexpr Kernels kAvx2 = {"avx2", refactor_avx2, solve_avx2};

}  // namespace

const Kernels* avx2_kernels() { return &kAvx2; }

}  // namespace ecms::circuit::kernels

#else  // !x86-64

namespace ecms::circuit::kernels {
const Kernels* avx2_kernels() { return nullptr; }
}  // namespace ecms::circuit::kernels

#endif
