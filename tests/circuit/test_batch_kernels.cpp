// Bit-identity of the batched SoA kernels against the scalar SparseLu path
// on randomized MNA-shaped systems: the vector refactor / triangular solves
// must reproduce the scalar backend's results to the last bit at every lane
// width, on both the dispatched and the forced-scalar backend, and a
// degraded (fault-injected) lane must be flagged by first_degraded_row()
// without contaminating its neighbors.
#include "circuit/kernels.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "circuit/sparse.hpp"
#include "util/rng.hpp"

namespace ecms::circuit {
namespace {

struct Entry {
  std::size_t r, c;
  double v;
};

// Same MNA shape the sparse-LU equivalence tests use: conductance block
// with structural symmetry plus voltage-source incidence rows with zero
// diagonals (forces real pivoting).
std::vector<Entry> random_mna(std::size_t nv, std::size_t nb, Rng& rng) {
  std::vector<Entry> es;
  for (std::size_t i = 0; i < nv; ++i) {
    es.push_back({i, i, rng.uniform(0.5, 2.0)});
  }
  for (std::size_t k = 0; k < 2 * nv; ++k) {
    const std::size_t a = rng.uniform_index(nv);
    const std::size_t b = rng.uniform_index(nv);
    if (a == b) continue;
    const double g = rng.uniform(0.1, 10.0);
    es.push_back({a, a, g});
    es.push_back({b, b, g});
    es.push_back({a, b, -g});
    es.push_back({b, a, -g});
  }
  for (std::size_t k = 0; k < nb; ++k) {
    // Distinct (p, q) pairs per branch: two identical incidence rows would
    // make the system singular regardless of the conductance block.
    const std::size_t br = nv + k;
    const std::size_t p = (2 * k) % nv;
    const std::size_t q = (2 * k + 1) % nv;
    es.push_back({p, br, 1.0});
    es.push_back({br, p, 1.0});
    es.push_back({q, br, -1.0});
    es.push_back({br, q, -1.0});
  }
  return es;
}

SparseMatrix matrix_of(std::size_t n, const std::vector<Entry>& es) {
  std::vector<std::uint64_t> coords;
  coords.reserve(es.size());
  for (const auto& e : es) coords.push_back(pack_coord(e.r, e.c));
  SparseMatrix m;
  m.build_pattern(n, coords);
  auto vals = m.values();
  for (const auto& e : es) vals[m.slot(e.r, e.c)] += e.v;
  return m;
}

::testing::AssertionResult bits_equal(double a, double b) {
  if (std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b)) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << a << " != " << b << " (bit patterns differ)";
}

// Runs one width-W equivalence round: W value-perturbed copies of one
// MNA-shaped topology, scalar SparseLu refactor+solve per lane as the
// reference, kernel refactor+solve over the SoA gather as the candidate.
void run_round(const kernels::Kernels& kk, std::size_t width,
               std::uint64_t seed) {
  Rng rng(seed);
  const std::size_t nv = 8 + rng.uniform_index(8);
  const std::size_t nb = 1 + rng.uniform_index(3);
  const std::size_t n = nv + nb;
  const std::vector<Entry> base = random_mna(nv, nb, rng);

  // Lane 0 defines the shared pivot order, as in the batch engine.
  SparseMatrix m0 = matrix_of(n, base);
  SparseLu lu0;
  lu0.factor(m0);
  const std::shared_ptr<const LuSymbolic> sym = lu0.symbolic();
  ASSERT_NE(sym, nullptr);
  const LuSymbolic& sy = *sym;

  // Per-lane value sets (lane 0 keeps the base values) and RHS vectors.
  std::vector<SparseMatrix> mats;
  std::vector<std::vector<double>> rhs(width, std::vector<double>(n));
  for (std::size_t l = 0; l < width; ++l) {
    std::vector<Entry> es = base;
    if (l > 0) {
      for (auto& e : es) e.v *= rng.uniform(0.9, 1.1);
    }
    mats.push_back(matrix_of(n, es));
    for (double& v : rhs[l]) v = rng.uniform(-1.0, 1.0);
  }

  // Reference: scalar numeric refactor + solve on the shared symbolic.
  std::vector<std::vector<double>> ref = rhs;
  for (std::size_t l = 0; l < width; ++l) {
    SparseLu lu;
    lu.adopt_symbolic(sym);
    ASSERT_TRUE(lu.refactor(mats[l])) << "lane " << l;
    lu.solve_in_place(ref[l]);
  }

  // Candidate: SoA gather, kernel refactor + solve, scatter.
  const std::size_t nnz = mats[0].nnz();
  std::vector<double> a(nnz * width), l_vals(sy.l_cols.size() * width),
      u_vals(sy.u_cols.size() * width), work(n * width), pb(n * width);
  for (std::size_t l = 0; l < width; ++l) {
    const auto av = mats[l].values();
    for (std::size_t s = 0; s < nnz; ++s) a[s * width + l] = av[s];
    for (std::size_t i = 0; i < n; ++i) {
      pb[i * width + l] = rhs[l][sy.perm_row[i]];
    }
  }
  kk.refactor(sy, a.data(), l_vals.data(), u_vals.data(), work.data(), width);
  for (std::size_t l = 0; l < width; ++l) {
    EXPECT_EQ(kernels::first_degraded_row(sy, u_vals.data(), width, l), -1);
  }
  kk.solve(sy, l_vals.data(), u_vals.data(), pb.data(), width);
  for (std::size_t l = 0; l < width; ++l) {
    for (std::size_t j = 0; j < n; ++j) {
      EXPECT_TRUE(bits_equal(pb[j * width + l], ref[l][sy.perm_col[j]]))
          << "lane " << l << " unknown " << sy.perm_col[j] << " width "
          << width;
    }
  }
}

class BatchKernelT : public ::testing::Test {
 protected:
  void TearDown() override { kernels::set_force_scalar(false); }
};

TEST_F(BatchKernelT, ScalarBackendMatchesSparseLuAtEveryWidth) {
  for (std::size_t w : {1u, 4u, 8u, 16u}) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      run_round(kernels::scalar(), w, seed * 977 + w);
    }
  }
}

TEST_F(BatchKernelT, DispatchedBackendMatchesSparseLuAtEveryWidth) {
  // On hosts without a vector unit this re-checks the scalar backend; with
  // one it proves the AVX2 lanes agree with SparseLu to the last bit.
  for (std::size_t w : {1u, 4u, 8u, 16u}) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      run_round(kernels::active(), w, seed * 1409 + w);
    }
  }
}

TEST_F(BatchKernelT, ForceScalarOverridesDispatch) {
  kernels::set_force_scalar(true);
  EXPECT_STREQ(kernels::active().name, "scalar");
  EXPECT_TRUE(kernels::force_scalar());
  run_round(kernels::active(), 8, 42);
  kernels::set_force_scalar(false);
  EXPECT_FALSE(kernels::force_scalar());
  if (kernels::vector_available()) {
    EXPECT_STRNE(kernels::active().name, "scalar");
  }
}

TEST_F(BatchKernelT, DegradedLaneIsFlaggedAndConfined) {
  Rng rng(7);
  const std::size_t nv = 10, nb = 2, n = nv + nb;
  const std::vector<Entry> base = random_mna(nv, nb, rng);
  SparseMatrix m0 = matrix_of(n, base);
  SparseLu lu0;
  lu0.factor(m0);
  const auto sym = lu0.symbolic();
  const LuSymbolic& sy = *sym;

  const std::size_t width = 4, bad = 2;
  const std::size_t nnz = m0.nnz();
  std::vector<double> a(nnz * width, 0.0), l_vals(sy.l_cols.size() * width),
      u_vals(sy.u_cols.size() * width), work(n * width), pb(n * width);
  std::vector<std::vector<double>> rhs(width, std::vector<double>(n));
  for (std::size_t l = 0; l < width; ++l) {
    for (double& v : rhs[l]) v = rng.uniform(-1.0, 1.0);
    if (l == bad) continue;  // lane `bad` keeps an all-zero (singular) matrix
    const auto av = m0.values();
    for (std::size_t s = 0; s < nnz; ++s) a[s * width + l] = av[s];
  }
  for (std::size_t l = 0; l < width; ++l) {
    for (std::size_t i = 0; i < n; ++i) {
      pb[i * width + l] = rhs[l][sy.perm_row[i]];
    }
  }

  const kernels::Kernels& kk = kernels::active();
  kk.refactor(sy, a.data(), l_vals.data(), u_vals.data(), work.data(), width);
  for (std::size_t l = 0; l < width; ++l) {
    const long row = kernels::first_degraded_row(sy, u_vals.data(), width, l);
    if (l == bad) {
      EXPECT_GE(row, 0) << "singular lane must be flagged";
    } else {
      EXPECT_EQ(row, -1) << "lane " << l;
    }
  }
  // The scalar engine agrees the bad lane's refactor is degraded.
  SparseLu lu_bad;
  lu_bad.adopt_symbolic(sym);
  SparseMatrix zero = m0;
  for (double& v : zero.values()) v = 0.0;
  EXPECT_FALSE(lu_bad.refactor(zero));

  // Healthy lanes still solve bit-identically to the scalar reference.
  kk.solve(sy, l_vals.data(), u_vals.data(), pb.data(), width);
  for (std::size_t l = 0; l < width; ++l) {
    if (l == bad) continue;
    std::vector<double> ref = rhs[l];
    SparseLu lu;
    lu.adopt_symbolic(sym);
    ASSERT_TRUE(lu.refactor(m0));
    lu.solve_in_place(ref);
    for (std::size_t j = 0; j < n; ++j) {
      EXPECT_TRUE(bits_equal(pb[j * width + l], ref[sy.perm_col[j]]))
          << "lane " << l;
    }
  }
}

TEST_F(BatchKernelT, IsaReportAndPreferredWidthAreSane) {
  EXPECT_NE(kernels::isa_summary(), nullptr);
  EXPECT_GE(kernels::preferred_width(), 4u);
  if (kernels::vector_available()) {
    EXPECT_NE(kernels::active().name, nullptr);
  }
}

}  // namespace
}  // namespace ecms::circuit
