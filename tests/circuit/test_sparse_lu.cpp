// Randomized dense-vs-sparse equivalence for the linear backends: the
// sparse Markowitz LU must agree with the dense partial-pivot LU on
// MNA-shaped systems (conductance blocks plus voltage-source incidence
// rows with structurally zero diagonals), including after numeric-only
// refactorization, and must report singularity and conditioning the same
// way.
#include "circuit/sparse.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "circuit/matrix.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace ecms::circuit {
namespace {

// One (row, col, value) triple of a test system; duplicates accumulate,
// exactly as device stamps do.
struct Entry {
  std::size_t r, c;
  double v;
};

void fill_dense(const std::vector<Entry>& es, Matrix& m) {
  m.clear();
  for (const auto& e : es) m.at(e.r, e.c) += e.v;
}

void fill_sparse(const std::vector<Entry>& es, SparseMatrix& m) {
  m.clear_values();
  auto vals = m.values();
  for (const auto& e : es) vals[m.slot(e.r, e.c)] += e.v;
}

SparseMatrix pattern_of(std::size_t n, const std::vector<Entry>& es) {
  std::vector<std::uint64_t> coords;
  coords.reserve(es.size());
  for (const auto& e : es) coords.push_back(pack_coord(e.r, e.c));
  SparseMatrix m;
  m.build_pattern(n, coords);
  return m;
}

// A random MNA-shaped system: nv voltage unknowns coupled by two-terminal
// conductances (SPD-ish block, diagonally loaded), plus nb voltage-source
// branches whose incidence rows/columns carry +-1 and a structurally zero
// diagonal — the shape that forces real pivoting. `couplings` conductances
// per node: 2 is a typical netlist, larger values fill the factors in.
std::vector<Entry> random_mna(std::size_t nv, std::size_t nb, Rng& rng,
                              std::size_t couplings = 2) {
  std::vector<Entry> es;
  for (std::size_t i = 0; i < nv; ++i) {
    es.push_back({i, i, rng.uniform(0.5, 2.0)});  // leak to ground
  }
  const std::size_t pairs = couplings * nv;
  for (std::size_t k = 0; k < pairs; ++k) {
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
    const std::size_t br = nv + k;
    const std::size_t p = rng.uniform_index(nv);
    es.push_back({p, br, 1.0});
    es.push_back({br, p, 1.0});
    if (nv > 1) {
      std::size_t q = rng.uniform_index(nv);
      if (q == p) q = (q + 1) % nv;
      es.push_back({q, br, -1.0});
      es.push_back({br, q, -1.0});
    }
  }
  return es;
}

TEST(SparseLuT, PatternSlotsAndAt) {
  // Duplicates collapse to one slot; slots address the CSR value array.
  std::vector<std::uint64_t> coords = {pack_coord(0, 0), pack_coord(1, 1),
                                       pack_coord(0, 1), pack_coord(0, 0)};
  SparseMatrix m;
  m.build_pattern(2, coords);
  EXPECT_EQ(m.dim(), 2u);
  EXPECT_EQ(m.nnz(), 3u);
  EXPECT_NE(m.slot(0, 0), kNoSlot);
  EXPECT_NE(m.slot(0, 1), kNoSlot);
  EXPECT_NE(m.slot(1, 1), kNoSlot);
  EXPECT_EQ(m.slot(1, 0), kNoSlot);
  m.values()[m.slot(0, 0)] = 2.0;
  m.values()[m.slot(0, 1)] = 3.0;
  m.values()[m.slot(1, 1)] = 4.0;
  EXPECT_DOUBLE_EQ(m.at(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(m.at(1, 0), 0.0);  // outside the pattern
  std::vector<double> x = {1.0, 2.0}, y(2);
  m.multiply(x, y);
  EXPECT_DOUBLE_EQ(y[0], 8.0);
  EXPECT_DOUBLE_EQ(y[1], 8.0);
}

TEST(SparseLuT, OneByOne) {
  std::vector<Entry> es = {{0, 0, 4.0}};
  SparseMatrix m = pattern_of(1, es);
  fill_sparse(es, m);
  SparseLu lu;
  lu.factor(m);
  std::vector<double> b = {8.0};
  lu.solve_in_place(b);
  EXPECT_DOUBLE_EQ(b[0], 2.0);
}

TEST(SparseLuT, DiagonalSolveMatchesDense) {
  // On a diagonal matrix both backends divide by the same pivots, so their
  // solutions agree exactly.
  std::vector<Entry> es = {{0, 0, 8.0}, {1, 1, 2.0}, {2, 2, 4.0}};
  SparseMatrix sm = pattern_of(3, es);
  fill_sparse(es, sm);
  SparseLu slu;
  slu.factor(sm);
  Matrix dm(3, 3);
  fill_dense(es, dm);
  const std::vector<double> b = {1.0, 3.0, -2.0};
  std::vector<double> xs = b;
  slu.solve_in_place(xs);
  const auto xd = LuFactorization(dm).solve(b);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_DOUBLE_EQ(xs[i], xd[i]);
  EXPECT_DOUBLE_EQ(xs[0], 0.125);
}

TEST(SparseLuT, SingularZeroRowThrowsLikeDense) {
  // Zero row: dense throws at construction, sparse at factor(); the sparse
  // object must be left unusable rather than half-factored.
  std::vector<Entry> es = {{0, 0, 1.0}, {0, 1, 2.0}, {1, 0, 0.0}, {1, 1, 0.0}};
  SparseMatrix sm = pattern_of(2, es);
  fill_sparse(es, sm);
  SparseLu slu;
  EXPECT_THROW(slu.factor(sm), SolverError);
  EXPECT_FALSE(slu.factored());
  Matrix dm(2, 2);
  fill_dense(es, dm);
  EXPECT_THROW(LuFactorization{dm}, SolverError);
}

TEST(SparseLuT, RefactorReportsDegradedPivot) {
  // A healthy factorization whose pivot later collapses to zero must make
  // refactor() return false (caller re-pivots) instead of dividing by zero.
  std::vector<Entry> es = {{0, 0, 2.0}, {0, 1, 1.0}, {1, 0, 1.0}, {1, 1, 3.0}};
  SparseMatrix m = pattern_of(2, es);
  fill_sparse(es, m);
  SparseLu lu;
  lu.factor(m);
  EXPECT_TRUE(lu.refactor(m));  // same values: still fine
  m.clear_values();
  m.values()[m.slot(0, 1)] = 1.0;
  m.values()[m.slot(1, 0)] = 1.0;  // both diagonals now exactly zero
  EXPECT_FALSE(lu.refactor(m));
}

// Property sweep over random MNA-shaped systems: sparse solve, sparse
// refactor-after-value-change, and multiply-back residual must all agree
// with the dense backend.
class SparseRandomMna
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {};

void check_against_dense(std::size_t nv, std::size_t nb, Rng& rng,
                         std::size_t couplings) {
  const std::size_t n = nv + nb;
  const std::vector<Entry> es = random_mna(nv, nb, rng, couplings);

  Matrix dm(n, n);
  fill_dense(es, dm);
  SparseMatrix sm = pattern_of(n, es);
  fill_sparse(es, sm);
  // Identical assembled systems by construction.
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c)
      ASSERT_DOUBLE_EQ(sm.at(r, c), dm.at(r, c));

  std::vector<double> b(n);
  for (auto& v : b) v = rng.uniform(-2.0, 2.0);

  const auto xd = LuFactorization(dm).solve(b);
  std::vector<double> xs = b;
  SparseLu slu;
  slu.factor(sm);
  slu.solve_in_place(xs);
  double scale = 1.0;
  for (double v : xd) scale = std::max(scale, std::abs(v));
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(xs[i], xd[i], 1e-9 * scale);

  // Residual check against the sparse multiply.
  std::vector<double> ax(n);
  sm.multiply(xs, ax);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(ax[i], b[i], 1e-8 * scale);

  // Newton-style value change on the same pattern: numeric refactor only.
  std::vector<Entry> es2 = es;
  for (auto& e : es2) {
    if (e.r < nv && e.c < nv) e.v *= rng.uniform(0.5, 1.5);
  }
  fill_dense(es2, dm);
  fill_sparse(es2, sm);
  const auto xd2 = LuFactorization(dm).solve(b);
  ASSERT_TRUE(slu.refactor(sm));
  std::vector<double> xs2 = b;
  slu.solve_in_place(xs2);
  scale = 1.0;
  for (double v : xd2) scale = std::max(scale, std::abs(v));
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_NEAR(xs2[i], xd2[i], 1e-9 * scale);
}

TEST_P(SparseRandomMna, MatchesDenseBackend) {
  const auto [nv, nb] = GetParam();
  Rng rng(4200 + 13 * (nv + nb));
  check_against_dense(nv, nb, rng, /*couplings=*/2);
}

// Three times the couplings: long L rows, most of the factor is fill-in,
// and the refactor stream's updates land on fill positions.
TEST_P(SparseRandomMna, FillHeavyMatchesDenseBackend) {
  const auto [nv, nb] = GetParam();
  Rng rng(5300 + 17 * (nv + nb));
  check_against_dense(nv, nb, rng, /*couplings=*/6);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SparseRandomMna,
    ::testing::Values(std::pair<std::size_t, std::size_t>{2, 1},
                      std::pair<std::size_t, std::size_t>{5, 2},
                      std::pair<std::size_t, std::size_t>{12, 3},
                      std::pair<std::size_t, std::size_t>{25, 6},
                      std::pair<std::size_t, std::size_t>{60, 10},
                      std::pair<std::size_t, std::size_t>{120, 16}));

}  // namespace
}  // namespace ecms::circuit
