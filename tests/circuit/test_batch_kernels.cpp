// Bit-identity of the lane LU (lu_refactor_lanes / lu_solve_lanes) against
// the scalar SparseLu path on randomized MNA-shaped systems: every lane must
// reproduce SparseLu's results to the last bit at every width, both on the
// vectorized lane blocks and on the one-lane instantiation that widths not
// a multiple of the block run, and a degraded lane must be flagged in
// bad[] at its first degraded pivot row without contaminating its
// neighbors.
#include "circuit/sparse.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace ecms::circuit {
namespace {

struct Entry {
  std::size_t r, c;
  double v;
};

// Same MNA shape the sparse-LU equivalence tests use: conductance block
// with structural symmetry plus voltage-source incidence rows with zero
// diagonals (forces real pivoting). `couplings` conductances per node: 2 is
// the usual sparse netlist, larger values make the factors fill in heavily.
std::vector<Entry> random_mna(std::size_t nv, std::size_t nb, Rng& rng,
                              std::size_t couplings = 2) {
  std::vector<Entry> es;
  for (std::size_t i = 0; i < nv; ++i) {
    es.push_back({i, i, rng.uniform(0.5, 2.0)});
  }
  for (std::size_t k = 0; k < couplings * nv; ++k) {
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

// Copies per-lane matrix values (the lane LU reads each lane's array in
// place) and gathers the right-hand sides into the lane-minor layout, the
// way BatchEngine does.
struct Lanes {
  std::size_t width;
  std::vector<std::vector<double>> vals;
  std::vector<const double*> a;
  std::vector<double> lu, pb;
  std::vector<long> bad;

  Lanes(const LuSymbolic& sy, const std::vector<SparseMatrix>& mats,
        const std::vector<std::vector<double>>& rhs)
      : width(mats.size()),
        vals(width),
        a(width),
        lu(sy.factor_nnz() * width),
        pb(sy.n * width),
        bad(width, -2) {
    for (std::size_t k = 0; k < width; ++k) {
      const auto av = mats[k].values();
      vals[k].assign(av.begin(), av.end());
      a[k] = vals[k].data();
      for (std::size_t i = 0; i < sy.n; ++i) {
        pb[i * width + k] = rhs[k][sy.perm_row[i]];
      }
    }
  }

  void refactor(const LuSymbolic& sy) {
    lu_refactor_lanes(sy, a.data(), lu.data(), bad.data(), width);
  }
  void solve(const LuSymbolic& sy) {
    lu_solve_lanes(sy, lu.data(), pb.data(), width);
  }
};

// Lane k of the solved lanes must equal SparseLu's solve of mats[k], bit
// for bit.
void expect_lane_matches_sparse_lu(const Lanes& lanes, std::size_t k,
                                   const std::shared_ptr<const LuSymbolic>& sym,
                                   const SparseMatrix& m,
                                   std::vector<double> ref) {
  const LuSymbolic& sy = *sym;
  SparseLu lu;
  lu.adopt_symbolic(sym);
  ASSERT_TRUE(lu.refactor(m)) << "lane " << k;
  lu.solve_in_place(ref);
  for (std::size_t j = 0; j < sy.n; ++j) {
    EXPECT_TRUE(bits_equal(lanes.pb[j * lanes.width + k], ref[sy.perm_col[j]]))
        << "lane " << k << " unknown " << sy.perm_col[j] << " width "
        << lanes.width;
  }
}

// Runs one width-W equivalence round: W value-perturbed copies of one
// MNA-shaped topology, scalar SparseLu refactor+solve per lane as the
// reference, the lane LU over the lane-minor gather as the candidate.
void run_round(std::size_t width, std::uint64_t seed,
               std::size_t couplings = 2) {
  Rng rng(seed);
  const std::size_t nv = 8 + rng.uniform_index(8);
  const std::size_t nb = 1 + rng.uniform_index(3);
  const std::size_t n = nv + nb;
  const std::vector<Entry> base = random_mna(nv, nb, rng, couplings);

  // Lane 0 defines the shared pivot order, as in the batch engine.
  SparseMatrix m0 = matrix_of(n, base);
  SparseLu lu0;
  lu0.factor(m0);
  const std::shared_ptr<const LuSymbolic> sym = lu0.symbolic();
  ASSERT_NE(sym, nullptr);

  // Per-lane value sets (lane 0 keeps the base values) and RHS vectors.
  std::vector<SparseMatrix> mats;
  std::vector<std::vector<double>> rhs(width, std::vector<double>(n));
  for (std::size_t k = 0; k < width; ++k) {
    std::vector<Entry> es = base;
    if (k > 0) {
      for (auto& e : es) e.v *= rng.uniform(0.9, 1.1);
    }
    mats.push_back(matrix_of(n, es));
    for (double& v : rhs[k]) v = rng.uniform(-1.0, 1.0);
  }

  Lanes lanes(*sym, mats, rhs);
  lanes.refactor(*sym);
  for (std::size_t k = 0; k < width; ++k) EXPECT_EQ(lanes.bad[k], -1);
  lanes.solve(*sym);
  for (std::size_t k = 0; k < width; ++k) {
    expect_lane_matches_sparse_lu(lanes, k, sym, mats[k], rhs[k]);
  }
}

TEST(BatchKernelT, LanesMatchSparseLuAtEveryWidth) {
  // 3 is not a multiple of the lane block, so it runs the one-lane
  // instantiation across lanes; the others run the vectorized blocks.
  for (std::size_t w : {1u, 3u, 4u, 8u, 16u}) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      run_round(w, seed * 977 + w);
    }
    // Fill-heavy patterns: long L rows whose updates land on fill-in.
    for (std::uint64_t seed = 1; seed <= 2; ++seed) {
      SCOPED_TRACE("fill-heavy seed " + std::to_string(seed));
      run_round(w, seed * 613 + w, /*couplings=*/6);
    }
  }
}

TEST(BatchKernelT, DegradedLaneIsFlaggedAndConfined) {
  Rng rng(7);
  const std::size_t nv = 10, nb = 2, n = nv + nb;
  const std::vector<Entry> base = random_mna(nv, nb, rng);
  SparseMatrix m0 = matrix_of(n, base);
  SparseLu lu0;
  lu0.factor(m0);
  const auto sym = lu0.symbolic();
  const LuSymbolic& sy = *sym;

  // Lane 1 is all zeros, so its first pivot is zero. Lane 2 zeroes the one
  // original row that becomes permuted row `mid`: the rows before it
  // eliminate cleanly, and its pivot collapses to exactly zero there.
  const std::size_t zero_lane = 1, mid_lane = 2, mid = n / 2;
  SparseMatrix zero = m0;
  zero.clear_values();
  SparseMatrix mid_bad = m0;
  const std::uint32_t r = sy.perm_row[mid];
  for (std::uint32_t s = mid_bad.row_begin(r); s < mid_bad.row_end(r); ++s) {
    mid_bad.values()[s] = 0.0;
  }

  // The scalar engine agrees both lanes' refactors are degraded.
  for (const SparseMatrix* m : {&zero, &mid_bad}) {
    SparseLu lu_bad;
    lu_bad.adopt_symbolic(sym);
    EXPECT_FALSE(lu_bad.refactor(*m));
  }

  // Width 1 is SparseLu's own instantiation: its single lane is the
  // mid-matrix one.
  {
    Lanes lanes(sy, {mid_bad}, {std::vector<double>(n, 1.0)});
    lanes.refactor(sy);
    EXPECT_EQ(lanes.bad[0], static_cast<long>(mid));
  }

  // Width 3 runs the one-lane instantiation, width 4 one vectorized block.
  for (std::size_t width : {3u, 4u}) {
    SCOPED_TRACE("width " + std::to_string(width));
    std::vector<SparseMatrix> mats;
    std::vector<std::vector<double>> rhs(width, std::vector<double>(n));
    for (std::size_t k = 0; k < width; ++k) {
      mats.push_back(k == zero_lane ? zero : k == mid_lane ? mid_bad : m0);
      for (double& v : rhs[k]) v = rng.uniform(-1.0, 1.0);
    }
    Lanes lanes(sy, mats, rhs);
    lanes.refactor(sy);
    EXPECT_EQ(lanes.bad[zero_lane], 0);
    EXPECT_EQ(lanes.bad[mid_lane], static_cast<long>(mid));

    // Healthy lanes still solve bit-identically to the scalar reference.
    lanes.solve(sy);
    for (std::size_t k = 0; k < width; ++k) {
      if (k == zero_lane || k == mid_lane) continue;
      EXPECT_EQ(lanes.bad[k], -1) << "lane " << k;
      expect_lane_matches_sparse_lu(lanes, k, sym, m0, rhs[k]);
    }
  }
}

}  // namespace
}  // namespace ecms::circuit
