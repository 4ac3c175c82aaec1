// Sparse linear algebra for MNA systems.
//
// MNA matrices are structurally sparse (a handful of entries per device)
// and their pattern is fixed for the life of a netlist, so the classic
// SPICE optimizations apply: a CSR matrix with a frozen pattern, and an LU
// factorization whose expensive part — choosing a pivot order and computing
// the fill-in pattern — runs once (threshold-Markowitz), after which every
// Newton iteration only re-runs the cheap numeric elimination on the frozen
// pattern. solver.hpp's SparseEngine drives it for every Newton solve;
// matrix.hpp's dense LU is only a reference.
//
// The structural halves are split out as immutable, shareable objects:
// SparsePattern (the CSR skeleton) and LuSymbolic (pivot order + fill
// closure + refactor stream). Both are topology-only — no values — so a
// NetlistProgram (program.hpp) can hand one read-only copy to every engine
// solving the same netlist shape, across threads. Values (CSR entries,
// L/U factors, scratch) always stay per-owner.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "util/arena.hpp"

namespace ecms::circuit {

/// Packs a (row, col) coordinate into one sortable 64-bit key.
inline std::uint64_t pack_coord(std::size_t row, std::size_t col) {
  return (static_cast<std::uint64_t>(row) << 32) |
         static_cast<std::uint64_t>(static_cast<std::uint32_t>(col));
}

/// Sentinel for "coordinate not in the pattern".
inline constexpr std::uint32_t kNoSlot =
    std::numeric_limits<std::uint32_t>::max();

/// Refactor-time pivot health threshold: looser than the factor-time
/// Markowitz threshold (which already admits pivots rel_pivot_threshold
/// below their row max), so healthy value drift between Newton iterations
/// does not trigger spurious re-pivots, but a genuinely collapsed pivot does.
inline constexpr double kRepivotThreshold = 1e-10;

/// The pivot-health predicate of the numeric refactorization: a pivot is
/// degraded when it is non-finite, exactly zero, or below kRepivotThreshold
/// times its U row's largest magnitude, and the pivot order must then be
/// recomputed.
inline bool pivot_degraded(double pivot, double row_max) {
  const double mag = std::abs(pivot);
  return !std::isfinite(pivot) || mag == 0.0 ||
         mag < kRepivotThreshold * row_max;
}

/// The CSR skeleton of an n x n matrix: row extents plus sorted column ids.
/// Purely structural, hence immutable-after-build and shareable read-only
/// between matrices (and threads) holding their own value arrays.
struct SparsePattern {
  std::size_t n = 0;
  std::vector<std::uint32_t> row_ptr;  // n + 1 entries
  std::vector<std::uint32_t> cols;     // sorted ascending within each row
};

/// Compressed-sparse-row matrix with a frozen pattern. Values are addressed
/// by slot index (a position in the CSR value array), which is what makes
/// the stamp-slot cache possible: resolve (row, col) -> slot once, then
/// every later assembly is a direct array write.
class SparseMatrix {
 public:
  SparseMatrix() = default;

  /// Builds the pattern of an n x n matrix from packed pack_coord() keys
  /// (duplicates allowed). All values start at zero.
  void build_pattern(std::size_t n, std::span<const std::uint64_t> coords);

  /// Shares an already-built pattern (zeroing this matrix's values). The
  /// pattern is read-only from here on; other matrices may hold it too.
  void adopt_pattern(std::shared_ptr<const SparsePattern> pattern);

  /// The shared structural skeleton (null before any build/adopt).
  const std::shared_ptr<const SparsePattern>& pattern() const { return pat_; }

  std::size_t dim() const { return pat_ ? pat_->n : 0; }
  std::size_t nnz() const { return pat_ ? pat_->cols.size() : 0; }

  /// Value-slot index of (r, c), or kNoSlot when outside the pattern.
  std::uint32_t slot(std::size_t r, std::size_t c) const;

  void clear_values();
  std::span<double> values() { return values_; }
  std::span<const double> values() const { return values_; }

  /// Value at (r, c); 0 outside the pattern.
  double at(std::size_t r, std::size_t c) const;

  std::uint32_t row_begin(std::size_t r) const { return pat_->row_ptr[r]; }
  std::uint32_t row_end(std::size_t r) const { return pat_->row_ptr[r + 1]; }
  std::uint32_t col_of(std::uint32_t s) const { return pat_->cols[s]; }

  /// y = A * x (sizes must match).
  void multiply(std::span<const double> x, std::span<double> y) const;

 private:
  std::shared_ptr<const SparsePattern> pat_;
  std::vector<double> values_;
};

/// The structural output of one full threshold-Markowitz factorization:
/// permutations, the L/U fill closure (CSR over permuted indices, columns
/// ascending, each U row led by its diagonal), and the compiled refactor
/// stream. Value-free and immutable once built, so many SparseLu instances
/// — on different threads — can refactor numerically against one shared
/// LuSymbolic.
///
/// Factor values live in one combined L|U array: L entry s (l_cols order)
/// at position s, then U entry t (u_cols order) at l_cols.size() + t. The
/// refactor stream addresses that array directly.
struct LuSymbolic {
  std::size_t n = 0;
  // Permutations: permuted index -> original index, plus inverses.
  std::vector<std::uint32_t> perm_row, perm_col;
  std::vector<std::uint32_t> pinv_row, pinv_col;
  std::vector<std::uint32_t> l_ptr, l_cols;
  std::vector<std::uint32_t> u_ptr, u_cols;

  // --- the compiled refactor stream ---
  /// One elimination step: L entry `l` becomes l / piv, and the pivot
  /// row's `count` off-diagonal U entries from position `src` on are
  /// subtracted, times it, at the next `count` positions of upd_dst.
  struct Elim {
    std::uint32_t l, piv, src, count;
  };
  std::vector<std::uint32_t> a_dst;    ///< A value slot -> L|U position
  std::vector<std::uint32_t> fill_dst; ///< L|U positions no A slot reaches
  std::vector<Elim> elim;              ///< every L entry, in row order
  std::vector<std::uint32_t> upd_dst;  ///< update targets, in stream order

  /// Nonzeros in L + U, fill-in included: the combined array's length.
  std::size_t factor_nnz() const { return l_cols.size() + u_cols.size(); }
};

/// Sparse LU with a symbolic/numeric split, SPICE-style:
///
///   factor()   — full factorization: threshold-Markowitz pivot order
///                ((rows-1)*(cols-1) fill cost, pivots accepted at
///                >= rel_pivot_threshold of their row max), fill-in pattern,
///                and numeric values. Run once per matrix pattern.
///   refactor() — numeric-only elimination reusing the frozen pivot order
///                and fill pattern. Run every Newton iteration; reports
///                pivot degradation instead of silently producing garbage,
///                so the caller can re-pivot with factor().
///
/// The full factorization performs structural updates even where a
/// multiplier is numerically zero, so the frozen pattern stays valid for
/// any later value set. A factorization's structural half can also be
/// adopted from a shared LuSymbolic (adopt_symbolic), in which case the
/// first refactor() supplies the numeric values and no Markowitz analysis
/// runs in this instance at all.
class SparseLu {
 public:
  /// Markowitz pivot acceptance: |candidate| >= threshold * row max. Small
  /// enough to favor sparsity, large enough to keep growth bounded.
  double rel_pivot_threshold = 1e-3;

  /// Backs the scratch vectors with `arena` (may be null to unbind). Call
  /// before the first factor/solve; rebinding drops factorization state.
  void bind_arena(util::Arena* arena);

  /// Full (symbolic + numeric) factorization. Throws ecms::SolverError when
  /// the matrix is numerically singular.
  void factor(const SparseMatrix& a);

  /// Numeric-only refactorization on the frozen pivot order / fill pattern
  /// (from the last successful factor(), or adopted). Returns false when a
  /// pivot degraded (zero, non-finite, or vanishing against its row) and
  /// the caller must re-pivot via factor().
  bool refactor(const SparseMatrix& a);

  /// Adopts a shared symbolic factorization: this instance's values become
  /// undefined until the next successful refactor()/factor().
  void adopt_symbolic(std::shared_ptr<const LuSymbolic> symbolic);

  /// Whether a pivot order is available for refactor() — either computed
  /// here or adopted.
  bool has_symbolic() const { return sym_ != nullptr; }

  /// The shared structural factorization (null until factor()/adopt).
  const std::shared_ptr<const LuSymbolic>& symbolic() const { return sym_; }

  /// Drops all factorization state; keeps the arena binding and threshold.
  void reset();

  bool factored() const { return factored_; }
  std::size_t dim() const { return n_; }

  /// Nonzeros in L + U, fill-in included (diagnostic).
  std::size_t factor_nnz() const { return sym_ ? sym_->factor_nnz() : 0; }

  /// Solves A x = b in place. Requires a successful factor()/refactor().
  void solve_in_place(std::span<double> b) const;

 private:
  std::size_t n_ = 0;
  bool factored_ = false;
  std::shared_ptr<const LuSymbolic> sym_;  // shared, immutable structure
  std::vector<double> lu_vals_;  // per-instance combined L|U values
  mutable util::ArenaBuf<double> solve_scratch_; // permuted rhs
};

/// The numeric elimination behind SparseLu::refactor() and the lockstep
/// lanes (batch.hpp): refactors `w` systems side by side over one frozen
/// symbolic, in place. `a[lane]` is that lane's CSR value array (slot
/// order); `lu` is the combined L|U array (LuSymbolic), lane-minor — the
/// value of (position, lane) sits at [position * w + lane]. Per lane: load
/// A into the array (fill-in positions start at +0.0), run the elimination
/// steps (each L entry becomes its multiplier and applies its pivot row's
/// updates; rows in order, columns ascending within a row), then judge
/// every U row's pivot by pivot_degraded(). `bad[lane]` becomes that lane's
/// first degraded permuted row, or -1; a degraded lane's later rows are
/// garbage confined to that lane.
void lu_refactor_lanes(const LuSymbolic& sy, const double* const* a,
                       double* lu, long* bad, std::size_t w);

/// Forward/backward substitution of `w` lanes in place on `pb`, each lane's
/// right-hand side in permuted row order (pb[i * w + lane] = b[perm_row[i]]);
/// the solution comes back in permuted column order (x[perm_col[j]] =
/// pb[j * w + lane]). Requires a healthy lu_refactor_lanes() of those lanes.
void lu_solve_lanes(const LuSymbolic& sy, const double* lu, double* pb,
                    std::size_t w);

}  // namespace ecms::circuit
