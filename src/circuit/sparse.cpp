#include "circuit/sparse.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "util/error.hpp"

namespace ecms::circuit {

void SparseMatrix::build_pattern(std::size_t n,
                                 std::span<const std::uint64_t> coords) {
  auto pat = std::make_shared<SparsePattern>();
  pat->n = n;
  std::vector<std::uint64_t> keys(coords.begin(), coords.end());
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());

  pat->row_ptr.assign(n + 1, 0);
  pat->cols.resize(keys.size());
  for (std::size_t s = 0; s < keys.size(); ++s) {
    const auto r = static_cast<std::size_t>(keys[s] >> 32);
    const auto c = static_cast<std::uint32_t>(keys[s] & 0xffffffffu);
    ECMS_REQUIRE(r < n && c < n, "sparse pattern coordinate out of range");
    ++pat->row_ptr[r + 1];
    pat->cols[s] = c;
  }
  for (std::size_t r = 0; r < n; ++r) pat->row_ptr[r + 1] += pat->row_ptr[r];
  adopt_pattern(std::move(pat));
}

void SparseMatrix::adopt_pattern(std::shared_ptr<const SparsePattern> pattern) {
  ECMS_REQUIRE(pattern != nullptr, "cannot adopt a null sparse pattern");
  pat_ = std::move(pattern);
  values_.assign(pat_->cols.size(), 0.0);
}

std::uint32_t SparseMatrix::slot(std::size_t r, std::size_t c) const {
  const auto* first = pat_->cols.data() + pat_->row_ptr[r];
  const auto* last = pat_->cols.data() + pat_->row_ptr[r + 1];
  const auto* it = std::lower_bound(first, last, static_cast<std::uint32_t>(c));
  if (it == last || *it != c) return kNoSlot;
  return static_cast<std::uint32_t>(it - pat_->cols.data());
}

void SparseMatrix::clear_values() {
  std::fill(values_.begin(), values_.end(), 0.0);
}

double SparseMatrix::at(std::size_t r, std::size_t c) const {
  const std::uint32_t s = slot(r, c);
  return s == kNoSlot ? 0.0 : values_[s];
}

void SparseMatrix::multiply(std::span<const double> x,
                            std::span<double> y) const {
  const std::size_t n = dim();
  ECMS_REQUIRE(x.size() == n && y.size() == n,
               "sparse multiply size mismatch");
  for (std::size_t r = 0; r < n; ++r) {
    double acc = 0.0;
    for (std::uint32_t s = pat_->row_ptr[r]; s < pat_->row_ptr[r + 1]; ++s)
      acc += values_[s] * x[pat_->cols[s]];
    y[r] = acc;
  }
}

void SparseLu::bind_arena(util::Arena* arena) {
  solve_scratch_.bind(arena);
  reset();
}

void SparseLu::reset() {
  factored_ = false;
  sym_.reset();
  lu_vals_.clear();
  n_ = 0;
}

void SparseLu::adopt_symbolic(std::shared_ptr<const LuSymbolic> symbolic) {
  ECMS_REQUIRE(symbolic != nullptr, "cannot adopt a null symbolic");
  sym_ = std::move(symbolic);
  n_ = sym_->n;
  factored_ = false;  // values undefined until the first refactor()
  lu_vals_.assign(sym_->factor_nnz(), 0.0);
}

void SparseLu::factor(const SparseMatrix& a) {
  // A throw below must leave the object unusable for refactor()/solve():
  // partial results never escape, matching the pre-split behavior where a
  // failed analysis poisoned the whole factorization.
  factored_ = false;
  sym_.reset();
  n_ = a.dim();
  const std::size_t n = n_;
  auto sym = std::make_shared<LuSymbolic>();
  sym->n = n;

  // Working form: one hash map per active row (col -> value) plus, per
  // column, the set of active rows containing it (for Markowitz counts and
  // for finding the rows to eliminate).
  std::vector<std::unordered_map<std::uint32_t, double>> rows(n);
  std::vector<std::unordered_set<std::uint32_t>> col_rows(n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::uint32_t s = a.row_begin(r); s < a.row_end(r); ++s) {
      const std::uint32_t c = a.col_of(s);
      rows[r].emplace(c, a.values()[s]);
      col_rows[c].insert(static_cast<std::uint32_t>(r));
    }
  }

  sym->perm_row.assign(n, 0);
  sym->perm_col.assign(n, 0);
  sym->pinv_row.assign(n, 0);
  sym->pinv_col.assign(n, 0);

  // Per-step outputs in original indices; compressed after the pivot order
  // is complete (a column's permuted index is unknown until it is chosen).
  std::vector<std::vector<std::pair<std::uint32_t, double>>> u_rows(n);
  std::vector<std::vector<std::pair<std::uint32_t, double>>> l_by_row(n);

  std::vector<std::uint32_t> active;  // original row ids still active
  active.reserve(n);
  for (std::size_t r = 0; r < n; ++r) active.push_back(static_cast<std::uint32_t>(r));

  for (std::size_t k = 0; k < n; ++k) {
    // Threshold-Markowitz pivot search. Scanning every active entry each
    // step is O(n * nnz); restricting candidates to the sparsest rows
    // (where the minimum Markowitz cost lives) keeps the search cheap
    // without giving up the fill bound. Ties break deterministically.
    std::size_t min_sz = std::numeric_limits<std::size_t>::max();
    for (const std::uint32_t r : active) min_sz = std::min(min_sz, rows[r].size());

    std::uint32_t best_r = 0, best_c = 0;
    double best_val = 0.0;
    std::uint64_t best_cost = std::numeric_limits<std::uint64_t>::max();
    bool found = false;
    auto scan = [&](std::size_t max_sz) {
      for (const std::uint32_t r : active) {
        const auto& row = rows[r];
        if (row.size() > max_sz) continue;
        double rmax = 0.0;
        for (const auto& cv : row) rmax = std::max(rmax, std::abs(cv.second));
        if (rmax == 0.0 || !std::isfinite(rmax)) continue;
        const std::uint64_t rc = row.size() - 1;
        for (const auto& [c, v] : row) {
          const double mag = std::abs(v);
          if (mag < rel_pivot_threshold * rmax || mag == 0.0) continue;
          const std::uint64_t cost = rc * (col_rows[c].size() - 1);
          const bool better =
              !found || cost < best_cost ||
              (cost == best_cost &&
               (mag > std::abs(best_val) ||
                (mag == std::abs(best_val) &&
                 (r < best_r || (r == best_r && c < best_c)))));
          if (better) {
            found = true;
            best_cost = cost;
            best_r = r;
            best_c = c;
            best_val = v;
          }
        }
      }
    };
    scan(min_sz + 2);
    if (!found) scan(std::numeric_limits<std::size_t>::max());
    if (!found) {
      throw SolverError("singular MNA matrix (sparse) at elimination step " +
                        std::to_string(k));
    }

    const std::uint32_t pr = best_r, pc = best_c;
    const double piv = best_val;
    sym->perm_row[k] = pr;
    sym->perm_col[k] = pc;
    sym->pinv_row[pr] = static_cast<std::uint32_t>(k);
    sym->pinv_col[pc] = static_cast<std::uint32_t>(k);

    // Snapshot the pivot row as U row k (original column ids for now) and
    // retire it from the active structure.
    auto& urow = u_rows[k];
    urow.assign(rows[pr].begin(), rows[pr].end());
    for (const auto& cv : urow) col_rows[cv.first].erase(pr);
    rows[pr].clear();

    // Eliminate the pivot column from every remaining row containing it.
    // Updates are structural — fill is inserted even when the multiplier or
    // the pivot-row value is numerically zero — so the frozen pattern is
    // closed under elimination for any later value set.
    for (const std::uint32_t i : col_rows[pc]) {
      auto& tgt = rows[i];
      const auto it = tgt.find(pc);
      const double f = it->second / piv;
      tgt.erase(it);
      l_by_row[i].push_back({static_cast<std::uint32_t>(k), f});
      for (const auto& [c, v] : urow) {
        if (c == pc) continue;
        auto [slot_it, inserted] = tgt.try_emplace(c, 0.0);
        if (inserted) col_rows[c].insert(i);
        slot_it->second -= f * v;
      }
    }
    col_rows[pc].clear();

    active.erase(std::remove(active.begin(), active.end(), pr), active.end());
  }

  // Compress into CSR over permuted indices, the values into the combined
  // L|U array (every L entry, then every U entry).
  sym->l_ptr.assign(n + 1, 0);
  sym->u_ptr.assign(n + 1, 0);
  lu_vals_.clear();
  std::vector<double> u_vals;
  std::vector<std::pair<std::uint32_t, double>> tmp;
  for (std::size_t i = 0; i < n; ++i) {
    // L entries were appended in ascending elimination step, already sorted.
    for (const auto& [k, f] : l_by_row[sym->perm_row[i]]) {
      sym->l_cols.push_back(k);
      lu_vals_.push_back(f);
    }
    sym->l_ptr[i + 1] = static_cast<std::uint32_t>(sym->l_cols.size());
    // U row i: map original columns to permuted ones and sort ascending;
    // every column was active at step i, so the pivot (== i) sorts first.
    tmp.clear();
    for (const auto& [c, v] : u_rows[i]) tmp.push_back({sym->pinv_col[c], v});
    std::sort(tmp.begin(), tmp.end(),
              [](const auto& x, const auto& y) { return x.first < y.first; });
    for (const auto& [c, v] : tmp) {
      sym->u_cols.push_back(c);
      u_vals.push_back(v);
    }
    sym->u_ptr[i + 1] = static_cast<std::uint32_t>(sym->u_cols.size());
  }
  lu_vals_.insert(lu_vals_.end(), u_vals.begin(), u_vals.end());

  // The refactor stream, row by row: where each A slot lands, then one step
  // per L entry with its updates' destinations, all in row i's pattern.
  const auto nl = static_cast<std::uint32_t>(sym->l_cols.size());
  sym->a_dst.resize(a.nnz());
  std::vector<std::uint32_t> pos(n);  // column -> L|U position in row i
  for (std::size_t i = 0; i < n; ++i) {
    for (auto s = sym->l_ptr[i]; s < sym->l_ptr[i + 1]; ++s) {
      pos[sym->l_cols[s]] = s;
    }
    for (auto t = sym->u_ptr[i]; t < sym->u_ptr[i + 1]; ++t) {
      pos[sym->u_cols[t]] = nl + t;
    }
    const std::uint32_t r = sym->perm_row[i];
    for (std::uint32_t s = a.row_begin(r); s < a.row_end(r); ++s) {
      sym->a_dst[s] = pos[sym->pinv_col[a.col_of(s)]];
    }
    for (std::uint32_t s = sym->l_ptr[i]; s < sym->l_ptr[i + 1]; ++s) {
      const std::uint32_t j = sym->l_cols[s];
      sym->elim.push_back({s, nl + sym->u_ptr[j], nl + sym->u_ptr[j] + 1,
                           sym->u_ptr[j + 1] - sym->u_ptr[j] - 1});
      for (std::uint32_t t = sym->u_ptr[j] + 1; t < sym->u_ptr[j + 1]; ++t) {
        sym->upd_dst.push_back(pos[sym->u_cols[t]]);
      }
    }
  }
  std::vector<bool> reached(sym->factor_nnz(), false);
  for (const std::uint32_t p : sym->a_dst) reached[p] = true;
  for (std::uint32_t p = 0; p < reached.size(); ++p) {
    if (!reached[p]) sym->fill_dst.push_back(p);
  }

  sym_ = std::move(sym);
  factored_ = true;
}

bool SparseLu::refactor(const SparseMatrix& a) {
  ECMS_REQUIRE(sym_ != nullptr && a.dim() == n_,
               "refactor needs a factored/adopted symbolic of this pattern");
  long bad = -1;
  const double* av = a.values().data();
  lu_refactor_lanes(*sym_, &av, lu_vals_.data(), &bad, 1);
  if (bad >= 0) return false;  // degraded: caller must re-pivot via factor()
  factored_ = true;
  return true;
}

void SparseLu::solve_in_place(std::span<double> b) const {
  ECMS_REQUIRE(factored_, "solve before factor");
  const LuSymbolic& sy = *sym_;
  const std::size_t n = n_;
  ECMS_REQUIRE(b.size() == n, "rhs size mismatch");
  solve_scratch_.resize(n);
  double* pb = solve_scratch_.data();
  for (std::size_t i = 0; i < n; ++i) pb[i] = b[sy.perm_row[i]];
  lu_solve_lanes(sy, lu_vals_.data(), pb, 1);
  for (std::size_t j = 0; j < n; ++j) b[sy.perm_col[j]] = pb[j];
}

namespace {

// Lanes per block in the elimination below: every lane loop runs over a
// compile-time B, which the compiler vectorizes with whatever the target
// ISA offers (SSE2 pairs on baseline x86-64). 4 timed as fast as 8 on the
// lockstep tile system. Widths that are not a multiple of it run B = 1.
constexpr std::size_t kLaneBlock = 4;

// The one numeric elimination, for `width` lanes (a compile-time kW when
// nonzero: SparseLu's single lane compiles to plain scalar code). Every
// instantiation performs, per lane, the same operations in the same order —
// lanewise IEEE-754 +, -, *, / only, with contraction off
// (-ffp-contract=off) — so vectorized or not, its lanes are bit-identical.
//
// It runs in place on the combined L|U array, driven by the compiled
// stream (LuSymbolic), one block of B lanes at a time so a block's rows
// stay in cache from load to pivot check. A's values land as +0.0 + a (the
// sum a zeroed array would hold; it turns -0.0 into +0.0) and the fill-in
// positions start at +0.0; then each L entry (rows in order, columns
// ascending) becomes its multiplier f = l / u_jj and subtracts f times
// pivot row j's off-diagonal U entries at the positions upd_dst names. Row
// i reads only finished rows and writes only its own positions, so every
// value sees the textbook dense-work-vector elimination's operations,
// operand for operand; and finished U rows are never written again, so
// pivots are judged at the end.
template <std::size_t B, std::size_t kW>
void refactor_lanes(const LuSymbolic& sy, const double* const* a,
                    double* __restrict lu, long* bad, std::size_t width) {
  const std::size_t w = kW != 0 ? kW : width;
  std::fill(bad, bad + w, -1L);
  const double* u = lu + sy.l_cols.size() * w;  // U entry t
  for (std::size_t l0 = 0; l0 < w; l0 += B) {
    for (const std::uint32_t p : sy.fill_dst) {
      double* dst = lu + std::size_t{p} * w + l0;
      for (std::size_t k = 0; k < B; ++k) dst[k] = 0.0;
    }
    const double* al[B];
    for (std::size_t k = 0; k < B; ++k) al[k] = a[l0 + k];
    for (std::size_t s = 0; s < sy.a_dst.size(); ++s) {
      double* dst = lu + std::size_t{sy.a_dst[s]} * w + l0;
      for (std::size_t k = 0; k < B; ++k) dst[k] = 0.0 + al[k][s];
    }

    const std::uint32_t* upd = sy.upd_dst.data();
    for (const LuSymbolic::Elim& e : sy.elim) {
      double* ls = lu + std::size_t{e.l} * w + l0;
      const double* upiv = lu + std::size_t{e.piv} * w + l0;
      // Operands are read into locals before each store: every access goes
      // through `lu`, and this way no store can alias a later load.
      double f[B];
      for (std::size_t k = 0; k < B; ++k) f[k] = ls[k] / upiv[k];
      for (std::size_t k = 0; k < B; ++k) ls[k] = f[k];
      for (std::uint32_t q = 0; q < e.count; ++q) {
        double ut[B];
        const double* us = lu + (std::size_t{e.src} + q) * w + l0;
        for (std::size_t k = 0; k < B; ++k) ut[k] = us[k];
        double* row = lu + std::size_t{upd[q]} * w + l0;
        for (std::size_t k = 0; k < B; ++k) row[k] -= f[k] * ut[k];
      }
      upd += e.count;
    }

    // Each lane's first pivot degraded against its U row's largest |u|.
    for (std::size_t i = 0; i < sy.n; ++i) {
      double rmax[B] = {};
      for (std::uint32_t t = sy.u_ptr[i]; t < sy.u_ptr[i + 1]; ++t) {
        const double* us = u + std::size_t{t} * w + l0;
        for (std::size_t k = 0; k < B; ++k) {
          rmax[k] = std::max(rmax[k], std::abs(us[k]));
        }
      }
      const double* piv = u + std::size_t{sy.u_ptr[i]} * w + l0;
      for (std::size_t k = 0; k < B; ++k) {
        if (pivot_degraded(piv[k], rmax[k]) && bad[l0 + k] < 0) {
          bad[l0 + k] = static_cast<long>(i);
        }
      }
    }
  }
}

template <std::size_t B, std::size_t kW>
void solve_lanes(const LuSymbolic& sy, const double* __restrict lu,
                 double* __restrict pb, std::size_t width) {
  const std::size_t w = kW != 0 ? kW : width;
  const std::size_t n = sy.n;
  const double* u = lu + sy.l_cols.size() * w;  // U entry t
  // Forward substitution (unit lower-triangular L).
  for (std::size_t i = 0; i < n; ++i) {
    double* pi = pb + i * w;
    for (std::size_t l0 = 0; l0 < w; l0 += B) {
      double acc[B];
      for (std::size_t k = 0; k < B; ++k) acc[k] = pi[l0 + k];
      for (std::uint32_t s = sy.l_ptr[i]; s < sy.l_ptr[i + 1]; ++s) {
        const double* ls = lu + std::size_t{s} * w + l0;
        const double* pj = pb + std::size_t{sy.l_cols[s]} * w + l0;
        for (std::size_t k = 0; k < B; ++k) acc[k] -= ls[k] * pj[k];
      }
      for (std::size_t k = 0; k < B; ++k) pi[l0 + k] = acc[k];
    }
  }
  // Back substitution (U; diagonal first in each row).
  for (std::size_t ii = n; ii > 0; --ii) {
    const std::size_t i = ii - 1;
    double* pi = pb + i * w;
    for (std::size_t l0 = 0; l0 < w; l0 += B) {
      double acc[B];
      for (std::size_t k = 0; k < B; ++k) acc[k] = pi[l0 + k];
      for (std::uint32_t s = sy.u_ptr[i] + 1; s < sy.u_ptr[i + 1]; ++s) {
        const double* us = u + std::size_t{s} * w + l0;
        const double* pj = pb + std::size_t{sy.u_cols[s]} * w + l0;
        for (std::size_t k = 0; k < B; ++k) acc[k] -= us[k] * pj[k];
      }
      const double* piv = u + std::size_t{sy.u_ptr[i]} * w + l0;
      for (std::size_t k = 0; k < B; ++k) pi[l0 + k] = acc[k] / piv[k];
    }
  }
}

}  // namespace

void lu_refactor_lanes(const LuSymbolic& sy, const double* const* a,
                       double* lu, long* bad, std::size_t w) {
  if (w == 1) {
    refactor_lanes<1, 1>(sy, a, lu, bad, w);
  } else if (w % kLaneBlock == 0) {
    refactor_lanes<kLaneBlock, 0>(sy, a, lu, bad, w);
  } else {
    refactor_lanes<1, 0>(sy, a, lu, bad, w);
  }
}

void lu_solve_lanes(const LuSymbolic& sy, const double* lu, double* pb,
                    std::size_t w) {
  if (w == 1) {
    solve_lanes<1, 1>(sy, lu, pb, w);
  } else if (w % kLaneBlock == 0) {
    solve_lanes<kLaneBlock, 0>(sy, lu, pb, w);
  } else {
    solve_lanes<1, 0>(sy, lu, pb, w);
  }
}

}  // namespace ecms::circuit
