// Dense linear algebra for MNA systems.
//
// Newton solves run on the sparse engine (solver.hpp); this dense LU with
// partial pivoting is the reference it is tested against, and the real
// kernel the complex AC solver mirrors. The factorization is kept separate
// from the matrix so repeated solves can reuse storage.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace ecms::circuit {

/// Row-major dense matrix.
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  double& at(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
  double at(std::size_t r, std::size_t c) const { return data_[r * cols_ + c]; }

  /// Sets every entry to zero without reallocating.
  void clear();

  /// Resizes (content undefined afterwards; call clear()).
  void resize(std::size_t rows, std::size_t cols);

  std::span<double> row(std::size_t r) {
    return {data_.data() + r * cols_, cols_};
  }
  std::span<const double> row(std::size_t r) const {
    return {data_.data() + r * cols_, cols_};
  }

  /// y = A * x (sizes must match).
  void multiply(std::span<const double> x, std::span<double> y) const;

 private:
  std::size_t rows_ = 0, cols_ = 0;
  std::vector<double> data_;
};

/// LU factorization with partial pivoting (Doolittle). Throws
/// ecms::SolverError if the matrix is numerically singular.
class LuFactorization {
 public:
  /// Empty factorization; call refactor() before solving.
  LuFactorization() = default;

  /// Factors a copy of `a` in place. `a` must be square.
  explicit LuFactorization(const Matrix& a);

  /// Re-factors `a`, reusing this object's storage: no allocation when the
  /// dimension matches the previous factorization. Same arithmetic as the
  /// constructor, so results are bit-identical to a fresh factorization.
  void refactor(const Matrix& a);

  /// Solves A x = b; returns x. b.size() must equal the dimension.
  std::vector<double> solve(std::span<const double> b) const;

  /// In-place variant reusing the caller's buffer.
  void solve_in_place(std::span<double> b) const;

  /// In-place solve with a caller-owned permutation scratch buffer (resized
  /// as needed): allocation-free when reused across Newton iterations.
  void solve_in_place(std::span<double> b, std::vector<double>& scratch) const;

  std::size_t dim() const { return lu_.rows(); }

  /// Reciprocal condition estimate from the pivot ratio (cheap heuristic:
  /// |smallest pivot| / |largest pivot|). 0 means singular-ish.
  double pivot_ratio() const { return pivot_ratio_; }

 private:
  Matrix lu_;
  std::vector<std::size_t> perm_;
  double pivot_ratio_ = 0.0;
};

/// Convenience one-shot dense solve.
std::vector<double> solve_dense(const Matrix& a, std::span<const double> b);

/// Max-norm of a vector.
double max_norm(std::span<const double> v);

}  // namespace ecms::circuit
