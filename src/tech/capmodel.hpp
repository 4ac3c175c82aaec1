// Storage-capacitor process model.
//
// Generates the per-cell "true" capacitance field of a macro-cell, combining
// the variation sources a fab actually sees:
//  * lot/wafer offset   — e.g. dielectric-thickness drift (uniform scale),
//  * die gradients      — linear across the array (litho/etch tilt),
//  * radial bowl/dome   — center-to-edge deposition non-uniformity,
//  * local randomness   — per-cell mismatch.
// The measurement structure's job (the paper's "analog bitmap") is to make
// exactly these signatures visible, so the model is the ground truth every
// experiment compares against.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace ecms::tech {

struct CapProcessParams {
  double nominal = 30e-15;      ///< target capacitance (F)
  double local_sigma_rel = 0.02;  ///< per-cell random sigma (fraction)
  double gradient_x_rel = 0.0;  ///< relative change from col 0 to last col
  double gradient_y_rel = 0.0;  ///< relative change from row 0 to last row
  double radial_rel = 0.0;      ///< center-to-corner relative change
  double lot_offset_rel = 0.0;  ///< uniform lot-level offset (fraction)
};

/// The sampled capacitance field of one array (row-major, immutable after
/// construction; deterministic for a given seed).
class CapField {
 public:
  CapField(const CapProcessParams& params, std::size_t rows, std::size_t cols,
           std::uint64_t seed);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  double at(std::size_t r, std::size_t c) const;
  /// Overrides one cell's value (used to build probe arrays where a single
  /// target capacitance is swept against a fixed background).
  void set(std::size_t r, std::size_t c, double farads);

  /// Sub-rectangle copy starting at (r0, c0); copies the parent's values,
  /// samples nothing.
  CapField sub(std::size_t r0, std::size_t c0, std::size_t rows,
               std::size_t cols) const;
  const std::vector<double>& values() const { return values_; }
  const CapProcessParams& params() const { return params_; }

  /// Mean of the field (F).
  double mean() const;

 private:
  CapField(const CapProcessParams& params, std::size_t rows, std::size_t cols,
           std::vector<double> values)
      : params_(params), rows_(rows), cols_(cols), values_(std::move(values)) {}

  CapProcessParams params_;
  std::size_t rows_, cols_;
  std::vector<double> values_;
};

}  // namespace ecms::tech
