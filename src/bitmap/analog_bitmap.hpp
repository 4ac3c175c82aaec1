// Analog bitmap: the per-cell capacitance codes of an array, plus the
// digital (pass/fail) bitmap it is compared against.
//
// "The main idea, when extracting the capacitor value, is to build an Analog
// Bitmap of the capacitor values of the cells in the memory array. This
// analog bitmap can be treated in the same way than the digital one, with
// signatures categorization depending on the capacitor values." (paper,
// Section 2)
#pragma once

#include <cstddef>
#include <vector>

#include "edram/macrocell.hpp"
#include "msu/abacus.hpp"
#include "msu/fastmodel.hpp"

namespace ecms::bitmap {

/// Grid of measurement codes (0..ramp_steps), row-major.
class AnalogBitmap {
 public:
  AnalogBitmap(std::size_t rows, std::size_t cols, int ramp_steps);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  int ramp_steps() const { return steps_; }

  int at(std::size_t r, std::size_t c) const;
  void set(std::size_t r, std::size_t c, int code);
  const std::vector<int>& codes() const { return codes_; }

  /// Extracts the whole array with the fast model (optionally with noise).
  static AnalogBitmap extract(const msu::FastModel& model);
  static AnalogBitmap extract(const msu::FastModel& model,
                              const msu::MeasureNoise& noise, Rng& rng);

  /// Mean / stddev of in-range codes (code 0 and full-scale excluded).
  double mean_in_range_code() const;
  double stddev_in_range_code() const;
  std::size_t count_code(int code) const;
  /// Cells at 0 or full scale.
  std::size_t count_out_of_range() const;

  /// Per-cell capacitance estimates through an abacus; out-of-window codes
  /// yield NaN (used by heatmap rendering).
  std::vector<double> capacitance_map(const msu::Abacus& abacus) const;

 private:
  std::size_t rows_, cols_;
  int steps_;
  std::vector<int> codes_;
};

/// Grid of pass/fail bits from functional test (true = fail), row-major.
class DigitalBitmap {
 public:
  DigitalBitmap(std::size_t rows, std::size_t cols);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  bool fails(std::size_t r, std::size_t c) const;
  void set_fail(std::size_t r, std::size_t c, bool fail = true);
  std::size_t fail_count() const;
  /// Merges (ORs) another bitmap of the same shape into this one.
  void merge(const DigitalBitmap& other);

 private:
  std::size_t rows_, cols_;
  std::vector<char> fails_;
};

}  // namespace ecms::bitmap
