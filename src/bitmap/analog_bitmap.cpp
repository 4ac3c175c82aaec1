#include "bitmap/analog_bitmap.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/error.hpp"
#include "util/stats.hpp"

namespace ecms::bitmap {

AnalogBitmap::AnalogBitmap(std::size_t rows, std::size_t cols, int ramp_steps)
    : rows_(rows), cols_(cols), steps_(ramp_steps),
      codes_(rows * cols, 0) {
  ECMS_REQUIRE(rows > 0 && cols > 0, "bitmap must be non-empty");
  ECMS_REQUIRE(ramp_steps > 0, "ramp steps must be positive");
}

int AnalogBitmap::at(std::size_t r, std::size_t c) const {
  ECMS_REQUIRE(r < rows_ && c < cols_, "cell index out of range");
  return codes_[r * cols_ + c];
}

void AnalogBitmap::set(std::size_t r, std::size_t c, int code) {
  ECMS_REQUIRE(r < rows_ && c < cols_, "cell index out of range");
  ECMS_REQUIRE(code >= 0 && code <= steps_, "code out of range");
  codes_[r * cols_ + c] = code;
}

AnalogBitmap AnalogBitmap::extract(const msu::FastModel& model) {
  const auto& mc = model.macro_cell();
  AnalogBitmap bm(mc.rows(), mc.cols(), model.ramp_steps());
  for (std::size_t r = 0; r < mc.rows(); ++r)
    for (std::size_t c = 0; c < mc.cols(); ++c)
      bm.set(r, c, model.code_of_cell(r, c));
  return bm;
}

AnalogBitmap AnalogBitmap::extract(const msu::FastModel& model,
                                   const msu::MeasureNoise& noise, Rng& rng) {
  const auto& mc = model.macro_cell();
  AnalogBitmap bm(mc.rows(), mc.cols(), model.ramp_steps());
  for (std::size_t r = 0; r < mc.rows(); ++r)
    for (std::size_t c = 0; c < mc.cols(); ++c)
      bm.set(r, c, model.code_of_cell(r, c, noise, rng));
  return bm;
}

double AnalogBitmap::mean_in_range_code() const {
  RunningStats s;
  for (int code : codes_)
    if (code > 0 && code < steps_) s.add(code);
  ECMS_REQUIRE(s.count() > 0, "no in-range codes in the bitmap");
  return s.mean();
}

double AnalogBitmap::stddev_in_range_code() const {
  RunningStats s;
  for (int code : codes_)
    if (code > 0 && code < steps_) s.add(code);
  ECMS_REQUIRE(s.count() > 0, "no in-range codes in the bitmap");
  return s.stddev();
}

std::size_t AnalogBitmap::count_code(int code) const {
  std::size_t n = 0;
  for (int cd : codes_)
    if (cd == code) ++n;
  return n;
}

std::size_t AnalogBitmap::count_out_of_range() const {
  return count_code(0) + count_code(steps_);
}

std::vector<double> AnalogBitmap::capacitance_map(
    const msu::Abacus& abacus) const {
  std::vector<double> out;
  out.reserve(codes_.size());
  for (int code : codes_) {
    if (code <= 0 || code >= steps_ || !abacus.bin(code).has_value()) {
      out.push_back(std::numeric_limits<double>::quiet_NaN());
    } else {
      out.push_back(abacus.bin(code)->mid());
    }
  }
  return out;
}

DigitalBitmap::DigitalBitmap(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), fails_(rows * cols, 0) {
  ECMS_REQUIRE(rows > 0 && cols > 0, "bitmap must be non-empty");
}

bool DigitalBitmap::fails(std::size_t r, std::size_t c) const {
  ECMS_REQUIRE(r < rows_ && c < cols_, "cell index out of range");
  return fails_[r * cols_ + c] != 0;
}

void DigitalBitmap::set_fail(std::size_t r, std::size_t c, bool fail) {
  ECMS_REQUIRE(r < rows_ && c < cols_, "cell index out of range");
  fails_[r * cols_ + c] = fail ? 1 : 0;
}

std::size_t DigitalBitmap::fail_count() const {
  std::size_t n = 0;
  for (char f : fails_) n += f != 0 ? 1 : 0;
  return n;
}

void DigitalBitmap::merge(const DigitalBitmap& other) {
  ECMS_REQUIRE(rows_ == other.rows_ && cols_ == other.cols_,
               "bitmap shapes differ");
  for (std::size_t i = 0; i < fails_.size(); ++i)
    fails_[i] = fails_[i] || other.fails_[i];
}

}  // namespace ecms::bitmap
