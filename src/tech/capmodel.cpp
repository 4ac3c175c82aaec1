#include "tech/capmodel.hpp"

#include <cmath>

#include "util/error.hpp"

namespace ecms::tech {

CapField::CapField(const CapProcessParams& params, std::size_t rows,
                   std::size_t cols, std::uint64_t seed)
    : params_(params), rows_(rows), cols_(cols) {
  ECMS_REQUIRE(rows > 0 && cols > 0, "capacitance field needs a non-empty array");
  ECMS_REQUIRE(params.nominal > 0, "nominal capacitance must be positive");
  Rng rng(seed);
  values_.reserve(rows * cols);
  const double cx = (static_cast<double>(cols) - 1.0) / 2.0;
  const double cy = (static_cast<double>(rows) - 1.0) / 2.0;
  const double r_max = std::sqrt(cx * cx + cy * cy);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      const double fx =
          cols > 1 ? static_cast<double>(c) / (static_cast<double>(cols) - 1.0)
                   : 0.5;
      const double fy =
          rows > 1 ? static_cast<double>(r) / (static_cast<double>(rows) - 1.0)
                   : 0.5;
      double scale = 1.0 + params.lot_offset_rel;
      scale += params.gradient_x_rel * (fx - 0.5);
      scale += params.gradient_y_rel * (fy - 0.5);
      if (r_max > 0.0 && params.radial_rel != 0.0) {
        const double dx = static_cast<double>(c) - cx;
        const double dy = static_cast<double>(r) - cy;
        const double rad = std::sqrt(dx * dx + dy * dy) / r_max;
        scale += params.radial_rel * rad * rad;
      }
      scale *= 1.0 + rng.normal(0.0, params.local_sigma_rel);
      values_.push_back(params.nominal * std::max(scale, 0.01));
    }
  }
}

double CapField::at(std::size_t r, std::size_t c) const {
  ECMS_REQUIRE(r < rows_ && c < cols_, "cell index out of range");
  return values_[r * cols_ + c];
}

void CapField::set(std::size_t r, std::size_t c, double farads) {
  ECMS_REQUIRE(r < rows_ && c < cols_, "cell index out of range");
  ECMS_REQUIRE(farads >= 0.0, "capacitance must be non-negative");
  values_[r * cols_ + c] = farads;
}

CapField CapField::sub(std::size_t r0, std::size_t c0, std::size_t rows,
                       std::size_t cols) const {
  ECMS_REQUIRE(rows > 0 && cols > 0 && r0 + rows <= rows_ &&
                   c0 + cols <= cols_,
               "sub-field out of range");
  std::vector<double> v;
  v.reserve(rows * cols);
  for (std::size_t r = r0; r < r0 + rows; ++r) {
    const double* first = values_.data() + r * cols_ + c0;
    v.insert(v.end(), first, first + cols);
  }
  return CapField(params_, rows, cols, std::move(v));
}

double CapField::mean() const {
  double s = 0.0;
  for (double v : values_) s += v;
  return s / static_cast<double>(values_.size());
}

}  // namespace ecms::tech
