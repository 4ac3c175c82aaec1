#include "tech/defects.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace ecms::tech {

std::string defect_name(DefectType t) {
  switch (t) {
    case DefectType::kNone:
      return "none";
    case DefectType::kShort:
      return "short";
    case DefectType::kOpen:
      return "open";
    case DefectType::kPartial:
      return "partial";
    case DefectType::kBridge:
      return "bridge";
  }
  return "?";
}

char defect_letter(DefectType t) {
  switch (t) {
    case DefectType::kNone:
      return '.';
    case DefectType::kShort:
      return 'S';
    case DefectType::kOpen:
      return 'O';
    case DefectType::kPartial:
      return 'P';
    case DefectType::kBridge:
      return 'B';
  }
  return '?';
}

DefectMap::DefectMap(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), cells_(rows * cols) {
  ECMS_REQUIRE(rows > 0 && cols > 0, "defect map needs a non-empty array");
}

const Defect& DefectMap::at(std::size_t r, std::size_t c) const {
  ECMS_REQUIRE(r < rows_ && c < cols_, "cell index out of range");
  return cells_[r * cols_ + c];
}

void DefectMap::set(std::size_t r, std::size_t c, Defect d) {
  ECMS_REQUIRE(r < rows_ && c < cols_, "cell index out of range");
  if (d.type == DefectType::kPartial)
    ECMS_REQUIRE(d.severity > 0.0 && d.severity < 1.0,
                 "partial defect severity must be in (0,1)");
  cells_[r * cols_ + c] = d;
}

std::size_t DefectMap::count(DefectType t) const {
  std::size_t n = 0;
  for (const auto& d : cells_)
    if (d.type == t) ++n;
  return n;
}

std::size_t DefectMap::total_defective() const {
  return cells_.size() - count(DefectType::kNone);
}

DefectMap DefectMap::random(std::size_t rows, std::size_t cols,
                            const DefectRates& rates, Rng& rng) {
  DefectMap m(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      if (rng.bernoulli(rates.short_rate)) {
        m.set(r, c, make_short());
      } else if (rng.bernoulli(rates.open_rate)) {
        m.set(r, c, make_open());
      } else if (rng.bernoulli(rates.partial_rate)) {
        m.set(r, c, make_partial(rng.uniform(0.2, 0.8)));
      } else if (rng.bernoulli(rates.bridge_rate)) {
        m.set(r, c, make_bridge());
      }
    }
  }
  return m;
}

void DefectMap::inject_cluster(std::size_t r0, std::size_t c0, double radius,
                               Defect d) {
  ECMS_REQUIRE(radius >= 0.0, "cluster radius must be non-negative");
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) {
      const double dr = static_cast<double>(r) - static_cast<double>(r0);
      const double dc = static_cast<double>(c) - static_cast<double>(c0);
      if (dr * dr + dc * dc <= radius * radius) set(r, c, d);
    }
  }
}

void DefectMap::inject_row(std::size_t r, Defect d) {
  ECMS_REQUIRE(r < rows_, "row out of range");
  for (std::size_t c = 0; c < cols_; ++c) set(r, c, d);
}

void DefectMap::inject_column(std::size_t c, Defect d) {
  ECMS_REQUIRE(c < cols_, "column out of range");
  for (std::size_t r = 0; r < rows_; ++r) set(r, c, d);
}

std::vector<char> DefectMap::letters() const {
  std::vector<char> out;
  out.reserve(cells_.size());
  for (const auto& d : cells_) out.push_back(defect_letter(d.type));
  return out;
}

DefectMap DefectMap::sub(std::size_t r0, std::size_t c0, std::size_t rows,
                         std::size_t cols) const {
  ECMS_REQUIRE(r0 + rows <= rows_ && c0 + cols <= cols_,
               "sub-map out of range");
  DefectMap out(rows, cols);
  for (std::size_t r = 0; r < rows; ++r)
    std::copy_n(&cells_[(r0 + r) * cols_ + c0], cols, &out.cells_[r * cols]);
  return out;
}

Defect make_short(double shunt_ohm) {
  return {DefectType::kShort, shunt_ohm};
}
Defect make_open() { return {DefectType::kOpen, 0.0}; }
Defect make_partial(double cap_scale) {
  return {DefectType::kPartial, cap_scale};
}
Defect make_bridge(double bridge_ohm) {
  return {DefectType::kBridge, bridge_ohm};
}

}  // namespace ecms::tech
