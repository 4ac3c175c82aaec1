// Capacitor defect taxonomy and spatial defect maps.
//
// The paper's code-0 discussion distinguishes three electrically different
// failures that a digital bitmap cannot tell apart: capacitance below range,
// shorted capacitor, open capacitor. This module is the ground-truth side of
// that story: it injects defects into arrays so the diagnosis experiments can
// measure what each bitmap recovers.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace ecms::tech {

enum class DefectType {
  kNone,
  kShort,    ///< dielectric breakdown: resistive shunt across the capacitor
  kOpen,     ///< broken contact/strap: capacitor disconnected from the plate
  kPartial,  ///< under-built capacitor: value scaled down (severity factor)
  kBridge,   ///< storage node bridged to a neighbouring storage node
};

std::string defect_name(DefectType t);
/// One-letter code used in rendered maps ('.', 'S', 'O', 'P', 'B').
char defect_letter(DefectType t);

struct Defect {
  DefectType type = DefectType::kNone;
  /// Meaning by type: kPartial -> capacitance scale in (0,1);
  /// kShort -> shunt resistance (ohm); kBridge -> bridge resistance (ohm).
  double severity = 0.0;
};

/// Electrical interpretation of a defect, used by both the netlister and the
/// behavioral array model.
struct DefectElectrical {
  double cap_scale = 1.0;   ///< multiplies the cell capacitance
  double shunt_r = 0.0;     ///< parallel resistance across the cap (0 = none)
  bool disconnected = false;  ///< open: cap not reachable from the plate
  double residual_cap = 0.0;  ///< fringe capacitance still seen when open (F)
  double bridge_r = 0.0;      ///< resistance to the neighbour (0 = none)
};

inline DefectElectrical electrical_of(const Defect& d) {
  DefectElectrical e;
  switch (d.type) {
    case DefectType::kNone: break;
    case DefectType::kShort:
      e.shunt_r = d.severity > 0 ? d.severity : 1e3;
      break;
    case DefectType::kOpen:
      e.disconnected = true;
      e.residual_cap = 0.5e-15;  // fringe coupling left at the plate contact
      break;
    case DefectType::kPartial: e.cap_scale = d.severity; break;
    case DefectType::kBridge:
      e.bridge_r = d.severity > 0 ? d.severity : 5e3;
      break;
  }
  return e;
}

/// Per-defect-type injection rates (probabilities per cell).
struct DefectRates {
  double short_rate = 0.0;
  double open_rate = 0.0;
  double partial_rate = 0.0;
  double bridge_rate = 0.0;
};

/// Row-major map of defects over an array.
class DefectMap {
 public:
  DefectMap(std::size_t rows, std::size_t cols);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  const Defect& at(std::size_t r, std::size_t c) const;
  void set(std::size_t r, std::size_t c, Defect d);

  /// Number of cells carrying the given defect type.
  std::size_t count(DefectType t) const;
  /// Number of defective cells of any type.
  std::size_t total_defective() const;

  /// i.i.d. random injection at the given per-cell rates.
  static DefectMap random(std::size_t rows, std::size_t cols,
                          const DefectRates& rates, Rng& rng);

  /// Marks a filled disk of cells (classic particle-defect cluster).
  void inject_cluster(std::size_t r0, std::size_t c0, double radius, Defect d);
  /// Marks an entire row / column (e.g. plate-strap or bit-line process
  /// fault signatures).
  void inject_row(std::size_t r, Defect d);
  void inject_column(std::size_t c, Defect d);

  /// One letter per cell, row-major (for rendering).
  std::vector<char> letters() const;

  /// Sub-rectangle copy starting at (r0, c0).
  DefectMap sub(std::size_t r0, std::size_t c0, std::size_t rows,
                std::size_t cols) const;

 private:
  std::size_t rows_, cols_;
  std::vector<Defect> cells_;
};

/// Canonical severities used across experiments.
Defect make_short(double shunt_ohm = 1e3);
Defect make_open();
Defect make_partial(double cap_scale);
Defect make_bridge(double bridge_ohm = 5e3);

}  // namespace ecms::tech
