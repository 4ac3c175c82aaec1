// Macro-cell description: geometry, per-cell ground truth (capacitance field
// + defects), and parasitics. This is the object shared by the netlister
// (circuit-level), the behavioral array (functional tests) and the
// measurement models — all three read the same ground truth.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>

#include "tech/capmodel.hpp"
#include "tech/defects.hpp"
#include "tech/tech.hpp"

namespace ecms::edram {

/// Geometry and device sizing of a macro-cell.
struct MacroCellSpec {
  std::size_t rows = 4;  ///< word lines
  std::size_t cols = 4;  ///< bit lines
  double access_w = 0.4e-6;  ///< access transistor width (m)
  double access_l = 0.2e-6;  ///< access transistor length (m)
};

/// A macro-cell instance: spec + technology + sampled ground truth.
class MacroCell {
 public:
  MacroCell(const MacroCellSpec& spec, const tech::Technology& tech,
            tech::CapField cap_field, tech::DefectMap defects);

  /// Convenience: nominal (defect-free, uniform) macro-cell.
  static MacroCell uniform(const MacroCellSpec& spec,
                           const tech::Technology& tech, double cell_cap);

  /// Calibration-probe macro-cell: every cell at `background_cap` except the
  /// target cell, which is set to `target_cap`. Abacus sweeps use this so
  /// only the measured capacitor varies.
  static MacroCell probe(const MacroCellSpec& spec,
                         const tech::Technology& tech, std::size_t r,
                         std::size_t c, double target_cap,
                         double background_cap);

  /// Overrides one cell's true capacitance.
  void set_true_cap(std::size_t r, std::size_t c, double farads) {
    caps_.set(r, c, farads);
  }

  /// Sub-array (tile) starting at (r0, c0): the macro-cell a segmented-plate
  /// measurement structure actually sees. Its capacitances and defects are
  /// copied from this array, nothing is re-sampled. A bridge pointing across
  /// the tile edge re-anchors inside the tile (a one-column approximation).
  MacroCell tile(std::size_t r0, std::size_t c0, std::size_t rows,
                 std::size_t cols) const;

  const MacroCellSpec& spec() const { return spec_; }
  const tech::Technology& tech() const { return tech_; }
  std::size_t rows() const { return spec_.rows; }
  std::size_t cols() const { return spec_.cols; }
  std::size_t cell_count() const { return spec_.rows * spec_.cols; }

  /// True (as-fabricated) capacitance of a cell, before defects.
  double true_cap(std::size_t r, std::size_t c) const {
    return caps_.at(r, c);
  }
  const tech::CapField& cap_field() const { return caps_; }

  const tech::Defect& defect(std::size_t r, std::size_t c) const {
    return defects_.at(r, c);
  }
  const tech::DefectMap& defects() const { return defects_; }
  void set_defect(std::size_t r, std::size_t c, tech::Defect d) {
    defects_.set(r, c, d);
  }

  /// Capacitance a measurement would ideally see at the plate for this cell:
  /// true_cap scaled by partial defects, the residual fringe for opens.
  double effective_cap(std::size_t r, std::size_t c) const;

  /// Column of the cell bridged with (r, c), if any: either this cell's own
  /// bridge target (next column, previous for the last column), or an
  /// adjacent cell whose bridge points back at this cell. Bridges are a
  /// pair phenomenon — both ends must report the partner.
  std::optional<std::size_t> bridge_partner_col(std::size_t r,
                                                std::size_t c) const {
    return bridge_partner_col(r, c, 0, cols());
  }
  /// The same as tile(r0, c0, rows, cols) reports it, in array row r and
  /// tile-relative columns c and result.
  std::optional<std::size_t> bridge_partner_col(std::size_t r, std::size_t c,
                                                std::size_t c0,
                                                std::size_t cols) const;

  /// Width of the bit-line select transistor (S_BLi) the netlister builds.
  static constexpr double kSelectTransistorWidth = 2.0e-6;

  /// Bit-line routing parasitic for one column (metal only).
  double bitline_cap() const {
    return tech_.bitline_cap_per_cell * static_cast<double>(spec_.rows);
  }
  /// Total capacitance of one floating bit line: routing plus the select
  /// device's junction/overlap plus every attached access device's drain
  /// junction and overlap. This is what both the sense path and the
  /// measurement's row coupling actually see (at `rows` cells: a tile's).
  double bitline_total_cap() const { return bitline_total_cap(spec_.rows); }
  double bitline_total_cap(std::size_t rows) const;
  /// Fixed plate-node routing parasitic.
  double plate_parasitic() const { return tech_.plate_cap_fixed; }

 private:
  MacroCellSpec spec_;
  tech::Technology tech_;
  tech::CapField caps_;
  tech::DefectMap defects_;
};

}  // namespace ecms::edram
