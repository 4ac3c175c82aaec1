#include "edram/macrocell.hpp"

#include "util/error.hpp"

namespace ecms::edram {

MacroCell::MacroCell(const MacroCellSpec& spec, const tech::Technology& tech,
                     tech::CapField cap_field, tech::DefectMap defects)
    : spec_(spec),
      tech_(tech),
      caps_(std::move(cap_field)),
      defects_(std::move(defects)) {
  ECMS_REQUIRE(spec.rows > 0 && spec.cols > 0, "macro-cell must be non-empty");
  ECMS_REQUIRE(caps_.rows() == spec.rows && caps_.cols() == spec.cols,
               "capacitance field does not match macro-cell geometry");
  ECMS_REQUIRE(defects_.rows() == spec.rows && defects_.cols() == spec.cols,
               "defect map does not match macro-cell geometry");
}

MacroCell MacroCell::uniform(const MacroCellSpec& spec,
                             const tech::Technology& tech, double cell_cap) {
  tech::CapProcessParams cp;
  cp.nominal = cell_cap;
  cp.local_sigma_rel = 0.0;
  return MacroCell(spec, tech, tech::CapField(cp, spec.rows, spec.cols, 1),
                   tech::DefectMap(spec.rows, spec.cols));
}

MacroCell MacroCell::probe(const MacroCellSpec& spec,
                           const tech::Technology& tech, std::size_t r,
                           std::size_t c, double target_cap,
                           double background_cap) {
  MacroCell mc = uniform(spec, tech, background_cap);
  mc.set_true_cap(r, c, target_cap);
  return mc;
}

double MacroCell::effective_cap(std::size_t r, std::size_t c) const {
  const tech::DefectElectrical e = tech::electrical_of(defect(r, c));
  if (e.disconnected) return e.residual_cap;
  return true_cap(r, c) * e.cap_scale;
}

double MacroCell::bitline_total_cap(std::size_t rows) const {
  const circuit::MosParams sbl =
      tech_.nmos(kSelectTransistorWidth, tech_.l_min);
  const circuit::MosParams acc = tech_.nmos(spec_.access_w, spec_.access_l);
  return tech_.bitline_cap_per_cell * static_cast<double>(rows) +
         sbl.c_junction() + sbl.c_overlap() +
         static_cast<double>(rows) * (acc.c_junction() + acc.c_overlap());
}

MacroCell MacroCell::tile(std::size_t r0, std::size_t c0, std::size_t rows,
                          std::size_t cols) const {
  ECMS_REQUIRE(r0 + rows <= spec_.rows && c0 + cols <= spec_.cols,
               "tile out of range");
  MacroCellSpec spec = spec_;
  spec.rows = rows;
  spec.cols = cols;
  return MacroCell(spec, tech_, caps_.sub(r0, c0, rows, cols),
                   defects_.sub(r0, c0, rows, cols));
}

std::optional<std::size_t> MacroCell::bridge_partner_col(
    std::size_t r, std::size_t c, std::size_t c0, std::size_t cols) const {
  if (cols < 2) return std::nullopt;
  const auto target_of = [cols](std::size_t col) {
    return col + 1 < cols ? col + 1 : col - 1;
  };
  if (tech::electrical_of(defect(r, c0 + c)).bridge_r > 0.0)
    return target_of(c);
  // An adjacent cell may bridge back to us.
  for (const std::size_t adj : {c == 0 ? c : c - 1, c + 1}) {
    if (adj == c || adj >= cols) continue;
    if (tech::electrical_of(defect(r, c0 + adj)).bridge_r > 0.0 &&
        target_of(adj) == c) {
      return adj;
    }
  }
  return std::nullopt;
}

}  // namespace ecms::edram
