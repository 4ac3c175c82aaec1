#include "msu/fastmodel.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace ecms::msu {

namespace {
double series_cap(double a, double b) {
  if (a <= 0.0 || b <= 0.0) return 0.0;
  return a * b / (a + b);
}

// Fraction of a bridged neighbour's capacitance that survives into the
// measurement. Transistor-level simulation of the default 5 kOhm bridge in a
// 4x4 macro-cell shows most of the neighbour's charge is lost before the
// share: during step 2 the neighbour's storage node sits in a resistive
// divider between its VDD bit line and the grounded target bit line, and in
// step 3 recharging it to ground is paid for by the already-floating plate.
// The surviving contribution is a slightly elevated code; the *reliable*
// bridge signature is the static supply current (see msu::Disambiguator).
constexpr double kBridgeChargeEfficiency = 0.15;
}  // namespace

double design_ramp_imax(const edram::MacroCell& mc, const StructureParams& p) {
  StructureParams q = p;
  q.ramp_i_max = 0.0;  // the constructor derives it below
  return FastModel(mc, q).i_max();
}

FastModel::Shape::Shape(const edram::MacroCell& array, std::size_t rows,
                        std::size_t cols, const StructureParams& p)
    : params_(p), rows_(rows), cols_(cols), vdd_(array.tech().vdd) {
  ECMS_REQUIRE(p.ramp_steps > 0, "ramp needs at least one step");
  const auto& t = array.tech();
  ref_params_ = t.nmos(p.ref_w, p.ref_l);
  ref_k_ = circuit::MosConstants::of(ref_params_);

  // Receiving side: REF gate input capacitance, the trim capacitor, and the
  // LEC pass device's source-side junction/overlap.
  const circuit::MosParams pass = t.nmos(p.pass_w, t.l_min);
  cref_side_ = p.cref_total(t) + pass.c_junction() + pass.c_overlap();

  const circuit::MosParams acc =
      t.nmos(array.spec().access_w, array.spec().access_l);
  c_stor_par_ = acc.c_junction() + 2.0 * acc.c_overlap();

  // Floating bit line: routing plus the select and access device loads
  // (shared definition with the sense path), at the plate's row count.
  cbl_float_ = array.bitline_total_cap(rows);

  // Structure devices on the plate: STD source, PRG source, LEC drain.
  const circuit::MosParams stdm = t.nmos(p.std_w, t.l_min);
  plate_fixed_ = array.plate_parasitic() +
                 (2.0 * (pass.c_junction() + pass.c_overlap()) +
                  stdm.c_junction() + stdm.c_overlap());
}

void FastModel::Shape::build(const edram::MacroCell& array, std::size_t r0,
                             std::size_t c0, Tables& out) const {
  ECMS_REQUIRE(r0 + rows_ <= array.rows() && c0 + cols_ <= array.cols(),
               "plate window out of range");
  // base[t] sums every cell load off row t in row-major order: the prefix
  // over the rows before t, then each later row's loads in turn. Blocks of
  // eight accumulators take a row's loads in registers, so the work runs
  // across rows (and vectorizes) without reordering any one sum; slots at or
  // past the current row gather junk until their own row overwrites them.
  constexpr std::size_t kBlock = 8;
  out.base.resize((rows_ + kBlock - 1) / kBlock * kBlock);
  out.cells.resize(rows_ * cols_);
  double prefix = plate_fixed_;
  for (std::size_t r = 0; r < rows_; ++r) {
    const double before = prefix;
    bool bridged = false;
    const double* true_cap =
        &array.cap_field().values()[(r0 + r) * array.cols() + c0];
    const tech::Defect* defect = &array.defect(r0 + r, c0);
    Tables::Cell* row = &out.cells[r * cols_];
    // The capacitance a cell presents, defect-aware.
    const auto cap_at = [&](std::size_t c) {
      const tech::DefectElectrical e = tech::electrical_of(defect[c]);
      return e.disconnected ? e.residual_cap : true_cap[c] * e.cap_scale;
    };
    for (std::size_t c = 0; c < cols_; ++c) {
      const tech::DefectElectrical e = tech::electrical_of(defect[c]);
      const double cs = cap_at(c);
      Tables::Cell& cell = row[c];
      cell.shorted = e.shunt_r > 0.0;
      bridged = bridged || e.bridge_r > 0.0;
      // A shorted cell on the target row ties its floating bit line
      // resistively to the plate: the full bit-line capacitance rides along.
      cell.row_term = cell.shorted ? cbl_float_ : series_cap(cs, cbl_float_);
      // A short's charge drains before the comparison: it measures 0.
      cell.measured = cell.shorted ? 0.0 : cs;
      // On an unselected row: the capacitor in series with the floating
      // storage node's parasitics.
      cell.load = series_cap(cs, c_stor_par_);
      prefix += cell.load;
    }
    for (std::size_t k = 0; k < r; k += kBlock) {
      double acc[kBlock] = {};  // spelled out below so it stays in registers
      std::copy_n(&out.base[k], kBlock, acc);
      for (std::size_t c = 0; c < cols_; ++c) {
        const double v = row[c].load;
        acc[0] += v; acc[1] += v; acc[2] += v; acc[3] += v;
        acc[4] += v; acc[5] += v; acc[6] += v; acc[7] += v;
      }
      std::copy_n(acc, kBlock, &out.base[k]);
    }
    out.base[r] = before;
    // A bridge grounds the partner's storage node through the target's bit
    // line, so part of the partner's capacitor is measured along (most of
    // its charge is lost to the step-2 divider; see kBridgeChargeEfficiency).
    for (std::size_t c = 0; bridged && c < cols_; ++c) {
      const auto partner = array.bridge_partner_col(r0 + r, c, c0, cols_);
      if (partner && !row[c].shorted)
        row[c].measured += kBridgeChargeEfficiency * cap_at(*partner);
    }
  }
  out.base.resize(rows_);
  out.ref_offset = plate_offset(out, 0, 0);
  out.delta_i = design_delta_i(out.ref_offset);
}

double FastModel::Shape::design_delta_i(double ref_offset) const {
  const double imax = params_.ramp_i_max <= 0.0
                          ? decision_current(params_.spec_hi_f + ref_offset)
                          : params_.ramp_i_max;
  return imax / static_cast<double>(params_.ramp_steps);
}

std::size_t FastModel::Shape::index(std::size_t r, std::size_t c) const {
  ECMS_REQUIRE(r < rows_ && c < cols_, "cell index out of range");
  return r * cols_ + c;
}

double FastModel::Shape::plate_offset(const Tables& t, std::size_t r,
                                      std::size_t c) const {
  const Tables::Cell* row = &t.cells[index(r, c) - c];
  // The target row's other cells couple through their floating bit lines.
  double coupling = 0.0;
  for (std::size_t j = 0; j < cols_; ++j)
    if (j != c) coupling += row[j].row_term;
  return t.base[r] + coupling;
}

double FastModel::Shape::vgs_of_total(double total) const {
  return vdd_ * total / (total + cref_side_);
}

double FastModel::Shape::miller_boost(double total) const {
  // During the conversion the sense node creeps up toward VDD/2 as the
  // injected current approaches REF's capability; that rise couples back
  // into the V_GS island through REF's gate-drain overlap and defers the
  // flip. Modeled at the decision point (sense = VDD/2).
  const double c_ov = ref_params_.c_overlap();
  return c_ov * (vdd_ / 2.0) / (total + cref_side_);
}

double FastModel::Shape::decision_current(double total) const {
  return ref_current(vgs_of_total(total) + miller_boost(total) +
                     vgs_correction_);
}

double FastModel::Shape::ref_current(double vgs) const {
  return circuit::mos_ids(ref_params_, ref_k_, vgs, vdd_ / 2.0, 0.0, 0.0);
}

int FastModel::Shape::code_of_total(double total, double delta_i,
                                    const MeasureNoise* noise,
                                    Rng* rng) const {
  double i;
  if (noise == nullptr || !noise->enabled) {
    i = decision_current(total);
  } else {
    double vgs = vgs_of_total(total) + miller_boost(total) + vgs_correction_;
    if (noise->vgs_sigma > 0.0) vgs += rng->normal(0.0, noise->vgs_sigma);
    i = ref_current(std::max(vgs, 0.0));
    if (noise->comparator_sigma_i > 0.0)
      i += rng->normal(0.0, noise->comparator_sigma_i);
  }
  // floor(I / delta_i) clamped to [0, ramp_steps]. Clamped as a double, so
  // a current far above full scale cannot overflow the cast; the cast then
  // truncates a value in range, which is its floor.
  return static_cast<int>(std::clamp(std::max(i, 0.0) / delta_i, 0.0,
                                     static_cast<double>(params_.ramp_steps)));
}

int FastModel::Shape::code_of_cell(const Tables& t, std::size_t r,
                                   std::size_t c, const MeasureNoise* noise,
                                   Rng* rng) const {
  const Tables::Cell& cell = t.cells[index(r, c)];
  if (cell.shorted) return 0;
  return code_of_total(cell.measured + plate_offset(t, r, c), t.delta_i, noise,
                       rng);
}

FastModel::FastModel(edram::MacroCell mc, const StructureParams& p)
    : mc_(std::move(mc)), shape_(mc_, mc_.rows(), mc_.cols(), p) {
  shape_.build(mc_, 0, 0, tables_);
}

void FastModel::set_vgs_correction(double volts) {
  shape_.vgs_correction_ = volts;
  tables_.delta_i = shape_.design_delta_i(tables_.ref_offset);
}

double FastModel::vgs_of_cap(double cm_eff) const {
  ECMS_REQUIRE(cm_eff >= 0.0, "capacitance must be non-negative");
  return shape_.vgs_of_total(cm_eff + tables_.ref_offset);
}

int FastModel::code_of_cap(double cm_eff) const {
  ECMS_REQUIRE(cm_eff >= 0.0, "capacitance must be non-negative");
  return shape_.code_of_total(cm_eff + tables_.ref_offset, tables_.delta_i);
}

double FastModel::cap_at_code_boundary(int k) const {
  ECMS_REQUIRE(k >= 1 && k <= ramp_steps(), "code boundary index out of range");
  const double i_target = static_cast<double>(k) * tables_.delta_i;
  // The decision current is monotone in capacitance; bisect.
  const auto i_of = [&](double cm) {
    return shape_.decision_current(cm + tables_.ref_offset);
  };
  double lo = 0.0, hi = 1e-12;  // 1 pF upper bracket
  if (i_of(lo) >= i_target) return -1.0;
  if (i_of(hi) < i_target) return hi;
  for (int it = 0; it < 200; ++it) {
    const double mid = 0.5 * (lo + hi);
    if (i_of(mid) < i_target) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

}  // namespace ecms::msu
