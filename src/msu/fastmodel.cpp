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
  const FastModel m(mc, q);
  return m.i_max();
}

FastModel::FastModel(edram::MacroCell mc, const StructureParams& p)
    : mc_(std::move(mc)), params_(p), steps_(p.ramp_steps) {
  ECMS_REQUIRE(p.ramp_steps > 0, "ramp needs at least one step");
  const auto& t = mc_.tech();
  ref_params_ = t.nmos(p.ref_w, p.ref_l);
  ref_k_ = circuit::MosConstants::of(ref_params_);

  // Receiving side: REF gate input capacitance, the trim capacitor, and the
  // LEC pass device's source-side junction/overlap.
  const circuit::MosParams pass = t.nmos(p.pass_w, t.l_min);
  cref_side_ = p.cref_total(t) + pass.c_junction() + pass.c_overlap();

  // Storage-node parasitic of a cell whose access device is off.
  const circuit::MosParams acc =
      t.nmos(mc_.spec().access_w, mc_.spec().access_l);
  const double c_stor_par = acc.c_junction() + 2.0 * acc.c_overlap();

  // Floating bit line: routing plus the select and access device loads
  // (shared definition with the sense path).
  cbl_float_ = mc_.bitline_total_cap();

  // Structure devices on the plate: STD source, PRG source, LEC drain.
  const circuit::MosParams stdm = t.nmos(p.std_w, t.l_min);
  const double struct_junctions = 2.0 * (pass.c_junction() + pass.c_overlap()) +
                                  stdm.c_junction() + stdm.c_overlap();

  // base_[t] sums every cell load off row t in row-major order: the prefix
  // over the rows before t, then each later row's loads in turn. Blocks of
  // eight accumulators take a row's loads in registers, so the work runs
  // across rows (and vectorizes) without reordering any one sum; slots at or
  // past the current row gather junk until their own row overwrites them.
  const std::size_t rows = mc_.rows(), cols = mc_.cols();
  constexpr std::size_t kBlock = 8;
  base_.resize((rows + kBlock - 1) / kBlock * kBlock);
  row_term_.resize(rows * cols);
  measured_.resize(rows * cols);
  shorted_.resize(rows * cols);
  const std::vector<double>& true_cap = mc_.cap_field().values();
  std::vector<double> cs(cols), load(cols);  // one row's, defect-aware
  double prefix = mc_.plate_parasitic() + struct_junctions;
  for (std::size_t r = 0; r < rows; ++r) {
    const double before = prefix;
    bool bridged = false;
    for (std::size_t c = 0; c < cols; ++c) {
      const std::size_t i = r * cols + c;
      const tech::DefectElectrical e = tech::electrical_of(mc_.defect(r, c));
      cs[c] = e.disconnected ? e.residual_cap : true_cap[i] * e.cap_scale;
      shorted_[i] = e.shunt_r > 0.0;
      bridged = bridged || e.bridge_r > 0.0;
      // A shorted cell on the target row ties its floating bit line
      // resistively to the plate: the full bit-line capacitance rides along.
      row_term_[i] = shorted_[i] ? cbl_float_ : series_cap(cs[c], cbl_float_);
      // A short's charge drains before the comparison: it measures 0.
      measured_[i] = shorted_[i] ? 0.0 : cs[c];
      // On an unselected row: the capacitor in series with the floating
      // storage node's parasitics.
      load[c] = series_cap(cs[c], c_stor_par);
      prefix += load[c];
    }
    for (std::size_t k = 0; k < r; k += kBlock) {
      double acc[kBlock] = {};  // spelled out below so it stays in registers
      std::copy_n(&base_[k], kBlock, acc);
      for (const double v : load) {
        acc[0] += v; acc[1] += v; acc[2] += v; acc[3] += v;
        acc[4] += v; acc[5] += v; acc[6] += v; acc[7] += v;
      }
      std::copy_n(acc, kBlock, &base_[k]);
    }
    base_[r] = before;
    // A bridge grounds the partner's storage node through the target's bit
    // line, so part of the partner's capacitor is measured along (most of
    // its charge is lost to the step-2 divider; see kBridgeChargeEfficiency).
    for (std::size_t c = 0; bridged && c < cols; ++c) {
      const auto partner = mc_.bridge_partner_col(r, c);
      if (partner && !shorted_[r * cols + c])
        measured_[r * cols + c] += kBridgeChargeEfficiency * cs[*partner];
    }
  }
  base_.resize(rows);

  ref_offset_ = plate_offset(0, 0);
  auto_ramp_ = p.ramp_i_max <= 0.0;
  const double imax = auto_ramp_
                          ? decision_current(p.spec_hi_f + ref_offset_)
                          : p.ramp_i_max;
  delta_i_ = imax / static_cast<double>(steps_);
}

void FastModel::set_vgs_correction(double volts) {
  vgs_correction_ = volts;
  if (auto_ramp_) {
    delta_i_ = decision_current(params_.spec_hi_f + ref_offset_) /
               static_cast<double>(steps_);
  }
}

std::size_t FastModel::index(std::size_t r, std::size_t c) const {
  ECMS_REQUIRE(r < mc_.rows() && c < mc_.cols(), "cell index out of range");
  return r * mc_.cols() + c;
}

double FastModel::plate_offset(std::size_t r, std::size_t c) const {
  const double* row = &row_term_[index(r, c) - c];
  // The target row's other cells couple through their floating bit lines.
  double coupling = 0.0;
  for (std::size_t j = 0; j < mc_.cols(); ++j)
    if (j != c) coupling += row[j];
  return base_[r] + coupling;
}

double FastModel::vgs_of_total(double total) const {
  const double vdd = mc_.tech().vdd;
  return vdd * total / (total + cref_side_);
}

double FastModel::miller_boost(double total) const {
  // During the conversion the sense node creeps up toward VDD/2 as the
  // injected current approaches REF's capability; that rise couples back
  // into the V_GS island through REF's gate-drain overlap and defers the
  // flip. Modeled at the decision point (sense = VDD/2).
  const double c_ov = ref_params_.c_overlap();
  return c_ov * (mc_.tech().vdd / 2.0) / (total + cref_side_);
}

double FastModel::decision_current(double total) const {
  return ref_current(vgs_of_total(total) + miller_boost(total) +
                     vgs_correction_);
}

double FastModel::vgs_of_cap(double cm_eff) const {
  ECMS_REQUIRE(cm_eff >= 0.0, "capacitance must be non-negative");
  return vgs_of_total(cm_eff + ref_offset_);
}

double FastModel::ref_current(double vgs) const {
  const double vdd = mc_.tech().vdd;
  return circuit::mos_eval(ref_params_, ref_k_, vgs, vdd / 2.0, 0.0, 0.0).ids;
}

int FastModel::code_of_vgs_current(double i) const {
  const int k = static_cast<int>(std::floor(std::max(i, 0.0) / delta_i_));
  return std::clamp(k, 0, steps_);
}

int FastModel::code_of_cap(double cm_eff) const {
  ECMS_REQUIRE(cm_eff >= 0.0, "capacitance must be non-negative");
  return code_of_vgs_current(decision_current(cm_eff + ref_offset_));
}

int FastModel::code_of_cap(double cm_eff, const MeasureNoise& noise,
                           Rng& rng) const {
  if (!noise.enabled) return code_of_cap(cm_eff);
  return noisy_code(cm_eff + ref_offset_, noise, rng);
}

int FastModel::noisy_code(double total, const MeasureNoise& noise,
                          Rng& rng) const {
  double vgs = vgs_of_total(total) + miller_boost(total) + vgs_correction_;
  if (noise.vgs_sigma > 0.0) vgs += rng.normal(0.0, noise.vgs_sigma);
  double i = ref_current(std::max(vgs, 0.0));
  if (noise.comparator_sigma_i > 0.0)
    i += rng.normal(0.0, noise.comparator_sigma_i);
  return code_of_vgs_current(i);
}

double FastModel::measured_cap_of_cell(std::size_t r, std::size_t c) const {
  return measured_[index(r, c)];
}

int FastModel::code_of_cell(std::size_t r, std::size_t c) const {
  const std::size_t i = index(r, c);
  if (shorted_[i]) return 0;
  return code_of_vgs_current(
      decision_current(measured_[i] + plate_offset(r, c)));
}

int FastModel::code_of_cell(std::size_t r, std::size_t c,
                            const MeasureNoise& noise, Rng& rng) const {
  if (!noise.enabled) return code_of_cell(r, c);
  const std::size_t i = index(r, c);
  if (shorted_[i]) return 0;
  return noisy_code(measured_[i] + plate_offset(r, c), noise, rng);
}

double FastModel::cap_at_code_boundary(int k) const {
  ECMS_REQUIRE(k >= 1 && k <= steps_, "code boundary index out of range");
  const double i_target = static_cast<double>(k) * delta_i_;
  // The decision current is monotone in capacitance; bisect.
  const auto i_of = [&](double cm) { return decision_current(cm + ref_offset_); };
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
