#include "msu/fastmodel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "circuit/mosfet.hpp"

#include "tech/tech.hpp"
#include "util/error.hpp"
#include "util/units.hpp"

namespace ecms::msu {
namespace {

edram::MacroCell probe_mc(double target_fF, std::size_t rows = 4,
                          std::size_t cols = 4) {
  return edram::MacroCell::probe({.rows = rows, .cols = cols},
                                 tech::tech018(), 0, 0, target_fF * 1e-15,
                                 30_fF);
}

TEST(FastModelT, DesignQuantitiesAreSane) {
  const auto mc = probe_mc(30.0);
  const FastModel m(mc, {});
  EXPECT_GT(m.reference_offset(), 10_fF);   // plate offset is real
  EXPECT_LT(m.reference_offset(), 60_fF);
  EXPECT_GT(m.cref_side(), 80_fF);
  EXPECT_GT(m.delta_i(), 1_uA);
  EXPECT_EQ(m.ramp_steps(), 20);
  EXPECT_NEAR(m.i_max(), 20.0 * m.delta_i(), 1e-12);
}

TEST(FastModelT, VgsIsMonotoneAndBounded) {
  const auto mc = probe_mc(30.0);
  const FastModel m(mc, {});
  double prev = -1.0;
  for (double c = 0.0; c <= 100e-15; c += 5e-15) {
    const double v = m.vgs_of_cap(c);
    EXPECT_GT(v, prev);
    EXPECT_GT(v, 0.0);
    EXPECT_LT(v, mc.tech().vdd);
    prev = v;
  }
}

TEST(FastModelT, CodeIsMonotoneInCapacitance) {
  const auto mc = probe_mc(30.0);
  const FastModel m(mc, {});
  int prev = -1;
  for (double c = 0.0; c <= 80e-15; c += 1e-15) {
    const int code = m.code_of_cap(c);
    EXPECT_GE(code, prev);
    prev = code;
  }
}

TEST(FastModelT, PaperWindowReproduced) {
  // The paper: range 10-55 fF over codes 0..20; code 0 below the window,
  // code 20 at/above the top.
  const auto mc = probe_mc(30.0);
  const FastModel m(mc, {});
  EXPECT_EQ(m.code_of_cap(2_fF), 0);
  EXPECT_GE(m.code_of_cap(11_fF), 1);
  EXPECT_EQ(m.code_of_cap(55_fF), 20);
  EXPECT_EQ(m.code_of_cap(70_fF), 20);
  EXPECT_LT(m.code_of_cap(50_fF), 20);
}

TEST(FastModelT, AllCodesReachable) {
  const auto mc = probe_mc(30.0);
  const FastModel m(mc, {});
  std::set<int> seen;
  for (double c = 0.0; c <= 60e-15; c += 0.05e-15)
    seen.insert(m.code_of_cap(c));
  EXPECT_EQ(seen.size(), 21u);  // 0..20 all exercised
}

TEST(FastModelT, CodeBoundariesConsistent) {
  const auto mc = probe_mc(30.0);
  const FastModel m(mc, {});
  for (int k = 1; k <= 20; ++k) {
    const double b = m.cap_at_code_boundary(k);
    if (b < 0.0) continue;
    EXPECT_LT(m.code_of_cap(std::max(b - 0.05e-15, 0.0)), k);
    EXPECT_GE(m.code_of_cap(b + 0.05e-15), k);
  }
}

TEST(FastModelT, BoundariesIncrease) {
  const auto mc = probe_mc(30.0);
  const FastModel m(mc, {});
  double prev = -1.0;
  for (int k = 1; k <= 20; ++k) {
    const double b = m.cap_at_code_boundary(k);
    EXPECT_GT(b, prev) << "k=" << k;
    prev = b;
  }
}

TEST(FastModelT, DefectCodes) {
  auto mc = probe_mc(30.0);
  mc.set_defect(0, 0, tech::make_short());
  mc.set_defect(1, 1, tech::make_open());
  mc.set_defect(2, 2, tech::make_partial(0.3));  // 9 fF: below window
  const FastModel m(mc, {});
  EXPECT_EQ(m.code_of_cell(0, 0), 0);  // short
  EXPECT_EQ(m.code_of_cell(1, 1), 0);  // open
  EXPECT_EQ(m.code_of_cell(2, 2), 0);  // under-range
  EXPECT_GT(m.code_of_cell(3, 3), 3);  // healthy neighbour unaffected
}

TEST(FastModelT, PartialInWindowGivesLowCode) {
  auto mc = probe_mc(30.0);
  mc.set_defect(2, 2, tech::make_partial(0.5));  // 15 fF
  const FastModel m(mc, {});
  const int code = m.code_of_cell(2, 2);
  EXPECT_GE(code, 1);
  EXPECT_LT(code, m.code_of_cell(3, 3));
}

TEST(FastModelT, BridgeElevatesBothCells) {
  auto mc = edram::MacroCell::uniform({}, tech::tech018(), 30_fF);
  const FastModel healthy(mc, {});
  const int base = healthy.code_of_cell(1, 1);
  mc.set_defect(1, 1, tech::make_bridge());
  const FastModel m(mc, {});
  EXPECT_GT(m.code_of_cell(1, 1), base);
  EXPECT_GE(m.code_of_cell(1, 2), base);  // the neighbour reads high too
}

TEST(FastModelT, PlateOffsetGrowsWithArraySize) {
  const FastModel small(probe_mc(30.0, 4, 4), {});
  const FastModel wide(probe_mc(30.0, 4, 16), {});
  // More columns on the target row couple through floating bit lines.
  EXPECT_GT(wide.plate_offset(0, 0), small.plate_offset(0, 0) + 20_fF);
}

TEST(FastModelT, OffsetDependsOnNeighbourCaps) {
  // Second-order effect: the target-row neighbours' capacitances leak into
  // the offset, attenuated by the floating-bit-line series division.
  auto lo = probe_mc(30.0);
  auto hi = probe_mc(30.0);
  for (std::size_t c = 1; c < 4; ++c) {
    lo.set_true_cap(0, c, 15_fF);
    hi.set_true_cap(0, c, 45_fF);
  }
  const FastModel mlo(lo, {});
  const FastModel mhi(hi, {});
  const double diff = mhi.plate_offset(0, 0) - mlo.plate_offset(0, 0);
  EXPECT_GT(diff, 0.0);
  EXPECT_LT(diff, 10_fF);  // strongly attenuated vs the 90 fF raw difference
}

TEST(FastModelT, NoiselessNoiseMatchesPlain) {
  const auto mc = probe_mc(30.0);
  const FastModel m(mc, {});
  Rng rng(1);
  MeasureNoise off;  // disabled
  for (double c : {5e-15, 20e-15, 40e-15})
    EXPECT_EQ(m.code_of_cap(c, off, rng), m.code_of_cap(c));
}

TEST(FastModelT, NoiseBlursCodeBoundary) {
  const auto mc = probe_mc(30.0);
  const FastModel m(mc, {});
  const double boundary = m.cap_at_code_boundary(10);
  MeasureNoise noise;
  noise.enabled = true;
  noise.comparator_sigma_i = m.delta_i();  // 1 LSB of comparison noise
  Rng rng(2);
  std::set<int> seen;
  for (int i = 0; i < 200; ++i) seen.insert(m.code_of_cap(boundary, noise, rng));
  EXPECT_GT(seen.size(), 1u);  // boundary cell flickers between codes
}

TEST(FastModelT, ExplicitRampOverridesAutoDesign) {
  const auto mc = probe_mc(30.0);
  StructureParams p;
  p.ramp_i_max = 100_uA;
  const FastModel m(mc, p);
  EXPECT_NEAR(m.i_max(), 100e-6, 1e-12);
  EXPECT_NEAR(m.delta_i(), 5e-6, 1e-12);
}

TEST(FastModelT, DesignRampHelperMatchesConstructor) {
  const auto mc = probe_mc(30.0);
  const StructureParams p;
  const FastModel m(mc, p);
  EXPECT_NEAR(design_ramp_imax(mc, p), m.i_max(), 1e-12);
}

TEST(FastModelT, CurrentFarAboveFullScaleReadsFullScale) {
  // A 1e-16 A ramp puts I/delta_i near 1e13, far past INT_MAX: the code
  // clamps to full scale instead of going through an out-of-range cast.
  StructureParams p;
  p.ramp_i_max = 1e-16;
  const FastModel m(probe_mc(30.0), p);
  EXPECT_GT(m.ref_current(m.vgs_of_cap(40_fF)) / m.delta_i(), 1e12);
  EXPECT_EQ(m.code_of_cap(40_fF), 20);
  EXPECT_EQ(m.code_of_cell(0, 0), 20);
  MeasureNoise noise;
  noise.enabled = true;
  noise.vgs_sigma = 1e-3;
  Rng rng(1);
  EXPECT_EQ(m.code_of_cell(0, 0, noise, rng), 20);
}

TEST(FastModelT, NegativeCapRejected) {
  const auto mc = probe_mc(30.0);
  const FastModel m(mc, {});
  EXPECT_THROW(m.code_of_cap(-1e-15), Error);
  EXPECT_THROW(m.cap_at_code_boundary(0), Error);
  EXPECT_THROW(m.cap_at_code_boundary(21), Error);
}

// --- Oracle: the direct per-cell evaluation the model's tables replace ----
//
// Every sum walks the macro-cell itself, in the order the model's equations
// are written (unselected rows row-major, then the target row's other
// columns), so a table that reorders or drops one term shows up as a bitwise
// mismatch below.
class Oracle {
 public:
  explicit Oracle(const FastModel& m)
      : m_(m), mc_(m.macro_cell()), p_(m.params()) {
    const auto& t = mc_.tech();
    const circuit::MosParams acc =
        t.nmos(mc_.spec().access_w, mc_.spec().access_l);
    c_stor_par_ = acc.c_junction() + 2.0 * acc.c_overlap();
    cbl_float_ = mc_.bitline_total_cap();
    const circuit::MosParams pass = t.nmos(p_.pass_w, t.l_min);
    const circuit::MosParams stdm = t.nmos(p_.std_w, t.l_min);
    struct_junctions_ = 2.0 * (pass.c_junction() + pass.c_overlap()) +
                        stdm.c_junction() + stdm.c_overlap();
    ref_params_ = t.nmos(p_.ref_w, p_.ref_l);
    delta_i_ = p_.ramp_i_max > 0.0
                   ? p_.ramp_i_max / p_.ramp_steps
                   : decision_current(p_.spec_hi_f + plate_offset(0, 0)) /
                         static_cast<double>(p_.ramp_steps);
  }

  double delta_i() const { return delta_i_; }

  double plate_offset(std::size_t r, std::size_t c) const {
    return base_offset(r) + row_coupling(r, c);
  }

  double measured_cap(std::size_t r, std::size_t c) const {
    const tech::DefectElectrical e = tech::electrical_of(mc_.defect(r, c));
    if (e.shunt_r > 0.0) return 0.0;
    double cm = cap_of(r, c);
    if (const auto partner = mc_.bridge_partner_col(r, c))
      cm += 0.15 * mc_.effective_cap(r, *partner);
    return cm;
  }

  int code_of_cell(std::size_t r, std::size_t c) const {
    if (tech::electrical_of(mc_.defect(r, c)).shunt_r > 0.0) return 0;
    return code_of_current(
        decision_current(measured_cap(r, c) + plate_offset(r, c)));
  }

  int code_of_cell(std::size_t r, std::size_t c, const MeasureNoise& noise,
                   Rng& rng) const {
    if (tech::electrical_of(mc_.defect(r, c)).shunt_r > 0.0) return 0;
    const double total = measured_cap(r, c) + plate_offset(r, c);
    double vgs = vgs_of_total(total) + miller_boost(total) + m_.vgs_correction();
    if (noise.vgs_sigma > 0.0) vgs += rng.normal(0.0, noise.vgs_sigma);
    double i = ref_current(std::max(vgs, 0.0));
    if (noise.comparator_sigma_i > 0.0)
      i += rng.normal(0.0, noise.comparator_sigma_i);
    return code_of_current(i);
  }

 private:
  static double series_cap(double a, double b) {
    if (a <= 0.0 || b <= 0.0) return 0.0;
    return a * b / (a + b);
  }
  double cap_of(std::size_t r, std::size_t c) const {
    const tech::DefectElectrical e = tech::electrical_of(mc_.defect(r, c));
    return e.disconnected ? e.residual_cap : mc_.true_cap(r, c) * e.cap_scale;
  }
  double base_offset(std::size_t target_row) const {
    double sum = mc_.plate_parasitic() + struct_junctions_;
    for (std::size_t r = 0; r < mc_.rows(); ++r) {
      if (r == target_row) continue;
      for (std::size_t c = 0; c < mc_.cols(); ++c)
        sum += series_cap(cap_of(r, c), c_stor_par_);
    }
    return sum;
  }
  double row_coupling(std::size_t r, std::size_t exclude_col) const {
    double sum = 0.0;
    for (std::size_t c = 0; c < mc_.cols(); ++c) {
      if (c == exclude_col) continue;
      if (tech::electrical_of(mc_.defect(r, c)).shunt_r > 0.0) {
        sum += cbl_float_;
        continue;
      }
      sum += series_cap(cap_of(r, c), cbl_float_);
    }
    return sum;
  }
  double vgs_of_total(double total) const {
    return mc_.tech().vdd * total / (total + m_.cref_side());
  }
  double miller_boost(double total) const {
    return ref_params_.c_overlap() * (mc_.tech().vdd / 2.0) /
           (total + m_.cref_side());
  }
  double ref_current(double vgs) const {
    return circuit::mos_ids(ref_params_, vgs, mc_.tech().vdd / 2.0);
  }
  double decision_current(double total) const {
    return ref_current(vgs_of_total(total) + miller_boost(total) +
                       m_.vgs_correction());
  }
  int code_of_current(double i) const {
    return static_cast<int>(
        std::clamp(std::floor(std::max(i, 0.0) / delta_i_), 0.0,
                   static_cast<double>(p_.ramp_steps)));
  }

  const FastModel& m_;
  const edram::MacroCell& mc_;
  StructureParams p_;
  double c_stor_par_ = 0.0, cbl_float_ = 0.0, struct_junctions_ = 0.0;
  circuit::MosParams ref_params_;
  double delta_i_ = 0.0;
};

// A varied field with every defect type: a repeating pattern over the
// cells, plus bridges pinned at the first and the last column.
edram::MacroCell defect_zoo(std::size_t rows, std::size_t cols,
                            std::uint64_t seed) {
  tech::CapProcessParams cp;
  cp.local_sigma_rel = 0.08;
  cp.gradient_x_rel = 0.1;
  cp.radial_rel = 0.05;
  tech::CapField field(cp, rows, cols, seed);
  tech::DefectMap defects(rows, cols);
  for (std::size_t i = 0; i < rows * cols; ++i) {
    const std::size_t r = i / cols, c = i % cols;
    switch ((i * 7 + seed) % 11) {
      case 1: defects.set(r, c, tech::make_short()); break;
      case 4: defects.set(r, c, tech::make_open()); break;
      case 6: defects.set(r, c, tech::make_partial(0.3 + 0.05 * (i % 9))); break;
      case 9: defects.set(r, c, tech::make_bridge()); break;
      default: break;
    }
  }
  if (cols > 1) {
    defects.set(0, 0, tech::make_bridge());
    defects.set(rows - 1, cols - 1, tech::make_bridge(8e3));
  }
  return edram::MacroCell({.rows = rows, .cols = cols}, tech::tech018(),
                          std::move(field), std::move(defects));
}

// Bitwise equality of every table-backed query with the oracle, noiseless
// and with noise drawn from identical forked streams.
void expect_matches_oracle(const FastModel& m) {
  const Oracle o(m);
  const auto& mc = m.macro_cell();
  EXPECT_EQ(m.reference_offset(), o.plate_offset(0, 0));
  EXPECT_EQ(m.delta_i(), o.delta_i());
  MeasureNoise noise;
  noise.enabled = true;
  noise.vgs_sigma = 0.01;
  noise.comparator_sigma_i = 0.5 * m.delta_i();
  const Rng base(77);
  for (std::size_t r = 0; r < mc.rows(); ++r) {
    for (std::size_t c = 0; c < mc.cols(); ++c) {
      EXPECT_EQ(m.plate_offset(r, c), o.plate_offset(r, c)) << r << "," << c;
      EXPECT_EQ(m.measured_cap_of_cell(r, c), o.measured_cap(r, c))
          << r << "," << c;
      EXPECT_EQ(m.code_of_cell(r, c), o.code_of_cell(r, c)) << r << "," << c;
      const std::uint64_t k = r * mc.cols() + c;
      Rng a = base.fork(k), b = base.fork(k), untouched = base.fork(k);
      EXPECT_EQ(m.code_of_cell(r, c, noise, a), o.code_of_cell(r, c, noise, b))
          << r << "," << c;
      // Both consumed the same draws: none for a short, two otherwise.
      const double next = a.normal(0.0, 1.0);
      EXPECT_EQ(next, b.normal(0.0, 1.0));
      const bool shorted = mc.defect(r, c).type == tech::DefectType::kShort;
      EXPECT_EQ(next == untouched.normal(0.0, 1.0), shorted) << r << "," << c;
    }
  }
}

TEST(FastModelT, TablesMatchOracleOneByOne) {
  // A 1x1 array holds one defect type at a time (no bridge partner exists).
  for (const tech::Defect d :
       {tech::Defect{}, tech::make_short(), tech::make_open(),
        tech::make_partial(0.6), tech::make_bridge()}) {
    auto mc = probe_mc(33.0, 1, 1);
    mc.set_defect(0, 0, d);
    expect_matches_oracle(FastModel(mc, {}));
  }
}

TEST(FastModelT, TablesMatchOracleFourByFour) {
  expect_matches_oracle(FastModel(defect_zoo(4, 4, 3), {}));
  expect_matches_oracle(FastModel(defect_zoo(4, 4, 5), {}));
}

TEST(FastModelT, TablesMatchOracleEightBySixteen) {
  expect_matches_oracle(FastModel(defect_zoo(8, 16, 1), {}));
  StructureParams p;
  p.ramp_i_max = 90_uA;
  expect_matches_oracle(FastModel(defect_zoo(8, 16, 2), p));
  FastModel corrected(defect_zoo(8, 16, 4), {});
  corrected.set_vgs_correction(0.02);
  expect_matches_oracle(corrected);
}

TEST(FastModelT, TablesMatchOracleUntiled64) {
  expect_matches_oracle(FastModel(defect_zoo(64, 64, 6), {}));
}

}  // namespace
}  // namespace ecms::msu
