// MOSFET model unit tests: region behaviour, symmetry, derivative
// consistency (analytic vs finite difference), PMOS mirroring, capacitance
// helpers.
#include "circuit/mosfet.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "util/units.hpp"

namespace ecms::circuit {
namespace {

MosParams nmos() {
  MosParams p;
  p.type = MosType::kNmos;
  p.w = 1_um;
  p.l = 0.18_um;
  return p;
}

TEST(MosEkv, CutoffCurrentIsTiny) {
  const MosParams p = nmos();
  const double i = mos_ids(p, 0.0, 1.8);
  EXPECT_GT(i, 0.0);       // subthreshold conduction exists
  EXPECT_LT(i, 1e-9);      // but is well below an on-current
}

TEST(MosEkv, StrongInversionCurrentMagnitude) {
  const MosParams p = nmos();
  const double i = mos_ids(p, 1.8, 1.8);
  // beta/2*(vgs-vth)^2 ballpark: 170e-6*(1/0.18)/2*1.35^2/1.35... order 0.5mA
  EXPECT_GT(i, 100e-6);
  EXPECT_LT(i, 5e-3);
}

TEST(MosEkv, MonotonicInVgs) {
  const MosParams p = nmos();
  double prev = -1.0;
  for (double vgs = 0.0; vgs <= 1.8; vgs += 0.05) {
    const double i = mos_ids(p, vgs, 1.0);
    EXPECT_GT(i, prev);
    prev = i;
  }
}

TEST(MosEkv, MonotonicInVds) {
  const MosParams p = nmos();
  double prev = -1.0;
  for (double vds = 0.0; vds <= 1.8; vds += 0.05) {
    const double i = mos_ids(p, 1.2, vds);
    EXPECT_GE(i, prev);
    prev = i;
  }
}

TEST(MosEkv, ZeroVdsZeroCurrent) {
  const MosParams p = nmos();
  EXPECT_NEAR(mos_ids(p, 1.2, 0.0), 0.0, 1e-15);
}

TEST(MosEkv, ChannelSymmetry) {
  // Swapping drain and source negates the current.
  const MosParams p = nmos();
  const MosEval fwd = mos_eval(p, 1.2, 0.8, 0.2, 0.0);
  const MosEval rev = mos_eval(p, 1.2, 0.2, 0.8, 0.0);
  // lambda breaks exact symmetry slightly; compare without tight tolerance.
  EXPECT_NEAR(fwd.ids, -rev.ids, std::abs(fwd.ids) * 0.15);
}

TEST(MosEkv, SubthresholdSlopeIsExponential) {
  const MosParams p = nmos();
  // Current should grow ~ exp(vgs / (n*vt)): decade per n*vt*ln(10) ~ 107mV.
  const double i1 = mos_ids(p, 0.20, 1.0);
  const double i2 = mos_ids(p, 0.30, 1.0);
  const double decades = std::log10(i2 / i1);
  EXPECT_GT(decades, 0.7);
  EXPECT_LT(decades, 1.4);
}

TEST(MosEkv, BodyEffectRaisesEffectiveThreshold) {
  const MosParams p = nmos();
  // Same vgs, but source lifted above bulk: less current.
  const double i_low = mos_eval(p, 1.2, 1.8, 0.0, 0.0).ids;
  const double i_high = mos_eval(p, 1.2 + 0.5, 1.8, 0.5, 0.0).ids;
  EXPECT_LT(i_high, i_low);
}

// Finite-difference validation of all four analytic partial derivatives over
// a grid of bias points (the Newton solver's correctness hinges on these).
struct Bias {
  double vg, vd, vs, vb;
};

class MosDerivTest : public ::testing::TestWithParam<Bias> {};

TEST_P(MosDerivTest, AnalyticMatchesFiniteDifference) {
  const MosParams p = nmos();
  const Bias b = GetParam();
  const double h = 1e-6;
  const MosEval e = mos_eval(p, b.vg, b.vd, b.vs, b.vb);
  const double d_vg =
      (mos_eval(p, b.vg + h, b.vd, b.vs, b.vb).ids -
       mos_eval(p, b.vg - h, b.vd, b.vs, b.vb).ids) /
      (2 * h);
  const double d_vd =
      (mos_eval(p, b.vg, b.vd + h, b.vs, b.vb).ids -
       mos_eval(p, b.vg, b.vd - h, b.vs, b.vb).ids) /
      (2 * h);
  const double d_vs =
      (mos_eval(p, b.vg, b.vd, b.vs + h, b.vb).ids -
       mos_eval(p, b.vg, b.vd, b.vs - h, b.vb).ids) /
      (2 * h);
  const double d_vb =
      (mos_eval(p, b.vg, b.vd, b.vs, b.vb + h).ids -
       mos_eval(p, b.vg, b.vd, b.vs, b.vb - h).ids) /
      (2 * h);
  const double scale = std::max(1e-9, std::abs(e.ids));
  EXPECT_NEAR(e.d_vg, d_vg, 1e-4 * scale + 1e-12);
  EXPECT_NEAR(e.d_vd, d_vd, 1e-4 * scale + 1e-12);
  EXPECT_NEAR(e.d_vs, d_vs, 1e-4 * scale + 1e-12);
  EXPECT_NEAR(e.d_vb, d_vb, 1e-4 * scale + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    BiasGrid, MosDerivTest,
    ::testing::Values(Bias{0.0, 1.8, 0.0, 0.0}, Bias{0.45, 1.8, 0.0, 0.0},
                      Bias{0.9, 0.1, 0.0, 0.0}, Bias{1.2, 0.9, 0.0, 0.0},
                      Bias{1.8, 1.8, 0.0, 0.0}, Bias{1.2, 0.2, 0.8, 0.0},
                      Bias{0.6, 0.9, 0.3, 0.0}, Bias{1.0, 0.0, 0.0, 0.0},
                      Bias{1.5, 0.05, 1.0, 0.0}));

TEST(MosPmos, MirrorsNmos) {
  MosParams pn = nmos();
  MosParams pp = pn;
  pp.type = MosType::kPmos;
  // PMOS with source at VDD, gate at 0, drain at VDD-0.5: conducts with
  // current flowing source->drain, i.e. negative drain->source current.
  const double ip = mos_eval(pp, 0.0, 1.3, 1.8, 1.8).ids;
  const double in = mos_eval(pn, 1.8, 0.5, 0.0, 0.0).ids;
  EXPECT_NEAR(ip, -in, std::abs(in) * 1e-9);
}

TEST(MosPmos, OffWhenGateHigh) {
  MosParams pp = nmos();
  pp.type = MosType::kPmos;
  EXPECT_LT(std::abs(mos_eval(pp, 1.8, 0.9, 1.8, 1.8).ids), 1e-9);
}

TEST(MosLevel1, CutoffIsHardZero) {
  MosParams p = nmos();
  p.model = MosModel::kLevel1;
  EXPECT_DOUBLE_EQ(mos_ids(p, 0.2, 1.8), 0.0);
}

TEST(MosLevel1, SaturationSquareLaw) {
  MosParams p = nmos();
  p.model = MosModel::kLevel1;
  p.lambda = 0.0;
  const double beta = p.kp * p.w / p.l;
  const double i = mos_ids(p, 1.45, 1.8);  // vgst = 1.0
  EXPECT_NEAR(i, 0.5 * beta, 0.5 * beta * 1e-9);
}

TEST(MosLevel1, TriodeFormula) {
  MosParams p = nmos();
  p.model = MosModel::kLevel1;
  p.lambda = 0.0;
  const double beta = p.kp * p.w / p.l;
  const double vgst = 1.0, vds = 0.2;
  const double i = mos_ids(p, p.vth0 + vgst, vds);
  EXPECT_NEAR(i, beta * (vgst * vds - 0.5 * vds * vds), 1e-12);
}

TEST(MosLevel1, EkvAgreesInStrongInversion) {
  // The two models should agree within ~20% well above threshold.
  MosParams ekv = nmos();
  MosParams l1 = nmos();
  l1.model = MosModel::kLevel1;
  for (double vgs : {1.0, 1.4, 1.8}) {
    const double ie = mos_ids(ekv, vgs, 1.8);
    const double i1 = mos_ids(l1, vgs, 1.8);
    EXPECT_NEAR(ie, i1, 0.35 * i1) << "vgs=" << vgs;
  }
}

// mos_ids(p, k, ...) is the current of mos_eval(p, k, ...) without the
// derivatives; it must agree bit for bit wherever it is evaluated.
TEST(MosIds, CurrentOnlyMatchesMosEvalBitwise) {
  MosParams pmos = nmos();
  pmos.type = MosType::kPmos;
  MosParams level1 = nmos();
  level1.model = MosModel::kLevel1;
  MosParams level1_p = level1;
  level1_p.type = MosType::kPmos;
  for (const MosParams& p : {nmos(), pmos, level1, level1_p}) {
    const MosConstants k = MosConstants::of(p);
    const double sign = p.type == MosType::kNmos ? 1.0 : -1.0;
    const auto check = [&](double vg, double vd, double vs, double vb) {
      EXPECT_EQ(mos_ids(p, k, vg, vd, vs, vb),
                mos_eval(p, k, vg, vd, vs, vb).ids)
          << vg << " " << vd << " " << vs << " " << vb;
    };
    // A dense grid, v_d above and below v_s, with and without body bias.
    for (int ig = -60; ig <= 80; ++ig)
      for (const double vd : {-1.8, -0.3, 0.0, 0.9, 1.8, 3.0})
        for (const double vs : {-0.5, 0.0, 0.7})
          for (const double vb : {0.0, -0.4}) check(0.05 * ig, vd, vs, vb);
    // Each EKV term across its x = u/2 = +-37 branch edges: the gate voltage
    // that puts u = (vp - (v_term - vb)) / vt at +-74 for the forward term
    // (v_term = v_s) and the reverse term (v_term = v_d), and neighbours.
    for (const double u_edge : {74.0, -74.0}) {
      for (const bool forward : {true, false}) {
        int above = 0, below = 0;
        const double vb = -0.2, v_term = 0.4, v_other = forward ? 1.1 : -0.6;
        // In the n-core frame (a PMOS mirrors every voltage).
        const double vg_edge =
            vb + p.vth0 + p.n_slope * (v_term - vb + u_edge * k.vt);
        for (int d = -200; d <= 200; ++d) {
          const double vg = vg_edge + 1e-14 * d;
          const double vp = (vg - vb - p.vth0) / p.n_slope;
          const double x = 0.5 * ((vp - (v_term - vb)) / k.vt);
          if (std::abs(x) > 37.0) ++above; else ++below;
          const double vs = forward ? v_term : v_other;
          const double vd = forward ? v_other : v_term;
          check(sign * vg, sign * vd, sign * vs, sign * vb);
        }
        EXPECT_GT(above, 0) << u_edge << " forward " << forward;
        EXPECT_GT(below, 0) << u_edge << " forward " << forward;
      }
    }
  }
}

TEST(MosCaps, GateInputCapMatchesGeometry) {
  MosParams p = nmos();
  p.w = 10_um;
  p.l = 0.3_um;
  // Cox*W*L = 8.6e-3 * 3e-12 = 25.8 fF plus overlaps 2*3 fF.
  EXPECT_NEAR(to_unit::fF(p.c_gate_channel()), 25.8, 0.1);
  EXPECT_NEAR(to_unit::fF(p.c_gate_input()), 31.8, 0.2);
}

TEST(MosCaps, JunctionCapScalesWithWidth) {
  MosParams p = nmos();
  const double c1 = p.c_junction();
  p.w *= 2;
  EXPECT_NEAR(p.c_junction(), 2 * c1, 1e-20);
}

}  // namespace
}  // namespace ecms::circuit
