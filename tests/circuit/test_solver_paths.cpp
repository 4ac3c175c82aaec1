// Exercises the solver's fallback and recovery paths explicitly: gmin /
// source stepping in DC, step halving in transient, and singular-system
// reporting.
#include <gtest/gtest.h>

#include <cmath>

#include "circuit/dc.hpp"
#include "circuit/transient.hpp"
#include "tech/tech.hpp"
#include "util/error.hpp"
#include "util/units.hpp"

namespace ecms::circuit {
namespace {

// A latch (cross-coupled inverters) is the classic circuit where plain
// Newton from x = 0 can struggle; the solver must still find *a* stable
// operating point through its fallbacks.
TEST(SolverPaths, CrossCoupledInvertersConverge) {
  const auto t = tech::tech018();
  Circuit c;
  const NodeId vdd = c.node("vdd");
  c.add_vsource("VDD", vdd, kGround, SourceWave::dc(t.vdd));
  auto add_inv = [&](const std::string& suffix, NodeId in, NodeId out) {
    c.add_mosfet("MP" + suffix, out, in, vdd, vdd, t.pmos_min(1e-6));
    c.add_mosfet("MN" + suffix, out, in, kGround, kGround, t.nmos_min(0.5e-6));
  };
  const NodeId a = c.node("a");
  const NodeId b = c.node("b");
  add_inv("1", a, b);
  add_inv("2", b, a);
  // A perfectly symmetric latch converges to its metastable point (as real
  // SPICE does without .nodeset); a firm bias must resolve it to the rails.
  c.add_resistor("Rset", vdd, a, 100_kOhm);
  const auto r = dc_operating_point(c);
  EXPECT_GT(dc_voltage(c, r, "a"), 1.2);
  EXPECT_LT(dc_voltage(c, r, "b"), 0.4);
}

TEST(SolverPaths, SourceSteppingLadder) {
  // A chain of forward diodes from a hard source: gmin/source stepping
  // territory. Must converge and give ~n * 0.6 V total drop.
  Circuit c;
  c.add_vsource("V1", c.node("n0"), kGround, SourceWave::dc(3.0));
  for (int i = 0; i < 4; ++i) {
    c.add_diode("D" + std::to_string(i), c.node("n" + std::to_string(i)),
                c.node("n" + std::to_string(i + 1)), {});
  }
  c.add_resistor("RL", c.node("n4"), kGround, 1_kOhm);
  const auto r = dc_operating_point(c);
  const double v4 = dc_voltage(c, r, "n4");
  EXPECT_GT(v4, 0.1);
  EXPECT_LT(v4, 3.0 - 4 * 0.45);
}

TEST(SolverPaths, StepHalvingOnSharpEdge) {
  // A 1 ps edge against a 100 ps base step: the solver must land on the
  // breakpoint and may need halving, but must finish.
  Circuit c;
  c.add_vsource("V1", c.node("in"), kGround,
                SourceWave::pwl({{0.0, 0.0}, {5e-9, 0.0}, {5.001e-9, 1.8}}));
  c.add_resistor("R1", c.node("in"), c.node("out"), 100.0);
  c.add_capacitor("C1", c.node("out"), kGround, 100_fF);
  TranParams tp;
  tp.t_stop = 10e-9;
  tp.dt = 100e-12;
  const auto res = transient(c, tp, {.nodes = {"out"}, .device_currents = {}});
  EXPECT_NEAR(res.trace.final_value("out"), 1.8, 0.01);
}

TEST(SolverPaths, SingularSystemReports) {
  // Two ideal voltage sources fighting on one node: structurally singular.
  Circuit c;
  const NodeId n = c.node("n");
  c.add_vsource("V1", n, kGround, SourceWave::dc(1.0));
  c.add_vsource("V2", n, kGround, SourceWave::dc(2.0));
  EXPECT_THROW(dc_operating_point(c), SolverError);
}

TEST(SolverPaths, NewtonDampingLimitsPerIterationSwing) {
  // A linear system whose solution is 1 V away from the guess: with a
  // 0.5 V damping clamp, convergence takes a few iterations but succeeds.
  Circuit c;
  c.add_vsource("V1", c.node("a"), kGround, SourceWave::dc(1.0));
  c.add_resistor("R1", c.node("a"), kGround, 1_kOhm);
  c.finalize();
  std::vector<double> x(c.unknown_count(), 0.0);
  StampContext ctx;
  NewtonOptions opts;
  const NewtonResult r = newton_solve(c, ctx, x, opts);
  EXPECT_TRUE(r.converged);
  EXPECT_GE(r.iterations, 3);  // 1.0 V in <= 0.5 V damped moves + settle
  EXPECT_LE(r.iterations, 8);

  // And an iteration budget too small to get there is reported honestly.
  std::vector<double> y(c.unknown_count(), 0.0);
  opts.max_iterations = 1;
  EXPECT_FALSE(newton_solve(c, ctx, y, opts).converged);
}

}  // namespace
}  // namespace ecms::circuit
