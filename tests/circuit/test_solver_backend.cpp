// The production sparse engine against the dense reference: matrix.hpp's
// partial-pivot LU stays in the tree as a test oracle, and the engine's
// operating points and fault-injection verdicts must agree with it. Also
// pins the engine's symbolic-reuse accounting.
#include "circuit/solver.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <span>
#include <string>

#include "circuit/dc.hpp"
#include "circuit/matrix.hpp"
#include "circuit/newton.hpp"
#include "tech/tech.hpp"
#include "util/error.hpp"
#include "util/units.hpp"

namespace ecms::circuit {
namespace {

// An RC ladder driven through a MOSFET switch: linear devices feed the
// static image, the transistor exercises the dynamic tape every iteration.
Circuit make_switched_ladder(const tech::Technology& t, int stages,
                             double ohms = 10_kOhm, double farads = 50_fF) {
  Circuit c;
  const NodeId vdd = c.node("vdd");
  c.add_vsource("VDD", vdd, kGround, SourceWave::dc(t.vdd));
  c.add_vsource("VG", c.node("gate"), kGround,
                SourceWave::pwl({{0.0, 0.0}, {2e-9, t.vdd}}));
  c.add_mosfet("MSW", c.node("n0"), c.node("gate"), vdd, vdd,
               t.pmos_min(2e-6));
  for (int i = 0; i < stages; ++i) {
    const std::string a = "n" + std::to_string(i);
    const std::string b = "n" + std::to_string(i + 1);
    c.add_resistor("R" + std::to_string(i), c.node(a), c.node(b), ohms);
    c.add_capacitor("C" + std::to_string(i), c.node(b), kGround, farads);
  }
  return c;
}

TEST(SolverBackendT, DcOperatingPointMatchesDense) {
  const auto t = tech::tech018();
  Circuit c = make_switched_ladder(t, 6);
  DcOptions opts;
  const auto r = dc_operating_point(c, opts);
  // Gate low at t = 0: the PMOS conducts, the ladder charges to VDD.
  EXPECT_NEAR(dc_voltage(c, r, "n6"), t.vdd, 1e-6);

  // Oracle: the system linearized at the engine's solution, assembled and
  // solved densely, must reproduce that solution (a converged Newton point
  // is a fixed point of its own linearization).
  StampContext ctx;
  ctx.x = r.x;
  ctx.time = opts.time;
  ctx.dt = 0.0;
  ctx.gmin = opts.newton.gmin_ground;
  Matrix a;
  std::vector<double> b;
  assemble(c, ctx, opts.newton.gmin_ground, a, b);
  const std::vector<double> xd = solve_dense(a, b);
  ASSERT_EQ(xd.size(), r.x.size());
  const std::size_t nv = c.node_count() - 1;
  for (std::size_t i = 0; i < nv; ++i) {
    EXPECT_NEAR(xd[i], r.x[i], 1e-5) << "unknown " << i;
  }
}

TEST(SolverBackendT, SparseSingularInjectionMatchesDense) {
  // The make_singular hook must drive the engine to a singular,
  // non-converged solve (what the recovery ladder consumes), and the dense
  // oracle must agree that the zeroed-row system is singular.
  const auto t = tech::tech018();
  SolveHooks hooks;
  hooks.make_singular = [](const StampContext&, const NewtonOptions&) {
    return true;
  };
  Circuit c = make_switched_ladder(t, 4);
  c.finalize();
  NewtonOptions opts;
  opts.hooks = &hooks;
  StampContext ctx;
  ctx.time = 0.0;
  ctx.dt = 0.0;
  std::vector<double> x(c.unknown_count(), 0.0);
  NewtonWorkspace ws;
  const auto res = newton_solve(c, ctx, x, opts, ws);
  EXPECT_FALSE(res.converged);
  EXPECT_TRUE(res.singular);

  ctx.x = x;
  Matrix a;
  std::vector<double> b;
  assemble(c, ctx, opts.gmin_ground, a, b);
  for (std::size_t j = 0; j < a.cols(); ++j) a.at(0, j) = 0.0;
  LuFactorization lu;
  EXPECT_THROW(lu.refactor(a), SolverError);
}

TEST(SolverBackendT, SparseReusesSymbolicFactorization) {
  // Across the points of one workspace-owning transient, symbolic work must
  // happen once (plus possible re-pivots), not once per iteration. A fresh
  // local ProgramCache keeps the accounting exact: against the process-wide
  // cache, an earlier test in the same binary may have published this
  // topology already and the count would legitimately be zero.
  const auto t = tech::tech018();
  Circuit c = make_switched_ladder(t, 6);
  c.finalize();
  ProgramCache fresh;
  NewtonOptions opts;
  opts.solver.program_cache = &fresh;
  NewtonWorkspace ws;
  int iterations = 0, symbolic = 0, numeric = 0;
  std::size_t restamps = 0, rhs_restamps = 0;
  std::vector<double> x(c.unknown_count(), 0.0);
  // Uniform transient points: a DC point in the mix would stamp a different
  // companion-model coordinate sequence and legitimately force one cache
  // rebuild (the solve loops keep separate workspaces for DC and transient).
  for (int point = 0; point < 5; ++point) {
    StampContext ctx;
    ctx.time = 1e-9 * (point + 1);
    ctx.dt = 1e-9;
    const auto res = newton_solve(c, ctx, x, opts, ws);
    ASSERT_TRUE(res.converged);
    iterations += res.iterations;
    symbolic += res.symbolic_factorizations;
    numeric += res.numeric_factorizations;
    restamps += res.assemble_restamps;
    rhs_restamps += res.assemble_rhs_restamps;
  }
  EXPECT_EQ(symbolic, 1);  // one Markowitz analysis for the whole run
  // Same (dt, integrator, gmin) at every point: the static matrix image is
  // stamped once and later points re-stamp only the static RHS.
  EXPECT_EQ(restamps, 1u);
  EXPECT_EQ(rhs_restamps, 4u);
  EXPECT_EQ(symbolic + numeric, iterations);
  EXPECT_GT(iterations, 5);
  // ... and that one analysis was published for other workspaces to adopt.
  EXPECT_EQ(fresh.size(), 1u);
}

bool bits_equal(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(SolverBackendT, KeptStaticImageMatchesFreshAssembly) {
  // One workspace's engine through every kind of point that must or must
  // not keep the static matrix image; after each assembly its system must
  // equal, bit for bit, what a fresh engine assembles at the same (ctx, x).
  const auto t = tech::tech018();
  Circuit c1 = make_switched_ladder(t, 6);
  Circuit c2 = make_switched_ladder(t, 6, 7_kOhm, 35_fF);
  c1.finalize();
  c2.finalize();
  ASSERT_EQ(c1.unknown_count(), c2.unknown_count());
  NewtonOptions opts;
  opts.solver.program_cache = nullptr;
  NewtonWorkspace ws;
  ws.prepare(c1, opts.solver);
  SparseEngine& eng = *ws.engine();

  std::vector<double> x(c1.unknown_count());
  double time = 0.0;
  auto point = [&](Circuit& c, double dt, Integrator method,
                   double gmin, double gmin_ground, const char* what) {
    SCOPED_TRACE(what);
    StampContext ctx;
    time += dt;
    ctx.time = time;
    ctx.dt = dt;
    ctx.method = method;
    ctx.gmin = gmin;
    eng.begin_point();
    for (int iter = 0; iter < 2; ++iter) {  // a point's first and later
      for (std::size_t i = 0; i < x.size(); ++i) {
        x[i] = 0.1 * std::sin(1.0 + 3.0 * time * 1e9 + i + iter);
      }
      ctx.x = x;
      eng.assemble(c, ctx, gmin_ground);
      SparseEngine fresh(c.unknown_count());
      fresh.assemble(c, ctx, gmin_ground);
      EXPECT_EQ(eng.matrix().pattern()->row_ptr,
                fresh.matrix().pattern()->row_ptr);
      EXPECT_EQ(eng.matrix().pattern()->cols, fresh.matrix().pattern()->cols);
      EXPECT_TRUE(bits_equal(eng.matrix().values(), fresh.matrix().values()));
      EXPECT_TRUE(bits_equal(eng.rhs(), fresh.rhs()));
    }
    // Latch new companion history so the next point's RHS must change.
    c.accept_step(ctx);
  };

  const double dt = 20e-12, g = opts.gmin_ground;
  const auto trap = Integrator::kTrapezoidal;
  const auto be = Integrator::kBackwardEuler;
  StampContext init;
  init.x = x;
  for (Circuit* c : {&c1, &c2}) c->init_state(init);
  for (int i = 0; i < 3; ++i) point(c1, dt, trap, g, g, "steady trap step");
  EXPECT_EQ(eng.static_restamps(), 1u);
  EXPECT_EQ(eng.rhs_restamps(), 2u);
  point(c1, 7e-12, trap, g, g, "breakpoint-landing step");
  point(c1, dt, be, g, g, "backward Euler after the breakpoint");
  point(c1, dt, trap, g, g, "trap step after the BE step");
  point(c1, dt, trap, 1e-6, g, "junction gmin change");
  point(c1, dt, trap, 1e-6, 1e-9, "ground gmin change");
  point(c1, 0.0, trap, g, g, "DC point after transient points");
  point(c1, dt, trap, g, g, "transient point after DC");
  point(c1, dt, trap, g, g, "steady trap step after DC");
  EXPECT_EQ(eng.static_restamps(), 8u);
  EXPECT_EQ(eng.rhs_restamps(), 3u);

  // Same size, same (dt, integrator, gmin), different element values: the
  // workspace keeps its engine, and only the circuit identity in the image
  // key keeps the first circuit's matrix image out of this point.
  ws.prepare(c2, opts.solver);
  ASSERT_EQ(ws.engine(), &eng);
  point(c2, dt, trap, g, g, "second circuit of the same size");
  point(c2, dt, trap, g, g, "second circuit, steady step");
  EXPECT_EQ(eng.static_restamps(), 9u);
  EXPECT_EQ(eng.rhs_restamps(), 4u);
}

}  // namespace
}  // namespace ecms::circuit
