// The circuit-owned companion bank against per-device reference code: the
// static RHS must sum the same terms in the same order as a device-by-device
// loop, and accepted history must follow the textbook companion update bit
// for bit.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "circuit/netlist.hpp"
#include "tech/tech.hpp"
#include "util/units.hpp"

namespace ecms::circuit {
namespace {

bool bits_equal(std::span<const double> a, std::span<const double> b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(a[i]) !=
        std::bit_cast<std::uint64_t>(b[i])) {
      return false;
    }
  }
  return true;
}

// Companions a device contributes, in its fixed order: (a, b, farads).
struct Cap {
  NodeId a, b;
  double c;
};
std::vector<Cap> caps_of(const Device& d) {
  if (const auto* c = dynamic_cast<const Capacitor*>(&d)) {
    return {{c->a(), c->b(), c->capacitance()}};
  }
  if (const auto* m = dynamic_cast<const Mosfet*>(&d)) {
    const MosParams& p = m->params();
    const NodeId g = m->gate(), dr = m->drain(), s = m->source(),
                 b = m->bulk();
    return {{g, s, p.c_overlap()},
            {g, dr, p.c_overlap()},
            {g, b, p.c_gate_channel()},
            {dr, b, p.c_junction()},
            {s, b, p.c_junction()}};
  }
  return {};
}

// The static RHS the way a device-by-device loop stamps it: each capacitor
// companion's history source straight from its own terminals and freshly
// computed conductance, every other device through stamp_static_rhs().
std::vector<double> reference_rhs(const Circuit& ckt, const StampContext& ctx) {
  const CompanionBank& bank = ckt.companions();
  std::vector<double> b(ckt.unknown_count(), 0.0);
  std::size_t k = 0;
  for (const auto& d : ckt.devices()) {
    const std::vector<Cap> caps = caps_of(*d);
    if (caps.empty()) {
      d->stamp_static_rhs(ctx, b);
      continue;
    }
    for (const Cap& cap : caps) {
      const std::size_t slot = k++;
      if (ctx.is_dc() || cap.c == 0.0) continue;
      const double g = ctx.method == Integrator::kBackwardEuler
                           ? cap.c / ctx.dt
                           : 2.0 * cap.c / ctx.dt;
      double j = g * bank.v_prev(slot);
      if (ctx.method == Integrator::kTrapezoidal) j += bank.i_prev(slot);
      stamp_current(b, cap.b, cap.a, j);
    }
  }
  EXPECT_EQ(k, bank.size());
  return b;
}

std::vector<double> circuit_rhs(const Circuit& ckt, const StampContext& ctx) {
  std::vector<double> b(ckt.unknown_count() + 1, 0.0);
  ckt.stamp_static_rhs(ctx, b);
  return {b.begin() + 1, b.end()};
}

// The bank must hold exactly the devices' companions, in device order.
void expect_bank_layout(const Circuit& ckt) {
  const CompanionBank& bank = ckt.companions();
  std::size_t k = 0;
  for (const auto& d : ckt.devices()) {
    for (const Cap& cap : caps_of(*d)) {
      ASSERT_LT(k, bank.size());
      EXPECT_EQ(bank.a(k), cap.a) << d->name();
      EXPECT_EQ(bank.b(k), cap.b) << d->name();
      EXPECT_EQ(bank.capacitance(k), cap.c) << d->name();
      ++k;
    }
  }
  EXPECT_EQ(k, bank.size());
}

// An ISource and three capacitors on one shared node, grounded terminals
// on either side, an open (C = 0) capacitor, a resistor between companion
// runs, and a MOSFET whose source is its bulk (its csb companion's two
// stamps land on one entry, so their order shows in the bits).
Circuit make_mixed() {
  const auto t = tech::tech018();
  Circuit c;
  const NodeId in = c.node("in"), mid = c.node("mid"), out = c.node("out");
  c.add_vsource("VIN", in, kGround,
                SourceWave::pwl({{0.0, 0.0}, {1e-9, 1.0}, {3e-9, 0.4}}));
  c.add_capacitor("C1", mid, kGround, 20_fF);
  c.add_isource("I1", kGround, mid,
                SourceWave::pwl({{0.0, 1e-6}, {2e-9, 3e-6}}));
  c.add_capacitor("C2", kGround, mid, 7_fF);
  c.add_resistor("R1", in, mid, 5_kOhm);
  c.add_capacitor("C3", mid, out, 3_fF);
  c.add_capacitor("COPEN", out, mid, 0.0);
  c.add_mosfet("M1", out, in, mid, mid, t.nmos_min(1e-6));
  c.add_vsource("VB", c.node("vb"), kGround, SourceWave::dc(0.9));
  c.add_mosfet("M2", out, c.node("vb"), kGround, kGround, t.nmos_min(2e-6));
  return c;
}

// A deterministic, non-trivial iterate for point `p`.
std::vector<double> iterate(std::size_t n, int p) {
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = 0.3 * std::sin(0.7 * static_cast<double>(p) + 1.3 * i) + 0.01 * p;
  }
  return x;
}

// Accepts `ctx` on the circuit and checks the bank against the textbook
// companion update from its previous state.
void accept_and_check(Circuit& ckt, const StampContext& ctx) {
  const CompanionBank& bank = ckt.companions();
  std::vector<double> v_want, i_want;
  for (std::size_t k = 0; k < bank.size(); ++k) {
    const double c = bank.capacitance(k);
    const double v_new = ctx.v(bank.a(k)) - ctx.v(bank.b(k));
    double i_new = 0.0;
    if (!ctx.is_dc() && c != 0.0) {
      const double g = ctx.method == Integrator::kBackwardEuler
                           ? c / ctx.dt
                           : 2.0 * c / ctx.dt;
      i_new = g * (v_new - bank.v_prev(k));
      if (ctx.method == Integrator::kTrapezoidal) i_new -= bank.i_prev(k);
    }
    v_want.push_back(v_new);
    i_want.push_back(i_new);
  }
  ckt.accept_step(ctx);
  std::vector<double> v_got, i_got;
  for (std::size_t k = 0; k < bank.size(); ++k) {
    v_got.push_back(bank.v_prev(k));
    i_got.push_back(bank.i_prev(k));
  }
  EXPECT_TRUE(bits_equal(v_got, v_want));
  EXPECT_TRUE(bits_equal(i_got, i_want));
}

TEST(CompanionBankT, StaticRhsMatchesPerDeviceLoopBitwise) {
  Circuit ckt = make_mixed();
  ckt.finalize();
  expect_bank_layout(ckt);
  EXPECT_EQ(ckt.companions().size(), 4u + 2u * 5u);

  const std::size_t n = ckt.unknown_count();
  std::vector<double> x = iterate(n, 0);
  StampContext ctx;
  ctx.x = x;
  ckt.init_state(ctx);

  // Trapezoidal steps (the first stamp fills the conductance cache, later
  // ones hit it), a backward-Euler step after a breakpoint, a shorter
  // breakpoint-landing step, back to the base step, and a DC point.
  struct Point {
    double dt;
    Integrator method;
  };
  const auto trap = Integrator::kTrapezoidal;
  const auto be = Integrator::kBackwardEuler;
  const Point points[] = {{20e-12, trap}, {20e-12, trap}, {20e-12, trap},
                          {20e-12, be},   {7e-12, trap},  {20e-12, trap},
                          {20e-12, be},   {20e-12, trap}, {0.0, trap}};
  double time = 0.0;
  int p = 1;
  for (const Point& pt : points) {
    SCOPED_TRACE("point " + std::to_string(p));
    time += pt.dt;
    ctx.time = time;
    ctx.dt = pt.dt;
    ctx.method = pt.method;
    EXPECT_TRUE(bits_equal(circuit_rhs(ckt, ctx), reference_rhs(ckt, ctx)));
    x = iterate(n, p++);
    ctx.x = x;
    accept_and_check(ckt, ctx);
    // The same point again, with the conductances cached.
    EXPECT_TRUE(bits_equal(circuit_rhs(ckt, ctx), reference_rhs(ckt, ctx)));
  }
}

TEST(CompanionBankT, AcceptBeforeAnyStampMatchesTextbook) {
  // Accepts at (dt, integrator) pairs no RHS stamp has seen: the accept
  // fills the conductance cache itself, and the next stamp reads it.
  Circuit ckt = make_mixed();
  ckt.finalize();
  const std::size_t n = ckt.unknown_count();
  std::vector<double> x = iterate(n, 0);
  StampContext ctx;
  ctx.x = x;
  ckt.init_state(ctx);
  int p = 1;
  for (const auto method :
       {Integrator::kBackwardEuler, Integrator::kTrapezoidal}) {
    for (const double dt : {20e-12, 7e-12}) {
      ctx.time += dt;
      ctx.dt = dt;
      ctx.method = method;
      x = iterate(n, p++);
      ctx.x = x;
      accept_and_check(ckt, ctx);
      EXPECT_TRUE(bits_equal(circuit_rhs(ckt, ctx), reference_rhs(ckt, ctx)));
    }
  }
}

TEST(CompanionBankT, BankingDevicesHaveNoStaticRhsOfTheirOwn) {
  // The Device::bind_companions contract: finalize() never schedules a
  // companion-banking device's stamp_static_rhs(), so none may add a term.
  Circuit ckt = make_mixed();
  ckt.finalize();
  StampContext ctx;
  ctx.time = 1.5e-9;
  ctx.dt = 20e-12;
  std::size_t banking = 0;
  for (const auto& d : ckt.devices()) {
    CompanionBank probe;
    d->bind_companions(probe);
    if (probe.size() == 0) continue;
    ++banking;
    std::vector<double> b(ckt.unknown_count(), 0.0);
    d->stamp_static_rhs(ctx, b);
    EXPECT_TRUE(bits_equal(b, std::vector<double>(b.size(), 0.0)))
        << d->name();
  }
  EXPECT_EQ(banking, 6u);  // four capacitors, two MOSFETs
}

// (v_prev, i_prev) per companion, in bank order.
std::vector<double> history(const Circuit& ckt) {
  const CompanionBank& bank = ckt.companions();
  std::vector<double> out;
  for (std::size_t k = 0; k < bank.size(); ++k) {
    out.push_back(bank.v_prev(k));
    out.push_back(bank.i_prev(k));
  }
  return out;
}

TEST(CompanionBankT, DeviceAppendedAfterFinalizeKeepsHistory) {
  Circuit ckt = make_mixed();
  ckt.finalize();
  std::vector<double> x = iterate(ckt.unknown_count(), 3);
  StampContext ctx;
  ctx.x = x;
  ckt.init_state(ctx);
  ctx.dt = 20e-12;
  ctx.time = 20e-12;
  x = iterate(ckt.unknown_count(), 4);
  ctx.x = x;
  ckt.accept_step(ctx);
  const std::vector<double> before = history(ckt);

  // A capacitor on a new node plus a current source, after finalize().
  const NodeId extra = ckt.node("extra");
  ckt.add_capacitor("C4", extra, ckt.find_node("mid"), 11_fF);
  ckt.add_isource("I2", extra, kGround, SourceWave::dc(2e-6));
  ckt.finalize();
  expect_bank_layout(ckt);

  const std::vector<double> after = history(ckt);
  ASSERT_EQ(after.size(), before.size() + 2);
  EXPECT_TRUE(bits_equal(std::span<const double>(after).first(before.size()),
                         before));

  x = iterate(ckt.unknown_count(), 5);
  ctx.x = x;
  ctx.time = 40e-12;
  EXPECT_TRUE(bits_equal(circuit_rhs(ckt, ctx), reference_rhs(ckt, ctx)));
  accept_and_check(ckt, ctx);
  ctx.time = 60e-12;
  EXPECT_TRUE(bits_equal(circuit_rhs(ckt, ctx), reference_rhs(ckt, ctx)));
}

}  // namespace
}  // namespace ecms::circuit
