#include "circuit/mosfet.hpp"

#include <cmath>

#include "util/error.hpp"
#include "util/units.hpp"

namespace ecms::circuit {

namespace {

// EKV interpolation function F(u) = ln^2(1 + e^{u/2}) and its derivative
// F'(u) = ln(1 + e^{u/2}) * sigmoid(u/2). One exp() serves both factors:
// with e = e^x, ln(1 + e^x) = log1p(e) and sigmoid(x) = e / (1 + e). This
// evaluation sits on the per-iteration assembly path of every MOSFET in the
// netlist, so the transcendental count matters; the saturated tails keep
// the usual numerically stable forms. mos_ids, which reads only f, asks
// for no derivative and so skips its division.
struct Interp {
  double f;
  double df;
};
template <bool kDerivative = true>
inline Interp ekv_f(double u) {
  const double x = 0.5 * u;
  if (x > 37.0) {
    // e^x >> 1: ln(1 + e^x) = x and sigmoid(x) = 1 to double precision.
    return {x * x, x};
  }
  const double e = std::exp(x);
  if (x < -37.0) {
    // e^x < eps/2: ln(1 + e^x) = e^x and sigmoid(x) = e^x to double
    // precision (1 + e rounds to 1).
    return {e * e, e * e};
  }
  const double l = std::log1p(e);
  return {l * l, kDerivative ? l * (e / (1.0 + e)) : 0.0};
}

// n-type core evaluation (both models); voltages are absolute.
MosEval eval_ncore(const MosParams& p, const MosConstants& k, double vg,
                   double vd, double vs, double vb) {
  MosEval e;
  const double vt = k.vt;
  const double beta = k.beta;

  if (p.model == MosModel::kEkv) {
    const double n = p.n_slope;
    const double is = k.is;
    const double vp = (vg - vb - p.vth0) / n;
    const double uf = (vp - (vs - vb)) / vt;
    const double ur = (vp - (vd - vb)) / vt;
    const auto [ff, dff] = ekv_f(uf);
    const auto [fr, dfr] = ekv_f(ur);
    const double vds = vd - vs;
    const double clm = 1.0 + p.lambda * vds;
    const double ids0 = is * (ff - fr);
    e.ids = ids0 * clm;
    const double a = is * clm;
    e.d_vg = a * (dff - dfr) / k.n_vt;
    e.d_vd = a * dfr / vt + ids0 * p.lambda;
    e.d_vs = -a * dff / vt - ids0 * p.lambda;
    e.d_vb = a * (dff - dfr) * (n - 1.0) / k.n_vt;
    return e;
  }

  // Level-1 (Shichman–Hodges) with linearized body effect and no
  // subthreshold conduction. Source/drain are swapped so vds >= 0.
  double d = vd, s = vs;
  double sign = 1.0;
  if (d < s) {
    std::swap(d, s);
    sign = -1.0;
  }
  const double vsb = s - vb;
  const double vth = p.vth0 + (p.n_slope - 1.0) * std::max(vsb, 0.0);
  const double vgs = vg - s;
  const double vds = d - s;
  const double vgst = vgs - vth;
  if (vgst <= 0.0) {
    e.ids = 0.0;
    return e;  // cutoff: all derivatives zero
  }
  const double clm = 1.0 + p.lambda * vds;
  double ids, gm, gds;
  if (vds < vgst) {
    // Triode.
    ids = beta * (vgst * vds - 0.5 * vds * vds) * clm;
    gm = beta * vds * clm;
    gds = beta * (vgst - vds) * clm +
          beta * (vgst * vds - 0.5 * vds * vds) * p.lambda;
  } else {
    // Saturation.
    ids = 0.5 * beta * vgst * vgst * clm;
    gm = beta * vgst * clm;
    gds = 0.5 * beta * vgst * vgst * p.lambda;
  }
  const double gmb = gm * (p.n_slope - 1.0) * (vsb > 0.0 ? 1.0 : 0.0);
  // Map swapped-terminal derivatives back to the original orientation.
  // In the swapped frame: dI/dg = gm, dI/dd = gds, dI/ds = -(gm+gds+gmb),
  // dI/db = gmb. Sign flips the current and each derivative.
  e.ids = sign * ids;
  const double dg = sign * gm;
  const double dd_sw = sign * gds;
  const double db = sign * gmb;
  const double ds_sw = -(dg + dd_sw + db);
  e.d_vg = dg;
  if (sign > 0) {
    e.d_vd = dd_sw;
    e.d_vs = ds_sw;
  } else {
    e.d_vd = ds_sw;
    e.d_vs = dd_sw;
  }
  e.d_vb = db;
  return e;
}

}  // namespace

MosConstants MosConstants::of(const MosParams& p) {
  const double vt = phys::thermal_voltage(p.temp_k);
  const double beta = p.kp * p.w / p.l;
  const double n = p.n_slope;
  return {vt, beta, 2.0 * n * beta * vt * vt, n * vt};
}

MosEval mos_eval(const MosParams& p, double vg, double vd, double vs,
                 double vb) {
  return mos_eval(p, MosConstants::of(p), vg, vd, vs, vb);
}

MosEval mos_eval(const MosParams& p, const MosConstants& k, double vg,
                 double vd, double vs, double vb) {
  if (p.type == MosType::kNmos) return eval_ncore(p, k, vg, vd, vs, vb);
  // PMOS: mirror all voltages, evaluate the n-core, negate the current.
  // d(-I(-v))/dv = +dI/dv' so derivatives carry over unchanged.
  MosEval m = eval_ncore(p, k, -vg, -vd, -vs, -vb);
  MosEval e;
  e.ids = -m.ids;
  e.d_vg = m.d_vg;
  e.d_vd = m.d_vd;
  e.d_vs = m.d_vs;
  e.d_vb = m.d_vb;
  return e;
}

double mos_ids(const MosParams& p, const MosConstants& k, double vg,
               double vd, double vs, double vb) {
  if (p.model != MosModel::kEkv) return mos_eval(p, k, vg, vd, vs, vb).ids;
  // eval_ncore's EKV current by the same operations, without derivatives; a
  // PMOS mirrors every voltage and negates the current, as mos_eval does.
  const double m = p.type == MosType::kNmos ? 1.0 : -1.0;
  const double vp = (m * vg - m * vb - p.vth0) / p.n_slope;
  const double ff = ekv_f<false>((vp - (m * vs - m * vb)) / k.vt).f;
  const double fr = ekv_f<false>((vp - (m * vd - m * vb)) / k.vt).f;
  return m * (k.is * (ff - fr) * (1.0 + p.lambda * (m * vd - m * vs)));
}

double mos_ids(const MosParams& p, double vgs, double vds) {
  return mos_ids(p, MosConstants::of(p), vgs, vds, 0.0, 0.0);
}

Mosfet::Mosfet(std::string name, NodeId d, NodeId g, NodeId s, NodeId b,
               MosParams params)
    : Device(std::move(name)), d_(d), g_(g), s_(s), b_(b), p_(params),
      k_(MosConstants::of(params)) {
  ECMS_REQUIRE(p_.w > 0 && p_.l > 0, "MOSFET geometry must be positive");
  ECMS_REQUIRE(p_.kp > 0, "MOSFET kp must be positive");
}

void Mosfet::stamp(const StampContext& ctx, MnaView& a_mat,
                   std::span<double> b_vec) const {
  const double vg = ctx.v(g_), vd = ctx.v(d_), vs = ctx.v(s_), vb = ctx.v(b_);
  const MosEval e = mos_eval(p_, k_, vg, vd, vs, vb);

  // Newton companion for the channel current I(d->s):
  // I ~ I0 + sum_k dI/dvk (vk - vk0).
  auto stamp_pair = [&](NodeId col, double g) {
    if (col == kGround) return;
    if (d_ != kGround) a_mat.add(unknown_of(d_), unknown_of(col), g);
    if (s_ != kGround) a_mat.add(unknown_of(s_), unknown_of(col), -g);
  };
  stamp_pair(g_, e.d_vg);
  stamp_pair(d_, e.d_vd);
  stamp_pair(s_, e.d_vs);
  stamp_pair(b_, e.d_vb);
  const double ieq =
      e.ids - e.d_vg * vg - e.d_vd * vd - e.d_vs * vs - e.d_vb * vb;
  stamp_current(b_vec, d_, s_, ieq);
}

void Mosfet::stamp_static(const StampContext& ctx, MnaView& a_mat) const {
  // Convergence aid across the channel (negligible at 1e-12 S).
  stamp_conductance(a_mat, d_, s_, ctx.gmin);

  // Intrinsic capacitances. Their companion conductances read only dt and
  // the integrator, so they stay out of the per-iteration stamp: ~3/4 of
  // the MOSFET's matrix stamps join the sparse backend's static image.
  each_cap([&](double c, NodeId a, NodeId b) {
    stamp_companion(ctx, a, b, c, a_mat);
  });
}

void Mosfet::bind_companions(CompanionBank& bank) {
  each_cap([&](double c, NodeId a, NodeId b) { bank.add(a, b, c); });
}

double Mosfet::probe_current(const StampContext& ctx) const {
  return mos_ids(p_, k_, ctx.v(g_), ctx.v(d_), ctx.v(s_), ctx.v(b_));
}

}  // namespace ecms::circuit
