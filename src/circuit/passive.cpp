#include "circuit/passive.hpp"

#include <cmath>

#include "util/error.hpp"

namespace ecms::circuit {

Resistor::Resistor(std::string name, NodeId a, NodeId b, double ohms)
    : Device(std::move(name)), a_(a), b_(b), ohms_(ohms) {
  ECMS_REQUIRE(ohms > 0.0, "resistance must be positive");
  ECMS_REQUIRE(a != b, "resistor terminals must differ");
}

void Resistor::stamp_static(const StampContext&, MnaView& a_mat) const {
  stamp_conductance(a_mat, a_, b_, 1.0 / ohms_);
}

double Resistor::probe_current(const StampContext& ctx) const {
  return (ctx.v(a_) - ctx.v(b_)) / ohms_;
}

Capacitor::Capacitor(std::string name, NodeId a, NodeId b, double farads)
    : Device(std::move(name)), a_(a), b_(b), farads_(farads) {
  ECMS_REQUIRE(farads >= 0.0, "capacitance must be non-negative");
  ECMS_REQUIRE(a != b, "capacitor terminals must differ");
}

void Capacitor::stamp_static(const StampContext& ctx, MnaView& a_mat) const {
  stamp_companion(ctx, a_, b_, farads_, a_mat);
}

void Capacitor::bind_companions(CompanionBank& bank) {
  bank_ = &bank;
  slot_ = bank.add(a_, b_, farads_);
}

double Capacitor::probe_current(const StampContext&) const {
  return bank_ != nullptr ? bank_->i_prev(slot_) : 0.0;
}

VcSwitch::VcSwitch(std::string name, NodeId a, NodeId b, NodeId ctrl_p,
                   NodeId ctrl_n, Params p)
    : Device(std::move(name)), a_(a), b_(b), cp_(ctrl_p), cn_(ctrl_n), p_(p) {
  ECMS_REQUIRE(p.r_on > 0 && p.r_off > p.r_on,
               "switch needs r_off > r_on > 0");
  ECMS_REQUIRE(p.v_slope > 0, "switch transition width must be positive");
}

double VcSwitch::conductance(double v_ctrl) const {
  const double g_on = 1.0 / p_.r_on;
  const double g_off = 1.0 / p_.r_off;
  const double u = (v_ctrl - p_.v_threshold) / p_.v_slope;
  const double sig = 1.0 / (1.0 + std::exp(-u));
  return g_off + (g_on - g_off) * sig;
}

void VcSwitch::stamp(const StampContext& ctx, MnaView& a_mat,
                     std::span<double> b_vec) const {
  const double vc = ctx.v(cp_) - ctx.v(cn_);
  const double vab = ctx.v(a_) - ctx.v(b_);
  const double g = conductance(vc);
  // dG/dvc for the Jacobian of i = G(vc) * vab with respect to the control.
  const double g_on = 1.0 / p_.r_on;
  const double g_off = 1.0 / p_.r_off;
  const double u = (vc - p_.v_threshold) / p_.v_slope;
  const double sig = 1.0 / (1.0 + std::exp(-u));
  const double dg_dvc = (g_on - g_off) * sig * (1.0 - sig) / p_.v_slope;

  stamp_conductance(a_mat, a_, b_, g);
  stamp_transconductance(a_mat, a_, b_, cp_, cn_, dg_dvc * vab);
  // Newton linearization constant term: i0 - (di/dv)·v0 for the control part.
  stamp_current(b_vec, b_, a_, dg_dvc * vab * vc);
}

double VcSwitch::probe_current(const StampContext& ctx) const {
  return conductance(ctx.v(cp_) - ctx.v(cn_)) * (ctx.v(a_) - ctx.v(b_));
}

}  // namespace ecms::circuit
