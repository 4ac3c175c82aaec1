#include "circuit/device.hpp"

namespace ecms::circuit {

void stamp_conductance(MnaView& a_mat, NodeId a, NodeId b, double g) {
  if (a != kGround) {
    a_mat.add(unknown_of(a), unknown_of(a), g);
    if (b != kGround) a_mat.add(unknown_of(a), unknown_of(b), -g);
  }
  if (b != kGround) {
    a_mat.add(unknown_of(b), unknown_of(b), g);
    if (a != kGround) a_mat.add(unknown_of(b), unknown_of(a), -g);
  }
}

void stamp_transconductance(MnaView& a_mat, NodeId out_p, NodeId out_n,
                            NodeId in_p, NodeId in_n, double g) {
  auto stamp = [&](NodeId row, NodeId col, double val) {
    if (row == kGround || col == kGround) return;
    a_mat.add(unknown_of(row), unknown_of(col), val);
  };
  stamp(out_p, in_p, g);
  stamp(out_p, in_n, -g);
  stamp(out_n, in_p, -g);
  stamp(out_n, in_n, g);
}

void stamp_current(std::span<double> b_vec, NodeId a, NodeId b, double i) {
  if (a != kGround) b_vec[unknown_of(a)] -= i;
  if (b != kGround) b_vec[unknown_of(b)] += i;
}

double CapCompanion::geq(const StampContext& ctx) const {
  return ctx.method == Integrator::kBackwardEuler ? c_ / ctx.dt
                                                  : 2.0 * c_ / ctx.dt;
}

void CapCompanion::stamp(const StampContext& ctx, NodeId a, NodeId b,
                         MnaView& a_mat) const {
  if (ctx.is_dc() || c_ == 0.0) return;  // open in DC
  stamp_conductance(a_mat, a, b, geq(ctx));
}

void CapCompanion::stamp_rhs(const StampContext& ctx, NodeId a, NodeId b,
                             std::span<double> b_vec) const {
  if (ctx.is_dc() || c_ == 0.0) return;
  // Companion: i(a->b) = g * v - j, with
  //   BE:   j = g * v_prev
  //   trap: j = g * v_prev + i_prev
  double j = geq(ctx) * v_prev_;
  if (ctx.method == Integrator::kTrapezoidal) j += i_prev_;
  // The equivalent source j flows b->a (it opposes the conductance term).
  stamp_current(b_vec, b, a, j);
}

void CapCompanion::init_state(const StampContext& ctx, NodeId a, NodeId b) {
  v_prev_ = ctx.v(a) - ctx.v(b);
  i_prev_ = 0.0;
}

void CapCompanion::accept_step(const StampContext& ctx, NodeId a, NodeId b) {
  if (ctx.is_dc() || c_ == 0.0) {
    init_state(ctx, a, b);
    return;
  }
  const double g = geq(ctx);
  const double v_new = ctx.v(a) - ctx.v(b);
  double i_new = g * (v_new - v_prev_);
  if (ctx.method == Integrator::kTrapezoidal) i_new -= i_prev_;
  v_prev_ = v_new;
  i_prev_ = i_new;
}

}  // namespace ecms::circuit
