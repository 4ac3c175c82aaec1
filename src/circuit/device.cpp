#include "circuit/device.hpp"

#include <type_traits>

#include "util/error.hpp"

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

void stamp_companion(const StampContext& ctx, NodeId a, NodeId b, double c,
                     MnaView& a_mat) {
  if (ctx.is_dc() || c == 0.0) return;  // open in DC
  stamp_conductance(a_mat, a, b, companion_geq(c, ctx));
}

std::size_t CompanionBank::add(NodeId a, NodeId b, double c) {
  if (c == 0.0) open_.push_back(size());
  a_.push_back(a);
  b_.push_back(b);
  c_.push_back(c);
  geq_.push_back(0.0);
  v_.push_back(0.0);
  i_.push_back(0.0);
  geq_valid_ = false;
  return size() - 1;
}

void CompanionBank::refresh_geq(const StampContext& ctx) const {
  if (geq_valid_ && ctx.dt == geq_dt_ && ctx.method == geq_method_) return;
  for (std::size_t k = 0; k < size(); ++k) {
    geq_[k] = companion_geq(c_[k], ctx);
  }
  geq_valid_ = true;
  geq_dt_ = ctx.dt;
  geq_method_ = ctx.method;
}

void CompanionBank::stamp_rhs(const StampContext& ctx, std::size_t begin,
                              std::size_t end, std::span<double> b) const {
  refresh_geq(ctx);
  // One loop, instantiated per integrator.
  auto run = [&](auto trap) {
    for (std::size_t k = begin; k < end; ++k) {
      double j = geq_[k] * v_[k];
      if constexpr (decltype(trap)::value) j += i_[k];
      // The equivalent source j flows b->a (it opposes the conductance).
      b[b_[k]] -= j;
      b[a_[k]] += j;
    }
  };
  if (ctx.method == Integrator::kTrapezoidal) {
    run(std::true_type{});
  } else {
    run(std::false_type{});
  }
}

void CompanionBank::init_state(const StampContext& ctx) {
  for (std::size_t k = 0; k < size(); ++k) {
    v_[k] = ctx.v(a_[k]) - ctx.v(b_[k]);
    i_[k] = 0.0;
  }
}

void CompanionBank::copy_history(const CompanionBank& other) {
  ECMS_REQUIRE(same_companions(other),
               "companion history copied between different netlists");
  v_ = other.v_;
  i_ = other.i_;
}

void CompanionBank::accept_step(const StampContext& ctx) {
  if (ctx.is_dc()) {
    init_state(ctx);
    return;
  }
  refresh_geq(ctx);
  const bool trap = ctx.method == Integrator::kTrapezoidal;
  const double* x = ctx.x.data();
  for (std::size_t k = 0; k < size(); ++k) {
    const NodeId a = a_[k], b = b_[k];
    const double v_new = (a == kGround ? 0.0 : x[a - 1]) -
                         (b == kGround ? 0.0 : x[b - 1]);
    double i_new = geq_[k] * (v_new - v_[k]);
    if (trap) i_new -= i_[k];
    v_[k] = v_new;
    i_[k] = i_new;
  }
  for (const std::size_t k : open_) i_[k] = 0.0;  // C = 0: no current
}

}  // namespace ecms::circuit
