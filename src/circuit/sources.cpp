#include "circuit/sources.hpp"

#include "util/error.hpp"

namespace ecms::circuit {

VSource::VSource(std::string name, NodeId p, NodeId n, SourceWave wave)
    : Device(std::move(name)), p_(p), n_(n), wave_(std::move(wave)) {
  ECMS_REQUIRE(p != n, "voltage source terminals must differ");
}

void VSource::stamp_static(const StampContext&, MnaView& a_mat) const {
  const std::size_t k = branch_;
  if (p_ != kGround) {
    a_mat.add(unknown_of(p_), k, 1.0);
    a_mat.add(k, unknown_of(p_), 1.0);
  }
  if (n_ != kGround) {
    a_mat.add(unknown_of(n_), k, -1.0);
    a_mat.add(k, unknown_of(n_), -1.0);
  }
}

void VSource::stamp_static_rhs(const StampContext& ctx,
                               std::span<double> b_vec) const {
  b_vec[branch_] += ctx.source_scale * wave_.value(ctx.time);
}

void VSource::collect_breakpoints(std::vector<double>& out) const {
  const auto& bp = wave_.breakpoints();
  out.insert(out.end(), bp.begin(), bp.end());
}

double VSource::probe_current(const StampContext& ctx) const {
  return ctx.x[branch_];
}

ISource::ISource(std::string name, NodeId p, NodeId n, SourceWave wave)
    : Device(std::move(name)), p_(p), n_(n), wave_(std::move(wave)) {
  ECMS_REQUIRE(p != n, "current source terminals must differ");
}

void ISource::stamp_static_rhs(const StampContext& ctx,
                               std::span<double> b_vec) const {
  stamp_current(b_vec, p_, n_, ctx.source_scale * wave_.value(ctx.time));
}

void ISource::collect_breakpoints(std::vector<double>& out) const {
  const auto& bp = wave_.breakpoints();
  out.insert(out.end(), bp.begin(), bp.end());
}

double ISource::probe_current(const StampContext& ctx) const {
  return wave_.value(ctx.time);
}

}  // namespace ecms::circuit
