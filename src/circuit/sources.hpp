// Independent voltage and current sources driven by SourceWave stimuli.
#pragma once

#include "circuit/device.hpp"
#include "circuit/wave.hpp"

namespace ecms::circuit {

/// Independent voltage source v(p) - v(n) = wave(t). Introduces one branch
/// current unknown (MNA group 2). probe_current() returns the current flowing
/// from p through the source to n (i.e. the current the source *sinks* at p).
class VSource : public Device {
 public:
  VSource(std::string name, NodeId p, NodeId n, SourceWave wave);

  void stamp_static(const StampContext& ctx, MnaView& a_mat) const override;
  void stamp_static_rhs(const StampContext& ctx,
                        std::span<double> b_vec) const override;
  int branch_count() const override { return 1; }
  void set_branch_base(std::size_t base) override { branch_ = base; }
  void collect_breakpoints(std::vector<double>& out) const override;
  double probe_current(const StampContext& ctx) const override;

  const SourceWave& wave() const { return wave_; }
  void set_wave(SourceWave w) { wave_ = std::move(w); }
  double value_at(double t) const { return wave_.value(t); }
  NodeId p() const { return p_; }
  NodeId n() const { return n_; }
  /// MNA unknown index of this source's branch current (valid after the
  /// circuit is finalized). Used by AC analysis to excite / probe.
  std::size_t branch_index() const { return branch_; }

 private:
  NodeId p_, n_;
  SourceWave wave_;
  std::size_t branch_ = static_cast<std::size_t>(-1);
};

/// Independent current source pushing wave(t) amps from p to n through the
/// source (conventional SPICE direction: positive value pulls current out of
/// p and into n).
class ISource : public Device {
 public:
  ISource(std::string name, NodeId p, NodeId n, SourceWave wave);

  void stamp_static_rhs(const StampContext& ctx,
                        std::span<double> b_vec) const override;
  void collect_breakpoints(std::vector<double>& out) const override;
  double probe_current(const StampContext& ctx) const override;

  const SourceWave& wave() const { return wave_; }
  void set_wave(SourceWave w) { wave_ = std::move(w); }
  NodeId p() const { return p_; }
  NodeId n() const { return n_; }

 private:
  NodeId p_, n_;
  SourceWave wave_;
};

}  // namespace ecms::circuit
