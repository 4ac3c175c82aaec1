// Linear passive devices: resistor, capacitor, and a smooth
// voltage-controlled switch (used for idealized control experiments; the
// measurement structure itself uses real MOSFET switches).
#pragma once

#include "circuit/device.hpp"

namespace ecms::circuit {

/// Two-terminal linear resistor.
class Resistor : public Device {
 public:
  Resistor(std::string name, NodeId a, NodeId b, double ohms);

  void stamp_static(const StampContext& ctx, MnaView& a_mat) const override;
  double probe_current(const StampContext& ctx) const override;

  double resistance() const { return ohms_; }
  NodeId a() const { return a_; }
  NodeId b() const { return b_; }

 private:
  NodeId a_, b_;
  double ohms_;
};

/// Two-terminal linear capacitor.
class Capacitor : public Device {
 public:
  Capacitor(std::string name, NodeId a, NodeId b, double farads);

  void stamp_static(const StampContext& ctx, MnaView& a_mat) const override;
  void stamp_static_rhs(const StampContext& ctx,
                        std::span<double> b_vec) const override;
  void init_state(const StampContext& ctx) override;
  void accept_step(const StampContext& ctx) override;
  double probe_current(const StampContext& ctx) const override;
  void save_state(std::vector<double>& out) const override {
    comp_.save_state(out);
  }
  std::size_t restore_state(std::span<const double> in) override {
    return comp_.restore_state(in);
  }

  double capacitance() const { return comp_.capacitance(); }
  NodeId a() const { return a_; }
  NodeId b() const { return b_; }

 private:
  NodeId a_, b_;
  CapCompanion comp_;
};

/// Voltage-controlled switch with a smooth (logistic) conductance transition
/// between `r_off` and `r_on` as v(ctrl_p) - v(ctrl_n) crosses `v_threshold`.
/// The smoothness (`v_slope`) keeps Newton iterations well-behaved.
class VcSwitch : public Device {
 public:
  struct Params {
    double r_on = 100.0;
    double r_off = 1e9;
    double v_threshold = 0.9;
    double v_slope = 0.05;  ///< logistic transition width (volts)
  };

  VcSwitch(std::string name, NodeId a, NodeId b, NodeId ctrl_p, NodeId ctrl_n,
           Params p);

  void stamp(const StampContext& ctx, MnaView& a_mat,
             std::span<double> b_vec) const override;
  bool nonlinear() const override { return true; }
  double probe_current(const StampContext& ctx) const override;

  /// Conductance at a given control voltage (exposed for tests).
  double conductance(double v_ctrl) const;

 private:
  NodeId a_, b_, cp_, cn_;
  Params p_;
};

}  // namespace ecms::circuit
