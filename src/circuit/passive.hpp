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

/// Two-terminal linear capacitor: one companion in the circuit's bank.
class Capacitor : public Device {
 public:
  Capacitor(std::string name, NodeId a, NodeId b, double farads);

  void stamp_static(const StampContext& ctx, MnaView& a_mat) const override;
  void bind_companions(CompanionBank& bank) override;
  /// The companion current latched at the last accepted step.
  double probe_current(const StampContext& ctx) const override;

  double capacitance() const { return farads_; }
  NodeId a() const { return a_; }
  NodeId b() const { return b_; }

 private:
  NodeId a_, b_;
  double farads_;
  const CompanionBank* bank_ = nullptr;  // set with slot_ when banked
  std::size_t slot_ = 0;
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
