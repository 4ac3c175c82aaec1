// MOSFET model.
//
// Two channel-current models are provided:
//  * kEkv (default): a long-channel EKV-style interpolation that is smooth
//    and monotonic across subthreshold / triode / saturation. Smoothness is
//    what makes Newton converge reliably on the measurement structure, where
//    the REF transistor's gate sits anywhere between 0 V and VDD after charge
//    sharing — including right at threshold.
//  * kLevel1: classic SPICE level-1 (Shichman–Hodges) piecewise square law,
//    kept as a cross-check so tests can validate the EKV curve against the
//    textbook regions.
//
// Intrinsic capacitances are modeled as constant (geometry-derived) linear
// capacitors Cgs/Cgd/Cgb plus junction capacitances Cdb/Csb. A constant gate
// capacitance is exactly what the paper's charge-sharing step relies on
// (C_REF is "the input capacitor of the n-MOSFET used for the analog to
// digital conversion"), and constant linear caps keep the transient solver
// charge-conserving.
#pragma once

#include "circuit/device.hpp"

namespace ecms::circuit {

enum class MosType { kNmos, kPmos };
enum class MosModel { kEkv, kLevel1 };

/// Electrical parameters of a MOSFET instance (already including geometry).
struct MosParams {
  MosType type = MosType::kNmos;
  MosModel model = MosModel::kEkv;
  double w = 1e-6;          ///< channel width (m)
  double l = 0.18e-6;       ///< drawn channel length (m)
  double kp = 170e-6;       ///< transconductance u0*Cox (A/V^2)
  double vth0 = 0.45;       ///< zero-bias threshold (V, positive for both types)
  double lambda = 0.06;     ///< channel-length modulation (1/V)
  double n_slope = 1.35;    ///< subthreshold slope factor (also linearized body
                            ///< effect: dVth/dVsb ~ (n-1))
  double temp_k = 300.0;    ///< device temperature
  double cox_per_area = 8.6e-3;  ///< gate oxide capacitance (F/m^2)
  double cov_per_w = 3.0e-10;    ///< G-D / G-S overlap capacitance (F/m)
  double cj_per_area = 1.0e-3;   ///< junction capacitance (F/m^2)
  double diff_len = 0.48e-6;     ///< source/drain diffusion length (m)

  /// Gate-channel oxide capacitance Cox*W*L.
  double c_gate_channel() const { return cox_per_area * w * l; }
  /// Overlap capacitance per side.
  double c_overlap() const { return cov_per_w * w; }
  /// Effective gate input capacitance seen from the gate with channel formed
  /// (used to size C_REF): channel + both overlaps.
  double c_gate_input() const { return c_gate_channel() + 2.0 * c_overlap(); }
  /// Junction (drain or source to bulk) capacitance.
  double c_junction() const { return cj_per_area * w * diff_len; }
};

/// Bias-independent model constants: thermal voltage, beta = kp·W/L, the
/// EKV specific current 2·n·beta·vt² and n·vt.
struct MosConstants {
  double vt, beta, is, n_vt;
  static MosConstants of(const MosParams& p);
};

/// Channel current and its partial derivatives at one bias point.
struct MosEval {
  double ids = 0.0;  ///< drain->source channel current (n-type convention)
  double d_vg = 0.0;
  double d_vd = 0.0;
  double d_vs = 0.0;
  double d_vb = 0.0;
};

/// Evaluates the channel current for terminal voltages (absolute, any
/// reference). Exposed as a free function so the behavioral fast model and
/// tests can share the exact same I-V surface as the transient simulator.
MosEval mos_eval(const MosParams& p, double vg, double vd, double vs,
                 double vb);
/// mos_eval() with the constants already derived (MosConstants::of(p)).
MosEval mos_eval(const MosParams& p, const MosConstants& k, double vg,
                 double vd, double vs, double vb);

/// The channel current alone, bit-identical to mos_eval(p, k, ...).ids: the
/// EKV model skips the four derivatives (level-1 goes through mos_eval).
double mos_ids(const MosParams& p, const MosConstants& k, double vg,
               double vd, double vs, double vb);
/// Convenience: drain current at a given Vgs with Vds = vds, Vsb = 0.
double mos_ids(const MosParams& p, double vgs, double vds);

/// Four-terminal MOSFET device.
class Mosfet : public Device {
 public:
  Mosfet(std::string name, NodeId d, NodeId g, NodeId s, NodeId b,
         MosParams params);

  void stamp(const StampContext& ctx, MnaView& a_mat,
             std::span<double> b_vec) const override;
  /// gmin tie and the five intrinsic capacitances' companion conductances.
  void stamp_static(const StampContext& ctx, MnaView& a_mat) const override;
  void bind_companions(CompanionBank& bank) override;
  bool nonlinear() const override { return true; }
  /// Channel current (drain->source, n-type convention) at the iterate.
  double probe_current(const StampContext& ctx) const override;

  const MosParams& params() const { return p_; }
  NodeId drain() const { return d_; }
  NodeId gate() const { return g_; }
  NodeId source() const { return s_; }
  NodeId bulk() const { return b_; }

 private:
  /// Calls f(farads, a, b) for the five intrinsic capacitances in their
  /// fixed order: overlaps to S/D, channel to bulk, junctions.
  template <typename F>
  void each_cap(F&& f) const {
    f(p_.c_overlap(), g_, s_);
    f(p_.c_overlap(), g_, d_);
    f(p_.c_gate_channel(), g_, b_);
    f(p_.c_junction(), d_, b_);
    f(p_.c_junction(), s_, b_);
  }

  NodeId d_, g_, s_, b_;
  MosParams p_;
  MosConstants k_;
};

}  // namespace ecms::circuit
