// Closed-form (behavioral) model of the measurement flow.
//
// The circuit-level path (sequencer + transient solver) is the reference;
// this model reproduces its code decisions from the charge-sharing equations
// so that array-scale analog bitmaps are cheap. It shares the exact same
// device equations (circuit::mos_eval) and derives every parasitic from the
// same geometry the netlister uses, and is cross-validated against the
// circuit path in the integration tests (agreement within one code step).
//
// Physics. Step 2 charges Cm *and* everything else hanging on the plate to
// VDD; step 4 shares that charge with C_REF (the REF gate):
//     V_GS = VDD * (Cm + Coffset) / (Cm + Coffset + Cref_side).
// Coffset ("plate offset") has three parts:
//   * fixed plate routing capacitance and the structure's own junctions;
//   * every cell on an UNSELECTED row: its capacitor in series with the
//     floating storage node's parasitics (~0.3 fF each);
//   * every OTHER cell on the TARGET row: its word line is necessarily on
//     (it is the target's word line), so its capacitor couples to its
//     floating bit line — series(Cs, C_bl_float), several fF each. This is
//     a real second-order effect of the paper's flow (the plate is never
//     loaded by "Cm only"); the abacus calibrates the constant part away,
//     and the variable part (neighbour-capacitance dependence) is attenuated
//     by (C_bl/(Cs+C_bl))^2.
// Step 5 compares REF's sink current I(V_GS) at VDS = VDD/2 against a
// staircase k * delta_i:
//     code = min(floor(I(V_GS) / delta_i), ramp_steps).
// delta_i is pinned so the spec-window top maps to the final code; code 0
// therefore means "below measurable range" exactly as in the paper.
#pragma once

#include <vector>

#include "edram/macrocell.hpp"
#include "msu/structure.hpp"
#include "util/rng.hpp"

namespace ecms::msu {

/// Optional measurement non-idealities for Monte-Carlo studies.
struct MeasureNoise {
  bool enabled = false;
  double comparator_sigma_i = 0.0;  ///< rms current-comparison error (A)
  double vgs_sigma = 0.0;           ///< rms charge-sharing voltage noise (V)
};

/// Immutable after construction (set_vgs_correction aside): every code_*
/// query is const with no hidden caches, so one FastModel may be read from
/// many ThreadPool workers concurrently — the contract the parallel tiled
/// extraction relies on. Noise draws go through the caller-supplied Rng,
/// which must not be shared across threads (use Rng::fork per task).
///
/// Cost model, for an R x C macro-cell: the constructor fills every table a
/// query reads — per-cell row-coupling terms, measured capacitances and short
/// flags, and one base offset per target row — in O(R^2 C) adds vectorized
/// across rows. plate_offset() is then one O(C) pass over the target row,
/// and a code_* query adds one REF current evaluation. Each sum adds the
/// same terms in the same order as a direct per-cell evaluation, so codes
/// do not depend on how the tables are built.
class FastModel {
 public:
  /// Takes the macro-cell by value: move a temporary (a tile) in.
  FastModel(edram::MacroCell mc, const StructureParams& p);

  // --- derived design quantities ---
  /// Plate offset capacitance for the reference target cell (0,0) — what the
  /// calibration sweep carries along with Cm.
  double reference_offset() const { return ref_offset_; }
  /// Plate offset for an arbitrary target cell.
  double plate_offset(std::size_t r, std::size_t c) const;
  /// Capacitance on the receiving (REF gate) side of the share (F).
  double cref_side() const { return cref_side_; }
  /// Ramp LSB (A).
  double delta_i() const { return delta_i_; }
  /// Full-scale ramp current (A).
  double i_max() const { return delta_i_ * steps_; }
  int ramp_steps() const { return steps_; }
  /// Floating bit-line capacitance of a column (used by the row coupling).
  double floating_bitline_cap() const { return cbl_float_; }

  // --- model equations ---
  /// V_GS after sharing, for an effective capacitance at the reference cell.
  double vgs_of_cap(double cm_eff) const;
  /// REF sink current at the comparison point (VDS = VDD/2).
  double ref_current(double vgs) const;
  /// Digital code for an effective capacitance at the reference cell.
  int code_of_cap(double cm_eff) const;
  /// Code with optional noise injection.
  int code_of_cap(double cm_eff, const MeasureNoise& noise, Rng& rng) const;

  /// Code for a specific cell, applying its defect electrically
  /// (short -> 0, open -> residual fringe, partial -> scaled,
  /// bridge -> the bridged pair is measured together) and its own
  /// target-row plate offset.
  int code_of_cell(std::size_t r, std::size_t c) const;
  int code_of_cell(std::size_t r, std::size_t c, const MeasureNoise& noise,
                   Rng& rng) const;

  /// Effective plate-visible capacitance of a cell (defect-aware; what the
  /// structure actually measures, excluding the plate offset).
  double measured_cap_of_cell(std::size_t r, std::size_t c) const;

  /// Capacitance (at the reference cell) where the code transitions from
  /// k-1 to k (numeric inverse; k in [1, ramp_steps]). Negative if the
  /// boundary lies below zero capacitance.
  double cap_at_code_boundary(int k) const;

  const edram::MacroCell& macro_cell() const { return mc_; }
  const StructureParams& params() const { return params_; }

  /// Additive V_GS correction (V) fitted against circuit-level extractions
  /// (switch feedthrough and injection losses the closed form does not
  /// carry). Setting it re-derives the auto-designed ramp LSB so full scale
  /// stays pinned to the spec-window top. See msu::calibrate_fast_model().
  void set_vgs_correction(double volts);
  double vgs_correction() const { return vgs_correction_; }

 private:
  double vgs_of_total(double total_charged_cap) const;
  /// Gate-drain overlap coupling of the rising sense node into V_GS at the
  /// decision point (sense = VDD/2).
  double miller_boost(double total_charged_cap) const;
  /// REF current at the flip decision, including the Miller correction.
  double decision_current(double total_charged_cap) const;
  int code_of_vgs_current(double i) const;
  /// Code for a total plate-charged capacitance with noise injected.
  int noisy_code(double total, const MeasureNoise& noise, Rng& rng) const;
  /// Row-major index of a cell; throws when out of range.
  std::size_t index(std::size_t r, std::size_t c) const;

  edram::MacroCell mc_;  // held by value: the model must outlive any
                         // temporary the caller constructed it from
  StructureParams params_;
  circuit::MosParams ref_params_;
  circuit::MosConstants ref_k_{};
  double cref_side_ = 0.0;
  double cbl_float_ = 0.0;
  /// Offset excluding the target row (structure + unselected rows), per row.
  std::vector<double> base_;
  /// Per cell: what it adds to the offset when another cell of its row is
  /// the target (coupling through its floating bit line).
  std::vector<double> row_term_;
  /// Per cell: measured_cap_of_cell().
  std::vector<double> measured_;
  /// Per cell: a short, which reads code 0 without a comparison.
  std::vector<char> shorted_;
  double ref_offset_ = 0.0;
  double delta_i_ = 0.0;
  double vgs_correction_ = 0.0;
  bool auto_ramp_ = false;
  int steps_ = 0;
};

/// Auto-designed full-scale ramp current: the REF current at the V_GS
/// produced by the spec-window top at the reference cell.
double design_ramp_imax(const edram::MacroCell& mc, const StructureParams& p);

}  // namespace ecms::msu
