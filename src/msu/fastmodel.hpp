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
/// Two halves: a Shape holds what every plate of one geometry shares (device
/// constants, the floating bit line at the plate's row count, the structure
/// params), Tables what one plate's cells contribute. Shape::build, the one
/// table builder, reads a rectangular window of an array: the constructor
/// runs it on the whole array, and the tiled fast extraction makes one Shape
/// per request and builds each tile's window into task-local Tables — no
/// tile copy, no per-tile FastModel.
///
/// Cost model, for an R x C plate: build fills each cell's row-coupling term,
/// load, measured capacitance and short flag, and one base offset per target
/// row, in O(R^2 C) adds vectorized across rows. plate_offset() is one O(C)
/// pass over the target row, and a code_* query adds one current-only REF
/// evaluation (circuit::mos_ids). Each sum adds the same terms in the same
/// order as a direct per-cell evaluation, so codes do not depend on how the
/// tables are built, or on a tile being a copy or a window.
class FastModel {
 public:
  /// What code queries read about one plate's cells, row-major.
  struct Tables {
    struct Cell {
      /// What the cell adds to the plate offset when another cell of its
      /// row is the target (coupling through its floating bit line)...
      double row_term;
      double load;      ///< ...and when its row is unselected
      double measured;  ///< measured_cap_of_cell()
      bool shorted;     ///< a short reads code 0
    };
    /// Per target row: the offset off that row (structure + other rows).
    std::vector<double> base;
    std::vector<Cell> cells;
    double ref_offset = 0.0;  ///< plate offset of target cell (0, 0)
    double delta_i = 0.0;     ///< ramp LSB designed for this plate
  };

  /// The constants of rows x cols plates of one array under one set of
  /// structure params, and the model equations that read them.
  class Shape {
   public:
    Shape(const edram::MacroCell& array, std::size_t rows, std::size_t cols,
          const StructureParams& p);

    /// Fills `out` for the plate at (r0, c0) of `array` (the array the shape
    /// was made from): bit for bit FastModel(array.tile(r0, c0, rows, cols)).
    void build(const edram::MacroCell& array, std::size_t r0, std::size_t c0,
               Tables& out) const;

    double plate_offset(const Tables& t, std::size_t r, std::size_t c) const;
    /// Code of cell (r, c) of a plate; with noise, drawn from *rng, when
    /// `noise` is given and enabled.
    int code_of_cell(const Tables& t, std::size_t r, std::size_t c,
                     const MeasureNoise* noise = nullptr,
                     Rng* rng = nullptr) const;
    /// Code for a total plate-charged capacitance, noise as above.
    int code_of_total(double total_charged_cap, double delta_i,
                      const MeasureNoise* noise = nullptr,
                      Rng* rng = nullptr) const;

    double vgs_of_total(double total_charged_cap) const;
    /// REF current at the flip decision, including the Miller correction.
    double decision_current(double total_charged_cap) const;
    double ref_current(double vgs) const;
    /// The ramp LSB of a plate whose reference offset is `ref_offset`.
    double design_delta_i(double ref_offset) const;

    double cref_side() const { return cref_side_; }
    double floating_bitline_cap() const { return cbl_float_; }
    const StructureParams& params() const { return params_; }

    /// Row-major index of a cell; throws when out of range.
    std::size_t index(std::size_t r, std::size_t c) const;

   private:
    friend class FastModel;  // owns the V_GS correction
    /// Gate-drain overlap coupling of the rising sense node into V_GS at the
    /// decision point (sense = VDD/2).
    double miller_boost(double total_charged_cap) const;

    StructureParams params_;
    std::size_t rows_, cols_;
    double vdd_;
    circuit::MosParams ref_params_;
    circuit::MosConstants ref_k_{};
    double cref_side_, cbl_float_;
    double c_stor_par_;   ///< storage node of a cell whose access is off
    double plate_fixed_;  ///< plate routing + the structure's junctions
    double vgs_correction_ = 0.0;
  };

  /// Takes the macro-cell by value: move a temporary in.
  FastModel(edram::MacroCell mc, const StructureParams& p);

  // --- derived design quantities ---
  /// Plate offset capacitance for the reference target cell (0,0) — what the
  /// calibration sweep carries along with Cm.
  double reference_offset() const { return tables_.ref_offset; }
  /// Plate offset for an arbitrary target cell.
  double plate_offset(std::size_t r, std::size_t c) const {
    return shape_.plate_offset(tables_, r, c);
  }
  /// Capacitance on the receiving (REF gate) side of the share (F).
  double cref_side() const { return shape_.cref_side(); }
  /// Ramp LSB (A).
  double delta_i() const { return tables_.delta_i; }
  /// Full-scale ramp current (A).
  double i_max() const { return tables_.delta_i * ramp_steps(); }
  int ramp_steps() const { return params().ramp_steps; }
  /// Floating bit-line capacitance of a column (used by the row coupling).
  double floating_bitline_cap() const { return shape_.floating_bitline_cap(); }

  // --- model equations ---
  /// V_GS after sharing, for an effective capacitance at the reference cell.
  double vgs_of_cap(double cm_eff) const;
  /// REF sink current at the comparison point (VDS = VDD/2).
  double ref_current(double vgs) const { return shape_.ref_current(vgs); }
  /// Digital code for an effective capacitance at the reference cell.
  int code_of_cap(double cm_eff) const;
  /// Code with optional noise injection.
  int code_of_cap(double cm_eff, const MeasureNoise& noise, Rng& rng) const {
    if (!noise.enabled) return code_of_cap(cm_eff);
    return shape_.code_of_total(cm_eff + reference_offset(), delta_i(), &noise,
                                &rng);
  }

  /// Code for a specific cell, applying its defect electrically
  /// (short -> 0, open -> residual fringe, partial -> scaled,
  /// bridge -> the bridged pair is measured together) and its own
  /// target-row plate offset.
  int code_of_cell(std::size_t r, std::size_t c) const {
    return shape_.code_of_cell(tables_, r, c);
  }
  int code_of_cell(std::size_t r, std::size_t c, const MeasureNoise& noise,
                   Rng& rng) const {
    return shape_.code_of_cell(tables_, r, c, &noise, &rng);
  }

  /// Effective plate-visible capacitance of a cell (defect-aware; what the
  /// structure actually measures, excluding the plate offset).
  double measured_cap_of_cell(std::size_t r, std::size_t c) const {
    return tables_.cells[shape_.index(r, c)].measured;
  }

  /// Capacitance (at the reference cell) where the code transitions from
  /// k-1 to k (numeric inverse; k in [1, ramp_steps]). Negative if the
  /// boundary lies below zero capacitance.
  double cap_at_code_boundary(int k) const;

  const edram::MacroCell& macro_cell() const { return mc_; }
  const StructureParams& params() const { return shape_.params(); }

  /// Additive V_GS correction (V) fitted against circuit-level extractions
  /// (switch feedthrough and injection losses the closed form does not
  /// carry). Setting it re-derives the auto-designed ramp LSB so full scale
  /// stays pinned to the spec-window top. See msu::calibrate_fast_model().
  void set_vgs_correction(double volts);
  double vgs_correction() const { return shape_.vgs_correction_; }

 private:
  edram::MacroCell mc_;  // held by value: the model must outlive any
                         // temporary the caller constructed it from
  Shape shape_;
  Tables tables_;
};

/// Auto-designed full-scale ramp current: the REF current at the V_GS
/// produced by the spec-window top at the reference cell.
double design_ramp_imax(const edram::MacroCell& mc, const StructureParams& p);

}  // namespace ecms::msu
