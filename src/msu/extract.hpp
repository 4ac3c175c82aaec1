// Circuit-level extraction: build macro-cell + structure, program the
// five-step flow, run the transient, and interpret OUT into a digital code.
// This is the reproduction of the paper's validation methodology (SPICE
// simulation of the full mixed-signal schematic).
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "circuit/recovery.hpp"
#include "circuit/transient.hpp"
#include "edram/macrocell.hpp"
#include "msu/sequencer.hpp"
#include "msu/structure.hpp"
#include "util/retry.hpp"
#include "util/status.hpp"

namespace ecms::msu {

/// The ramp flow every measurement runs by default: the charge/share
/// prefix, then the real I_REFP staircase one ramp level per transient
/// segment, stopping at the end of the level where OUT crosses VDD/2 (the
/// tail to t_end when it never does). Nothing after the flip is read: on
/// chip the shift register latches the step count there. Every segment
/// continues the one transient, so codes, flip times and the prefix
/// readings are bit-identical to the whole-window run.
struct AdaptiveOptions {
  /// false: simulate the whole 50 ns window (the exhaustive reference).
  bool enabled = true;
};

/// What the stop-at-flip flow did for one cell.
struct AdaptiveReport {
  bool attempted = false;  ///< the flow was enabled for this cell
  bool used = false;       ///< the flow decided the code
  /// The whole-window transient (with the recovery ladder) decided the
  /// code instead: a segment failed to converge, OUT was already high
  /// before the ramp, or fault injection was armed.
  bool fell_back = false;
  std::string fallback_reason;
  /// Ramp segments simulated after the prefix: one per level checked,
  /// plus the tail when OUT never flipped.
  int probes = 0;
};

struct ExtractOptions {
  double dt = 20e-12;  ///< transient base step
  /// Record full waveforms (plate, V_GS, sense, OUT, I_REFP) in the result.
  bool record_trace = true;
  /// Ramp LSB to program (A). 0 = derive from the (uncalibrated) FastModel
  /// design for this macro-cell. Pass a calibrated model's delta_i() to
  /// close the design loop (see msu::calibrate_fast_model).
  double delta_i = 0.0;
  /// Newton configuration for the measurement transient; `newton.hooks` is
  /// the fault-injection point of the circuit-level path.
  circuit::NewtonOptions newton = {};
  /// Self-recovery on non-convergence (see circuit/recovery.hpp). Enabled
  /// by default: rung 0 is the unmodified solve, so results of healthy
  /// cells are unchanged and concessions are paid only on failure.
  circuit::RecoveryOptions recovery = {};
  /// Stop the transient at the end of the ramp level where OUT flips (on
  /// by default; see AdaptiveOptions). A recorded trace then ends there.
  AdaptiveOptions adaptive = {};
};

struct ExtractionResult {
  int code = 0;  ///< 0..ramp_steps: digital image of the capacitance
  std::optional<double> t_out_rise;  ///< OUT rising-edge time, if it flipped
  double v_plate_charged = 0.0;      ///< plate voltage at the end of step 2
  double vgs_shared = 0.0;           ///< V_GS at the end of step 4
  double delta_i = 0.0;              ///< ramp LSB used
  Schedule schedule;
  circuit::Trace trace;  ///< channels: plate, msu_vgs, msu_sense, msu_out,
                         ///< I(I_REFP), up to where the transient stopped —
                         ///< empty if record_trace is false
  circuit::TranStats stats;
  /// kOk, or kRecovered when the transient needed the recovery ladder.
  CellStatus status = CellStatus::kOk;
  circuit::RecoveryReport recovery;  ///< what the ladder did, if anything
  AdaptiveReport adaptive;           ///< what the stop-at-flip flow did
  /// Accepted transient steps spent in flow steps 1-4 (discharge through
  /// charge sharing), i.e. before the ramp; the remainder is the cost of
  /// the conversion step, which stopping at the flip shortens.
  std::size_t prefix_steps = 0;
  /// The transient continued the macro-cell's shared step-1 run
  /// (extract_array) instead of simulating step 1 itself; `stats` and
  /// `prefix_steps` count those steps all the same.
  bool shared_discharge = false;
  std::size_t conversion_steps() const {
    return stats.accepted_steps > prefix_steps
               ? stats.accepted_steps - prefix_steps
               : 0;
  }
};

/// Whole-array circuit-level extraction with per-cell containment: cells
/// whose solve fails even after the recovery ladder come back as
/// kUnmeasurable placeholders instead of aborting the run.
struct RobustExtraction {
  std::vector<ExtractionResult> results;  ///< row-major, one per cell
  std::vector<CellStatus> status;         ///< row-major
  FailureReport report;
  /// Steps of the shared step-1 run the cells continued (0: none ran).
  std::size_t discharge_steps = 0;
};

/// How an array-level circuit extraction should run: one struct carrying
/// the timing, per-cell solver options (dt / newton / recovery / adaptive),
/// retry budget and containment policy. This is the per-tile engine behind
/// the unified ecms::extraction API.
struct ExtractPlan {
  MeasurementTiming timing = {};
  ExtractOptions options = {.dt = 20e-12, .record_trace = false};
  /// Per-cell attempt budget before the cell is declared unmeasurable.
  util::RetryPolicy retry = {.max_attempts = 1};
  /// When false, the first unmeasurable cell aborts the run instead of
  /// degrading to a kUnmeasurable placeholder.
  bool contain = true;
  /// Code recorded for unmeasurable placeholders (clamped to the ramp).
  int unmeasurable_code = 0;
  /// Optional per-attempt hook called as hook(row, col, attempt) right
  /// before each cell's measurement; throwing marks the attempt failed
  /// (the fault-injection point, see ecms::fault::CellFaultPlan).
  std::function<void(std::size_t, std::size_t, int)> cell_hook = {};
  /// Lockstep batch width (DESIGN.md §14): 1 = scalar per-cell measurement
  /// (default), 0 = auto (16 lanes), N >= 2 = exactly N lanes. Only engages
  /// when the plan is batchable (no solve hooks, a shared program cache);
  /// otherwise the scalar path runs regardless. Batched results are
  /// bit-identical to the scalar path by construction.
  int batch_width = 1;
};

/// Whether `plan` can run on the lockstep batch path at all: no solve hooks
/// (fault injection runs scalar) and a shared program cache (lanes share
/// one pivot order only through a published program).
bool batch_engageable(const ExtractPlan& plan);

/// Lane count for a requested ExtractPlan::batch_width (0 = auto, 16
/// lanes; otherwise the request).
std::size_t resolved_batch_width(int batch_width);

/// Measures every cell of the macro-cell at transistor level under `plan`
/// (one transient per cell — the hardware would do exactly this, 50 ns per
/// cell). Results are row-major; the ramp LSB is designed once for the
/// whole array unless plan.options.delta_i is set. Batched plans measure
/// row-major chunks of cells in lockstep (circuit::BatchEngine) and
/// re-measure any lane that leaves the batch on the scalar path.
///
/// Step 1 of the flow does not depend on the target cell
/// (Schedule::t_discharge_end), so when the plan is batch_engageable and
/// the cells continue a stepper (lockstep lanes, or the scalar adaptive
/// flow) it is simulated once per call and every cell starts from it
/// (counted as msu.discharge.{runs,shared_cells}). Results are
/// bit-identical to extract_cell's either way, step counts included; a
/// step-1 run that rejected a step or re-pivoted is not shared.
RobustExtraction extract_array(const edram::MacroCell& mc,
                               const StructureParams& params,
                               const ExtractPlan& plan);

/// Measures cell (row, col) of `mc` at transistor level. The ramp LSB is
/// taken from the FastModel design for this macro-cell and `params`.
ExtractionResult extract_cell(const edram::MacroCell& mc, std::size_t row,
                              std::size_t col, const StructureParams& params,
                              const MeasurementTiming& timing = {},
                              const ExtractOptions& options = {});

}  // namespace ecms::msu
