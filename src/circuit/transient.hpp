// Transient analysis.
//
// Fixed base step with: breakpoint alignment (steps land exactly on every
// stimulus corner), step halving on Newton failure with geometric recovery,
// and a backward-Euler step immediately after each breakpoint to damp
// trapezoidal ringing at discontinuities.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "circuit/netlist.hpp"
#include "circuit/newton.hpp"
#include "circuit/waveform.hpp"

namespace ecms::circuit {

/// Time tolerance of the step grid: instants closer than this are one grid
/// point (a step landing on a breakpoint, a checkpoint at a corner).
inline constexpr double kTimeEps = 1e-18;

/// The breakpoint-landing step grid of every transient, scalar or
/// lockstep: steps of the base size, shortened so one lands exactly on
/// each stimulus breakpoint. The sizes are a pure function of (breakpoints,
/// start, base step), which is what lets BatchEngine lanes share one time
/// grid and a resumed segment continue on the uninterrupted run's grid.
class StepGrid {
 public:
  struct Step {
    double size = 0.0;
    bool on_breakpoint = false;  ///< the step ends exactly on a breakpoint
  };

  /// `bps` ascending; breakpoints at or before t_start are already passed.
  StepGrid(std::vector<double> bps, double t_start);

  /// Whether t_start itself sat on a breakpoint.
  bool starts_on_breakpoint() const { return start_on_bp_; }

  /// Adds a breakpoint at t (after t_start) unless one already lies within
  /// kTimeEps of it.
  void add(double t);

  /// The step from t toward t_stop with base step dt.
  Step next(double t, double dt, double t_stop);

  /// Records an accepted step (moves past the breakpoint it landed on).
  void accept(const Step& step) {
    if (step.on_breakpoint) ++next_;
  }

 private:
  std::vector<double> bps_;
  std::size_t next_ = 0;
  bool start_on_bp_ = false;
};

/// Complete solver state at one accepted time point: everything needed to
/// continue the integration bit-identically in a later transient_resume()
/// call — possibly after the circuit's source waves have been reprogrammed
/// (the intended use: simulate an expensive stimulus prefix once, then
/// branch many cheap continuations off the snapshot).
///
/// A checkpoint is tied to the Circuit it was captured from: the unknown
/// vector and the companion history blob are validated against the
/// circuit's unknown/device counts on resume, but the caller is responsible
/// for not mutating the topology in between.
struct SolverCheckpoint {
  double time = -1.0;   ///< capture time (s); < 0 marks "not captured"
  double dt = 0.0;      ///< step size the next step would have used
  bool force_be = false;  ///< next step forced to backward Euler?
  std::vector<double> x;             ///< unknown vector at `time`
  std::vector<double> device_state;  ///< Circuit::save_state (companion history)
  std::size_t device_count = 0;
  /// The topology and pivot order the capturing engine was factoring with
  /// (null if it had not factored yet). Markowitz derives its pivot order
  /// from the first values it factors, so a resumed engine deriving its own
  /// from checkpoint-time values would differ from the uninterrupted run in
  /// the last ulp; adopting this one keeps the resume bit-exact with the
  /// program cache off and after mid-run re-pivots.
  std::shared_ptr<const NetlistProgram> pivot_order;

  bool valid() const { return time >= 0.0 && !x.empty(); }
};

struct TranParams {
  double t_stop = 0.0;
  double dt = 10e-12;          ///< base step
  double dt_min = 1e-15;       ///< refuse to halve below this
  Integrator method = Integrator::kTrapezoidal;
  NewtonOptions newton;
  bool be_after_breakpoint = true;
  /// Use initial conditions (SPICE .tran UIC): skip the DC operating point
  /// and start from x = 0 (all nodes grounded). This is the physically right
  /// start for measurement flows whose first step discharges everything, and
  /// it avoids the DC ambiguity of floating dynamic nodes (which otherwise
  /// settle in a leakage/gmin divider).
  bool uic = false;
  /// Opt-in step growth: when Newton converges in few iterations the step
  /// may grow up to dt_max (still clipped to every stimulus breakpoint).
  /// Off by default so result timing is bit-stable for calibration.
  bool adaptive = false;
  double dt_max = 0.0;  ///< cap for adaptive growth; 0 = 8x the base step
  /// When >= 0, capture a SolverCheckpoint into TranResult::checkpoint at
  /// this time (clamped to t_stop). A mid-run capture time is added to the
  /// breakpoint set so a step lands exactly on it; times that already sit on
  /// a stimulus corner (or on t_stop) therefore leave the trajectory
  /// untouched. Negative (the default) disables capture.
  double checkpoint_at = -1.0;
};

/// What to record. Node and device probes are looked up by name at start.
struct ProbeSet {
  std::vector<std::string> nodes;            ///< node voltages
  std::vector<std::string> device_currents;  ///< Device::probe_current()
};

/// A ProbeSet resolved against one circuit: the trace channels (nodes
/// first, then "I(<device>)" entries) and the row each sample appends.
/// The circuit must outlive the recorder.
class ProbeRecorder {
 public:
  /// Throws NetlistError for an unknown node or device name.
  ProbeRecorder(const Circuit& ckt, const ProbeSet& probes);

  /// An empty trace with this recorder's channels.
  Trace make_trace() const { return Trace(channels_); }
  /// Appends the probed values of solution x at time t to `trace`.
  void record(Trace& trace, double t, std::span<const double> x);

 private:
  std::vector<NodeId> nodes_;
  std::vector<const Device*> devices_;
  std::vector<std::string> channels_;
  std::vector<double> row_;
};

struct TranStats {
  std::size_t accepted_steps = 0;
  std::size_t rejected_steps = 0;
  std::size_t newton_iterations = 0;
};

struct TranResult {
  Trace trace;       ///< channels: nodes first, then "I(<device>)" entries
  TranStats stats;
  std::vector<double> final_x;  ///< final unknown vector
  /// Captured when params.checkpoint_at >= 0 (see SolverCheckpoint::valid()).
  SolverCheckpoint checkpoint;
};

/// Runs a transient from the DC operating point at t = 0. Throws
/// ecms::SolverError if a step cannot be made to converge above dt_min; the
/// exception carries SolverDiagnostics (failing time point, last step size,
/// accepted/rejected step and Newton iteration counts, worst node). For the
/// self-recovering entry point see circuit/recovery.hpp.
TranResult transient(Circuit& ckt, const TranParams& params,
                     const ProbeSet& probes);

/// Continues a transient from a checkpoint previously captured on the same
/// circuit. `params.t_stop` is absolute and must lie after `from.time`; the
/// probe set may differ from the capturing run's. The trace starts with a
/// sample at the checkpoint time, stats count only the resumed segment, and
/// `params.checkpoint_at` may be set to capture again. Source waves may have
/// been reprogrammed since capture — stepping follows the circuit's current
/// breakpoints — but the topology (unknown and device counts) must be
/// unchanged, which is validated. The resumed engine factors with
/// `from.pivot_order`, so an uninterrupted run and a capture-at-breakpoint
/// + resume pair take bit-identical steps.
TranResult transient_resume(Circuit& ckt, const SolverCheckpoint& from,
                            const TranParams& params, const ProbeSet& probes);

}  // namespace ecms::circuit
