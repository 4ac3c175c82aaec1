// Transient analysis.
//
// Fixed base step with: breakpoint alignment (steps land exactly on every
// stimulus corner), step halving on Newton failure and doubling back to the
// base step once steps converge again (never past it), and a
// backward-Euler step immediately after each breakpoint to damp
// trapezoidal ringing at discontinuities.
//
// One implementation steps every scalar transient: TransientStepper, which
// can pause at any instant and continue later on the same circuit. A whole
// transient() is one advance() of a fresh stepper; the adaptive
// measurement flow (msu/extract.cpp) advances one stepper segment by
// segment, through the same flow driver that steps BatchEngine lanes.
#pragma once

#include <functional>
#include <span>
#include <string>
#include <vector>

#include "circuit/netlist.hpp"
#include "circuit/newton.hpp"
#include "circuit/waveform.hpp"

namespace ecms::circuit {

/// Time tolerance of the step grid: instants closer than this are one grid
/// point (a step landing on a breakpoint, a segment ending on a corner).
inline constexpr double kTimeEps = 1e-18;

/// The breakpoint-landing step grid of every transient, scalar or
/// lockstep: steps of the base size, shortened so one lands exactly on
/// each stimulus breakpoint. The sizes are a pure function of (breakpoints,
/// start, base step), which is what lets BatchEngine lanes share one time
/// grid and a later segment continue on the uninterrupted run's grid.
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

  /// The step from t toward t_stop with base step dt. A step that would
  /// end within kTimeEps of t_stop ends exactly on it.
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
};

/// A scalar transient that pauses between segments. It owns the solution
/// x, the step-control state (step size, pending backward-Euler step), the
/// time, the Newton workspace with its sparse engine, and the running
/// TranStats; the circuit holds the companion history. advance() follows
/// BatchEngine::advance's contract:
///
///   * one boundary sample at entry, then one per accepted step;
///   * a segment starting on a stimulus corner applies the breakpoint
///     handling the uninterrupted run applied when it landed there (the
///     previous segment never saw that corner: breakpoints at or after a
///     segment's t_stop are filtered out);
///   * the stepper keeps the loop's actual final time, not the requested
///     t_stop, so the next segment continues on the uninterrupted grid.
///
/// The engine persists across segments, pivot order included. A run split
/// into segments whose stops lie on the uninterrupted run's step grid (a
/// stimulus corner, or an off-corner instant a full base step lands on)
/// therefore takes bit-identical steps to one advance() to the end.
/// Nothing else may step the circuit in between. After advance() throws,
/// the stepper is spent.
class TransientStepper {
 public:
  using SampleFn = std::function<void(double t, std::span<const double> x)>;

  /// Starts at t = 0 from the DC operating point, or from x = 0 under
  /// params.uic, and initializes the device history. params.t_stop is not
  /// read: each advance() names its own stop.
  TransientStepper(Circuit& ckt, const TranParams& params);

  /// Continues `from` on `ckt`, a circuit of the same netlist whose
  /// stimulus agrees with from's circuit up to from.time(): takes its
  /// time, x, step control, companion history and TranStats (so its
  /// segments are resumes), with an engine of its own. When `from` factors
  /// with its program cache's published pivot order
  /// (on_published_program()) and `params` are from's, the continuation's
  /// engine adopts that order and every later step is bit-identical to
  /// what `from` would take on `ckt`'s stimulus.
  TransientStepper(Circuit& ckt, const TranParams& params,
                   const TransientStepper& from);

  /// Steps to t_stop (absolute, after time()). Throws ecms::SolverError if
  /// a step cannot be made to converge above dt_min; the exception carries
  /// SolverDiagnostics (failing time point, last step size, accepted/
  /// rejected step and Newton iteration counts, worst node).
  void advance(double t_stop, const SampleFn& on_sample);

  double time() const { return t_; }
  std::span<const double> x() const { return x_; }
  /// Counts over every segment so far.
  const TranStats& stats() const { return stats_; }
  const Circuit& circuit() const { return ckt_; }
  /// The step size the next step starts from (the base step unless a
  /// rejected step halved it).
  double step() const { return dt_; }
  /// Whether the next step is backward Euler (it follows a breakpoint).
  bool pending_backward_euler() const { return force_be_; }
  /// Whether the engine factors with the pivot order of the program it
  /// adopted or published: false with no program cache, after a re-pivot,
  /// and when a racing builder published first.
  bool on_published_program() const;

 private:
  Circuit& ckt_;
  TranParams params_;
  NewtonWorkspace ws_;
  std::vector<double> x_;
  // Trial iterate: each step's copy reuses its capacity (accept swaps
  // rather than moves), so steady-state stepping does no allocation.
  std::vector<double> x_try_;
  double t_ = 0.0;
  double dt_ = 0.0;
  bool force_be_ = false;
  std::size_t segments_ = 0;
  TranStats stats_;
};

/// Runs a transient from the DC operating point at t = 0 to params.t_stop:
/// one TransientStepper advanced once, recording `probes`. Throws
/// ecms::SolverError as advance() does. For the self-recovering entry point
/// see circuit/recovery.hpp.
TranResult transient(Circuit& ckt, const TranParams& params,
                     const ProbeSet& probes);

}  // namespace ecms::circuit
