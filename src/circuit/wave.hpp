// Time-domain stimulus descriptions for independent sources.
//
// A SourceWave is a pure function of time plus the list of its corner times
// ("breakpoints") so the transient solver can land a timestep exactly on
// every edge. StepRamp models the paper's shift-register-driven programmable
// current source I_REFP: a staircase of `steps` equal increments.
#pragma once

#include <atomic>
#include <cstddef>
#include <vector>

namespace ecms::circuit {

/// Piecewise-linear waveform point.
struct PwlPoint {
  double t;
  double v;
};

/// Time-domain source description. Value before the first point / after the
/// last point is clamped (SPICE PWL semantics).
class SourceWave {
 public:
  /// Constant value for all time.
  static SourceWave dc(double value);

  /// Piecewise-linear; points must be strictly increasing in t.
  static SourceWave pwl(std::vector<PwlPoint> points);

  /// Staircase ramp: 0 before `t_start`, then `steps` increments of
  /// `delta` every `step_duration`, holding the final value. Each riser has
  /// a finite `rise` time so the waveform is continuous.
  static SourceWave step_ramp(double t_start, double step_duration,
                              double delta, int steps, double rise);

  /// Single pulse: `low` outside [t_rise_start, t_fall_end], `high` inside,
  /// with linear edges of duration `edge`.
  static SourceWave pulse(double low, double high, double t_on, double t_off,
                          double edge);

  /// Instantaneous value at time t. Consecutive calls usually fall in the
  /// same segment (a transient walks forward in time), so the segment last
  /// found is tried before the binary search.
  double value(double t) const;

  /// Times at which the derivative is discontinuous (transient solver
  /// breakpoints), strictly increasing.
  const std::vector<double>& breakpoints() const { return breakpoints_; }

  /// The internal PWL representation (every wave kind lowers to one).
  /// A single point means a DC source.
  const std::vector<PwlPoint>& points() const { return points_; }

  /// For a step_ramp, the index of the step active at time t (0 before the
  /// first riser completes, `steps` at the top). For other kinds, 0.
  int ramp_step_at(double t) const;

 private:
  SourceWave() = default;

  // The segment value() last used: a relaxed-atomic hint (any reader of a
  // const wave may move it), copied with the wave.
  struct Hint : std::atomic<std::size_t> {
    Hint() : atomic(0) {}
    Hint(const Hint& o) : atomic(o.load(std::memory_order_relaxed)) {}
    Hint& operator=(const Hint& o) {
      store(o.load(std::memory_order_relaxed), std::memory_order_relaxed);
      return *this;
    }
  };

  std::vector<PwlPoint> points_;  // always represented as PWL internally
  mutable Hint hint_;
  std::vector<double> breakpoints_;
  // Ramp metadata (valid when is_ramp_)
  bool is_ramp_ = false;
  double ramp_t0_ = 0.0, ramp_dt_ = 0.0, ramp_rise_ = 0.0;
  int ramp_steps_ = 0;
};

}  // namespace ecms::circuit
