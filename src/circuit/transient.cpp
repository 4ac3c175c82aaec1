#include "circuit/transient.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "circuit/dc.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/log.hpp"

namespace ecms::circuit {

StepGrid::StepGrid(std::vector<double> bps, double t_start)
    : bps_(std::move(bps)) {
  while (next_ < bps_.size() && bps_[next_] <= t_start + kTimeEps) {
    if (bps_[next_] >= t_start - kTimeEps) start_on_bp_ = true;
    ++next_;
  }
}

StepGrid::Step StepGrid::next(double t, double dt, double t_stop) {
  for (;;) {
    // A stop within kTimeEps of a base step is reached exactly, as a
    // breakpoint is: a segment ending on a corner then lands where the
    // uninterrupted run does instead of a few ulps short of it.
    const double step = t + dt >= t_stop - kTimeEps ? t_stop - t : dt;
    if (next_ >= bps_.size() || t + step < bps_[next_] - kTimeEps) {
      return {step, false};
    }
    const double to_bp = bps_[next_] - t;
    if (to_bp > kTimeEps) return {to_bp, true};
    ++next_;  // already on this breakpoint
  }
}

ProbeRecorder::ProbeRecorder(const Circuit& ckt, const ProbeSet& probes) {
  for (const auto& n : probes.nodes) {
    nodes_.push_back(ckt.find_node(n));
    channels_.push_back(n);
  }
  for (const auto& dn : probes.device_currents) {
    const Device* d = ckt.find(dn);
    if (d == nullptr) throw NetlistError("no device named " + dn);
    devices_.push_back(d);
    channels_.push_back("I(" + dn + ")");
  }
  row_.reserve(channels_.size());
}

void ProbeRecorder::record(Trace& trace, double t, std::span<const double> x) {
  StampContext ctx;
  ctx.x = x;
  ctx.time = t;
  row_.clear();
  for (NodeId n : nodes_) row_.push_back(ctx.v(n));
  for (const Device* d : devices_) row_.push_back(d->probe_current(ctx));
  trace.append(t, row_);
}

namespace {
// Counts one finished segment (successful or not) into the registry: a
// segment is a transient solve, and every segment past a stepper's first
// continues an earlier one.
void count_segment(const TranStats& seg, bool resumed, bool failed) {
  if (!obs::metrics_enabled()) return;
  ECMS_METRIC_COUNT("circuit.transient.solves", 1);
  if (resumed) ECMS_METRIC_COUNT("circuit.transient.resumes", 1);
  ECMS_METRIC_COUNT("circuit.transient.accepted_steps", seg.accepted_steps);
  ECMS_METRIC_COUNT("circuit.transient.rejected_steps", seg.rejected_steps);
  if (failed) ECMS_METRIC_COUNT("circuit.transient.failures", 1);
}

TranStats minus(const TranStats& a, const TranStats& b) {
  return {a.accepted_steps - b.accepted_steps,
          a.rejected_steps - b.rejected_steps,
          a.newton_iterations - b.newton_iterations};
}
}  // namespace

TransientStepper::TransientStepper(Circuit& ckt, const TranParams& params)
    : ckt_(ckt), params_(params) {
  ECMS_REQUIRE(params.dt > 0.0 && params.dt_min > 0.0,
               "transient needs positive steps");
  ckt_.finalize();
  dt_ = params.dt;
  force_be_ = params.be_after_breakpoint;  // first step from DC uses BE
  // Initial condition: DC operating point at t = 0, or all-zero under UIC.
  if (params.uic) {
    x_.assign(ckt_.unknown_count(), 0.0);
  } else {
    DcOptions dc_opts;
    dc_opts.newton = params.newton;
    dc_opts.time = 0.0;
    DcResult dc = dc_operating_point(ckt_, dc_opts);
    x_ = std::move(dc.x);
  }
  StampContext ctx;
  ctx.x = x_;
  ctx.time = 0.0;
  ctx.dt = 0.0;
  ckt_.init_state(ctx);
  // One workspace for every segment: buffers, the frozen pattern /
  // stamp-slot caches and the pivot order persist across every step and
  // Newton iteration of this stepper. Owned here, not shared — parallel
  // extraction runs one transient per worker, so workspaces stay
  // per-thread.
  ws_.prepare(ckt_, params.newton.solver);
}

TransientStepper::TransientStepper(Circuit& ckt, const TranParams& params,
                                   const TransientStepper& from)
    : ckt_(ckt),
      params_(params),
      x_(from.x_),
      t_(from.t_),
      dt_(from.dt_),
      force_be_(from.force_be_),
      segments_(from.segments_),
      stats_(from.stats_) {
  ECMS_REQUIRE(params.dt == from.params_.dt,
               "a continued transient keeps its base step");
  ckt_.finalize();
  ECMS_REQUIRE(ckt_.unknown_count() == x_.size(),
               "a continued transient needs the same netlist");
  ckt_.copy_history(from.ckt_);
  ws_.prepare(ckt_, params.newton.solver);
}

bool TransientStepper::on_published_program() const {
  const SparseEngine* eng = ws_.engine();
  return eng != nullptr && eng->on_published_program();
}

void TransientStepper::advance(double t_stop, const SampleFn& on_sample) {
  obs::ScopedSpan span("transient_segment");
  ECMS_REQUIRE(t_stop > t_ + kTimeEps,
               "transient t_stop must lie after the current time");
  const TranParams& params = params_;
  const bool resumed = segments_++ > 0;
  const TranStats at_entry = stats_;
  span.arg("t_stop_s", t_stop);

  on_sample(t_, x_);

  StepGrid grid(ckt_.breakpoints(t_stop), t_);
  if (grid.starts_on_breakpoint()) {
    // The uninterrupted run applied breakpoint handling when it landed
    // here; a segment that stopped on this corner never saw it
    // (breakpoints at t >= t_stop are filtered). Apply it now so the first
    // step of this segment matches the uninterrupted one.
    force_be_ = params.be_after_breakpoint;
  }

  // Step-control state in locals for the loop; written back on return.
  double t = t_;
  double dt = dt_;
  bool force_be = force_be_;

  while (t < t_stop - kTimeEps) {
    const StepGrid::Step next = grid.next(t, dt, t_stop);
    const double step = next.size;

    StampContext ctx;
    ctx.time = t + step;
    ctx.dt = step;
    ctx.method =
        force_be ? Integrator::kBackwardEuler : params.method;
    ctx.gmin = params.newton.gmin_ground;

    x_try_ = x_;
    const NewtonResult nr = newton_solve(ckt_, ctx, x_try_, params.newton, ws_);
    stats_.newton_iterations += static_cast<std::size_t>(nr.iterations);

    if (!nr.converged) {
      ++stats_.rejected_steps;
      dt *= 0.5;
      if (dt < params.dt_min) {
        SolverDiagnostics diag;
        diag.time = t;
        diag.dt = step;
        diag.last_delta = nr.final_delta;
        diag.accepted_steps = stats_.accepted_steps;
        diag.rejected_steps = stats_.rejected_steps;
        diag.newton_iterations = stats_.newton_iterations;
        const std::size_t nv = ckt_.node_count() - 1;
        if (nr.worst_unknown < nv) {
          diag.worst_node =
              ckt_.node_name(static_cast<NodeId>(nr.worst_unknown + 1));
        }
        std::string what = "transient step at t=" + std::to_string(t) +
                           " failed to converge above dt_min (last dt=" +
                           std::to_string(step) +
                           ", accepted=" + std::to_string(diag.accepted_steps) +
                           ", rejected=" + std::to_string(diag.rejected_steps) +
                           ", newton iters=" +
                           std::to_string(diag.newton_iterations);
        if (nr.singular) what += ", singular system";
        if (nr.stalled) what += ", stalled by fault injection";
        if (!diag.worst_node.empty()) {
          what += ", worst node '" + diag.worst_node +
                  "' last dv=" + std::to_string(diag.last_delta);
        }
        what += ")";
        count_segment(minus(stats_, at_entry), resumed, /*failed=*/true);
        span.arg("failed_at_s", t);
        throw SolverError(what, std::move(diag));
      }
      continue;
    }

    // Accept. Swap keeps x_try_'s storage alive for the next step's copy.
    std::swap(x_, x_try_);
    ctx.x = x_;
    ckt_.accept_step(ctx);
    t += step;
    ++stats_.accepted_steps;
    on_sample(t, x_);

    grid.accept(next);
    force_be = next.on_breakpoint && params.be_after_breakpoint;
    // Geometric recovery toward the base step after halvings.
    dt = std::min(params.dt, dt * 2.0);
  }

  // Keep the loop's actual final time: a breakpoint one ulp short of
  // t_stop ends the segment on the breakpoint, and the next segment must
  // continue from that grid point.
  t_ = t;
  dt_ = dt;
  force_be_ = force_be;
  const TranStats seg = minus(stats_, at_entry);
  count_segment(seg, resumed, /*failed=*/false);
  span.arg("accepted_steps", static_cast<double>(seg.accepted_steps));
  span.arg("newton_iters", static_cast<double>(seg.newton_iterations));
  ECMS_LOG(LogLevel::kDebug) << "transient segment: " << seg.accepted_steps
                             << " steps, " << seg.newton_iterations
                             << " newton iters";
}

TranResult transient(Circuit& ckt, const TranParams& params,
                     const ProbeSet& probes) {
  obs::ScopedSpan span("transient");
  ProbeRecorder probe(ckt, probes);
  TranResult res;
  res.trace = probe.make_trace();
  TransientStepper stepper(ckt, params);
  stepper.advance(params.t_stop, [&](double t, std::span<const double> x) {
    probe.record(res.trace, t, x);
  });
  res.stats = stepper.stats();
  res.final_x.assign(stepper.x().begin(), stepper.x().end());
  return res;
}

}  // namespace ecms::circuit
