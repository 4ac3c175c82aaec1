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

void StepGrid::add(double t) {
  const auto first = bps_.begin() + static_cast<std::ptrdiff_t>(next_);
  const auto it = std::lower_bound(first, bps_.end(), t);
  const bool present = (it != bps_.end() && *it - t <= kTimeEps) ||
                       (it != first && t - *(it - 1) <= kTimeEps);
  if (!present) bps_.insert(it, t);
}

StepGrid::Step StepGrid::next(double t, double dt, double t_stop) {
  for (;;) {
    const double step = std::min(dt, t_stop - t);
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
// Counts one finished transient (successful or not) into the registry.
void count_transient(const TranStats& stats, bool failed) {
  if (!obs::metrics_enabled()) return;
  ECMS_METRIC_COUNT("circuit.transient.solves", 1);
  ECMS_METRIC_COUNT("circuit.transient.accepted_steps", stats.accepted_steps);
  ECMS_METRIC_COUNT("circuit.transient.rejected_steps", stats.rejected_steps);
  if (failed) ECMS_METRIC_COUNT("circuit.transient.failures", 1);
}

void capture_checkpoint(const Circuit& ckt, double t, double dt, bool force_be,
                        const std::vector<double>& x, SparseEngine& eng,
                        SolverCheckpoint& out) {
  out.time = t;
  out.dt = dt;
  out.force_be = force_be;
  out.x = x;
  out.device_state.clear();
  ckt.save_state(out.device_state);
  out.device_count = ckt.devices().size();
  out.pivot_order = eng.pivot_program();
}

// Shared integration core. A fresh run (`resume == nullptr`) initializes
// device history from the DC operating point (or UIC zeros); a resumed run
// restores the unknown vector, step-control state and per-device history
// from the checkpoint and continues as if never interrupted.
TranResult run_transient(Circuit& ckt, const TranParams& params,
                         const ProbeSet& probes,
                         const SolverCheckpoint* resume) {
  obs::ScopedSpan span(resume ? "transient_resume" : "transient");
  ECMS_REQUIRE(params.t_stop > 0.0, "transient needs t_stop > 0");
  ECMS_REQUIRE(params.dt > 0.0 && params.dt_min > 0.0,
               "transient needs positive steps");
  const double t_start = resume ? resume->time : 0.0;
  if (resume) {
    ECMS_REQUIRE(resume->valid(), "transient_resume needs a valid checkpoint");
    ECMS_REQUIRE(params.t_stop > t_start + kTimeEps,
                 "transient_resume t_stop must lie after the checkpoint");
  }
  ckt.finalize();

  ProbeRecorder probe(ckt, probes);
  TranResult res;
  res.trace = probe.make_trace();

  std::vector<double> x;
  double dt = params.dt;
  bool force_be = params.be_after_breakpoint;  // first step from DC uses BE
  if (resume) {
    ECMS_REQUIRE(resume->x.size() == ckt.unknown_count(),
                 "checkpoint does not match this circuit (unknown count)");
    ECMS_REQUIRE(resume->device_count == ckt.devices().size(),
                 "checkpoint does not match this circuit (device count)");
    x = resume->x;
    ckt.restore_state(resume->device_state);
    if (resume->dt > 0.0) dt = resume->dt;
    if (!params.adaptive) dt = std::min(dt, params.dt);
    force_be = resume->force_be;
    ECMS_METRIC_COUNT("circuit.transient.resumes", 1);
  } else {
    // Initial condition: DC operating point at t = 0, or all-zero under UIC.
    if (params.uic) {
      x.assign(ckt.unknown_count(), 0.0);
    } else {
      DcOptions dc_opts;
      dc_opts.newton = params.newton;
      dc_opts.time = 0.0;
      DcResult dc = dc_operating_point(ckt, dc_opts);
      x = std::move(dc.x);
    }
    StampContext ctx;
    ctx.x = x;
    ctx.time = 0.0;
    ctx.dt = 0.0;
    ckt.init_state(ctx);
  }

  probe.record(res.trace, t_start, x);

  StepGrid grid(ckt.breakpoints(params.t_stop), t_start);
  if (resume && grid.starts_on_breakpoint()) {
    // The uninterrupted run applies breakpoint handling when it lands here —
    // a prefix stopping exactly on a corner never saw it (breakpoints at
    // t >= t_stop are filtered), and reprogrammed waves may have introduced
    // a new corner at the checkpoint time. Apply it now so the first resumed
    // step matches the uninterrupted one.
    force_be = params.be_after_breakpoint;
    if (params.adaptive) dt = params.dt;
  }

  // One workspace for the whole run: buffers and the frozen pattern /
  // stamp-slot caches persist across every step and Newton iteration of
  // this transient. Owned here, not shared — parallel extraction runs one
  // transient per worker, so workspaces stay per-thread. A resumed run
  // factors with the pivot order its checkpoint carries, exactly as the
  // uninterrupted run would have at this point.
  NewtonWorkspace ws;
  ws.prepare(ckt, params.newton.solver);
  SparseEngine& eng = *ws.engine();
  if (resume) eng.seed_program(resume->pivot_order);

  // Arm the checkpoint capture: a mid-run capture time becomes a breakpoint
  // so an accepted step lands exactly on it.
  double ckpt_at = params.checkpoint_at;
  const bool want_ckpt = ckpt_at >= 0.0;
  bool captured = false;
  if (want_ckpt) {
    ckpt_at = std::min(ckpt_at, params.t_stop);
    ECMS_REQUIRE(ckpt_at > t_start - kTimeEps,
                 "checkpoint_at lies before the start of this run");
    if (ckpt_at <= t_start + kTimeEps) {
      capture_checkpoint(ckt, t_start, dt, force_be, x, eng, res.checkpoint);
      captured = true;
    } else if (ckpt_at < params.t_stop - kTimeEps) {
      grid.add(ckpt_at);
    }
  }

  double t = t_start;

  // Trial iterate, hoisted out of the step loop: the copy below reuses its
  // capacity (the accept path swaps rather than moves), so steady-state
  // stepping does no per-step allocation.
  std::vector<double> x_try;

  while (t < params.t_stop - kTimeEps) {
    const StepGrid::Step next = grid.next(t, dt, params.t_stop);
    const double step = next.size;

    StampContext ctx;
    ctx.time = t + step;
    ctx.dt = step;
    ctx.method =
        force_be ? Integrator::kBackwardEuler : params.method;
    ctx.gmin = params.newton.gmin_ground;

    x_try = x;
    const NewtonResult nr = newton_solve(ckt, ctx, x_try, params.newton, ws);
    res.stats.newton_iterations += static_cast<std::size_t>(nr.iterations);

    if (!nr.converged) {
      ++res.stats.rejected_steps;
      dt *= 0.5;
      if (dt < params.dt_min) {
        SolverDiagnostics diag;
        diag.time = t;
        diag.dt = step;
        diag.last_delta = nr.final_delta;
        diag.accepted_steps = res.stats.accepted_steps;
        diag.rejected_steps = res.stats.rejected_steps;
        diag.newton_iterations = res.stats.newton_iterations;
        const std::size_t nv = ckt.node_count() - 1;
        if (nr.worst_unknown < nv) {
          diag.worst_node =
              ckt.node_name(static_cast<NodeId>(nr.worst_unknown + 1));
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
        count_transient(res.stats, /*failed=*/true);
        span.arg("failed_at_s", t);
        throw SolverError(what, std::move(diag));
      }
      continue;
    }

    // Accept. Swap keeps x_try's storage alive for the next step's copy.
    std::swap(x, x_try);
    ctx.x = x;
    ckt.accept_step(ctx);
    t += step;
    ++res.stats.accepted_steps;
    probe.record(res.trace, t, x);

    grid.accept(next);
    if (next.on_breakpoint) {
      force_be = params.be_after_breakpoint;
      if (params.adaptive) dt = params.dt;  // restart cautiously after edges
    } else {
      force_be = false;
    }
    // Geometric recovery toward the base step after halvings; with adaptive
    // stepping, easy regions (few Newton iterations) may grow past it.
    const double dt_cap =
        params.adaptive
            ? (params.dt_max > 0.0 ? params.dt_max : 8.0 * params.dt)
            : params.dt;
    if (params.adaptive && nr.iterations <= 3) {
      dt = std::min(dt_cap, dt * 1.5);
    } else if (dt < dt_cap) {
      dt = std::min(dt_cap, dt * 2.0);
    }
    if (!params.adaptive) dt = std::min(dt, params.dt);

    // Capture after step control settles, so the checkpoint holds exactly
    // the state the next loop iteration of an uninterrupted run would see.
    if (want_ckpt && !captured && t >= ckpt_at - kTimeEps) {
      capture_checkpoint(ckt, t, dt, force_be, x, eng, res.checkpoint);
      captured = true;
    }
  }

  if (want_ckpt && !captured) {
    capture_checkpoint(ckt, t, dt, force_be, x, eng, res.checkpoint);
  }

  res.final_x = std::move(x);
  count_transient(res.stats, /*failed=*/false);
  span.arg("accepted_steps", static_cast<double>(res.stats.accepted_steps));
  span.arg("newton_iters", static_cast<double>(res.stats.newton_iterations));
  ECMS_LOG(LogLevel::kDebug) << "transient: " << res.stats.accepted_steps
                             << " steps, " << res.stats.newton_iterations
                             << " newton iters";
  return res;
}
}  // namespace

TranResult transient(Circuit& ckt, const TranParams& params,
                     const ProbeSet& probes) {
  return run_transient(ckt, params, probes, nullptr);
}

TranResult transient_resume(Circuit& ckt, const SolverCheckpoint& from,
                            const TranParams& params, const ProbeSet& probes) {
  return run_transient(ckt, params, probes, &from);
}

}  // namespace ecms::circuit
