#include "circuit/batch.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "circuit/sparse.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"

namespace ecms::circuit {

BatchEngine::BatchEngine(std::span<Circuit* const> lanes, const Options& opts,
                         const TransientStepper* start)
    : opts_(opts) {
  ECMS_REQUIRE(!lanes.empty(), "batch engine needs at least one lane");
  ECMS_REQUIRE(opts_.newton.hooks == nullptr,
               "batch engine does not support solve hooks (fault-injected "
               "cells run the scalar path)");
  ECMS_REQUIRE(opts_.newton.solver.program_cache != nullptr,
               "batch engine needs a program cache: the lanes share the "
               "pivot order of one published program");
  ECMS_REQUIRE(opts_.dt > 0.0, "batch engine needs a positive base step");

  // One reset up front so a reused arena starts a fresh generation before
  // any engine carves from it (and so util.arena.resets reflects the batch).
  arena_.reset();
  lu_soa_.bind(&arena_);
  pb_soa_.bind(&arena_);

  lanes[0]->finalize();
  n_ = lanes[0]->unknown_count();
  nv_ = lanes[0]->node_count() - 1;
  if (start != nullptr) {
    ECMS_REQUIRE(start->step() == opts_.dt &&
                     start->on_published_program() &&
                     start->x().size() == n_,
                 "a batch start state must be lane 0's netlist stepping the "
                 "base step on the published pivot order");
    t_ = start->time();
    force_be_ = start->pending_backward_euler();
    start_stats_ = start->stats();
    continued_ = true;
  }

  lanes_.resize(lanes.size());
  bad_rows_.assign(lanes.size(), -1);
  a_lanes_.assign(lanes.size(), nullptr);
  for (std::size_t li = 0; li < lanes.size(); ++li) {
    Lane& lane = lanes_[li];
    lane.ckt = lanes[li];
    lane.ckt->finalize();
    if (lane.ckt->unknown_count() != n_ ||
        lane.ckt->node_count() - 1 != nv_) {
      // A structurally different lane can never share the program; its
      // measurement runs scalar from scratch.
      retire(li, "lane topology differs from lane 0", /*divergence=*/false);
      continue;
    }
    lane.eng = std::make_unique<SparseEngine>(
        n_, opts_.newton.solver.program_cache, &arena_);
    lane.x_try.assign(n_, 0.0);
    lane.x_new.assign(n_, 0.0);
    if (start != nullptr) {
      lane.x.assign(start->x().begin(), start->x().end());
      lane.ckt->copy_history(start->circuit());
      lane.stats = start_stats_;
      continue;
    }
    // UIC start: x = 0 at t = 0, device history initialized from it — the
    // same initial condition every measurement flow uses (uic-only is an
    // engagement precondition enforced by the caller).
    lane.x.assign(n_, 0.0);
    StampContext ctx;
    ctx.x = lane.x;
    ctx.time = 0.0;
    ctx.dt = 0.0;
    lane.ckt->init_state(ctx);
  }
  ECMS_METRIC_COUNT("circuit.batch.lanes", lanes.size());
}

BatchEngine::~BatchEngine() = default;

std::size_t BatchEngine::active_lanes() const {
  std::size_t n = 0;
  for (const Lane& lane : lanes_) {
    if (lane.state == LaneState::kActive) ++n;
  }
  return n;
}

void BatchEngine::retire(std::size_t lane, std::string reason,
                         bool divergence) {
  Lane& L = lanes_[lane];
  if (L.state != LaneState::kActive) return;
  L.state = LaneState::kRetired;
  L.reason = std::move(reason);
  // Pending counters are dropped, not flushed: the scalar re-measurement of
  // this cell counts its own work, so flushing here would double-count.
  ECMS_METRIC_COUNT("circuit.batch.retired", 1);
  if (divergence) ECMS_METRIC_COUNT("circuit.batch.divergences", 1);
}

void BatchEngine::finish(std::size_t lane) {
  Lane& L = lanes_[lane];
  if (L.state != LaneState::kActive) return;
  flush_counters(L);
  L.state = LaneState::kFinished;
}

void BatchEngine::flush_counters(Lane& lane) {
  if (!obs::metrics_enabled()) return;
  const SparseEngine* eng = lane.eng.get();
  const std::uint64_t sym = eng ? eng->symbolic_factorizations() : 0;
  const std::uint64_t num =
      (eng ? eng->numeric_factorizations() : 0) + lane.vector_refactors;
  ECMS_METRIC_COUNT("circuit.newton.solves", lane.points);
  ECMS_METRIC_COUNT("circuit.newton.iterations", lane.iters);
  ECMS_METRIC_COUNT("circuit.newton.factorizations", sym + num);
  ECMS_METRIC_COUNT("circuit.lu.symbolic", sym);
  ECMS_METRIC_COUNT("circuit.lu.numeric", num);
  ECMS_METRIC_COUNT("circuit.assemble.static_hits",
                    eng ? eng->static_hits() : 0);
  ECMS_METRIC_COUNT("circuit.assemble.restamps",
                    eng ? eng->static_restamps() : 0);
  ECMS_METRIC_COUNT("circuit.assemble.rhs_restamps",
                    eng ? eng->rhs_restamps() : 0);
  // Each advance() this lane stepped in is the batched equivalent of one
  // scalar transient segment (all segments past the first are resumes, and
  // every one is when the lanes continue a paused stepper).
  ECMS_METRIC_COUNT("circuit.transient.solves", lane.segments);
  ECMS_METRIC_COUNT("circuit.transient.accepted_steps",
                    lane.stats.accepted_steps - start_stats_.accepted_steps);
  const std::size_t first = continued_ ? 0 : 1;
  if (lane.segments > first) {
    ECMS_METRIC_COUNT("circuit.transient.resumes", lane.segments - first);
  }
}

void BatchEngine::advance(
    double t_stop,
    const std::function<void(std::size_t, double, std::span<const double>)>&
        on_sample) {
  obs::ScopedSpan span("batch_advance");
  ECMS_REQUIRE(t_stop > t_ + kTimeEps,
               "batch advance t_stop must lie after the current time");
  span.arg("t_stop_s", t_stop);
  span.arg("lanes", static_cast<double>(active_lanes()));

  std::size_t ref = lanes_.size();
  for (std::size_t li = 0; li < lanes_.size(); ++li) {
    Lane& L = lanes_[li];
    if (L.state != LaneState::kActive) continue;
    if (ref == lanes_.size()) ref = li;
    ++L.segments;
    // Boundary sample: the first trace row a scalar segment records.
    on_sample(li, t_, L.x);
  }
  if (ref == lanes_.size()) {  // nothing left to step
    t_ = t_stop;
    return;
  }

  // The lockstep schedule is a pure function of (dt, breakpoints): lanes
  // are the same netlist with the same stimulus timing, so their breakpoint
  // sets agree. A lane that disagrees (a reprogrammed wave, an exotic
  // defect model) cannot share the time grid and is retired.
  std::vector<double> bps = lanes_[ref].ckt->breakpoints(t_stop);
  for (std::size_t li = ref + 1; li < lanes_.size(); ++li) {
    Lane& L = lanes_[li];
    if (L.state != LaneState::kActive) continue;
    if (L.ckt->breakpoints(t_stop) != bps) {
      retire(li, "breakpoint schedule differs from the batch",
             /*divergence=*/false);
    }
  }

  StepGrid grid(std::move(bps), t_);
  if (grid.starts_on_breakpoint()) {
    // TransientStepper::advance applies breakpoint handling when it starts
    // on a corner (the uninterrupted run saw it when landing here).
    force_be_ = true;
  }

  double t = t_;
  const double dt = opts_.dt;  // fixed: any lane needing a halving retires

  while (t < t_stop - kTimeEps) {
    const StepGrid::Step next = grid.next(t, dt, t_stop);
    const double step = next.size;

    StampContext proto;
    proto.time = t + step;
    proto.dt = step;
    proto.method =
        force_be_ ? Integrator::kBackwardEuler : Integrator::kTrapezoidal;
    proto.gmin = opts_.newton.gmin_ground;

    bool any = false;
    for (Lane& L : lanes_) {
      if (L.state != LaneState::kActive) continue;
      L.x_try = L.x;
      any = true;
    }
    if (!any) break;

    if (!solve_point(proto)) break;

    for (std::size_t li = 0; li < lanes_.size(); ++li) {
      Lane& L = lanes_[li];
      if (L.state != LaneState::kActive) continue;
      std::swap(L.x, L.x_try);
      StampContext actx = proto;
      actx.x = L.x;
      L.ckt->accept_step(actx);
      ++L.stats.accepted_steps;
      L.stats.newton_iterations += static_cast<std::size_t>(L.point_iters);
      ++L.points;
      L.iters += static_cast<std::size_t>(L.point_iters);
      on_sample(li, t + step, L.x);
    }
    t += step;

    grid.accept(next);
    force_be_ = next.on_breakpoint;
  }

  // Keep the loop's actual final time, not the requested target: a
  // breakpoint one ulp short of t_stop ends the segment *on* the breakpoint
  // (exactly where TransientStepper::advance stops too), and the next
  // segment must resume from that grid point or the lockstep grid drifts
  // off the uninterrupted run's by a whole step.
  t_ = t;
}

bool BatchEngine::solve_point(const StampContext& ctx_proto) {
  const std::size_t W = lanes_.size();
  for (Lane& L : lanes_) {
    if (L.state != LaneState::kActive) continue;
    L.unfinished = true;
    L.point_iters = 0;
    L.eng->begin_point();
  }

  // Scalar factor + solve through the lane's own engine — bit-identical to
  // the scalar Newton iteration by construction. Used to bootstrap the
  // shared symbolic (the publishing lane), for lanes whose private pivot
  // order diverged from it, and to re-pivot after degradation.
  auto scalar_factor_solve = [&](std::size_t li) -> bool {
    Lane& L = lanes_[li];
    try {
      L.eng->factor();
    } catch (const SolverError&) {
      // The scalar transient rejects and halves on a singular system; a
      // halved step leaves the lockstep grid.
      retire(li, "singular system", /*divergence=*/true);
      return false;
    }
    L.eng->solve(std::span<double>(L.x_new));
    ECMS_METRIC_COUNT("circuit.batch.scalar_fallbacks", 1);
    return true;
  };

  // newton_solve's damped update + convergence test, per lane over its own
  // x_new (from the lane LU or the scalar solve).
  auto newton_update = [&](std::size_t li, int iter) {
    Lane& L = lanes_[li];
    const NewtonUpdate up = damped_update(L.x_try, L.x_new, nv_, opts_.newton);
    L.point_iters = iter + 1;
    if (!std::isfinite(up.final_delta)) {
      retire(li, "non-finite newton update", /*divergence=*/true);
      return;
    }
    if (up.converged) L.unfinished = false;
  };

  // Adopts lane li's pivot order as the batch's shared symbolic and sizes
  // the SoA LU operands for it.
  auto adopt_shared = [&](std::size_t li) {
    shared_sym_ = lanes_[li].eng->lu_symbolic();
    lu_soa_.resize(shared_sym_->factor_nnz() * W);
    pb_soa_.resize(shared_sym_->n * W);
  };

  std::vector<std::size_t> vec_lanes;
  for (int iter = 0; iter < opts_.newton.max_iterations; ++iter) {
    bool pending = false;
    for (const Lane& L : lanes_) {
      pending |= (L.state == LaneState::kActive && L.unfinished);
    }
    if (!pending) break;

    vec_lanes.clear();
    std::fill(a_lanes_.begin(), a_lanes_.end(), nullptr);
    for (std::size_t li = 0; li < lanes_.size(); ++li) {
      Lane& L = lanes_[li];
      if (L.state != LaneState::kActive || !L.unfinished) continue;
      StampContext ctx = ctx_proto;
      ctx.x = L.x_try;
      L.eng->assemble(*L.ckt, ctx, opts_.newton.gmin_ground);
      if (shared_sym_ == nullptr) {
        if (L.eng->lu_symbolic() == nullptr) {
          // Cache miss: this lane compiles and publishes exactly as the
          // first scalar cell would, before any later lane assembles — so
          // the later lanes adopt it during their own discovery.
          if (!scalar_factor_solve(li)) continue;
          if (L.eng->lu_symbolic() != nullptr) adopt_shared(li);
          newton_update(li, iter);
          continue;
        }
        adopt_shared(li);
      }
      if (L.eng->lu_symbolic().get() == shared_sym_.get()) {
        vec_lanes.push_back(li);
        // The lane LU reads A straight from the lane's value array; the
        // right-hand side is gathered into SoA form while it is still hot.
        a_lanes_[li] = L.eng->matrix().values().data();
        const LuSymbolic& sy = *shared_sym_;
        const std::span<const double> b = L.eng->rhs();
        double* pb = pb_soa_.data();
        for (std::size_t i = 0; i < sy.n; ++i) {
          pb[i * W + li] = b[sy.perm_row[i]];
        }
      } else {
        // Private pivot order (publication race or an earlier re-pivot):
        // the lane stays in lockstep but solves through its own engine.
        if (scalar_factor_solve(li)) newton_update(li, iter);
      }
    }

    if (vec_lanes.empty()) continue;
    const LuSymbolic& sy = *shared_sym_;

    // The lane LU computes every one of the W columns; columns of retired /
    // scalar / finished lanes read a solving lane's values, and their
    // results are never read.
    for (const double*& a : a_lanes_) {
      if (a == nullptr) a = a_lanes_[vec_lanes.front()];
    }

    lu_refactor_lanes(sy, a_lanes_.data(), lu_soa_.data(), bad_rows_.data(),
                      W);

    // A lane whose pivot degraded re-pivots through its engine, exactly as
    // the scalar path's refactor-failure -> full-factor sequence does; its
    // new private order routes it to the scalar solve from the next
    // iteration on.
    std::size_t kept = 0;
    for (std::size_t li : vec_lanes) {
      if (bad_rows_[li] >= 0) {
        ECMS_METRIC_COUNT("circuit.batch.divergences", 1);
        if (scalar_factor_solve(li)) newton_update(li, iter);
        continue;
      }
      ++lanes_[li].vector_refactors;
      vec_lanes[kept++] = li;
    }
    vec_lanes.resize(kept);
    if (vec_lanes.empty()) continue;

    lu_solve_lanes(sy, lu_soa_.data(), pb_soa_.data(), W);

    for (std::size_t li : vec_lanes) {
      Lane& L = lanes_[li];
      const double* pb = pb_soa_.data();
      for (std::size_t j = 0; j < sy.n; ++j) {
        L.x_new[sy.perm_col[j]] = pb[j * W + li];
      }
      newton_update(li, iter);
    }
  }

  bool any = false;
  for (std::size_t li = 0; li < lanes_.size(); ++li) {
    Lane& L = lanes_[li];
    if (L.state != LaneState::kActive) continue;
    if (L.unfinished) {
      // The scalar transient would reject this step and halve — off-grid.
      retire(li, "newton did not converge on the lockstep grid",
             /*divergence=*/true);
      continue;
    }
    any = true;
  }
  return any;
}

}  // namespace ecms::circuit
