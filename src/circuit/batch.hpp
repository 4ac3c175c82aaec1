// BatchEngine: lockstep Newton/transient driver for K cells sharing one
// NetlistProgram (DESIGN.md §14).
//
// Every cell of an array tile is the same netlist with different element
// values, so after the first cell publishes its compiled program (pattern,
// stamp tapes, pivot order) all K cells can be advanced through the same
// time grid together: per-lane node voltages and per-lane CSR value arrays
// in structure-of-arrays form, one shared stamp-slot tape, and one numeric
// refactorization / triangular solve across all lanes. That LU is
// lu_refactor_lanes / lu_solve_lanes (sparse.hpp), the same template
// SparseLu::refactor / solve_in_place instantiate for one lane, so a lane's
// LU arithmetic is the scalar engine's by construction. Device evaluation
// and stamping stay scalar per lane through each lane's own SparseEngine —
// exactly the scalar assembly path, so tape divergence detection,
// static-image reuse and program-cache accounting are inherited rather than
// re-implemented.
//
// Identity: with a fixed base step and no rejected steps, the transient's
// StepGrid is value-independent — time points are a pure function of (dt,
// breakpoints) — so lanes genuinely share one (t, step, force_be)
// sequence. Per-lane Newton damping and convergence decisions run
// newton_solve's own damped_update over the SoA results.
// Anything that would make a lane's scalar trajectory diverge from the
// lockstep grid (a rejected step, pivot degradation, a non-finite update,
// tape divergence, a private pivot order that later disagrees) retires the
// lane: the caller re-measures it on the scalar path from scratch, which by
// construction reproduces what an all-scalar run would have produced. Lanes
// that complete here are bit-identical to the scalar sparse path.
//
// Counters: circuit.batch.{lanes,retired,divergences,scalar_fallbacks} plus
// per-lane equivalents of the scalar solver counters (newton/lu/assemble/
// transient), flushed only for lanes that complete — a retired lane's
// partial work is dropped so its scalar re-measurement counts once. Lanes
// started from a paused stepper flush only the steps they simulated.
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "circuit/netlist.hpp"
#include "circuit/newton.hpp"
#include "circuit/transient.hpp"
#include "util/arena.hpp"

namespace ecms::circuit {

class BatchEngine {
 public:
  /// Lanes step as TranParams' defaults do: trapezoidal, with a
  /// backward-Euler step from t = 0 and after every breakpoint.
  struct Options {
    double dt = 20e-12;    ///< fixed base step (never halved)
    NewtonOptions newton;  ///< solver.program_cache required
  };

  enum class LaneState {
    kActive,    ///< stepping in lockstep
    kFinished,  ///< trajectory decided by the caller; state frozen
    kRetired,   ///< left the batch; re-measure on the scalar path
  };

  /// Binds K lanes starting from the UIC initial condition (x = 0 at t = 0,
  /// device history initialized), the start every measurement flow uses,
  /// or, given `start`, from that paused stepper's state: every lane takes
  /// its time, x, pending backward-Euler step, companion history and
  /// TranStats, as a TransientStepper continuing it would. `start` must
  /// be lane 0's netlist, step opts.dt and factor with its cache's
  /// published pivot order, and each lane's stimulus must agree with its
  /// circuit's up to its time. All lanes must have identical unknown/node
  /// counts; a mismatched lane is retired immediately. Requires a program
  /// cache in opts.newton.solver (the shared-compilation precondition) and
  /// no solve hooks (fault injection runs scalar).
  BatchEngine(std::span<Circuit* const> lanes, const Options& opts,
              const TransientStepper* start = nullptr);
  ~BatchEngine();
  BatchEngine(const BatchEngine&) = delete;
  BatchEngine& operator=(const BatchEngine&) = delete;

  LaneState state(std::size_t lane) const { return lanes_[lane].state; }
  bool active(std::size_t lane) const {
    return lanes_[lane].state == LaneState::kActive;
  }
  /// Why a retired lane left the batch (empty for other states).
  const std::string& retire_reason(std::size_t lane) const {
    return lanes_[lane].reason;
  }
  /// The lane's counts over every segment so far, a start state's
  /// included (a lane never rejects a step: a step it cannot take retires
  /// it).
  const TranStats& stats(std::size_t lane) const {
    return lanes_[lane].stats;
  }
  std::size_t active_lanes() const;

  /// Marks a lane's trajectory decided: it stops stepping (and its pending
  /// solver counters are flushed), but keeps its accepted state.
  void finish(std::size_t lane);

  /// Retires a lane from the batch: its pending counters are dropped and
  /// the caller must re-measure the cell on the scalar path. The engine
  /// calls this itself on any lockstep deviation; callers use it when a
  /// higher-level policy (e.g. an adaptive-scheduler fallback) would send
  /// the scalar path down a different flow. `divergence` marks numerical
  /// causes (counted as circuit.batch.divergences).
  void retire(std::size_t lane, std::string reason, bool divergence = false);

  /// Advances every active lane in lockstep to t_stop on the transient's
  /// StepGrid (breakpoint landing, post-breakpoint backward Euler, fixed
  /// base step). `on_sample(lane, t, x)` fires per active lane once at
  /// entry — the boundary sample a TransientStepper segment records — and
  /// once per accepted step. Lanes that cannot keep lockstep are
  /// retired, never stalled.
  void advance(double t_stop,
               const std::function<void(std::size_t, double,
                                        std::span<const double>)>& on_sample);

 private:
  struct Lane {
    Circuit* ckt = nullptr;
    std::unique_ptr<SparseEngine> eng;
    std::vector<double> x, x_try, x_new;
    LaneState state = LaneState::kActive;
    std::string reason;
    TranStats stats;
    std::size_t segments = 0;  ///< advance() calls this lane stepped in
    // Point-solve scratch.
    bool unfinished = false;  ///< still iterating this point
    int point_iters = 0;
    // Pending per-lane obs counters, flushed on completion only.
    std::size_t points = 0;
    std::size_t iters = 0;
    std::size_t vector_refactors = 0;
  };

  void flush_counters(Lane& lane);
  /// One lockstep Newton point over all unfinished lanes; retires lanes
  /// that fail. Returns false when no lane is left active.
  bool solve_point(const StampContext& ctx_proto);

  Options opts_;
  std::size_t n_ = 0;   ///< unknowns per lane
  std::size_t nv_ = 0;  ///< voltage unknowns per lane
  std::vector<Lane> lanes_;
  util::Arena arena_;
  std::shared_ptr<const LuSymbolic> shared_sym_;
  // Per lane: the CSR value array the lane LU reads A from.
  std::vector<const double*> a_lanes_;
  // SoA LU operands, [position * width + lane].
  util::ArenaBuf<double> lu_soa_, pb_soa_;
  std::vector<long> bad_rows_;  ///< per lane: first degraded pivot row or -1
  double t_ = 0.0;
  bool force_be_ = true;  ///< the first step from t = 0 is backward Euler
  // A start state's counts: the lanes inherit them, the counters flush
  // only what the lanes simulated.
  TranStats start_stats_;
  bool continued_ = false;  ///< started from a paused stepper
};

}  // namespace ecms::circuit
