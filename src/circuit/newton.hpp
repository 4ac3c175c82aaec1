// Damped Newton–Raphson solve of the stamped MNA system.
//
// Shared by the DC operating-point and transient solvers: both reduce each
// (time) point to "find x such that the companion-model system is
// self-consistent".
#pragma once

#include <cstddef>
#include <functional>
#include <limits>
#include <span>
#include <vector>

#include "circuit/netlist.hpp"
#include "circuit/solver.hpp"

namespace ecms::circuit {

struct NewtonOptions;

/// Optional instrumentation points consulted by newton_solve. Production
/// code leaves them unset; the fault-injection harness (ecms::fault) uses
/// them to deterministically provoke the failure modes the recovery ladder
/// exists to survive. Both hooks may be called from worker threads
/// concurrently and must be thread-safe.
struct SolveHooks {
  /// Returning true makes the solve report non-convergence immediately
  /// (simulates a Newton stall at this time point / configuration).
  std::function<bool(const StampContext&, const NewtonOptions&)> force_stall;
  /// Returning true zeroes a matrix row after assembly, so the LU
  /// factorization hits a genuinely singular system (simulates a defective
  /// stamp); exercised once per Newton iteration.
  std::function<bool(const StampContext&, const NewtonOptions&)> make_singular;
};

struct NewtonOptions {
  int max_iterations = 100;
  double tol_abs_v = 1e-6;    ///< absolute voltage tolerance (V)
  double tol_rel = 1e-9;      ///< relative tolerance on the update
  double max_delta_v = 0.5;   ///< per-iteration voltage damping clamp (V)
  double gmin_ground = 1e-12; ///< always-on conductance from every node to
                              ///< ground (keeps floating nodes nonsingular)
  /// Fault-injection / instrumentation hooks; nullptr in production. The
  /// pointee must outlive every solve that sees this options object.
  const SolveHooks* hooks = nullptr;
  /// Linear-solver configuration (the shared program cache). Rides inside
  /// NewtonOptions so it threads through TranParams / ExtractOptions to
  /// every solve without further plumbing.
  SolverConfig solver;
};

inline constexpr std::size_t kNoUnknown = std::numeric_limits<std::size_t>::max();

struct NewtonResult {
  bool converged = false;
  int iterations = 0;
  double final_delta = 0.0;  ///< max-norm of the last update's voltage part
  /// Voltage unknown with the largest last update (kNoUnknown if none) —
  /// the "worst node" reported in terminal solver diagnostics.
  std::size_t worst_unknown = kNoUnknown;
  bool singular = false;  ///< the LU factorization found a singular system
  bool stalled = false;   ///< non-convergence was forced by a hook
  /// Real factorization work done by this solve: symbolic (full Markowitz,
  /// pattern + pivot order) factorizations happen once per pattern (plus
  /// re-pivots) and numeric ones cover the rest, so the sum is at most
  /// `iterations` and typically equal to it minus the symbolic count.
  int symbolic_factorizations = 0;
  int numeric_factorizations = 0;
  /// Assembly accounting (SparseEngine): iterations served by restoring
  /// the static image, points that rebuilt its matrix, and points that
  /// kept it and re-stamped only the static RHS.
  std::size_t assemble_static_hits = 0;
  std::size_t assemble_restamps = 0;
  std::size_t assemble_rhs_restamps = 0;
};

/// Outcome of one damped Newton update (see damped_update).
struct NewtonUpdate {
  double final_delta = 0.0;  ///< largest voltage change actually applied
  /// Voltage unknown with the largest undamped change (kNoUnknown if none).
  std::size_t worst_unknown = kNoUnknown;
  bool converged = false;
};

/// The damped Newton update of every solve, scalar or lockstep: moves x to
/// x_new, scaled down so no voltage unknown (the first `nv`) moves more
/// than opts.max_delta_v, and reports convergence when the update was
/// undamped and below tol_abs_v + tol_rel * max(|x|, 1) on the voltages.
/// A non-finite final_delta means the iteration diverged.
NewtonUpdate damped_update(std::span<double> x, std::span<const double> x_new,
                           std::size_t nv, const NewtonOptions& opts);

/// Assembles the MNA system for the given context into a dense (a_mat, b):
/// the reference assembly that tests and layer probes check the solver
/// against. The matrix is resized/cleared as needed; b must already have
/// unknown_count() elements (it is zero-filled here).
void assemble(const Circuit& ckt, const StampContext& ctx, double gmin_ground,
              Matrix& a_mat, std::span<double> b);

/// Convenience overload that sizes a heap vector first.
void assemble(const Circuit& ckt, const StampContext& ctx, double gmin_ground,
              Matrix& a_mat, std::vector<double>& b_vec);

/// Runs damped NR starting from x (updated in place). `ctx_proto` supplies
/// time/dt/method/gmin/source_scale; its x span is ignored.
NewtonResult newton_solve(const Circuit& ckt, const StampContext& ctx_proto,
                          std::vector<double>& x, const NewtonOptions& opts);

/// Workspace-reusing variant: the caller owns the buffers / backend caches
/// across many solves of the same circuit (one workspace per transient or
/// DC call). The plain overload above wraps this with a throwaway
/// workspace.
NewtonResult newton_solve(const Circuit& ckt, const StampContext& ctx_proto,
                          std::vector<double>& x, const NewtonOptions& opts,
                          NewtonWorkspace& ws);

}  // namespace ecms::circuit
