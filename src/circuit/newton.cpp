#include "circuit/newton.hpp"

#include <algorithm>
#include <cmath>

#include "obs/metrics.hpp"
#include "util/error.hpp"
#include "util/log.hpp"

namespace ecms::circuit {

void assemble(const Circuit& ckt, const StampContext& ctx, double gmin_ground,
              Matrix& a_mat, std::span<double> b) {
  const std::size_t n = ckt.unknown_count();
  ECMS_REQUIRE(b.size() == n, "assemble: rhs has wrong size");
  if (a_mat.rows() != n) a_mat.resize(n, n);
  a_mat.clear();
  std::vector<double> b_static(n + 1, 0.0);
  ckt.stamp_static_rhs(ctx, b_static);
  std::copy(b_static.begin() + 1, b_static.end(), b.begin());
  MnaView view(a_mat);
  for (const auto& d : ckt.devices()) {
    d->stamp_static(ctx, view);
    d->stamp(ctx, view, b);
  }
  // Floating-node safety net: every node leaks to ground through gmin_ground.
  const std::size_t nv = ckt.node_count() - 1;
  for (std::size_t i = 0; i < nv; ++i) a_mat.at(i, i) += gmin_ground;
}

void assemble(const Circuit& ckt, const StampContext& ctx, double gmin_ground,
              Matrix& a_mat, std::vector<double>& b_vec) {
  b_vec.resize(ckt.unknown_count());
  assemble(ckt, ctx, gmin_ground, a_mat, std::span<double>(b_vec));
}

NewtonUpdate damped_update(std::span<double> x, std::span<const double> x_new,
                           std::size_t nv, const NewtonOptions& opts) {
  NewtonUpdate up;
  double max_dv = 0.0, max_x = 0.0;  // over the voltages, x before the move
  for (std::size_t i = 0; i < nv; ++i) {
    const double dv = std::abs(x_new[i] - x[i]);
    if (dv > max_dv) {
      max_dv = dv;
      up.worst_unknown = i;
    }
    max_x = std::max(max_x, std::abs(x[i]));
  }
  // Voltage-part damping: branch currents are left free.
  double scale = 1.0;
  if (max_dv > opts.max_delta_v) scale = opts.max_delta_v / max_dv;
  for (std::size_t i = 0; i < x.size(); ++i) x[i] += scale * (x_new[i] - x[i]);

  up.final_delta = max_dv * scale;
  up.converged = scale == 1.0 &&
                 max_dv < opts.tol_abs_v + opts.tol_rel * std::max(max_x, 1.0);
  return up;
}

namespace {

// Per-solve outcome accounting, shared by every return path of
// newton_solve_impl. With symbolic/numeric factorization reuse,
// factorizations no longer equal iterations: the legacy factorizations
// counter reports the sum of the real symbolic and numeric counts.
void count_solve(const NewtonResult& res) {
  if (!obs::metrics_enabled()) return;
  ECMS_METRIC_COUNT("circuit.newton.solves", 1);
  ECMS_METRIC_COUNT("circuit.newton.iterations", res.iterations);
  ECMS_METRIC_COUNT("circuit.newton.factorizations",
                    res.symbolic_factorizations + res.numeric_factorizations);
  ECMS_METRIC_COUNT("circuit.lu.symbolic", res.symbolic_factorizations);
  ECMS_METRIC_COUNT("circuit.lu.numeric", res.numeric_factorizations);
  ECMS_METRIC_COUNT("circuit.assemble.static_hits", res.assemble_static_hits);
  ECMS_METRIC_COUNT("circuit.assemble.restamps", res.assemble_restamps);
  ECMS_METRIC_COUNT("circuit.assemble.rhs_restamps",
                    res.assemble_rhs_restamps);
  ECMS_METRIC_OBSERVE("circuit.newton.iterations_per_solve", res.iterations);
  if (res.singular) ECMS_METRIC_COUNT("circuit.newton.singular", 1);
  if (res.stalled) ECMS_METRIC_COUNT("circuit.newton.stalled", 1);
  if (!res.converged) ECMS_METRIC_COUNT("circuit.newton.nonconverged", 1);
}

NewtonResult newton_solve_impl(const Circuit& ckt,
                               const StampContext& ctx_proto,
                               std::vector<double>& x,
                               const NewtonOptions& opts,
                               NewtonWorkspace& ws) {
  const std::size_t n = ckt.unknown_count();
  ECMS_REQUIRE(x.size() == n, "newton_solve: x has wrong size");
  const std::size_t nv = ckt.node_count() - 1;

  ws.prepare(ckt, opts.solver);
  SparseEngine& eng = *ws.engine();
  NewtonResult res;
  // Engine counters are cumulative across the workspace lifetime; snapshot
  // them so the result reports this solve's share.
  const std::uint64_t sym0 = eng.symbolic_factorizations();
  const std::uint64_t num0 = eng.numeric_factorizations();
  const std::uint64_t hit0 = eng.static_hits();
  const std::uint64_t rst0 = eng.static_restamps();
  const std::uint64_t rhs0 = eng.rhs_restamps();
  auto finalize = [&]() {
    res.symbolic_factorizations =
        static_cast<int>(eng.symbolic_factorizations() - sym0);
    res.numeric_factorizations =
        static_cast<int>(eng.numeric_factorizations() - num0);
    res.assemble_static_hits =
        static_cast<std::size_t>(eng.static_hits() - hit0);
    res.assemble_restamps =
        static_cast<std::size_t>(eng.static_restamps() - rst0);
    res.assemble_rhs_restamps =
        static_cast<std::size_t>(eng.rhs_restamps() - rhs0);
    return res;
  };

  if (opts.hooks != nullptr && opts.hooks->force_stall &&
      opts.hooks->force_stall(ctx_proto, opts)) {
    res.stalled = true;
    return finalize();
  }

  eng.begin_point();

  for (int iter = 0; iter < opts.max_iterations; ++iter) {
    StampContext ctx = ctx_proto;
    ctx.x = x;
    eng.assemble(ckt, ctx, opts.gmin_ground);
    if (opts.hooks != nullptr && opts.hooks->make_singular &&
        opts.hooks->make_singular(ctx, opts)) {
      eng.zero_row(0);
    }
    try {
      eng.factor();
    } catch (const SolverError&) {
      res.converged = false;
      res.singular = true;
      res.iterations = iter + 1;
      return finalize();
    }
    eng.solve(ws.x_new.span());
    const NewtonUpdate up = damped_update(x, ws.x_new.span(), nv, opts);
    if (up.worst_unknown != kNoUnknown) res.worst_unknown = up.worst_unknown;
    res.iterations = iter + 1;
    res.final_delta = up.final_delta;
    if (!std::isfinite(res.final_delta)) {
      res.converged = false;
      return finalize();
    }
    if (up.converged) {
      res.converged = true;
      return finalize();
    }
  }
  res.converged = false;
  ECMS_LOG(LogLevel::kDebug) << "newton: no convergence after "
                             << res.iterations
                             << " iters, last dv=" << res.final_delta;
  return finalize();
}

}  // namespace

NewtonResult newton_solve(const Circuit& ckt, const StampContext& ctx_proto,
                          std::vector<double>& x, const NewtonOptions& opts,
                          NewtonWorkspace& ws) {
  const NewtonResult res = newton_solve_impl(ckt, ctx_proto, x, opts, ws);
  count_solve(res);
  return res;
}

NewtonResult newton_solve(const Circuit& ckt, const StampContext& ctx_proto,
                          std::vector<double>& x, const NewtonOptions& opts) {
  NewtonWorkspace ws;
  return newton_solve(ckt, ctx_proto, x, opts, ws);
}

}  // namespace ecms::circuit
