#include "layers.hpp"

#include <algorithm>
#include <filesystem>
#include <functional>
#include <memory>
#include <vector>

#include "campaign/store.hpp"
#include "campaign/supervisor.hpp"
#include "circuit/batch.hpp"
#include "circuit/kernels.hpp"
#include "circuit/matrix.hpp"
#include "circuit/newton.hpp"
#include "circuit/solver.hpp"
#include "circuit/transient.hpp"
#include "edram/netlister.hpp"
#include "harness.hpp"
#include "msu/fastmodel.hpp"
#include "msu/sequencer.hpp"
#include "msu/structure.hpp"

namespace perfbench {

namespace {

using namespace ecms;

/// Mean microseconds per call: repeats `fn` for at least 20 ms and at
/// least 5 calls so timer resolution never dominates.
double time_us(const std::function<void()>& fn) {
  const auto t0 = Clock::now();
  std::size_t n = 0;
  while (n < 5 || seconds_since(t0) < 0.02) {
    fn();
    ++n;
  }
  return 1e6 * seconds_since(t0) / static_cast<double>(n);
}

/// One cell's measurement circuit (array + structure), programmed exactly as
/// msu::extract_cell programs it.
struct MeasurementCircuit {
  circuit::Circuit ckt;
  msu::Schedule schedule;

  MeasurementCircuit(const edram::MacroCell& mc, std::size_t row,
                     std::size_t col, double delta_i) {
    const msu::StructureParams params;
    const edram::ArrayNet array = edram::build_array(ckt, mc);
    const msu::StructureNet net =
        msu::build_structure(ckt, array.plate, mc.tech(), params);
    schedule = msu::program_measurement(ckt, array, net, mc, row, col,
                                        delta_i, params);
  }
};

constexpr double kDt = 20e-12;  // ExtractOptions' default base step

}  // namespace

void probe_circuit(const edram::MacroCell& mc, std::size_t row,
                   std::size_t col, double delta_i, LayerMetrics& out) {
  const circuit::NewtonOptions newton;  // library defaults, solver included
  std::vector<double> asm_us, fac_us, sol_us, point_us;

  // States along one flow: end of the charge step, mid charge-sharing, and
  // a quarter into the ramp. Each is reached by a transient on a fresh
  // circuit, which leaves the device histories at that point.
  const MeasurementCircuit proto(mc, row, col, delta_i);
  const msu::Schedule& s = proto.schedule;
  const double step = (s.t_ramp_start - s.t_share);
  for (const double t :
       {s.t_charge_end, s.t_share + 0.5 * step,
        s.t_ramp_start + 0.25 * (s.t_end - s.t_ramp_start)}) {
    MeasurementCircuit m(mc, row, col, delta_i);
    circuit::TranParams tp;
    tp.t_stop = t;
    tp.dt = kDt;
    tp.uic = true;
    const circuit::TranResult tr = circuit::transient(m.ckt, tp, {});
    const std::vector<double> x0 = tr.final_x;
    const std::size_t n = m.ckt.unknown_count();

    circuit::StampContext ctx;
    ctx.x = x0;
    ctx.time = t + kDt;
    ctx.dt = kDt;
    const double gmin = newton.gmin_ground;

    if (circuit::resolve_solver_kind(newton.solver, n) ==
        circuit::SolverKind::kDense) {
      circuit::Matrix a;
      std::vector<double> b, xd, scratch;
      circuit::LuFactorization lu;
      circuit::assemble(m.ckt, ctx, gmin, a, b);
      lu.refactor(a);
      asm_us.push_back(time_us([&] { circuit::assemble(m.ckt, ctx, gmin, a, b); }));
      fac_us.push_back(time_us([&] { lu.refactor(a); }));
      sol_us.push_back(time_us([&] {
        xd.assign(b.begin(), b.end());
        lu.solve_in_place(xd, scratch);
      }));
    } else {
      circuit::SparseEngine eng(n, newton.solver.program_cache);
      eng.begin_point();
      eng.assemble(m.ckt, ctx, gmin);
      eng.factor();
      std::vector<double> xs(n, 0.0);
      asm_us.push_back(time_us([&] { eng.assemble(m.ckt, ctx, gmin); }));
      fac_us.push_back(time_us([&] { eng.factor(); }));
      sol_us.push_back(time_us([&] { eng.solve(xs); }));
    }

    circuit::NewtonWorkspace ws;
    std::vector<double> x;
    point_us.push_back(time_us([&] {
      x = x0;
      circuit::newton_solve(m.ckt, ctx, x, newton, ws);
    }));
  }
  out["circuit.assemble_us"] = median(asm_us);
  out["circuit.factor_us"] = median(fac_us);
  out["circuit.solve_us"] = median(sol_us);
  out["circuit.newton_point_us"] = median(point_us);

  std::vector<double> tran_ms;
  for (int rep = 0; rep < 3; ++rep) {
    MeasurementCircuit m(mc, row, col, delta_i);
    circuit::TranParams tp;
    tp.t_stop = m.schedule.t_end;
    tp.dt = kDt;
    tp.uic = true;
    const auto t0 = Clock::now();
    circuit::transient(m.ckt, tp, {});
    tran_ms.push_back(1e3 * seconds_since(t0));
  }
  out["circuit.transient_ms"] = median(tran_ms);
}

void probe_batch(const edram::MacroCell& tile, double delta_i,
                 LayerMetrics& out) {
  const std::size_t width =
      std::min(circuit::kernels::preferred_width(), tile.cell_count());
  std::vector<std::unique_ptr<MeasurementCircuit>> cells;
  std::vector<circuit::Circuit*> lanes;
  for (std::size_t k = 0; k < width; ++k) {
    cells.push_back(std::make_unique<MeasurementCircuit>(
        tile, k / tile.cols(), k % tile.cols(), delta_i));
    lanes.push_back(&cells.back()->ckt);
  }
  const msu::Schedule& s = cells.front()->schedule;
  circuit::BatchEngine::Options bo;
  bo.dt = kDt;
  circuit::BatchEngine eng(
      std::span<circuit::Circuit* const>(lanes.data(), lanes.size()), bo);

  // The segments the adaptive batched extraction advances through: the
  // charge/share prefix, each ramp level, then the tail.
  std::vector<double> seg_ms;
  const auto none = [](std::size_t, double, std::span<const double>) {};
  auto advance = [&](double t_stop) {
    const auto t0 = Clock::now();
    eng.advance(t_stop, none);
    seg_ms.push_back(1e3 * seconds_since(t0));
  };
  advance(s.t_ramp_start);
  const double level =
      msu::MeasurementTiming{}.step / static_cast<double>(s.ramp_steps);
  for (int k = 1; k <= s.ramp_steps && eng.active_lanes() > 0; ++k)
    advance(s.t_ramp_start + k * level);
  if (eng.active_lanes() > 0) advance(s.t_end);
  double sum = 0.0;
  for (const double v : seg_ms) sum += v;
  out["circuit.batch_advance_ms"] = sum / static_cast<double>(seg_ms.size());
}

void probe_fastmodel(const edram::MacroCell& mc, LayerMetrics& out) {
  constexpr std::size_t kTile = 4;
  const double us = time_us([&] {
    for (std::size_t r0 = 0; r0 < mc.rows(); r0 += kTile) {
      for (std::size_t c0 = 0; c0 < mc.cols(); c0 += kTile) {
        const edram::MacroCell tile = mc.tile(r0, c0, kTile, kTile);
        const msu::FastModel model(tile, {});
        for (std::size_t r = 0; r < kTile; ++r)
          for (std::size_t c = 0; c < kTile; ++c) (void)model.code_of_cell(r, c);
      }
    }
  });
  out["msu.fastmodel_us_per_cell"] = us / static_cast<double>(mc.cell_count());
}

void probe_campaign(campaign::CampaignConfig cfg,
                    const std::string& scratch_dir, LayerMetrics& out) {
  cfg.dir = scratch_dir + "/campaign-probe";
  std::filesystem::remove_all(cfg.dir);
  const auto pass0 = Clock::now();
  campaign::run_campaign(cfg);
  const double pass_s = seconds_since(pass0);

  constexpr std::size_t kSample = 32;
  const std::uint64_t total = cfg.space.total();
  std::vector<campaign::UnitRecord> recs;
  std::vector<double> unit_ms;
  const std::uint64_t n = std::min<std::uint64_t>(kSample, total);
  for (std::uint64_t k = 0; k < n; ++k) {
    const auto t0 = Clock::now();
    recs.push_back(campaign::measure_unit(cfg, k * total / n));
    unit_ms.push_back(1e3 * seconds_since(t0));
  }
  out["campaign.measure_unit_ms"] = median(unit_ms);

  campaign::ResultStore::Meta meta;
  meta.space = cfg.space;
  meta.config_hash = cfg.config_hash();
  meta.campaign_seed = cfg.seed;
  const std::string probe_path = scratch_dir + "/probe.store";
  std::vector<double> commit_us;
  {
    campaign::ResultStore store = campaign::ResultStore::create(probe_path, meta);
    for (const campaign::UnitRecord& r : recs) {
      const auto t0 = Clock::now();
      store.append(r);
      store.commit();
      commit_us.push_back(1e6 * seconds_since(t0));
    }
  }
  std::filesystem::remove(probe_path);
  out["campaign.commit_us"] = median(commit_us);

  const campaign::ResultStore full =
      campaign::ResultStore::open_for_resume(cfg.store_path(), meta);
  const std::string compact_path = scratch_dir + "/probe.compact";
  std::vector<double> compact_ms;
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = Clock::now();
    full.write_compact(compact_path);
    compact_ms.push_back(1e3 * seconds_since(t0));
  }
  std::filesystem::remove(compact_path);
  std::filesystem::remove_all(cfg.dir);
  out["campaign.compact_ms"] = median(compact_ms);
  out["campaign.supervisor_overhead_frac"] = std::max(
      0.0, 1.0 - static_cast<double>(total) * median(unit_ms) / 1e3 /
                     (cfg.workers * pass_s));
}

double counter(const obs::MetricsSnapshot& snap, const char* name) {
  const auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0.0 : static_cast<double>(it->second);
}

void circuit_counters(const obs::MetricsSnapshot& snap, double cells,
                      LayerMetrics& out) {
  auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  const double steps = counter(snap, "circuit.transient.accepted_steps");
  const double hits = counter(snap, "circuit.program.hits");
  const double misses = counter(snap, "circuit.program.misses");
  out["circuit.steps_per_cell"] = ratio(steps, cells);
  out["circuit.newton_iters_per_step"] =
      ratio(counter(snap, "circuit.newton.iterations"), steps);
  out["circuit.lu_numeric_per_cell"] =
      ratio(counter(snap, "circuit.lu.numeric"), cells);
  out["circuit.lu_symbolic"] = counter(snap, "circuit.lu.symbolic");
  out["circuit.program_hit_ratio"] = ratio(hits, hits + misses);
  out["circuit.batch_retire_ratio"] =
      ratio(counter(snap, "circuit.batch.retired") +
                counter(snap, "circuit.batch.scalar_fallbacks"),
            counter(snap, "circuit.batch.lanes"));
}

}  // namespace perfbench
