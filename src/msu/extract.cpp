#include "msu/extract.hpp"

#include <algorithm>
#include <memory>
#include <span>
#include <stdexcept>
#include <utility>

#include "circuit/batch.hpp"
#include "circuit/kernels.hpp"
#include "circuit/sources.hpp"
#include "edram/netlister.hpp"
#include "msu/fastmodel.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/log.hpp"

namespace ecms::msu {

namespace {

// Builds cell (row, col)'s measurement netlist into `ckt` — the whole
// macro-cell array plus the MSU — programs the five-step flow for it, and
// starts `res` with the schedule and ramp LSB. Every measurement, scalar
// or lockstep lane, simulates one of these.
StructureNet build_cell(circuit::Circuit& ckt, const edram::MacroCell& mc,
                        std::size_t row, std::size_t col,
                        const StructureParams& params,
                        const MeasurementTiming& timing, double delta_i,
                        ExtractionResult& res) {
  const edram::ArrayNet array = edram::build_array(ckt, mc);
  StructureNet msu = build_structure(ckt, array.plate, mc.tech(), params);
  res.delta_i = delta_i;
  res.schedule = program_measurement(ckt, array, msu, mc, row, col, delta_i,
                                     params, timing);
  return msu;
}

// The channels of a full measurement trace.
circuit::ProbeSet cell_probes(const StructureNet& msu) {
  circuit::ProbeSet probes;
  probes.nodes = {"plate", "msu_vgs", "msu_sense", "msu_out"};
  probes.device_currents = {msu.irefp_source};
  return probes;
}

// The single channel a ramp segment records.
circuit::ProbeSet out_probe() {
  circuit::ProbeSet probes;
  probes.nodes = {"msu_out"};
  return probes;
}

// Step 1 of the flow (Schedule::t_discharge_end), simulated once for every
// cell of a macro-cell: its state is the same for every target cell, so
// each cell's transient continues this stepper instead of starting at
// t = 0. `head` holds the trace rows before t_discharge_end when the plan
// records traces; the continuation's boundary sample is the row at it.
struct Discharge {
  circuit::Circuit ckt;  ///< cell (0, 0)'s netlist; the stepper runs on it
  std::optional<circuit::TransientStepper> stepper;
  circuit::Trace head;
};

// The transient every measurement of `options` runs.
circuit::TranParams cell_tran_params(const Schedule& schedule,
                                     const ExtractOptions& options) {
  circuit::TranParams tp;
  tp.t_stop = schedule.t_end;
  tp.dt = options.dt;
  tp.newton = options.newton;
  tp.uic = true;  // the flow's own step 1 establishes the real initial state
  return tp;
}

// Accepted steps recorded in `trace` up to and including time `t` (the
// t = 0 sample is not a step). Valid because the solver records exactly one
// sample per accepted step.
std::size_t steps_until(const circuit::Trace& trace, double t) {
  const auto& ts = trace.times();
  const auto n = static_cast<std::size_t>(
      std::upper_bound(ts.begin(), ts.end(), t + 1e-15) - ts.begin());
  return n > 0 ? n - 1 : 0;
}

// End of ramp level k's dwell.
double level_end(const Schedule& s, const MeasurementTiming& timing, int k) {
  const double level = timing.step / static_cast<double>(s.ramp_steps);
  return s.t_ramp_start + static_cast<double>(k) * level;
}

// Readings of the charge/share prefix: the plate at the end of step 2 and
// V_GS, which settles by the end of step 4, just before the ramp starts.
void read_prefix(const circuit::Trace& trace, ExtractionResult& res) {
  res.v_plate_charged = trace.value_at("plate", res.schedule.t_charge_end);
  res.vgs_shared =
      trace.value_at("msu_vgs", res.schedule.t_ramp_start - 0.2e-9);
}

// The code is the ramp step at which OUT flipped (full scale if it never
// did).
void decode_flip(std::optional<double> t_flip, ExtractionResult& res) {
  res.t_out_rise = t_flip;
  res.code = t_flip.has_value() ? res.schedule.code_of_flip_time(*t_flip)
                                : res.schedule.code_no_flip();
}

// Decodes a full-flow trace (the exhaustive ramp).
void decode_trace(const circuit::Trace& trace, double vdd_half,
                  ExtractionResult& res) {
  res.prefix_steps = steps_until(trace, res.schedule.t_ramp_start);
  read_prefix(trace, res);
  decode_flip(circuit::first_crossing(trace, "msu_out", vdd_half,
                                      circuit::Edge::kRising,
                                      res.schedule.t_ramp_start - 0.1e-9),
              res);
}

// A cell the flow driver measures: its netlist and the result it decides
// (build_cell already set the schedule and LSB).
struct FlowCell {
  circuit::Circuit* ckt = nullptr;
  const StructureNet* msu = nullptr;
  ExtractionResult* res = nullptr;
};

// Runs the measurement flow of `cells` on one engine, lane li measuring
// cells[li]: a circuit::BatchEngine over a lockstep chunk, or StepperLane
// over one scalar cell. The exhaustive flow is one pass to the end. The
// stop-at-flip flow runs the charge/share prefix, then the ramp staircase
// one level per segment, each lane stopping at the end of the level where
// its OUT crossing appears (the tail when it never does). The staircase is
// never reprogrammed: each segment continues the one transient, so the
// trajectory is bit-identical to the exhaustive run's and the flip time
// feeds the exact same decode. The code is path-dependent — the sense node
// integrates charge while ramping through sub-threshold levels — which is
// why a held-level probe cannot stand in for the ramp. Every lane ends
// finished with its result decided, or retired with a reason for the
// caller to re-measure it exhaustively.
//
// A recorded trace holds all five channels up to where the lane stopped,
// so it is a prefix of the exhaustive run's trace. An engine started from a
// shared `discharge` continues it: each trace starts with the discharge's
// head rows when the plan records traces, and prefix_steps counts the
// discharge's steps either way.
template <class Engine>
void run_flow(Engine& eng, std::span<const FlowCell> cells,
              const edram::MacroCell& mc, const MeasurementTiming& timing,
              const ExtractOptions& opts, const Discharge* discharge) {
  struct Run {
    std::optional<circuit::ProbeRecorder> probe, seg_probe;
    circuit::Trace trace;  ///< full 5-channel trace up to the stop
    circuit::Trace seg;    ///< OUT-only trace of the current ramp segment
  };
  std::vector<Run> runs(cells.size());
  for (std::size_t li = 0; li < cells.size(); ++li) {
    if (!eng.active(li)) continue;
    runs[li].probe.emplace(*cells[li].ckt, cell_probes(*cells[li].msu));
    runs[li].trace = discharge != nullptr && opts.record_trace
                         ? discharge->head
                         : runs[li].probe->make_trace();
  }
  // Steps taken before the first trace row.
  const std::size_t untraced_steps =
      discharge != nullptr && !opts.record_trace
          ? discharge->stepper->stats().accepted_steps
          : 0;
  // The schedule is a pure function of (timing, delta_i, params); every
  // cell shares it.
  const Schedule& sch = cells[0].res->schedule;
  const double vdd_half = mc.tech().vdd / 2.0;
  const bool adaptive = opts.adaptive.enabled;
  auto complete = [&](std::size_t li) {
    cells[li].res->stats = eng.stats(li);
    cells[li].res->shared_discharge = discharge != nullptr;
    if (opts.record_trace) cells[li].res->trace = std::move(runs[li].trace);
    eng.finish(li);
  };

  eng.advance(adaptive ? sch.t_ramp_start : sch.t_end,
              [&](std::size_t li, double t, std::span<const double> x) {
                runs[li].probe->record(runs[li].trace, t, x);
              });
  for (std::size_t li = 0; li < cells.size(); ++li) {
    if (!eng.active(li)) continue;
    ExtractionResult& res = *cells[li].res;
    if (!adaptive) {
      decode_trace(runs[li].trace, vdd_half, res);
      res.prefix_steps += untraced_steps;
      res.status = CellStatus::kOk;
      complete(li);
      continue;
    }
    res.adaptive.attempted = true;
    if (runs[li].trace.final_value("msu_out") > vdd_half) {
      eng.retire(li, "OUT already high before the ramp (monotone threshold "
                     "violated)");
      continue;
    }
    res.prefix_steps = eng.stats(li).accepted_steps;
    read_prefix(runs[li].trace, res);
    runs[li].seg_probe.emplace(*cells[li].ckt, out_probe());
  }
  if (!adaptive) return;

  // Advances every active lane through ramp level `level` (the tail past
  // the last one); lanes whose OUT crossed, or all at the tail, are
  // decided. A segment's first sample is its boundary, the trace's last row.
  auto segment = [&](int level) {
    const bool tail = level > sch.ramp_steps;
    obs::ScopedSpan probe_span("adaptive_probe");
    probe_span.arg("level", static_cast<double>(level));
    for (std::size_t li = 0; li < cells.size(); ++li) {
      if (!eng.active(li)) continue;
      runs[li].seg = runs[li].seg_probe->make_trace();
      ++cells[li].res->adaptive.probes;
    }
    eng.advance(tail ? sch.t_end : level_end(sch, timing, level),
                [&](std::size_t li, double t, std::span<const double> x) {
                  Run& r = runs[li];
                  if (opts.record_trace && r.seg.sample_count() > 0) {
                    r.probe->record(r.trace, t, x);
                  }
                  r.seg_probe->record(r.seg, t, x);
                });
    for (std::size_t li = 0; li < cells.size(); ++li) {
      if (!eng.active(li)) continue;
      const std::optional<double> t_flip = circuit::first_crossing(
          runs[li].seg, "msu_out", vdd_half, circuit::Edge::kRising);
      if (!t_flip && !tail) continue;
      ExtractionResult& res = *cells[li].res;
      decode_flip(t_flip, res);
      res.status = CellStatus::kOk;
      res.adaptive.used = true;
      ECMS_METRIC_COUNT("msu.adaptive.cells", 1);
      ECMS_METRIC_COUNT("msu.adaptive.probes", res.adaptive.probes);
      ECMS_METRIC_OBSERVE("msu.adaptive.probes_per_cell",
                          static_cast<double>(res.adaptive.probes));
      complete(li);
    }
  };
  // No flip during the staircase proper: the tail decodes a late flip (or
  // the full-scale code) exactly as the exhaustive run would.
  for (int level = 1; level <= sch.ramp_steps + 1 && eng.active_lanes() > 0;
       ++level) {
    segment(level);
  }
}

// One scalar cell behind BatchEngine's lane calls, so it runs the flow
// driver as a one-lane chunk would: lane 0 is one TransientStepper, and a
// SolverError retires it with a reason instead of escaping.
class StepperLane {
 public:
  /// Starts at t = 0, or continues `from` when given.
  StepperLane(circuit::Circuit& ckt, const circuit::TranParams& tp,
              const circuit::TransientStepper* from) {
    if (from != nullptr) {
      stepper_.emplace(ckt, tp, *from);
    } else {
      stepper_.emplace(ckt, tp);
    }
  }

  bool active(std::size_t) const { return !done_; }
  std::size_t active_lanes() const { return done_ ? 0 : 1; }
  const circuit::TranStats& stats(std::size_t) const {
    return stepper_->stats();
  }
  /// Why the lane retired; empty when the flow decided the cell.
  const std::string& retire_reason() const { return reason_; }

  void finish(std::size_t) { done_ = true; }
  void retire(std::size_t, std::string reason) {
    done_ = true;
    reason_ = std::move(reason);
  }
  template <class SampleFn>
  void advance(double t_stop, const SampleFn& on_sample) {
    if (done_) return;
    const bool prefix = !advanced_;  // the flow's first segment
    advanced_ = true;
    try {
      stepper_->advance(t_stop, [&](double t, std::span<const double> x) {
        on_sample(0, t, x);
      });
    } catch (const SolverError&) {
      retire(0, prefix ? "prefix transient did not converge (recovery "
                         "ladder takes over)"
                       : "ramp segment did not converge");
    }
  }

 private:
  std::optional<circuit::TransientStepper> stepper_;
  bool advanced_ = false;
  bool done_ = false;
  std::string reason_;
};

// One cell's measurement: extract_cell's body. The adaptive flow continues
// `discharge` when given; the exhaustive flow and every fallback run from
// t = 0.
ExtractionResult measure_cell(const edram::MacroCell& mc, std::size_t row,
                              std::size_t col, const StructureParams& params,
                              const MeasurementTiming& timing,
                              const ExtractOptions& options,
                              const Discharge* discharge) {
  ECMS_REQUIRE(row < mc.rows() && col < mc.cols(), "target cell out of range");
  obs::ScopedSpan span("extract_cell");
  span.arg("row", static_cast<double>(row));
  span.arg("col", static_cast<double>(col));

  double delta_i = options.delta_i;
  if (delta_i <= 0.0) {
    const FastModel design(mc, params);
    delta_i = design.delta_i();
  }
  circuit::Circuit ckt;
  ExtractionResult res;
  const StructureNet msu =
      build_cell(ckt, mc, row, col, params, timing, delta_i, res);
  const circuit::TranParams tp = cell_tran_params(res.schedule, options);

  if (options.adaptive.enabled) {
    res.adaptive.attempted = true;
    std::string why = "fault injection armed for this cell";
    if (options.newton.hooks == nullptr) {
      obs::ScopedSpan adaptive_span("adaptive_extract");
      StepperLane lane(ckt, tp,
                       discharge != nullptr ? &*discharge->stepper : nullptr);
      const FlowCell cell{&ckt, &msu, &res};
      run_flow(lane, std::span<const FlowCell>(&cell, 1), mc, timing, options,
               discharge);
      if (lane.retire_reason().empty()) {
        ECMS_LOG(LogLevel::kDebug)
            << "extract (" << row << "," << col << "): code=" << res.code
            << " adaptive probes=" << res.adaptive.probes
            << " steps=" << res.stats.accepted_steps;
        return res;
      }
      why = lane.retire_reason();
    }
    res.adaptive.used = false;
    res.adaptive.fell_back = true;
    res.adaptive.fallback_reason = why;
    ECMS_METRIC_COUNT("msu.adaptive.fallbacks", 1);
    ECMS_LOG(LogLevel::kDebug) << "extract (" << row << "," << col
                               << "): adaptive fallback: " << why;
    // The exhaustive path below re-runs the whole flow from scratch, so a
    // fallback result is bit-identical to a never-adaptive run.
    res.stats = {};
    res.prefix_steps = 0;
    res.shared_discharge = false;
  }

  circuit::TranResult tr = circuit::transient_with_recovery(
      ckt, tp, cell_probes(msu), options.recovery, &res.recovery);
  res.status = res.recovery.recovered() ? CellStatus::kRecovered
                                        : CellStatus::kOk;
  res.stats = tr.stats;
  decode_trace(tr.trace, mc.tech().vdd / 2.0, res);

  ECMS_LOG(LogLevel::kDebug)
      << "extract (" << row << "," << col << "): code=" << res.code
      << " vgs=" << res.vgs_shared << " steps=" << res.stats.accepted_steps;

  if (options.record_trace) res.trace = std::move(tr.trace);
  return res;
}

// One cell of a row-major chunk; on the lockstep path it carries the lane's
// netlist and the decoded result when the batch completed the cell.
struct Slot {
  std::size_t row = 0, col = 0;
  bool lockstep = false;     ///< went through measure_lockstep
  bool hook_failed = false;  ///< its attempt-0 cell_hook threw
  std::string hook_error;
  bool completed = false;  ///< `res` fully decided by the batch
  std::unique_ptr<circuit::Circuit> ckt;
  StructureNet msu;
  ExtractionResult res;
};

// Measures a chunk of cells in lockstep: one circuit::BatchEngine lane per
// cell, stepped through the flow driver from the shared discharge when
// there is one. Lanes the engine or the driver retires are left incomplete
// for the scalar path.
void measure_lockstep(const edram::MacroCell& mc,
                      const StructureParams& params, const ExtractPlan& plan,
                      const ExtractOptions& opts, const Discharge* discharge,
                      std::vector<Slot>& slots) {
  // Attempt-0 fault hooks run before the chunk simulates, in cell order —
  // valid because the hook is a pure function of (row, col, attempt). A
  // throwing hook marks its cell failed without joining the batch.
  std::vector<circuit::Circuit*> lane_ckts;
  std::vector<FlowCell> cells;
  std::vector<Slot*> lanes;
  for (Slot& s : slots) {
    s.lockstep = true;
    if (plan.cell_hook != nullptr) {
      try {
        plan.cell_hook(s.row, s.col, 0);
      } catch (const std::exception& e) {
        s.hook_failed = true;
        s.hook_error = e.what();
        continue;
      }
    }
    s.ckt = std::make_unique<circuit::Circuit>();
    s.msu = build_cell(*s.ckt, mc, s.row, s.col, params, plan.timing,
                       opts.delta_i, s.res);
    lane_ckts.push_back(s.ckt.get());
    cells.push_back({s.ckt.get(), &s.msu, &s.res});
    lanes.push_back(&s);
  }
  if (lanes.empty()) return;

  circuit::BatchEngine::Options bo;
  bo.dt = opts.dt;
  bo.newton = opts.newton;
  circuit::BatchEngine eng(
      std::span<circuit::Circuit* const>(lane_ckts.data(), lane_ckts.size()),
      bo, discharge != nullptr ? &*discharge->stepper : nullptr);
  run_flow(eng, std::span<const FlowCell>(cells), mc, plan.timing, opts,
           discharge);

  for (std::size_t li = 0; li < lanes.size(); ++li) {
    Slot& s = *lanes[li];
    s.completed =
        eng.state(li) == circuit::BatchEngine::LaneState::kFinished;
    if (!s.completed) {
      ECMS_LOG(LogLevel::kDebug)
          << "batch: cell (" << s.row << "," << s.col
          << ") retired to the scalar path: " << eng.retire_reason(li);
    }
  }
}

// Settles one cell under the plan's retry/containment policy and appends
// it to `out`. Attempts run measure_cell; a cell the lockstep batch already
// decided consumes that result as attempt 0 (its attempt-0 hook ran before
// the batch and is not re-run). With no containment, retries or hook the
// cell's own exception escapes unchanged.
void settle_cell(const edram::MacroCell& mc, const StructureParams& params,
                 const ExtractPlan& plan, const ExtractOptions& opts,
                 const Discharge* discharge, Slot& s, RobustExtraction& out) {
  auto measure = [&](int attempt) {
    if (attempt == 0 && s.lockstep) {
      if (s.hook_failed) throw std::runtime_error(s.hook_error);
      if (s.completed) return std::move(s.res);
    } else if (plan.cell_hook) {
      plan.cell_hook(s.row, s.col, attempt);
    }
    return measure_cell(mc, s.row, s.col, params, plan.timing, opts,
                        discharge);
  };

  ExtractionResult res;
  if (!plan.contain && plan.retry.max_attempts <= 1 &&
      plan.cell_hook == nullptr) {
    res = measure(0);
  } else {
    const util::RetryResult rr = util::run_with_retry(
        plan.retry, [&](int attempt) { res = measure(attempt); });
    if (!rr.ok) {
      if (!plan.contain) {
        throw MeasureError("cell (" + std::to_string(s.row) + "," +
                           std::to_string(s.col) +
                           ") unmeasurable: " + rr.last_error);
      }
      ECMS_LOG(LogLevel::kInfo) << "cell (" << s.row << "," << s.col
                                << ") unmeasurable: " << rr.last_error;
      ExtractionResult placeholder;
      placeholder.delta_i = opts.delta_i;
      placeholder.code =
          std::clamp(plan.unmeasurable_code, 0, params.ramp_steps);
      placeholder.status = CellStatus::kUnmeasurable;
      out.results.push_back(std::move(placeholder));
      out.status.push_back(CellStatus::kUnmeasurable);
      out.report.failures.push_back({s.row, s.col, rr.last_error});
      return;
    }
    // A later attempt succeeding counts as a recovery even when the
    // winning solve itself never climbed the ladder.
    if (rr.recovered() && res.status == CellStatus::kOk)
      res.status = CellStatus::kRecovered;
  }
  if (res.status == CellStatus::kRecovered) ++out.report.recovered;
  if (res.shared_discharge) ECMS_METRIC_COUNT("msu.discharge.shared_cells", 1);
  out.status.push_back(res.status);
  out.results.push_back(std::move(res));
}

// Simulates step 1 of the flow once, on cell (0, 0)'s circuit, up to
// Schedule::t_discharge_end. Returns null when continuing it would not be
// bit-identical to a cell's own run from t = 0: the stepper failed or
// rejected a step (the lanes never halve one), or it no longer factors
// with the published pivot order every continuation's engine adopts.
std::unique_ptr<Discharge> run_discharge(const edram::MacroCell& mc,
                                         const StructureParams& params,
                                         const MeasurementTiming& timing,
                                         const ExtractOptions& opts) {
  obs::ScopedSpan span("shared_discharge");
  auto d = std::make_unique<Discharge>();
  ExtractionResult res;
  const StructureNet msu =
      build_cell(d->ckt, mc, 0, 0, params, timing, opts.delta_i, res);
  const double t_stop = res.schedule.t_discharge_end;
  std::optional<circuit::ProbeRecorder> probe;
  if (opts.record_trace) {
    probe.emplace(d->ckt, cell_probes(msu));
    d->head = probe->make_trace();
  }
  ECMS_METRIC_COUNT("msu.discharge.runs", 1);
  try {
    d->stepper.emplace(d->ckt, cell_tran_params(res.schedule, opts));
    d->stepper->advance(t_stop, [&](double t, std::span<const double> x) {
      // The row at t_stop is each continuation's boundary sample.
      if (probe && t < t_stop - circuit::kTimeEps) {
        probe->record(d->head, t, x);
      }
    });
  } catch (const SolverError& e) {
    ECMS_LOG(LogLevel::kDebug) << "shared discharge failed: " << e.what();
    return nullptr;
  }
  if (d->stepper->stats().rejected_steps > 0 ||
      !d->stepper->on_published_program()) {
    return nullptr;
  }
  span.arg("steps", static_cast<double>(d->stepper->stats().accepted_steps));
  return d;
}

}  // namespace

bool batch_engageable(const ExtractPlan& plan) {
  const circuit::NewtonOptions& no = plan.options.newton;
  return no.hooks == nullptr && no.solver.program_cache != nullptr;
}

std::size_t resolved_batch_width(int batch_width) {
  if (batch_width <= 0) return circuit::kernels::preferred_width();
  return static_cast<std::size_t>(batch_width);
}

ExtractionResult extract_cell(const edram::MacroCell& mc, std::size_t row,
                              std::size_t col, const StructureParams& params,
                              const MeasurementTiming& timing,
                              const ExtractOptions& options) {
  return measure_cell(mc, row, col, params, timing, options, nullptr);
}

RobustExtraction extract_array(const edram::MacroCell& mc,
                               const StructureParams& params,
                               const ExtractPlan& plan) {
  obs::ScopedSpan span("extract_array");
  span.arg("rows", static_cast<double>(mc.rows()));
  span.arg("cols", static_cast<double>(mc.cols()));
  // Design the ramp once so every cell is converted against the same LSB
  // (as the shared silicon would).
  ExtractOptions opts = plan.options;
  if (opts.delta_i <= 0.0) {
    const FastModel design(mc, params);
    opts.delta_i = design.delta_i();
  }
  // Lockstep batching measures chunks of cells through one shared compiled
  // program; lanes that cannot keep lockstep are re-measured on the scalar
  // path by settle_cell, so results are identical either way.
  const std::size_t width = plan.batch_width != 1 && batch_engageable(plan)
                                ? resolved_batch_width(plan.batch_width)
                                : 1;
  const bool lockstep = width >= 2;
  span.arg("width", static_cast<double>(width));

  RobustExtraction out;
  // Step 1 is the same for every cell: simulate it once and start the
  // lanes and the scalar adaptive cells from it. Only where continuing a
  // stepper is bit-identical (a published program, no solve hooks), and
  // only for flows that continue one (not the scalar exhaustive path).
  std::unique_ptr<Discharge> discharge;
  if (batch_engageable(plan) && (lockstep || opts.adaptive.enabled)) {
    discharge = run_discharge(mc, params, plan.timing, opts);
    if (discharge != nullptr) {
      out.discharge_steps = discharge->stepper->stats().accepted_steps;
    }
  }

  out.results.reserve(mc.cell_count());
  out.status.reserve(mc.cell_count());
  out.report.cells_total = mc.cell_count();
  for (std::size_t base = 0; base < mc.cell_count(); base += width) {
    std::vector<Slot> slots(std::min(width, mc.cell_count() - base));
    for (std::size_t i = 0; i < slots.size(); ++i) {
      slots[i].row = (base + i) / mc.cols();
      slots[i].col = (base + i) % mc.cols();
    }
    if (lockstep) {
      measure_lockstep(mc, params, plan, opts, discharge.get(), slots);
    }
    for (Slot& s : slots) {
      settle_cell(mc, params, plan, opts, discharge.get(), s, out);
    }
  }
  return out;
}

}  // namespace ecms::msu
