#include "msu/batch_extract.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "circuit/batch.hpp"
#include "circuit/kernels.hpp"
#include "circuit/mosfet.hpp"
#include "edram/netlister.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/log.hpp"

namespace ecms::msu {

namespace {

// Replica of extract.cpp's helper: accepted steps recorded in `trace` up to
// and including time `t` (the t = 0 sample is not a step).
std::size_t steps_until(const circuit::Trace& trace, double t) {
  const auto& ts = trace.times();
  const auto n = static_cast<std::size_t>(
      std::upper_bound(ts.begin(), ts.end(), t + 1e-15) - ts.begin());
  return n > 0 ? n - 1 : 0;
}

// One cell riding a lockstep chunk: its private circuit (every cell owns a
// full array + MSU netlist, as on the scalar path), probe bindings, the
// trace being accumulated, and the decode state.
struct Slot {
  std::size_t row = 0, col = 0;
  std::unique_ptr<circuit::Circuit> ckt;
  edram::ArrayNet array;
  StructureNet msu;
  ExtractionResult res;
  circuit::NodeId n_plate{}, n_vgs{}, n_sense{}, n_out{};
  const circuit::Device* irefp = nullptr;
  circuit::Trace trace;    ///< 5-channel prefix / exhaustive trace
  circuit::Trace seg;      ///< OUT-only trace of the current ramp segment
  std::optional<double> t_flip;
  std::size_t lane = static_cast<std::size_t>(-1);  ///< engine lane index
  bool hook_failed = false;  ///< attempt-0 cell_hook threw before simulation
  std::string hook_error;
  bool completed = false;  ///< res fully decoded on the batch path
};

// The per-step trace row, exactly as run_transient's `record` computes it:
// probed node voltages first, then the device current.
std::vector<double> probe_row(const Slot& s, double t,
                              std::span<const double> x) {
  circuit::StampContext ctx;
  ctx.x = x;
  ctx.time = t;
  return {ctx.v(s.n_plate), ctx.v(s.n_vgs), ctx.v(s.n_sense), ctx.v(s.n_out),
          s.irefp->probe_current(ctx)};
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

RobustExtraction extract_array_batched(const edram::MacroCell& mc,
                                       const StructureParams& params,
                                       const ExtractPlan& plan,
                                       const ExtractOptions& opts,
                                       std::size_t width) {
  obs::ScopedSpan span("extract_array_batch");
  span.arg("rows", static_cast<double>(mc.rows()));
  span.arg("cols", static_cast<double>(mc.cols()));
  span.arg("width", static_cast<double>(width));
  ECMS_REQUIRE(width >= 2, "batched extraction needs at least two lanes");

  const bool plain = !plan.contain && plan.retry.max_attempts <= 1 &&
                     plan.cell_hook == nullptr;
  const double vdd_half = mc.tech().vdd / 2.0;
  const std::vector<std::string> channels = {"plate", "msu_vgs", "msu_sense",
                                             "msu_out", ""};

  RobustExtraction out;
  out.results.reserve(mc.cell_count());
  out.status.reserve(mc.cell_count());
  out.report.cells_total = mc.cell_count();

  std::vector<std::pair<std::size_t, std::size_t>> cells;
  cells.reserve(mc.cell_count());
  for (std::size_t r = 0; r < mc.rows(); ++r) {
    for (std::size_t c = 0; c < mc.cols(); ++c) cells.emplace_back(r, c);
  }

  for (std::size_t base = 0; base < cells.size(); base += width) {
    const std::size_t chunk =
        std::min(width, cells.size() - base);
    std::vector<Slot> slots(chunk);

    // Attempt-0 fault hooks run before the chunk simulates, in cell order —
    // valid because the hook is a pure function of (row, col, attempt). A
    // throwing hook marks its cell failed without joining the batch.
    for (std::size_t i = 0; i < chunk; ++i) {
      Slot& s = slots[i];
      s.row = cells[base + i].first;
      s.col = cells[base + i].second;
      if (plan.cell_hook != nullptr) {
        try {
          plan.cell_hook(s.row, s.col, 0);
        } catch (const std::exception& e) {
          s.hook_failed = true;
          s.hook_error = e.what();
        }
      }
    }

    // Build one full netlist per surviving cell, exactly as extract_cell
    // does, and bind its probes.
    std::vector<circuit::Circuit*> lane_ckts;
    std::vector<std::size_t> lane_slot;
    for (std::size_t i = 0; i < chunk; ++i) {
      Slot& s = slots[i];
      if (s.hook_failed) continue;
      s.ckt = std::make_unique<circuit::Circuit>();
      s.array = edram::build_array(*s.ckt, mc);
      s.msu = build_structure(*s.ckt, s.array.plate, mc.tech(), params);
      s.res.delta_i = opts.delta_i;
      s.res.schedule = program_measurement(*s.ckt, s.array, s.msu, mc, s.row,
                                           s.col, opts.delta_i, params,
                                           plan.timing);
      s.n_plate = s.ckt->find_node("plate");
      s.n_vgs = s.ckt->find_node("msu_vgs");
      s.n_sense = s.ckt->find_node("msu_sense");
      s.n_out = s.ckt->find_node("msu_out");
      s.irefp = s.ckt->find(s.msu.irefp_source);
      std::vector<std::string> ch = channels;
      ch.back() = "I(" + s.msu.irefp_source + ")";
      s.trace = circuit::Trace(ch);
      s.lane = lane_ckts.size();
      lane_ckts.push_back(s.ckt.get());
      lane_slot.push_back(i);
    }

    if (!lane_ckts.empty()) {
      circuit::BatchEngine::Options bo;
      bo.dt = opts.dt;
      bo.newton = opts.newton;  // method / be_after_breakpoint: TranParams
                                // defaults, as the scalar flow uses
      circuit::BatchEngine eng(
          std::span<circuit::Circuit* const>(lane_ckts.data(),
                                             lane_ckts.size()),
          bo);

      // The measurement schedule is a pure function of (timing, delta_i,
      // params); every cell of the chunk shares it.
      const Schedule& sch = slots[lane_slot[0]].res.schedule;

      auto sample5 = [&](std::size_t lane, double t,
                         std::span<const double> x) {
        Slot& s = slots[lane_slot[lane]];
        s.trace.append(t, probe_row(s, t, x));
      };

      if (opts.adaptive.enabled) {
        // Lockstep equivalent of try_adaptive: the charge/share prefix for
        // every lane at once, then the ramp staircase level by level; each
        // lane stops at the level where its OUT crossing appears, and the
        // scheduler's probe sequence is replayed afterwards against the
        // known flip time — probe-by-probe identical to the lazy search.
        eng.advance(sch.t_ramp_start, sample5);

        const double step_duration =
            plan.timing.step / static_cast<double>(sch.ramp_steps);

        for (std::size_t li = 0; li < lane_ckts.size(); ++li) {
          Slot& s = slots[lane_slot[li]];
          if (eng.state(li) != circuit::BatchEngine::LaneState::kActive)
            continue;
          s.res.adaptive.attempted = true;
          if (s.trace.final_value("msu_out") > vdd_half) {
            eng.retire(li, "adaptive fallback: OUT already high before the "
                           "ramp");
            continue;
          }
          s.res.prefix_steps = eng.stats(li).accepted_steps;
          s.res.v_plate_charged =
              s.trace.value_at("plate", sch.t_charge_end);
          s.res.vgs_shared =
              s.trace.value_at("msu_vgs", sch.t_ramp_start - 0.2e-9);
          const circuit::MosParams ref_params =
              mc.tech().nmos(params.ref_w, params.ref_l);
          const double i_sink = circuit::mos_ids(
              ref_params, std::max(s.res.vgs_shared, 0.0), vdd_half);
          s.res.adaptive.guess =
              std::clamp(static_cast<int>(std::floor(i_sink / s.res.delta_i)),
                         0, sch.ramp_steps);
        }

        auto sample_out = [&](std::size_t lane, double t,
                              std::span<const double> x) {
          Slot& s = slots[lane_slot[lane]];
          circuit::StampContext ctx;
          ctx.x = x;
          ctx.time = t;
          s.seg.append(t, {ctx.v(s.n_out)});
        };

        // Replays the scheduler against the decided flip time and finishes
        // or retires the lane accordingly.
        auto conclude = [&](std::size_t li) {
          Slot& s = slots[lane_slot[li]];
          auto replay_probe = [&](int k) {
            obs::ScopedSpan probe_span("adaptive_probe");
            probe_span.arg("level", static_cast<double>(k));
            ++s.res.adaptive.probes;
            return s.t_flip.has_value() &&
                   *s.t_flip <=
                       sch.t_ramp_start +
                           static_cast<double>(k) * step_duration + 1e-15;
          };
          const int bracket =
              schedule_ramp_search(sch.ramp_steps, s.res.adaptive.guess,
                                   opts.adaptive.max_probes, replay_probe);
          if (bracket < 0) {
            eng.retire(li, "adaptive fallback: probe budget exhausted "
                           "before the bracket closed");
            return;
          }
          s.res.code = s.t_flip.has_value()
                           ? sch.code_of_flip_time(*s.t_flip)
                           : sch.code_no_flip();
          s.res.t_out_rise = s.t_flip;
          s.res.status = CellStatus::kOk;
          s.res.adaptive.used = true;
          s.res.stats.accepted_steps = eng.stats(li).accepted_steps;
          s.res.stats.newton_iterations = eng.stats(li).newton_iterations;
          ECMS_METRIC_COUNT("msu.adaptive.cells", 1);
          ECMS_METRIC_COUNT("msu.adaptive.probes", s.res.adaptive.probes);
          ECMS_METRIC_OBSERVE("msu.adaptive.probes_per_cell",
                              static_cast<double>(s.res.adaptive.probes));
          ECMS_METRIC_COUNT("msu.cells.ok", 1);
          if (opts.record_trace) s.res.trace = std::move(s.trace);
          eng.finish(li);
          s.completed = true;
        };

        for (int level = 1;
             level <= sch.ramp_steps && eng.active_lanes() > 0; ++level) {
          for (std::size_t li = 0; li < lane_ckts.size(); ++li) {
            Slot& s = slots[lane_slot[li]];
            if (eng.state(li) == circuit::BatchEngine::LaneState::kActive) {
              s.seg = circuit::Trace({"msu_out"});
            }
          }
          eng.advance(sch.t_ramp_start +
                          static_cast<double>(level) * step_duration,
                      sample_out);
          for (std::size_t li = 0; li < lane_ckts.size(); ++li) {
            Slot& s = slots[lane_slot[li]];
            if (eng.state(li) != circuit::BatchEngine::LaneState::kActive)
              continue;
            if (!s.t_flip) {
              s.t_flip = circuit::first_crossing(s.seg, "msu_out", vdd_half,
                                                 circuit::Edge::kRising);
            }
            if (s.t_flip) conclude(li);
          }
        }

        // No flip during the staircase proper: run the tail so a late flip
        // (or full-scale code) decodes exactly as the exhaustive run would.
        if (eng.active_lanes() > 0) {
          for (std::size_t li = 0; li < lane_ckts.size(); ++li) {
            Slot& s = slots[lane_slot[li]];
            if (eng.state(li) == circuit::BatchEngine::LaneState::kActive) {
              s.seg = circuit::Trace({"msu_out"});
            }
          }
          eng.advance(sch.t_end, sample_out);
          for (std::size_t li = 0; li < lane_ckts.size(); ++li) {
            Slot& s = slots[lane_slot[li]];
            if (eng.state(li) != circuit::BatchEngine::LaneState::kActive)
              continue;
            if (!s.t_flip) {
              s.t_flip = circuit::first_crossing(s.seg, "msu_out", vdd_half,
                                                 circuit::Edge::kRising);
            }
            conclude(li);
          }
        }
      } else {
        // Exhaustive flow: one lockstep pass over the whole schedule.
        eng.advance(sch.t_end, sample5);
        for (std::size_t li = 0; li < lane_ckts.size(); ++li) {
          Slot& s = slots[lane_slot[li]];
          if (eng.state(li) != circuit::BatchEngine::LaneState::kActive)
            continue;
          s.res.stats.accepted_steps = eng.stats(li).accepted_steps;
          s.res.stats.newton_iterations = eng.stats(li).newton_iterations;
          s.res.prefix_steps = steps_until(s.trace, sch.t_ramp_start);
          s.res.v_plate_charged =
              s.trace.value_at("plate", sch.t_charge_end);
          s.res.vgs_shared =
              s.trace.value_at("msu_vgs", sch.t_ramp_start - 0.2e-9);
          const auto flip = circuit::first_crossing(
              s.trace, "msu_out", vdd_half, circuit::Edge::kRising,
              sch.t_ramp_start - 0.1e-9);
          s.res.t_out_rise = flip;
          s.res.code = flip.has_value() ? sch.code_of_flip_time(*flip)
                                        : sch.code_no_flip();
          s.res.status = CellStatus::kOk;
          ECMS_METRIC_COUNT("msu.cells.ok", 1);
          if (opts.record_trace) s.res.trace = std::move(s.trace);
          eng.finish(li);
          s.completed = true;
        }
      }

      for (std::size_t li = 0; li < lane_ckts.size(); ++li) {
        const Slot& s = slots[lane_slot[li]];
        if (!s.completed &&
            eng.state(li) == circuit::BatchEngine::LaneState::kRetired) {
          ECMS_LOG(LogLevel::kDebug)
              << "batch: cell (" << s.row << "," << s.col
              << ") retired to the scalar path: " << eng.retire_reason(li);
        }
      }
    }

    // Per-cell finalization mirrors extract_array's loop: cells the batch
    // completed consume their result as attempt 0; retired or hook-failed
    // cells re-measure on the scalar path under the same retry/containment
    // policy (the attempt-0 hook already ran above and is not re-run).
    for (Slot& s : slots) {
      if (plain) {
        ExtractionResult res =
            s.completed ? std::move(s.res)
                        : extract_cell(mc, s.row, s.col, params, plan.timing,
                                       opts);
        if (res.status == CellStatus::kRecovered) ++out.report.recovered;
        out.status.push_back(res.status);
        out.results.push_back(std::move(res));
        continue;
      }
      ExtractionResult res;
      const util::RetryResult rr =
          util::run_with_retry(plan.retry, [&](int attempt) {
            if (attempt == 0) {
              if (s.hook_failed) throw std::runtime_error(s.hook_error);
              if (s.completed) {
                res = std::move(s.res);
                return;
              }
              res = extract_cell(mc, s.row, s.col, params, plan.timing, opts);
              return;
            }
            if (plan.cell_hook) plan.cell_hook(s.row, s.col, attempt);
            res = extract_cell(mc, s.row, s.col, params, plan.timing, opts);
          });
      if (!rr.ok) {
        if (!plan.contain) {
          throw MeasureError("cell (" + std::to_string(s.row) + "," +
                             std::to_string(s.col) +
                             ") unmeasurable: " + rr.last_error);
        }
        ECMS_METRIC_COUNT("msu.cells.unmeasurable", 1);
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
        continue;
      }
      if (rr.recovered() && res.status == CellStatus::kOk)
        res.status = CellStatus::kRecovered;
      if (res.status == CellStatus::kRecovered) ++out.report.recovered;
      out.status.push_back(res.status);
      out.results.push_back(std::move(res));
    }
  }
  return out;
}

}  // namespace ecms::msu
