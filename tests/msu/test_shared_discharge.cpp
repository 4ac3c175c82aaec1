// The shared discharge of extract_array: step 1 of the flow is the same for
// every target cell (Schedule::t_discharge_end), so it is simulated once
// per call and every cell's transient continues it. Checked here: the
// premise itself (bitwise-equal state at t_discharge_end for every cell of
// several tile shapes, a defect-bearing one included), extract_array
// against a per-cell extract_cell reference on every engine shape, and the
// plans that must not share.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "circuit/netlist.hpp"
#include "circuit/program.hpp"
#include "circuit/transient.hpp"
#include "edram/macrocell.hpp"
#include "edram/netlister.hpp"
#include "fault/fault.hpp"
#include "msu/extract.hpp"
#include "msu/sequencer.hpp"
#include "obs/metrics.hpp"
#include "tech/capmodel.hpp"
#include "tech/defects.hpp"
#include "tech/tech.hpp"

#include "extraction_compare.hpp"

namespace ecms::msu {
namespace {

edram::MacroCell uniform(std::size_t rows, std::size_t cols) {
  return edram::MacroCell::uniform({.rows = rows, .cols = cols},
                                   tech::tech018(), 30e-15);
}

// A 4x4 tile with process variation and one defect of every kind.
edram::MacroCell defective4x4() {
  tech::CapProcessParams cp;
  cp.local_sigma_rel = 0.04;
  tech::CapField field(cp, 4, 4, 7);
  tech::DefectMap defects(4, 4);
  defects.set(0, 1, {tech::DefectType::kShort, 5e6});
  defects.set(1, 2, {tech::DefectType::kOpen, 0.0});
  defects.set(2, 0, {tech::DefectType::kPartial, 0.5});
  defects.set(3, 3, {tech::DefectType::kBridge, 1e4});
  return edram::MacroCell({.rows = 4, .cols = 4}, tech::tech018(),
                          std::move(field), std::move(defects));
}

// One cell's measurement circuit, stepped to the end of step 1.
struct PausedCell {
  circuit::Circuit ckt;
  Schedule schedule;
  std::optional<circuit::TransientStepper> stepper;

  PausedCell(const edram::MacroCell& mc, std::size_t row, std::size_t col) {
    const StructureParams sp;
    const edram::ArrayNet array = edram::build_array(ckt, mc);
    const StructureNet msu = build_structure(ckt, array.plate, mc.tech(), sp);
    schedule = program_measurement(ckt, array, msu, mc, row, col,
                                   /*delta_i=*/1e-6, sp);
    circuit::TranParams tp;
    tp.dt = 20e-12;
    tp.uic = true;
    stepper.emplace(ckt, tp);
    stepper->advance(schedule.t_discharge_end,
                     [](double, std::span<const double>) {});
  }
};

TEST(SharedDischargeT, EveryCellReachesOneStateAtTheEndOfStepOne) {
  const std::vector<std::pair<std::string, edram::MacroCell>> tiles = {
      {"4x4", uniform(4, 4)},
      {"1x4", uniform(1, 4)},
      {"4x1", uniform(4, 1)},
      {"4x4 with defects", defective4x4()}};
  for (const auto& [name, mc] : tiles) {
    SCOPED_TRACE(name);
    const PausedCell ref(mc, 0, 0);
    EXPECT_EQ(ref.stepper->time(), ref.schedule.t_discharge_end);
    EXPECT_EQ(ref.stepper->stats().rejected_steps, 0u);
    const circuit::CompanionBank& ref_bank = ref.ckt.companions();
    for (std::size_t r = 0; r < mc.rows(); ++r) {
      for (std::size_t c = 0; c < mc.cols(); ++c) {
        SCOPED_TRACE("cell (" + std::to_string(r) + "," + std::to_string(c) +
                     ")");
        const PausedCell cell(mc, r, c);
        // t_discharge_end is a stimulus corner of every cell.
        const std::vector<double> bps = cell.ckt.breakpoints(1.0);
        EXPECT_NE(std::find(bps.begin(), bps.end(),
                            cell.schedule.t_discharge_end),
                  bps.end());
        EXPECT_EQ(cell.schedule.t_discharge_end,
                  ref.schedule.t_discharge_end);
        EXPECT_EQ(cell.stepper->time(), ref.stepper->time());
        EXPECT_EQ(cell.stepper->stats().accepted_steps,
                  ref.stepper->stats().accepted_steps);
        EXPECT_EQ(cell.stepper->stats().newton_iterations,
                  ref.stepper->stats().newton_iterations);
        ASSERT_TRUE(std::ranges::equal(cell.stepper->x(), ref.stepper->x()));
        const circuit::CompanionBank& bank = cell.ckt.companions();
        ASSERT_TRUE(bank.same_companions(ref_bank));
        for (std::size_t k = 0; k < bank.size(); ++k) {
          ASSERT_EQ(bank.v_prev(k), ref_bank.v_prev(k)) << "companion " << k;
          ASSERT_EQ(bank.i_prev(k), ref_bank.i_prev(k)) << "companion " << k;
        }
      }
    }
  }
}

// The per-cell reference: extract_cell, which never shares, on every cell.
RobustExtraction per_cell(const edram::MacroCell& mc,
                          const ExtractOptions& opts) {
  RobustExtraction out;
  for (std::size_t r = 0; r < mc.rows(); ++r) {
    for (std::size_t c = 0; c < mc.cols(); ++c) {
      out.results.push_back(extract_cell(mc, r, c, {}, {}, opts));
      out.status.push_back(out.results.back().status);
    }
  }
  return out;
}

// Counter value from a registry snapshot (0 when never counted).
std::uint64_t counter(const obs::MetricsSnapshot& snap, const std::string& name) {
  const auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0 : it->second;
}

// extract_array with metrics on; `snap` receives the counters it left.
RobustExtraction counted(const edram::MacroCell& mc, const ExtractPlan& plan,
                         obs::MetricsSnapshot& snap) {
  obs::Registry::global().reset();
  obs::set_metrics_enabled(true);
  RobustExtraction res = extract_array(mc, {}, plan);
  obs::set_metrics_enabled(false);
  snap = obs::Registry::global().snapshot();
  return res;
}

TEST(SharedDischargeT, ArrayMatchesPerCellReferenceOnEveryEngine) {
  const auto mc = uniform(2, 2);
  // Publishes the tile's program first, as a warm process has it.
  const std::size_t step1 =
      PausedCell(mc, 0, 0).stepper->stats().accepted_steps;
  for (const bool adaptive : {false, true}) {
    for (const bool record_trace : {false, true}) {
      ExtractOptions opts;
      opts.adaptive.enabled = adaptive;
      opts.record_trace = record_trace;
      const RobustExtraction ref = per_cell(mc, opts);
      // Auto width (one chunk of all 4), width 3 (a 3-lane chunk and a
      // one-lane chunk) and the scalar path.
      for (const int width : {0, 3, 1}) {
        SCOPED_TRACE(std::string(adaptive ? "adaptive" : "exhaustive") +
                     " width=" + std::to_string(width) +
                     " record_trace=" + std::to_string(record_trace));
        ExtractPlan plan;
        plan.options = opts;
        plan.batch_width = width;
        obs::MetricsSnapshot snap;
        const RobustExtraction got = counted(mc, plan, snap);
        expect_identical(got, ref);
        // Only the scalar exhaustive path runs from t = 0 by itself.
        const bool shares = adaptive || width != 1;
        EXPECT_EQ(counter(snap, "msu.discharge.runs"), shares ? 1u : 0u);
        EXPECT_EQ(counter(snap, "msu.discharge.shared_cells"),
                  shares ? mc.cell_count() : 0u);
        EXPECT_EQ(got.discharge_steps, shares ? step1 : 0u);
        for (const ExtractionResult& r : got.results) {
          EXPECT_EQ(r.shared_discharge, shares);
        }
        if (record_trace) {
          ASSERT_GT(got.results[0].trace.sample_count(), 0u);
          EXPECT_EQ(got.results[0].trace.times().front(), 0.0);
        }
      }
    }
  }
}

TEST(SharedDischargeT, SimulatedStepsAreCountedOnce) {
  // The counters count what was simulated: the discharge once, each cell
  // from t_discharge_end on. The per-cell stats count the whole flow.
  const auto mc = uniform(2, 2);
  PausedCell warm(mc, 0, 0);  // publishes the tile's program
  for (const int width : {1, 0}) {
    SCOPED_TRACE("width=" + std::to_string(width));
    ExtractPlan plan;
    plan.options.adaptive.enabled = true;
    plan.batch_width = width;
    obs::MetricsSnapshot shared_snap;
    const RobustExtraction shared = counted(mc, plan, shared_snap);
    ASSERT_GT(shared.discharge_steps, 0u);

    ExtractPlan unshared_plan = plan;
    unshared_plan.options.newton.solver.program_cache = nullptr;
    obs::MetricsSnapshot unshared_snap;
    const RobustExtraction unshared =
        counted(mc, unshared_plan, unshared_snap);
    EXPECT_EQ(unshared.discharge_steps, 0u);

    std::size_t total = 0;
    for (const ExtractionResult& r : shared.results) {
      total += r.stats.accepted_steps;
    }
    EXPECT_EQ(counter(unshared_snap, "circuit.transient.accepted_steps"),
              total);
    EXPECT_EQ(counter(shared_snap, "circuit.transient.accepted_steps"),
              total - (mc.cell_count() - 1) * shared.discharge_steps);
  }
}

TEST(SharedDischargeT, UnengageablePlansShareNothing) {
  const auto mc = uniform(2, 2);
  fault::SolverFaultInjector idle;  // armed hooks that never fire
  const circuit::SolveHooks hooks = idle.hooks();
  for (const bool hooked : {true, false}) {
    SCOPED_TRACE(hooked ? "solve hooks armed" : "no program cache");
    for (const bool adaptive : {false, true}) {
      ExtractOptions opts;
      opts.adaptive.enabled = adaptive;
      opts.record_trace = false;
      if (hooked) {
        opts.newton.hooks = &hooks;
      } else {
        opts.newton.solver.program_cache = nullptr;
      }
      const RobustExtraction ref = per_cell(mc, opts);
      for (const int width : {0, 1}) {
        ExtractPlan plan;
        plan.options = opts;
        plan.batch_width = width;
        obs::MetricsSnapshot snap;
        const RobustExtraction got = counted(mc, plan, snap);
        expect_identical(got, ref);
        EXPECT_EQ(counter(snap, "msu.discharge.runs"), 0u);
        EXPECT_EQ(counter(snap, "msu.discharge.shared_cells"), 0u);
        EXPECT_EQ(got.discharge_steps, 0u);
      }
    }
  }
}

}  // namespace
}  // namespace ecms::msu
