// Observability wired through the real extraction stack:
//   * instrumentation must not perturb results — robust tiled extraction
//     returns bit-identical codes with obs fully on vs fully off, serial
//     and on an 8-worker pool;
//   * the counters and spans promised by DESIGN.md §8 actually populate
//     (Newton solves, recovery rungs, retries, per-tile spans);
//   * the default log sink stamps lines with the open span id.
#include <gtest/gtest.h>

#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bitmap/extraction.hpp"
#include "fault/fault.hpp"
#include "msu/extract.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "tech/tech.hpp"
#include "util/error.hpp"
#include "util/log.hpp"
#include "util/threadpool.hpp"
#include "util/units.hpp"

namespace ecms {
namespace {

class ObsIntegrationT : public ::testing::Test {
 protected:
  void TearDown() override {
    obs::set_metrics_enabled(false);
    obs::stop_tracing();
    set_log_sink({});
  }

  static edram::MacroCell mc8x8() {
    return edram::MacroCell::uniform({.rows = 8, .cols = 8}, tech::tech018(),
                                     30_fF);
  }

  static std::uint64_t counter_value(const std::string& name) {
    const auto snap = obs::Registry::global().snapshot();
    const auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0 : it->second;
  }
};

TEST_F(ObsIntegrationT, InstrumentedCodesBitIdenticalToUninstrumented) {
  const auto mc = mc8x8();
  // A flaky plan exercises the retry path on both sides of the comparison.
  const fault::CellFaultPlan plan(0.05, 42);
  extraction::ExtractRequest req;
  req.robust = true;
  req.cell_hook = plan.flaky_hook(1);
  req.retry.max_attempts = 3;

  obs::set_metrics_enabled(false);
  const auto baseline = extraction::extract(mc, req);

  obs::set_metrics_enabled(true);
  obs::start_tracing();
  const auto instr_serial = extraction::extract(mc, req);
  util::ThreadPool pool(8);
  req.pool = &pool;
  const auto instr_par = extraction::extract(mc, req);
  obs::stop_tracing();

  EXPECT_EQ(instr_serial.bitmap.codes(), baseline.bitmap.codes());
  EXPECT_EQ(instr_par.bitmap.codes(), baseline.bitmap.codes());
  EXPECT_EQ(instr_serial.report.summary(), baseline.report.summary());
  EXPECT_EQ(instr_par.report.summary(), baseline.report.summary());
}

TEST_F(ObsIntegrationT, TileSpansAndRetryCountersPopulate) {
  const auto mc = mc8x8();
  const fault::CellFaultPlan plan(0.08, 7);
  extraction::ExtractRequest req;
  req.robust = true;
  req.cell_hook = plan.flaky_hook(1);
  req.retry.max_attempts = 3;

  obs::Registry::global().reset();
  obs::set_metrics_enabled(true);
  obs::start_tracing();
  const auto out = extraction::extract(mc, req);
  obs::stop_tracing();
  ASSERT_TRUE(out.report.complete());

  // 8x8 with 4x4 tiles: four tile spans under one extract span.
  std::size_t tiles = 0;
  std::uint64_t root = 0;
  for (const auto& e : obs::collected_trace_events()) {
    if (e.name == "extract_robust") root = e.span_id;
    if (e.name == "extract_tile") ++tiles;
  }
  EXPECT_EQ(tiles, 4u);
  EXPECT_NE(root, 0u);
  EXPECT_EQ(counter_value("bitmap.tiles"), 4u);
  EXPECT_EQ(counter_value("bitmap.cells.ok") +
                counter_value("bitmap.cells.recovered"),
            64u);
  // The planned flaky cells each fail once, then recover on a retry.
  const std::uint64_t planned = plan.count(8, 8);
  ASSERT_GT(planned, 0u);
  EXPECT_EQ(counter_value("util.retry.retries"), planned);
  EXPECT_EQ(counter_value("util.retry.recovered"), planned);
  EXPECT_EQ(counter_value("util.retry.attempts"), 64u + planned);
}

TEST_F(ObsIntegrationT, NewtonCountersAndCircuitSpansPopulate) {
  // The whole-window reference: one transient() per cell.
  const auto mc = edram::MacroCell::uniform({.rows = 2, .cols = 2},
                                            tech::tech018(), 30_fF);
  msu::ExtractOptions whole_window;
  whole_window.adaptive.enabled = false;
  obs::Registry::global().reset();
  obs::set_metrics_enabled(true);
  obs::start_tracing();
  const auto res = msu::extract_cell(mc, 0, 0, {}, {}, whole_window);
  obs::stop_tracing();
  ASSERT_EQ(res.status, CellStatus::kOk);

  const std::uint64_t solves = counter_value("circuit.newton.solves");
  EXPECT_GT(solves, 0u);
  EXPECT_GE(counter_value("circuit.newton.iterations"), solves);
  // Factorizations are the real symbolic + numeric work. With symbolic
  // reuse on the sparse backend this can be below the iteration count;
  // it can never exceed it (at most one factorization per iteration).
  EXPECT_EQ(counter_value("circuit.newton.factorizations"),
            counter_value("circuit.lu.symbolic") +
                counter_value("circuit.lu.numeric"));
  EXPECT_LE(counter_value("circuit.newton.factorizations"),
            counter_value("circuit.newton.iterations"));
  EXPECT_GT(counter_value("circuit.lu.numeric"), 0u);
  EXPECT_GE(counter_value("circuit.transient.accepted_steps"), 1u);
  EXPECT_EQ(counter_value("circuit.transient.solves"), 1u);

  const auto snap = obs::Registry::global().snapshot();
  const auto it = snap.histograms.find("circuit.newton.iterations_per_solve");
  ASSERT_NE(it, snap.histograms.end());
  EXPECT_EQ(it->second.count, solves);

  // transient runs nested inside the extract_cell span.
  std::uint64_t cell_span = 0;
  const auto evs = obs::collected_trace_events();
  for (const auto& e : evs) {
    if (e.name == "extract_cell") cell_span = e.span_id;
  }
  ASSERT_NE(cell_span, 0u);
  bool transient_nested = false;
  for (const auto& e : evs) {
    if (e.name == "transient" && e.parent_id != 0) transient_nested = true;
  }
  EXPECT_TRUE(transient_nested);
}

TEST_F(ObsIntegrationT, StopAtFlipCountersMatchItsSegments) {
  // The default flow: one stepper advanced once for the prefix and once
  // per ramp level up to the flip, each advance one transient solve.
  const auto mc = edram::MacroCell::uniform({.rows = 2, .cols = 2},
                                            tech::tech018(), 30_fF);
  obs::Registry::global().reset();
  obs::set_metrics_enabled(true);
  obs::start_tracing();
  const auto res = msu::extract_cell(mc, 0, 0, {});
  obs::stop_tracing();
  ASSERT_EQ(res.status, CellStatus::kOk);
  ASSERT_TRUE(res.adaptive.used);
  ASSERT_GT(res.adaptive.probes, 0);
  const auto segments = static_cast<std::uint64_t>(1 + res.adaptive.probes);

  const std::uint64_t solves = counter_value("circuit.newton.solves");
  EXPECT_GT(solves, 0u);
  EXPECT_GE(counter_value("circuit.newton.iterations"), solves);
  EXPECT_EQ(counter_value("circuit.newton.factorizations"),
            counter_value("circuit.lu.symbolic") +
                counter_value("circuit.lu.numeric"));
  EXPECT_LE(counter_value("circuit.newton.factorizations"),
            counter_value("circuit.newton.iterations"));
  EXPECT_GT(counter_value("circuit.lu.numeric"), 0u);
  EXPECT_EQ(counter_value("circuit.transient.accepted_steps"),
            res.stats.accepted_steps);
  EXPECT_EQ(counter_value("circuit.transient.solves"), segments);
  EXPECT_EQ(counter_value("circuit.transient.resumes"), segments - 1);
  EXPECT_EQ(counter_value("msu.adaptive.cells"), 1u);
  EXPECT_EQ(counter_value("msu.adaptive.probes"),
            static_cast<std::uint64_t>(res.adaptive.probes));

  const auto snap = obs::Registry::global().snapshot();
  const auto it = snap.histograms.find("circuit.newton.iterations_per_solve");
  ASSERT_NE(it, snap.histograms.end());
  EXPECT_EQ(it->second.count, solves);

  // One transient_segment span per solve and one adaptive_probe span per
  // ramp segment, all nested inside the extract_cell span.
  std::uint64_t segment_spans = 0, probe_spans = 0, whole_spans = 0;
  for (const auto& e : obs::collected_trace_events()) {
    if (e.name == "transient_segment" && e.parent_id != 0) ++segment_spans;
    if (e.name == "adaptive_probe" && e.parent_id != 0) ++probe_spans;
    if (e.name == "transient") ++whole_spans;
  }
  EXPECT_EQ(segment_spans, segments);
  EXPECT_EQ(probe_spans, static_cast<std::uint64_t>(res.adaptive.probes));
  EXPECT_EQ(whole_spans, 0u);
}

TEST_F(ObsIntegrationT, RecoveryRungCountersTrackTheLadder) {
  const auto mc = edram::MacroCell::uniform({.rows = 2, .cols = 2},
                                            tech::tech018(), 30_fF);
  fault::SolverFaultInjector inj;
  inj.add({.cleared_by = fault::ClearedBy::kManyIterations,
           .iter_threshold = 150});
  const circuit::SolveHooks hooks = inj.hooks();
  msu::ExtractOptions opts;
  opts.newton.hooks = &hooks;

  obs::Registry::global().reset();
  obs::set_metrics_enabled(true);
  const auto res = msu::extract_cell(mc, 0, 0, {}, {}, opts);
  ASSERT_EQ(res.status, CellStatus::kRecovered);
  ASSERT_EQ(res.recovery.succeeded_at, circuit::RecoveryRung::kHardenNewton);

  // Ladder walk: baseline and shrink-step entered and lost, harden-newton
  // entered and won.
  EXPECT_EQ(counter_value("circuit.recovery.entered.baseline"), 1u);
  EXPECT_EQ(counter_value("circuit.recovery.entered.shrink-step"), 1u);
  EXPECT_EQ(counter_value("circuit.recovery.entered.harden-newton"), 1u);
  EXPECT_EQ(counter_value("circuit.recovery.won.baseline"), 0u);
  EXPECT_EQ(counter_value("circuit.recovery.won.harden-newton"), 1u);
  EXPECT_EQ(counter_value("circuit.recovery.recovered"), 1u);
  EXPECT_EQ(counter_value("circuit.recovery.exhausted"), 0u);
}

TEST_F(ObsIntegrationT, CellCountersCountEachCellOnceFromItsFinalStatus) {
  // Cell (0,0) throws on attempt 0 and is measured on the retry, so it ends
  // kRecovered; the other three are kOk. Every *.cells.ok counter together
  // must count exactly the kOk cells, on the scalar path and batched.
  const auto mc = edram::MacroCell::uniform({.rows = 2, .cols = 2},
                                            tech::tech018(), 30_fF);
  for (const int width : {1, 4}) {
    extraction::ExtractRequest req;
    req.engine = extraction::Engine::kCircuit;
    req.tile_rows = req.tile_cols = 2;
    req.batch_width = width;
    req.robust = true;
    req.retry.max_attempts = 2;
    req.cell_hook = [](std::size_t r, std::size_t c, int attempt) {
      if (r == 0 && c == 0 && attempt == 0) throw MeasureError("flaky cell");
    };

    obs::Registry::global().reset();
    obs::set_metrics_enabled(true);
    const auto out = extraction::extract(mc, req);
    obs::set_metrics_enabled(false);
    ASSERT_TRUE(out.complete()) << "width " << width;
    ASSERT_EQ(out.status_at(0, 0), CellStatus::kRecovered) << "width " << width;

    std::uint64_t n_ok = 0;
    for (const CellStatus s : out.status) n_ok += s == CellStatus::kOk ? 1 : 0;
    ASSERT_EQ(n_ok, 3u);
    std::uint64_t ok_counted = 0;
    const std::string suffix = ".cells.ok";
    for (const auto& [name, value] :
         obs::Registry::global().snapshot().counters) {
      if (name.size() >= suffix.size() &&
          name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
              0) {
        ok_counted += value;
      }
    }
    EXPECT_EQ(ok_counted, n_ok) << "width " << width;
    EXPECT_EQ(counter_value("bitmap.cells.recovered"), 1u) << "width " << width;
    EXPECT_EQ(counter_value("bitmap.cells.unmeasurable"), 0u)
        << "width " << width;
  }
}

TEST_F(ObsIntegrationT, DefaultLogSinkStampsOpenSpanId) {
  std::ostringstream captured;
  std::streambuf* old = std::clog.rdbuf(captured.rdbuf());
  obs::start_tracing();
  {
    obs::ScopedSpan span("test_obs_log");
    ECMS_LOG(LogLevel::kError) << "inside the span";
    const std::string expect = "span=" + std::to_string(span.id());
    EXPECT_NE(captured.str().find(expect), std::string::npos)
        << captured.str();
  }
  obs::stop_tracing();
  captured.str("");
  ECMS_LOG(LogLevel::kError) << "outside any span";
  std::clog.rdbuf(old);
  EXPECT_EQ(captured.str().find("span="), std::string::npos) << captured.str();
  EXPECT_NE(captured.str().find("outside any span"), std::string::npos);
}

TEST_F(ObsIntegrationT, CustomLogSinkReceivesRawLines) {
  std::vector<std::string> lines;
  set_log_sink([&lines](LogLevel, const std::string& msg) {
    lines.push_back(msg);
  });
  ECMS_LOG(LogLevel::kError) << "routed to the custom sink";
  set_log_sink({});
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0], "routed to the custom sink");
}

}  // namespace
}  // namespace ecms
