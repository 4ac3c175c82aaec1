// TransientStepper segment identity: one stepper advanced through several
// segments must take bit-identical steps to one transient() over the whole
// interval — whether a stop sits on a stimulus corner or between corners
// on the step grid, across the measurement flow's ramp-start and
// per-level stops, with the program cache on or off, and after a forced
// mid-run re-pivot. This is the contract the adaptive ramp scheduler in
// msu/ relies on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <span>
#include <vector>

#include "circuit/netlist.hpp"
#include "circuit/program.hpp"
#include "circuit/transient.hpp"
#include "edram/macrocell.hpp"
#include "edram/netlister.hpp"
#include "msu/extract.hpp"
#include "msu/sequencer.hpp"
#include "obs/metrics.hpp"
#include "tech/tech.hpp"
#include "util/error.hpp"
#include "util/units.hpp"

namespace ecms::circuit {
namespace {

// Dyadic times and step: every grid instant is exact in binary, so a stop
// between corners can sit exactly on the uninterrupted run's grid.
constexpr double kDt = 0x1p-28;          // ~3.7 ns
constexpr double kCorner = 0x1p-19;      // ~1.9 us, a wave corner
constexpr double kStop = 0x1p-18;        // ~3.8 us
constexpr double kOffCorner = 0x1p-30 + 100 * kDt;  // a grid point

// RC charging through 1k into 1nF (tau = 1 us), with wave corners at 2^-30,
// kCorner and kCorner + 2^-29.
Circuit rc_circuit() {
  Circuit c;
  const NodeId in = c.node("in");
  const NodeId out = c.node("out");
  c.add_vsource("V1", in, kGround,
                SourceWave::pwl({{0.0, 0.0},
                                 {0x1p-30, 1.0},
                                 {kCorner, 1.0},
                                 {kCorner + 0x1p-29, 0.5}}));
  c.add_resistor("R1", in, out, 1_kOhm);
  c.add_capacitor("C1", out, kGround, 1e-9);
  return c;
}

// One stepper advanced through `stops` (ascending; the last is the end),
// recorded into one trace. Each segment opens with a boundary sample that
// must repeat the previous segment's last row; it is checked and dropped.
TranResult segmented(Circuit& ckt, const TranParams& tp,
                     const ProbeSet& probes, const std::vector<double>& stops) {
  ProbeRecorder rec(ckt, probes);
  TranResult res;
  res.trace = rec.make_trace();
  TransientStepper stepper(ckt, tp);
  for (const double stop : stops) {
    Trace seg = rec.make_trace();
    stepper.advance(stop, [&](double t, std::span<const double> x) {
      rec.record(seg, t, x);
    });
    EXPECT_EQ(stepper.time(), seg.times().back());
    std::size_t first = 0;
    if (res.trace.sample_count() > 0) {
      EXPECT_EQ(seg.times()[0], res.trace.times().back());
      for (std::size_t c = 0; c < seg.channel_count(); ++c) {
        EXPECT_EQ(seg.channel(c)[0], res.trace.final_value(c));
      }
      first = 1;
    }
    std::vector<double> row(seg.channel_count());
    for (std::size_t i = first; i < seg.sample_count(); ++i) {
      for (std::size_t c = 0; c < row.size(); ++c) row[c] = seg.channel(c)[i];
      res.trace.append(seg.times()[i], row);
    }
  }
  res.stats = stepper.stats();
  res.final_x.assign(stepper.x().begin(), stepper.x().end());
  return res;
}

// Trace rows, every channel, final unknown vector and step counts:
// bit-exact.
void expect_identical(const TranResult& full, const TranResult& split) {
  ASSERT_EQ(full.trace.times(), split.trace.times());
  ASSERT_EQ(full.trace.channel_count(), split.trace.channel_count());
  for (std::size_t c = 0; c < full.trace.channel_count(); ++c) {
    ASSERT_EQ(full.trace.channel(c), split.trace.channel(c))
        << full.trace.channel_names()[c];
  }
  EXPECT_EQ(full.final_x, split.final_x);
  EXPECT_EQ(full.stats.accepted_steps, split.stats.accepted_steps);
  EXPECT_EQ(full.stats.rejected_steps, split.stats.rejected_steps);
  EXPECT_EQ(full.stats.newton_iterations, split.stats.newton_iterations);
}

// Programs shared through the process-wide cache, and private compilation
// where the engine derives its own pivot order from its first values.
std::vector<ProgramCache*> cache_modes() {
  return {&ProgramCache::global(), nullptr};
}

const char* cache_mode_name(const ProgramCache* cache) {
  return cache != nullptr ? "program cache on" : "program cache off";
}

TEST(StepperT, StopsOnAndOffCornersMatchOneTransient) {
  const ProbeSet probes{.nodes = {"in", "out"}, .device_currents = {}};
  for (ProgramCache* cache : cache_modes()) {
    SCOPED_TRACE(cache_mode_name(cache));
    TranParams tp;
    tp.t_stop = kStop;
    tp.dt = kDt;
    tp.newton.solver.program_cache = cache;

    Circuit full_ckt = rc_circuit();
    const TranResult full = transient(full_ckt, tp, probes);

    Circuit split_ckt = rc_circuit();
    const TranResult split =
        segmented(split_ckt, tp, probes, {kOffCorner, kCorner, kStop});
    expect_identical(full, split);
  }
}

TEST(StepperT, StopBetweenGridPointsLandsOnIt) {
  Circuit c = rc_circuit();
  TranParams tp;
  tp.dt = kDt;
  TransientStepper stepper(c, tp);
  std::size_t samples = 0;
  const auto count = [&](double, std::span<const double>) { ++samples; };
  stepper.advance(1.2345e-6, count);  // not a corner, not a grid point
  EXPECT_NEAR(stepper.time(), 1.2345e-6, 1e-15);
  EXPECT_EQ(samples, stepper.stats().accepted_steps + 1);
  stepper.advance(2e-6, count);
  EXPECT_EQ(samples, stepper.stats().accepted_steps + 2);
  // A stop not after the current time is refused.
  EXPECT_THROW(stepper.advance(1e-6, count), Error);
}

// The real workload: the five-step measurement flow on a 2x2 macro-cell.
struct MeasurementFlow {
  edram::MacroCell mc = edram::MacroCell::uniform({.rows = 2, .cols = 2},
                                                  tech::tech018(), 30e-15);
  msu::StructureParams sp;
  msu::MeasurementTiming timing;
  ProbeSet probes{.nodes = {"plate", "msu_vgs", "msu_sense", "msu_out"},
                  .device_currents = {}};

  msu::Schedule build(Circuit& ckt) const {
    const edram::ArrayNet array = edram::build_array(ckt, mc);
    const msu::StructureNet msu_net =
        build_structure(ckt, array.plate, mc.tech(), sp);
    return msu::program_measurement(ckt, array, msu_net, mc, 0, 0,
                                    /*delta_i=*/1e-6, sp, timing);
  }

  TranParams params(const msu::Schedule& sched, ProgramCache* cache) const {
    TranParams tp;
    tp.t_stop = sched.t_end;
    tp.dt = 20e-12;
    tp.uic = true;
    tp.newton.solver.program_cache = cache;
    return tp;
  }

  // The adaptive scheduler's stops: the ramp start, the end of every ramp
  // level, then the end of the flow.
  std::vector<double> stops(const msu::Schedule& sched) const {
    std::vector<double> out{sched.t_ramp_start};
    const double level = timing.step / static_cast<double>(sched.ramp_steps);
    for (int k = 1; k <= sched.ramp_steps; ++k) {
      out.push_back(sched.t_ramp_start + static_cast<double>(k) * level);
    }
    out.push_back(sched.t_end);
    return out;
  }
};

TEST(StepperT, MeasurementFlowSplitPerRampLevelMatchesOneTransient) {
  const MeasurementFlow flow;
  for (ProgramCache* cache : cache_modes()) {
    SCOPED_TRACE(cache_mode_name(cache));
    Circuit full_ckt;
    const msu::Schedule sched = flow.build(full_ckt);
    const TranParams tp = flow.params(sched, cache);
    const TranResult full = transient(full_ckt, tp, flow.probes);

    Circuit ramp_ckt;
    flow.build(ramp_ckt);
    expect_identical(full, segmented(ramp_ckt, tp, flow.probes,
                                     {sched.t_ramp_start, sched.t_end}));

    Circuit level_ckt;
    flow.build(level_ckt);
    expect_identical(full,
                     segmented(level_ckt, tp, flow.probes, flow.stops(sched)));
  }
}

TEST(StepperT, PausesOnTheStepOneCornerAndLevelEndsLandOnTheGrid) {
  // A segment ending on a corner the segment itself cannot see (its
  // breakpoints stop short of t_stop) must land exactly where the
  // uninterrupted run lands on that corner, not a few ulps short: every
  // pause's time and x match one advance() over the whole flow bitwise.
  const MeasurementFlow flow;
  for (ProgramCache* cache : cache_modes()) {
    SCOPED_TRACE(cache_mode_name(cache));
    Circuit full_ckt;
    const msu::Schedule sched = flow.build(full_ckt);
    const TranParams tp = flow.params(sched, cache);
    std::vector<double> times;
    std::vector<std::vector<double>> xs;
    TransientStepper full(full_ckt, tp);
    full.advance(sched.t_end, [&](double t, std::span<const double> x) {
      times.push_back(t);
      xs.emplace_back(x.begin(), x.end());
    });

    std::vector<double> stops = flow.stops(sched);
    stops.insert(stops.begin(), sched.t_discharge_end);
    // The step-1 corner is exact: it is where extract_array pauses.
    ASSERT_NE(std::find(times.begin(), times.end(), sched.t_discharge_end),
              times.end());
    Circuit split_ckt;
    flow.build(split_ckt);
    TransientStepper split(split_ckt, tp);
    for (const double stop : stops) {
      split.advance(stop, [](double, std::span<const double>) {});
      SCOPED_TRACE("stop " + std::to_string(stop));
      // The full run's grid point at the stop (a ramp corner may sit an
      // ulp from the level end the flow computes; the pause takes it).
      const auto it = std::lower_bound(times.begin(), times.end(),
                                       stop - kTimeEps);
      ASSERT_NE(it, times.end());
      EXPECT_LE(std::abs(*it - stop), kTimeEps);
      EXPECT_EQ(split.time(), *it);
      const std::vector<double> x(split.x().begin(), split.x().end());
      EXPECT_EQ(x, xs[static_cast<std::size_t>(it - times.begin())]);
    }
    EXPECT_EQ(split.stats().accepted_steps, full.stats().accepted_steps);
  }
}

// Full (Markowitz) factorizations a run performs, from the metrics registry.
template <typename Run>
std::uint64_t symbolic_factorizations(Run&& run) {
  obs::Registry::global().reset();
  obs::set_metrics_enabled(true);
  run();
  obs::set_metrics_enabled(false);
  const auto snap = obs::Registry::global().snapshot();
  const auto it = snap.counters.find("circuit.lu.symbolic");
  return it == snap.counters.end() ? 0 : it->second;
}

TEST(StepperT, SplitAfterForcedRepivotMatchesOneTransient) {
  // A singular system injected once mid-prefix drops the engine's pivot
  // order; the halved retry re-pivots on that point's values. The stepper
  // must keep factoring with the re-derived order in every later segment,
  // not the program the run started with (the cache still holds that one).
  const MeasurementFlow flow;
  for (ProgramCache* cache : cache_modes()) {
    SCOPED_TRACE(cache_mode_name(cache));
    // A clean run's count, measured once the cache holds the flow's
    // program (a cold cache adds the publishing compile).
    Circuit ref_ckt;
    const msu::Schedule sched = flow.build(ref_ckt);
    const TranParams clean = flow.params(sched, cache);
    transient(ref_ckt, clean, flow.probes);
    const std::uint64_t clean_symbolic = symbolic_factorizations(
        [&] { transient(ref_ckt, clean, flow.probes); });

    // Fires on the first Newton iteration past the fault time, once per
    // run that carries these hooks.
    const double t_fault = 0.5 * (sched.t_share + sched.t_ramp_start);
    auto one_shot = [t_fault](bool& fired) {
      SolveHooks h;
      h.make_singular = [t_fault, &fired](const StampContext& ctx,
                                          const NewtonOptions&) {
        if (fired || ctx.time < t_fault) return false;
        fired = true;
        return true;
      };
      return h;
    };

    bool full_fired = false;
    const SolveHooks full_hooks = one_shot(full_fired);
    Circuit full_ckt;
    flow.build(full_ckt);
    TranParams tp = flow.params(sched, cache);
    tp.newton.hooks = &full_hooks;
    TranResult full;
    const std::uint64_t faulted_symbolic = symbolic_factorizations(
        [&] { full = transient(full_ckt, tp, flow.probes); });
    ASSERT_TRUE(full_fired);
    EXPECT_GT(full.stats.rejected_steps, 0u);
    // The re-pivot really happened.
    EXPECT_GT(faulted_symbolic, clean_symbolic);

    bool split_fired = false;
    const SolveHooks split_hooks = one_shot(split_fired);
    Circuit split_ckt;
    flow.build(split_ckt);
    tp.newton.hooks = &split_hooks;
    expect_identical(full,
                     segmented(split_ckt, tp, flow.probes, flow.stops(sched)));
    ASSERT_TRUE(split_fired);
  }
}

}  // namespace
}  // namespace ecms::circuit
