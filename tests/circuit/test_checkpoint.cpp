// Checkpoint/resume validation: a transient split at a checkpoint must take
// bit-identical steps to the uninterrupted run, including through nonlinear
// MOSFET circuits, wave reprogramming between segments, and the measurement
// flow's UIC start. This is the contract the adaptive ramp scheduler in
// msu/ relies on.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "circuit/netlist.hpp"
#include "circuit/program.hpp"
#include "circuit/transient.hpp"
#include "edram/macrocell.hpp"
#include "edram/netlister.hpp"
#include "msu/extract.hpp"
#include "msu/sequencer.hpp"
#include "tech/tech.hpp"
#include "util/error.hpp"
#include "util/units.hpp"

namespace ecms::circuit {
namespace {

// RC charging from 0 to 1V through 1k into 1nF (tau = 1us), with a wave
// corner at 2us so the checkpoint can sit exactly on a breakpoint.
Circuit rc_circuit() {
  Circuit c;
  const NodeId in = c.node("in");
  const NodeId out = c.node("out");
  c.add_vsource("V1", in, kGround,
                SourceWave::pwl({{0.0, 0.0}, {1e-9, 1.0}, {2e-6, 1.0},
                                 {2.001e-6, 0.5}}));
  c.add_resistor("R1", in, out, 1_kOhm);
  c.add_capacitor("C1", out, kGround, 1e-9);
  return c;
}

// Compares two traces sample-for-sample, bit-exact, from time `t_from`.
void expect_identical_from(const Trace& full, const Trace& part,
                           const std::string& chan, double t_from) {
  const auto& ft = full.times();
  const auto& fv = full.channel(chan);
  const auto& pt = part.times();
  const auto& pv = part.channel(chan);
  std::size_t fi = 0;
  while (fi < ft.size() && ft[fi] < t_from - 1e-15) ++fi;
  ASSERT_EQ(ft.size() - fi, pt.size());
  for (std::size_t i = 0; i < pt.size(); ++i) {
    ASSERT_EQ(ft[fi + i], pt[i]) << "sample " << i;
    ASSERT_EQ(fv[fi + i], pv[i]) << "t=" << pt[i];
  }
}

// Every resume contract must hold with programs shared through the
// process-wide cache and with private compilation, where nothing but the
// checkpoint carries the pivot order across the split.
std::vector<ProgramCache*> cache_modes() {
  return {&ProgramCache::global(), nullptr};
}

const char* cache_mode_name(const ProgramCache* cache) {
  return cache != nullptr ? "program cache on" : "program cache off";
}

TEST(CheckpointT, ResumeReproducesUninterruptedRunBitExact) {
  for (ProgramCache* cache : cache_modes()) {
    SCOPED_TRACE(cache_mode_name(cache));
    const double t_split = 2e-6;  // an existing wave corner
    TranParams tp;
    tp.t_stop = 4e-6;
    tp.dt = 5e-9;
    tp.newton.solver.program_cache = cache;
    const ProbeSet probes{.nodes = {"out"}, .device_currents = {}};

    Circuit full_ckt = rc_circuit();
    const TranResult full = transient(full_ckt, tp, probes);

    Circuit split_ckt = rc_circuit();
    TranParams prefix = tp;
    prefix.t_stop = t_split;
    prefix.checkpoint_at = t_split;
    const TranResult pre = transient(split_ckt, prefix, probes);
    ASSERT_TRUE(pre.checkpoint.valid());
    EXPECT_EQ(pre.checkpoint.time, t_split);
    EXPECT_NE(pre.checkpoint.pivot_order, nullptr);

    const TranResult post =
        transient_resume(split_ckt, pre.checkpoint, tp, probes);
    expect_identical_from(full.trace, post.trace, "out", t_split);
    EXPECT_EQ(full.stats.accepted_steps,
              pre.stats.accepted_steps + post.stats.accepted_steps);
    ASSERT_EQ(full.final_x.size(), post.final_x.size());
    for (std::size_t i = 0; i < full.final_x.size(); ++i)
      EXPECT_EQ(full.final_x[i], post.final_x[i]) << "unknown " << i;
  }
}

TEST(CheckpointT, MidIntervalCheckpointLandsExactly) {
  Circuit c = rc_circuit();
  TranParams tp;
  tp.t_stop = 4e-6;
  tp.dt = 5e-9;
  tp.checkpoint_at = 1.2345e-6;  // not a wave corner, not a step multiple
  const TranResult r =
      transient(c, tp, {.nodes = {"out"}, .device_currents = {}});
  ASSERT_TRUE(r.checkpoint.valid());
  EXPECT_NEAR(r.checkpoint.time, 1.2345e-6, 1e-15);
}

TEST(CheckpointT, CheckpointAtStopEqualsFinalState) {
  Circuit c = rc_circuit();
  TranParams tp;
  tp.t_stop = 3e-6;
  tp.dt = 5e-9;
  tp.checkpoint_at = tp.t_stop;
  const TranResult r =
      transient(c, tp, {.nodes = {"out"}, .device_currents = {}});
  ASSERT_TRUE(r.checkpoint.valid());
  ASSERT_EQ(r.checkpoint.x.size(), r.final_x.size());
  for (std::size_t i = 0; i < r.final_x.size(); ++i)
    EXPECT_EQ(r.checkpoint.x[i], r.final_x[i]);
}

TEST(CheckpointT, ResumeBranchesDivergeOnlyByReprogrammedWave) {
  // The intended use: snapshot once, branch twice with different stimuli.
  Circuit c = rc_circuit();
  TranParams prefix;
  prefix.t_stop = 1e-6;
  prefix.dt = 5e-9;
  prefix.checkpoint_at = 1e-6;
  const ProbeSet probes{.nodes = {"out"}, .device_currents = {}};
  const TranResult pre = transient(c, prefix, probes);
  ASSERT_TRUE(pre.checkpoint.valid());

  TranParams cont = prefix;
  cont.checkpoint_at = -1.0;
  cont.t_stop = 2e-6;
  const TranResult hold = transient_resume(c, pre.checkpoint, cont, probes);

  auto& v1 = c.get<VSource>("V1");
  v1.set_wave(SourceWave::dc(0.0));
  const TranResult drop = transient_resume(c, pre.checkpoint, cont, probes);

  // First sample (the checkpoint state itself) is shared; later the branch
  // driven to 0V must fall while the held branch keeps charging.
  EXPECT_EQ(hold.trace.value_at("out", 1e-6), drop.trace.value_at("out", 1e-6));
  EXPECT_GT(hold.trace.final_value("out"), drop.trace.final_value("out") + 0.1);
}

TEST(CheckpointT, ResumeValidatesCircuitShape) {
  Circuit c = rc_circuit();
  TranParams tp;
  tp.t_stop = 1e-6;
  tp.dt = 5e-9;
  tp.checkpoint_at = 1e-6;
  const ProbeSet probes{.nodes = {"out"}, .device_currents = {}};
  const TranResult pre = transient(c, tp, probes);

  Circuit other;
  other.add_vsource("V1", other.node("a"), kGround, SourceWave::dc(1.0));
  other.add_resistor("R1", other.node("a"), other.node("b"), 1_kOhm);
  TranParams cont = tp;
  cont.checkpoint_at = -1.0;
  cont.t_stop = 2e-6;
  EXPECT_THROW(transient_resume(other, pre.checkpoint, cont, probes), Error);

  SolverCheckpoint invalid;
  EXPECT_THROW(transient_resume(c, invalid, cont, probes), Error);
}

// The real workload: the five-step measurement flow on a 2x2 macro-cell.
struct MeasurementFlow {
  edram::MacroCell mc = edram::MacroCell::uniform({.rows = 2, .cols = 2},
                                                  tech::tech018(), 30e-15);
  msu::StructureParams sp;
  msu::MeasurementTiming timing;
  ProbeSet probes{.nodes = {"plate", "msu_vgs", "msu_out"},
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
};

TEST(CheckpointT, MeasurementFlowSplitsAtRampStartBitExact) {
  // Split at the end of step 4 (charge sharing done, ramp not started).
  const MeasurementFlow flow;
  for (ProgramCache* cache : cache_modes()) {
    SCOPED_TRACE(cache_mode_name(cache));
    Circuit full_ckt;
    const msu::Schedule sched = flow.build(full_ckt);
    const TranParams tp = flow.params(sched, cache);
    const TranResult full = transient(full_ckt, tp, flow.probes);

    Circuit split_ckt;
    flow.build(split_ckt);
    TranParams prefix = tp;
    prefix.t_stop = sched.t_ramp_start;
    prefix.checkpoint_at = sched.t_ramp_start;
    const TranResult pre = transient(split_ckt, prefix, flow.probes);
    const TranResult post =
        transient_resume(split_ckt, pre.checkpoint, tp, flow.probes);

    expect_identical_from(full.trace, post.trace, "msu_out",
                          sched.t_ramp_start);
    expect_identical_from(full.trace, post.trace, "plate",
                          sched.t_ramp_start);
  }
}

TEST(CheckpointT, ResumeAfterForcedRepivotBitExact) {
  // A singular system injected once mid-prefix drops the engine's pivot
  // order; the halved retry re-pivots on that point's values. The
  // checkpoint must carry the re-derived order, not the program the run
  // started with (the cache still holds that one), or the resumed ramp
  // drifts from the uninterrupted run in the last ulp.
  const MeasurementFlow flow;
  for (ProgramCache* cache : cache_modes()) {
    SCOPED_TRACE(cache_mode_name(cache));
    Circuit ref_ckt;
    const msu::Schedule sched = flow.build(ref_ckt);
    TranParams clean = flow.params(sched, cache);
    clean.t_stop = sched.t_ramp_start;
    clean.checkpoint_at = sched.t_ramp_start;
    const TranResult ref = transient(ref_ckt, clean, flow.probes);

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
    const TranResult full = transient(full_ckt, tp, flow.probes);
    ASSERT_TRUE(full_fired);

    bool split_fired = false;
    const SolveHooks split_hooks = one_shot(split_fired);
    Circuit split_ckt;
    flow.build(split_ckt);
    TranParams prefix = tp;
    prefix.newton.hooks = &split_hooks;
    prefix.t_stop = sched.t_ramp_start;
    prefix.checkpoint_at = sched.t_ramp_start;
    const TranResult pre = transient(split_ckt, prefix, flow.probes);
    ASSERT_TRUE(split_fired);
    EXPECT_GT(pre.stats.rejected_steps, 0u);

    // The re-pivot really changed the order the engine factors with.
    ASSERT_NE(pre.checkpoint.pivot_order, nullptr);
    ASSERT_NE(ref.checkpoint.pivot_order, nullptr);
    const LuSymbolic& repivoted = *pre.checkpoint.pivot_order->symbolic;
    const LuSymbolic& original = *ref.checkpoint.pivot_order->symbolic;
    EXPECT_TRUE(repivoted.perm_row != original.perm_row ||
                repivoted.perm_col != original.perm_col);

    TranParams rest = tp;
    rest.newton.hooks = nullptr;
    const TranResult post =
        transient_resume(split_ckt, pre.checkpoint, rest, flow.probes);
    expect_identical_from(full.trace, post.trace, "msu_out",
                          sched.t_ramp_start);
    expect_identical_from(full.trace, post.trace, "plate",
                          sched.t_ramp_start);
  }
}

}  // namespace
}  // namespace ecms::circuit
