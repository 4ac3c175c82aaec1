// The stop-at-flip flow (the default): the golden contract that it is
// bit-identical to the whole-window run (adaptive.enabled = false) across
// every code, the Fig. 3 sweep, the no-flip tail, its fallbacks (OUT high
// before the ramp, fault injection), recorded traces and calibration.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <map>
#include <set>
#include <vector>

#include "circuit/mosfet.hpp"
#include "circuit/program.hpp"
#include "fault/fault.hpp"
#include "msu/calibrate.hpp"
#include "msu/extract.hpp"
#include "msu/fastmodel.hpp"
#include "tech/tech.hpp"
#include "util/units.hpp"

namespace ecms::msu {
namespace {

// ---------------------------------------------------------------------------
// Circuit-level golden identity

edram::MacroCell mc2x2(double cap = 30e-15) {
  return edram::MacroCell::uniform({.rows = 2, .cols = 2}, tech::tech018(),
                                   cap);
}

ExtractOptions adaptive_opts(
    circuit::ProgramCache* cache = &circuit::ProgramCache::global()) {
  ExtractOptions o;
  o.record_trace = false;
  o.adaptive.enabled = true;
  o.newton.solver.program_cache = cache;
  return o;
}

ExtractOptions exhaustive_opts(
    circuit::ProgramCache* cache = &circuit::ProgramCache::global()) {
  ExtractOptions o;
  o.record_trace = false;
  o.adaptive.enabled = false;
  o.newton.solver.program_cache = cache;
  return o;
}

// Shared programs and private compilation (program cache off).
std::vector<circuit::ProgramCache*> cache_modes() {
  return {&circuit::ProgramCache::global(), nullptr};
}

TEST(AdaptiveExtractT, EveryCodeBitIdenticalToExhaustiveRamp) {
  // Force each of the 21 codes by choosing the ramp LSB against the sense
  // current of a fixed cell: delta_i = i_sink / (k + 0.5) targets code k.
  const auto mc = mc2x2();
  const StructureParams sp;
  const ExtractionResult probe = extract_cell(mc, 0, 0, sp);
  const double i_sink = circuit::mos_ids(
      mc.tech().nmos(sp.ref_w, sp.ref_l), probe.vgs_shared,
      mc.tech().vdd / 2.0);
  ASSERT_GT(i_sink, 0.0);

  // Each LSB is measured with programs shared and compiled privately: with
  // the cache off only the stepper's one engine carries the pivot order
  // across the adaptive segments.
  auto codes_at = [&](double delta_i) {
    int code = -1;
    for (circuit::ProgramCache* cache : cache_modes()) {
      ExtractOptions fast = adaptive_opts(cache);
      fast.delta_i = delta_i;
      ExtractOptions slow = exhaustive_opts(cache);
      slow.delta_i = delta_i;
      const ExtractionResult a = extract_cell(mc, 0, 0, sp, {}, fast);
      const ExtractionResult e = extract_cell(mc, 0, 0, sp, {}, slow);
      EXPECT_EQ(a.code, e.code) << "delta_i=" << delta_i;
      EXPECT_EQ(a.t_out_rise.has_value(), e.t_out_rise.has_value())
          << "delta_i=" << delta_i;
      if (a.t_out_rise && e.t_out_rise) {
        EXPECT_EQ(*a.t_out_rise, *e.t_out_rise) << "delta_i=" << delta_i;
      }
      EXPECT_TRUE(a.adaptive.attempted);
      if (a.adaptive.used) {
        // The simulated staircase stops at the flip, so the conversion
        // never costs more than the exhaustive ramp and is strictly cheaper
        // except at (near-)full-scale codes where the flip sits at the end.
        EXPECT_LE(a.conversion_steps(), e.conversion_steps())
            << "delta_i=" << delta_i;
        if (a.code < sp.ramp_steps - 1) {
          EXPECT_LT(a.conversion_steps(), e.conversion_steps())
              << "delta_i=" << delta_i;
        }
      }
      if (code >= 0) {
        EXPECT_EQ(a.code, code) << "delta_i=" << delta_i;
      }
      code = a.code;
    }
    return code;
  };

  std::map<int, double> lsb_of_code;
  std::set<int> observed;
  for (int k = 0; k <= sp.ramp_steps; ++k) {
    const double delta_i = i_sink / (static_cast<double>(k) + 0.5);
    const int code = codes_at(delta_i);
    observed.insert(code);
    lsb_of_code.emplace(code, delta_i);
  }
  // The +0.5 centring makes code == k typical but not guaranteed; close any
  // gaps by bisecting the LSB between the codes bracketing each missing one
  // (the code falls monotonically as the LSB grows).
  for (int missing = 0; missing <= sp.ramp_steps; ++missing) {
    if (observed.count(missing)) continue;
    const auto above = lsb_of_code.lower_bound(missing);
    if (above == lsb_of_code.end() || above == lsb_of_code.begin()) continue;
    double lsb_small = above->second;            // yields codes > missing
    double lsb_big = std::prev(above)->second;   // yields codes < missing
    for (int it = 0; it < 24 && !observed.count(missing); ++it) {
      const double mid = 0.5 * (lsb_small + lsb_big);
      const int code = codes_at(mid);
      observed.insert(code);
      if (code > missing) {
        lsb_small = mid;
      } else if (code < missing) {
        lsb_big = mid;
      }
    }
  }
  std::string missing_codes;
  for (int k = 0; k <= sp.ramp_steps; ++k)
    if (!observed.count(k)) missing_codes += " " + std::to_string(k);
  EXPECT_EQ(observed.size(), 21u)
      << "codes not covered by the sweep; missing:" << missing_codes;
  EXPECT_TRUE(observed.count(0));
  EXPECT_TRUE(observed.count(sp.ramp_steps));
}

TEST(AdaptiveExtractT, CapacitanceSweepBitIdenticalAndCheaper) {
  const StructureParams sp;
  const FastModel design(mc2x2(), sp);
  const double lo = design.cap_at_code_boundary(1) * 0.8;
  const double hi = design.cap_at_code_boundary(sp.ramp_steps) * 1.1;
  std::size_t adaptive_steps = 0;
  std::size_t exhaustive_steps = 0;
  std::size_t cells_used_adaptive = 0;
  for (int i = 0; i < 10; ++i) {
    const double cap = lo + (hi - lo) * static_cast<double>(i) / 9.0;
    const auto mc = mc2x2(cap);
    const ExtractionResult a =
        extract_cell(mc, 1, 1, sp, {}, adaptive_opts());
    const ExtractionResult e =
        extract_cell(mc, 1, 1, sp, {}, exhaustive_opts());
    ASSERT_EQ(a.code, e.code) << "cap=" << cap;
    EXPECT_EQ(a.prefix_steps, e.prefix_steps) << "cap=" << cap;
    // Private compilation: the same codes and flip times, bit for bit.
    const ExtractionResult a_off =
        extract_cell(mc, 1, 1, sp, {}, adaptive_opts(nullptr));
    const ExtractionResult e_off =
        extract_cell(mc, 1, 1, sp, {}, exhaustive_opts(nullptr));
    EXPECT_EQ(a_off.code, e.code) << "cap=" << cap;
    EXPECT_EQ(e_off.code, e.code) << "cap=" << cap;
    EXPECT_EQ(a_off.t_out_rise, e_off.t_out_rise) << "cap=" << cap;
    adaptive_steps += a.conversion_steps();
    exhaustive_steps += e.conversion_steps();
    if (a.adaptive.used) ++cells_used_adaptive;
  }
  // The adaptive cost scales with the code (the staircase stops at the
  // flip), so a sweep spread uniformly over all 21 codes averages ~2x on
  // conversion steps; the EXT-A8 2.5x bar is measured on the production-like
  // array whose codes sit low in the window.
  EXPECT_GE(cells_used_adaptive, 9u);
  EXPECT_GE(static_cast<double>(exhaustive_steps),
            1.5 * static_cast<double>(adaptive_steps));
}

TEST(AdaptiveExtractT, ArmedFaultInjectionFallsBackAndMatches) {
  const auto mc = mc2x2();
  const ExtractionResult ref = extract_cell(mc, 0, 0, {});

  for (std::uint64_t seed : {1u, 7u, 23u}) {
    fault::SolverFaultInjector inj(seed);
    inj.set_stall_rate(0.0);  // armed but quiet: hooks are non-null
    const circuit::SolveHooks hooks = inj.hooks();
    ExtractOptions opts = adaptive_opts();
    opts.newton.hooks = &hooks;
    const ExtractionResult res = extract_cell(mc, 0, 0, {}, {}, opts);
    EXPECT_TRUE(res.adaptive.attempted);
    EXPECT_TRUE(res.adaptive.fell_back) << "seed " << seed;
    EXPECT_FALSE(res.adaptive.used);
    EXPECT_EQ(res.code, ref.code) << "seed " << seed;
  }
}

TEST(AdaptiveExtractT, RecoveredCellFallsBackToLadderPath) {
  // A fault the ladder must absorb: the adaptive path is skipped (hooks
  // armed), the exhaustive+recovery path decides, exactly as without
  // adaptive scheduling.
  const auto mc = mc2x2();
  fault::SolverFaultInjector inj;
  inj.add({.cleared_by = fault::ClearedBy::kManyIterations,
           .iter_threshold = 150});
  const circuit::SolveHooks hooks = inj.hooks();

  ExtractOptions plain;
  plain.record_trace = false;
  plain.newton.hooks = &hooks;
  const ExtractionResult without = extract_cell(mc, 0, 0, {}, {}, plain);

  fault::SolverFaultInjector inj2;
  inj2.add({.cleared_by = fault::ClearedBy::kManyIterations,
            .iter_threshold = 150});
  const circuit::SolveHooks hooks2 = inj2.hooks();
  ExtractOptions opts = adaptive_opts();
  opts.newton.hooks = &hooks2;
  const ExtractionResult with = extract_cell(mc, 0, 0, {}, {}, opts);

  EXPECT_TRUE(with.adaptive.fell_back);
  EXPECT_EQ(with.status, CellStatus::kRecovered);
  EXPECT_EQ(with.code, without.code);
  EXPECT_EQ(with.recovery.succeeded_at, without.recovery.succeeded_at);
}

TEST(AdaptiveExtractT, AdaptiveArrayMatchesExhaustiveArray) {
  const auto mc = mc2x2();
  ExtractPlan fast;
  fast.options.adaptive.enabled = true;
  ExtractPlan slow;
  slow.options.adaptive.enabled = false;
  const auto a = extract_array(mc, {}, fast);
  const auto e = extract_array(mc, {}, slow);
  ASSERT_EQ(a.results.size(), e.results.size());
  for (std::size_t i = 0; i < a.results.size(); ++i) {
    EXPECT_EQ(a.results[i].code, e.results[i].code) << "cell " << i;
    EXPECT_TRUE(a.results[i].adaptive.attempted);
    EXPECT_FALSE(e.results[i].adaptive.attempted);
  }
}

// ---------------------------------------------------------------------------
// The default flow against the whole-window reference, with traces

ExtractOptions whole_window(ExtractOptions opts = {}) {
  opts.adaptive.enabled = false;
  return opts;
}

// The decoded fields agree bit for bit.
void expect_same_measurement(const ExtractionResult& d,
                             const ExtractionResult& w) {
  EXPECT_EQ(d.code, w.code);
  EXPECT_EQ(d.t_out_rise, w.t_out_rise);
  EXPECT_EQ(d.v_plate_charged, w.v_plate_charged);
  EXPECT_EQ(d.vgs_shared, w.vgs_shared);
}

// The default trace's rows are the whole-window trace's first rows, every
// channel bit for bit, and they reach past the flip.
void expect_trace_prefix(const ExtractionResult& d,
                         const ExtractionResult& w) {
  ASSERT_EQ(d.trace.channel_names(), w.trace.channel_names());
  const std::size_t n = d.trace.sample_count();
  ASSERT_GT(n, 0u);
  ASSERT_LE(n, w.trace.sample_count());
  auto head = [n](const std::vector<double>& v) {
    return std::vector<double>(v.begin(),
                               v.begin() + static_cast<std::ptrdiff_t>(n));
  };
  EXPECT_EQ(d.trace.times(), head(w.trace.times()));
  for (std::size_t ch = 0; ch < w.trace.channel_count(); ++ch) {
    EXPECT_EQ(d.trace.channel(ch), head(w.trace.channel(ch)))
        << w.trace.channel_names()[ch];
  }
  if (w.t_out_rise) {
    EXPECT_GE(d.trace.times().back(), *w.t_out_rise);
  }
}

TEST(AdaptiveExtractT, DefaultFlowMatchesWholeWindowOnFig3Sweep) {
  // The paper's Fig. 3 sweep, Cm = 10..55 fF in 5 fF steps, on the
  // default options (traces recorded): the default stops at the flip
  // level and reads exactly what the whole window reads.
  const StructureParams sp;
  std::size_t default_steps = 0, whole_steps = 0;
  for (int ff = 10; ff <= 55; ff += 5) {
    SCOPED_TRACE("Cm = " + std::to_string(ff) + " fF");
    auto mc = edram::MacroCell::uniform({}, tech::tech018(), 30e-15);
    mc.set_true_cap(0, 0, ff * 1e-15);
    const ExtractionResult d = extract_cell(mc, 0, 0, sp);
    const ExtractionResult w = extract_cell(mc, 0, 0, sp, {}, whole_window());
    EXPECT_TRUE(d.adaptive.used);
    EXPECT_FALSE(w.adaptive.attempted);
    expect_same_measurement(d, w);
    expect_trace_prefix(d, w);
    EXPECT_EQ(d.prefix_steps, w.prefix_steps);
    EXPECT_LE(d.stats.accepted_steps, w.stats.accepted_steps);
    if (d.code < sp.ramp_steps - 1) {
      EXPECT_LT(d.trace.sample_count(), w.trace.sample_count());
    }
    default_steps += d.stats.accepted_steps;
    whole_steps += w.stats.accepted_steps;
  }
  EXPECT_LT(default_steps, whole_steps);
}

TEST(AdaptiveExtractT, DefaultFlowMatchesWholeWindowOnTailAndFallbackCells) {
  const StructureParams sp;
  // No flip: every ramp level and the tail run, so the default trace is
  // the whole window's.
  {
    SCOPED_TRACE("no flip");
    const auto mc = mc2x2(80e-15);
    const ExtractionResult d = extract_cell(mc, 0, 0, sp);
    const ExtractionResult w = extract_cell(mc, 0, 0, sp, {}, whole_window());
    ASSERT_FALSE(w.t_out_rise.has_value());
    EXPECT_EQ(d.code, sp.ramp_steps);
    EXPECT_TRUE(d.adaptive.used);
    EXPECT_EQ(d.adaptive.probes, sp.ramp_steps + 1);
    expect_same_measurement(d, w);
    expect_trace_prefix(d, w);
    EXPECT_EQ(d.trace.sample_count(), w.trace.sample_count());
    EXPECT_EQ(d.stats.accepted_steps, w.stats.accepted_steps);
  }
  // OUT already high before the ramp (an oversized sense-chain PMOS leaks
  // the sense node up): the whole-window transient decides.
  {
    SCOPED_TRACE("OUT high before the ramp");
    const StructureParams leaky{.inv_wn = 0.01e-6, .inv_wp = 500e-6};
    const auto mc = mc2x2();
    const ExtractionResult d = extract_cell(mc, 0, 0, leaky);
    const ExtractionResult w =
        extract_cell(mc, 0, 0, leaky, {}, whole_window());
    EXPECT_TRUE(d.adaptive.fell_back);
    EXPECT_EQ(d.adaptive.fallback_reason,
              "OUT already high before the ramp (monotone threshold "
              "violated)");
    expect_same_measurement(d, w);
    expect_trace_prefix(d, w);
    EXPECT_EQ(d.trace.sample_count(), w.trace.sample_count());
    EXPECT_EQ(d.stats.accepted_steps, w.stats.accepted_steps);
  }
  // Fault hooks armed: the whole-window transient decides.
  {
    SCOPED_TRACE("fault hooks armed");
    const auto mc = mc2x2();
    fault::SolverFaultInjector inj_d(3), inj_w(3);
    inj_d.set_stall_rate(0.0);  // armed but quiet: hooks are non-null
    inj_w.set_stall_rate(0.0);
    const circuit::SolveHooks hooks_d = inj_d.hooks();
    const circuit::SolveHooks hooks_w = inj_w.hooks();
    ExtractOptions od;
    od.newton.hooks = &hooks_d;
    ExtractOptions ow = whole_window();
    ow.newton.hooks = &hooks_w;
    const ExtractionResult d = extract_cell(mc, 0, 0, sp, {}, od);
    const ExtractionResult w = extract_cell(mc, 0, 0, sp, {}, ow);
    EXPECT_TRUE(d.adaptive.fell_back);
    EXPECT_EQ(d.adaptive.fallback_reason,
              "fault injection armed for this cell");
    expect_same_measurement(d, w);
    expect_trace_prefix(d, w);
    EXPECT_EQ(d.trace.sample_count(), w.trace.sample_count());
  }
}

TEST(AdaptiveExtractT, CalibrationBitwiseEqualUnderBothFlows) {
  const StructureParams sp;
  const auto mc = edram::MacroCell::uniform({}, tech::tech018(), 30e-15);
  FastModel by_default(mc, sp);
  FastModel by_whole(mc, sp);
  const CalibrationResult d = calibrate_fast_model(by_default);
  const CalibrationResult w = calibrate_fast_model(
      by_whole, {20e-15, 45e-15}, {},
      whole_window({.dt = 20e-12, .record_trace = false}));
  EXPECT_EQ(d.vgs_correction, w.vgs_correction);
  ASSERT_EQ(d.points.size(), w.points.size());
  for (std::size_t i = 0; i < d.points.size(); ++i) {
    EXPECT_EQ(d.points[i].vgs_circuit, w.points[i].vgs_circuit);
  }
  EXPECT_EQ(by_default.delta_i(), by_whole.delta_i());
}

}  // namespace
}  // namespace ecms::msu
