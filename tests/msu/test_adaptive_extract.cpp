// Adaptive ramp scheduling: the pure binary-search scheduler, and the
// golden contract that adaptive codes are bit-identical to the exhaustive
// staircase across every code, a capacitance sweep, and fault injection
// (where the scheduler must fall back to the legacy path).
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>
#include <vector>

#include "circuit/mosfet.hpp"
#include "circuit/program.hpp"
#include "fault/fault.hpp"
#include "msu/adaptive.hpp"
#include "msu/extract.hpp"
#include "msu/fastmodel.hpp"
#include "tech/tech.hpp"
#include "util/units.hpp"

namespace ecms::msu {
namespace {

// ---------------------------------------------------------------------------
// Pure scheduler

// probe(k) = (k >= threshold); counts probes and rejects repeats.
struct FakeRamp {
  int threshold;  // first flipping level; steps + 1 = never flips
  std::set<int> seen{};
  int probes = 0;
  bool operator()(int k) {
    EXPECT_TRUE(seen.insert(k).second) << "level " << k << " probed twice";
    ++probes;
    return k >= threshold;
  }
};

TEST(AdaptiveSchedulerT, FindsEveryCodeWithoutAGuess) {
  const int steps = 20;
  for (int code = 0; code <= steps; ++code) {
    FakeRamp ramp{code + 1};
    const int got = schedule_ramp_search(
        steps, -1, 12, [&](int k) { return ramp(k); });
    EXPECT_EQ(got, code);
    EXPECT_LE(ramp.probes, 5) << "code " << code;  // ceil(log2(21))
  }
}

TEST(AdaptiveSchedulerT, ExactGuessClosesInTwoProbes) {
  const int steps = 20;
  for (int code = 1; code < steps; ++code) {
    FakeRamp ramp{code + 1};
    EXPECT_EQ(schedule_ramp_search(steps, code, 12,
                                   [&](int k) { return ramp(k); }),
              code);
    EXPECT_LE(ramp.probes, 2) << "code " << code;
  }
}

TEST(AdaptiveSchedulerT, OffByOneGuessClosesInThreeProbes) {
  const int steps = 20;
  for (int code = 0; code <= steps; ++code) {
    for (int off : {-1, 1}) {
      const int guess = code + off;
      if (guess < 0 || guess > steps) continue;
      FakeRamp ramp{code + 1};
      EXPECT_EQ(schedule_ramp_search(steps, guess, 12,
                                     [&](int k) { return ramp(k); }),
                code)
          << "code " << code << " guess " << guess;
      EXPECT_LE(ramp.probes, 3) << "code " << code << " guess " << guess;
    }
  }
}

TEST(AdaptiveSchedulerT, WildGuessStillConvergesForEveryCode) {
  const int steps = 20;
  for (int code = 0; code <= steps; ++code) {
    for (int guess = 0; guess <= steps; ++guess) {
      FakeRamp ramp{code + 1};
      int used = 0;
      EXPECT_EQ(schedule_ramp_search(steps, guess, 12,
                                     [&](int k) { return ramp(k); }, &used),
                code)
          << "code " << code << " guess " << guess;
      EXPECT_EQ(used, ramp.probes);
      EXPECT_LE(used, 8);
    }
  }
}

TEST(AdaptiveSchedulerT, ExhaustedBudgetReportsFailure) {
  FakeRamp ramp{11};
  int used = 0;
  EXPECT_EQ(schedule_ramp_search(20, -1, 2, [&](int k) { return ramp(k); },
                                 &used),
            -1);
  EXPECT_EQ(used, 2);
}

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
  const auto a = extract_array(mc, {}, fast);
  const auto e = extract_array(mc, {}, slow);
  ASSERT_EQ(a.results.size(), e.results.size());
  for (std::size_t i = 0; i < a.results.size(); ++i) {
    EXPECT_EQ(a.results[i].code, e.results[i].code) << "cell " << i;
    EXPECT_TRUE(a.results[i].adaptive.attempted);
    EXPECT_FALSE(e.results[i].adaptive.attempted);
  }
}

}  // namespace
}  // namespace ecms::msu
