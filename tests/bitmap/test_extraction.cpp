// Contracts of the unified ExtractRequest -> ExtractReport API: the fast
// model reproduces a per-tile FastModel bit-for-bit, the circuit engine's
// tile fan-out is job-count-invariant, and adaptive ramp scheduling changes
// cost — never codes — including when fault injection forces the fallback
// path.
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "bitmap/extraction.hpp"
#include "fault/fault.hpp"
#include "tech/tech.hpp"
#include "util/threadpool.hpp"
#include "util/units.hpp"

namespace ecms::extraction {
namespace {

edram::MacroCell varied(std::size_t n, std::uint64_t seed) {
  tech::CapProcessParams cp;
  cp.local_sigma_rel = 0.04;
  tech::CapField field(cp, n, n, seed);
  Rng rng(seed);
  tech::DefectRates rates;
  rates.short_rate = 0.01;
  rates.open_rate = 0.01;
  rates.partial_rate = 0.02;
  tech::DefectMap defects = tech::DefectMap::random(n, n, rates, rng);
  return edram::MacroCell({.rows = n, .cols = n}, tech::tech018(),
                          std::move(field), std::move(defects));
}

// The fast-model oracle: every 4x4 tile measured by its own FastModel in
// row-major cell order, drawing noise from rng.fork(tile index).
bitmap::AnalogBitmap per_tile_model(const edram::MacroCell& mc,
                                    const msu::MeasureNoise* noise = nullptr,
                                    Rng* rng = nullptr) {
  constexpr std::size_t kTile = 4;
  bitmap::AnalogBitmap bm(mc.rows(), mc.cols(),
                          msu::StructureParams{}.ramp_steps);
  for (std::size_t t = 0; t < mc.cell_count() / (kTile * kTile); ++t) {
    const std::size_t tr = (t / (mc.cols() / kTile)) * kTile;
    const std::size_t tc = (t % (mc.cols() / kTile)) * kTile;
    const msu::FastModel model(mc.tile(tr, tc, kTile, kTile), {});
    std::optional<Rng> tile_rng;
    if (rng != nullptr) tile_rng.emplace(rng->fork(t));
    for (std::size_t r = 0; r < kTile; ++r) {
      for (std::size_t c = 0; c < kTile; ++c) {
        bm.set(tr + r, tc + c,
               tile_rng ? model.code_of_cell(r, c, *noise, *tile_rng)
                        : model.code_of_cell(r, c));
      }
    }
  }
  return bm;
}

TEST(UnifiedExtractT, FastModelPathsMatchPerTileModel) {
  const auto mc = varied(8, 7);
  const bitmap::AnalogBitmap oracle = per_tile_model(mc);

  const ExtractReport direct = extract(mc, {});
  EXPECT_EQ(direct.bitmap.codes(), oracle.codes());
  EXPECT_TRUE(direct.complete());
  EXPECT_EQ(direct.telemetry.transient_steps, 0u);

  msu::MeasureNoise noise;
  noise.vgs_sigma = 2e-3;
  Rng rng_a(42);
  Rng rng_b(42);
  ExtractRequest noisy;
  noisy.noise = &noise;
  noisy.rng = &rng_a;
  const ExtractReport nd = extract(mc, noisy);
  EXPECT_EQ(nd.bitmap.codes(), per_tile_model(mc, &noise, &rng_b).codes());

  ExtractRequest robust;
  robust.robust = true;
  const ExtractReport rd = extract(mc, robust);
  EXPECT_EQ(rd.bitmap.codes(), oracle.codes());
  EXPECT_EQ(rd.status, std::vector<CellStatus>(64, CellStatus::kOk));
}

TEST(UnifiedExtractT, CircuitEngineJobCountInvariantAndAdaptiveIdentity) {
  const auto mc = varied(4, 11);

  ExtractRequest base;
  base.engine = Engine::kCircuit;
  base.tile_rows = 2;
  base.tile_cols = 2;

  ExtractRequest adaptive = base;
  adaptive.options.adaptive.enabled = true;

  const ExtractReport serial = extract(mc, adaptive);
  ExtractRequest parallel = adaptive;
  parallel.jobs = 4;
  const ExtractReport threaded = extract(mc, parallel);
  EXPECT_EQ(serial.bitmap.codes(), threaded.bitmap.codes());
  EXPECT_EQ(serial.status, threaded.status);
  EXPECT_EQ(serial.telemetry.transient_steps,
            threaded.telemetry.transient_steps);

  const ExtractReport exhaustive = extract(mc, base);
  EXPECT_EQ(serial.bitmap.codes(), exhaustive.bitmap.codes());
  EXPECT_EQ(serial.telemetry.prefix_steps, exhaustive.telemetry.prefix_steps);
  EXPECT_LT(serial.telemetry.conversion_steps(),
            exhaustive.telemetry.conversion_steps());
  EXPECT_GE(serial.telemetry.adaptive_used, 12u);
  EXPECT_EQ(exhaustive.telemetry.adaptive_used, 0u);
}

TEST(UnifiedExtractT, AdaptiveFallsBackUnderFaultInjectionAtAnyJobs) {
  const auto mc = varied(4, 23);

  ExtractRequest clean;
  clean.engine = Engine::kCircuit;
  clean.tile_rows = 2;
  clean.tile_cols = 2;
  const ExtractReport ref = extract(mc, clean);

  for (std::size_t jobs : {1u, 4u}) {
    fault::SolverFaultInjector inj(5);
    inj.set_stall_rate(0.0);  // armed but quiet: hooks are non-null
    const circuit::SolveHooks hooks = inj.hooks();
    ExtractRequest req = clean;
    req.options.adaptive.enabled = true;
    req.options.newton.hooks = &hooks;
    req.robust = true;
    req.jobs = jobs;
    const ExtractReport res = extract(mc, req);
    EXPECT_EQ(res.bitmap.codes(), ref.bitmap.codes()) << "jobs " << jobs;
    EXPECT_EQ(res.telemetry.adaptive_used, 0u);
    EXPECT_EQ(res.telemetry.adaptive_fallbacks, mc.cell_count());
    EXPECT_TRUE(res.complete());
  }
}

TEST(UnifiedExtractT, FlakyCellsRecoverWithoutDisturbingNeighbours) {
  const auto mc = varied(4, 31);
  ExtractRequest clean;
  clean.engine = Engine::kCircuit;
  clean.tile_rows = 2;
  clean.tile_cols = 2;
  const ExtractReport ref = extract(mc, clean);

  const fault::CellFaultPlan plan(0.2, 77);
  ExtractRequest req = clean;
  req.options.adaptive.enabled = true;
  req.robust = true;
  req.retry.max_attempts = 2;
  req.cell_hook = plan.flaky_hook(1);
  const ExtractReport res = extract(mc, req);
  EXPECT_TRUE(res.complete());
  EXPECT_EQ(res.bitmap.codes(), ref.bitmap.codes());
  const std::size_t planned = plan.count(4, 4);
  EXPECT_EQ(res.report.recovered, planned);
  for (std::size_t r = 0; r < 4; ++r)
    for (std::size_t c = 0; c < 4; ++c)
      EXPECT_EQ(res.status_at(r, c), plan.fails(r, c)
                                         ? CellStatus::kRecovered
                                         : CellStatus::kOk);
}

}  // namespace
}  // namespace ecms::extraction
