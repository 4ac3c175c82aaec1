// Contracts of the unified ExtractRequest -> ExtractReport API: the fast
// model reproduces a per-tile FastModel bit-for-bit, the circuit engine's
// tile fan-out is job-count-invariant, and adaptive ramp scheduling changes
// cost — never codes — including when fault injection forces the fallback
// path.
#include <gtest/gtest.h>

#include <optional>
#include <utility>
#include <vector>

#include "bitmap/extraction.hpp"
#include "fault/fault.hpp"
#include "tech/tech.hpp"
#include "util/crc32.hpp"
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

// Every defect type in a repeating pattern, plus bridges on the first and
// the last column of 4-, 8- and 16-wide tiles (some pointing across the
// tile edge, some at the array's edges).
edram::MacroCell defect_rich(std::size_t rows, std::size_t cols,
                             std::uint64_t seed) {
  tech::CapProcessParams cp;
  cp.local_sigma_rel = 0.08;
  cp.gradient_x_rel = 0.1;
  tech::CapField field(cp, rows, cols, seed);
  tech::DefectMap defects(rows, cols);
  for (std::size_t i = 0; i < rows * cols; ++i) {
    const std::size_t r = i / cols, c = i % cols;
    switch ((i * 7 + seed) % 13) {
      case 1: defects.set(r, c, tech::make_short()); break;
      case 4: defects.set(r, c, tech::make_open()); break;
      case 6:
        defects.set(r, c, tech::make_partial(0.3 + 0.05 * (i % 9)));
        break;
      case 9: defects.set(r, c, tech::make_bridge()); break;
      default: break;
    }
  }
  for (std::size_t r = 0; r < rows; r += 3)
    for (const std::size_t c : {0, 3, 4, 7, 8, 15})
      if (c < cols) defects.set(r, c, tech::make_bridge(4e3 + 1e3 * (r % 4)));
  return edram::MacroCell({.rows = rows, .cols = cols}, tech::tech018(),
                          std::move(field), std::move(defects));
}

// The fast-model oracle: every tile measured by its own FastModel over a
// MacroCell::tile copy, in row-major cell order. Noise comes from
// rng.fork(tile index): drawn in cell order on the plain path, per cell from
// fork(cell).fork(attempt 0) on the robust path.
bitmap::AnalogBitmap per_tile_model(const edram::MacroCell& mc,
                                    const msu::MeasureNoise* noise = nullptr,
                                    Rng* rng = nullptr, std::size_t tr = 4,
                                    std::size_t tc = 4, bool robust = false) {
  bitmap::AnalogBitmap bm(mc.rows(), mc.cols(),
                          msu::StructureParams{}.ramp_steps);
  for (std::size_t t = 0; t < mc.cell_count() / (tr * tc); ++t) {
    const std::size_t r0 = (t / (mc.cols() / tc)) * tr;
    const std::size_t c0 = (t % (mc.cols() / tc)) * tc;
    const msu::FastModel model(mc.tile(r0, c0, tr, tc), {});
    std::optional<Rng> tile_rng;
    if (rng != nullptr) tile_rng.emplace(rng->fork(t));
    for (std::size_t r = 0; r < tr; ++r) {
      for (std::size_t c = 0; c < tc; ++c) {
        int code = 0;
        if (!tile_rng) {
          code = model.code_of_cell(r, c);
        } else if (robust) {
          Rng cell_rng = tile_rng->fork(r * tc + c).fork(0);
          code = model.code_of_cell(r, c, *noise, cell_rng);
        } else {
          code = model.code_of_cell(r, c, *noise, *tile_rng);
        }
        bm.set(r0 + r, c0 + c, code);
      }
    }
  }
  return bm;
}

msu::MeasureNoise both_noises() {
  msu::MeasureNoise noise;
  noise.enabled = true;
  noise.vgs_sigma = 0.01;
  noise.comparator_sigma_i = 2e-6;
  return noise;
}

TEST(UnifiedExtractT, FastBranchMatchesPerTileModelAtEveryTileShape) {
  const auto mc = defect_rich(16, 16, 3);
  const msu::MeasureNoise noise = both_noises();
  const std::pair<std::size_t, std::size_t> shapes[] = {
      {1, 1}, {2, 2}, {4, 4}, {8, 8}, {4, 16}};
  for (const auto& [tr, tc] : shapes) {
    for (const bool robust : {false, true}) {
      for (const bool noisy : {false, true}) {
        Rng rng_a(42), rng_b(42);
        ExtractRequest req;
        req.tile_rows = tr;
        req.tile_cols = tc;
        req.robust = robust;
        req.jobs = robust ? 3 : 1;
        if (noisy) {
          req.noise = &noise;
          req.rng = &rng_a;
        }
        const ExtractReport rep = extract(mc, req);
        EXPECT_EQ(rep.bitmap.codes(),
                  per_tile_model(mc, noisy ? &noise : nullptr,
                                 noisy ? &rng_b : nullptr, tr, tc, robust)
                      .codes())
            << tr << "x" << tc << " robust " << robust << " noisy " << noisy;
      }
    }
  }
}

// Code hash of a defect-rich, bridged, noisy 64x64 request at 4x4 tiles on
// the robust (served) path; recorded before the fast branch became one pass
// over the array.
TEST(UnifiedExtractT, FastBranchGoldenHash64) {
  const auto mc = defect_rich(64, 64, 9);
  const msu::MeasureNoise noise = both_noises();
  Rng rng(2024);
  ExtractRequest req;
  req.robust = true;
  req.noise = &noise;
  req.rng = &rng;
  const ExtractReport rep = extract(mc, req);
  const std::vector<int>& codes = rep.bitmap.codes();
  EXPECT_EQ(util::fnv1a64(codes.data(), codes.size() * sizeof(int)),
            0xd70506c47f43b65bull);
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
  base.options.adaptive.enabled = false;  // the whole-window reference

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
  clean.options.adaptive.enabled = false;  // the whole-window reference
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
  clean.options.adaptive.enabled = false;  // the whole-window reference
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
