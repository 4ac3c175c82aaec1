// Graceful degradation contract of the robust tiled extraction: per-cell
// failures are contained (or, with contain=false, fail the whole run), the
// returned array is always complete, and healthy cells carry codes
// bit-identical to a zero-fault run at any worker count.
#include <gtest/gtest.h>

#include "bitmap/extraction.hpp"
#include "fault/fault.hpp"
#include "tech/tech.hpp"
#include "util/error.hpp"
#include "util/threadpool.hpp"
#include "util/units.hpp"

namespace ecms::extraction {
namespace {

// Array with process variation and a few defects, so codes actually vary
// from cell to cell (same recipe as the parallel-extract tests).
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

// A robust fast-model request over 4x4 tiles.
ExtractRequest robust(util::ThreadPool* pool = nullptr) {
  ExtractRequest req;
  req.robust = true;
  req.pool = pool;
  return req;
}

TEST(RobustExtractT, ZeroFaultRobustMatchesPlainExtraction) {
  const auto mc = varied(16, 99);
  const ExtractReport plain = extract(mc, {});
  const ExtractReport res = extract(mc, robust());
  EXPECT_EQ(plain.bitmap.codes(), res.bitmap.codes());
  EXPECT_TRUE(res.report.complete());
  EXPECT_EQ(res.report.cells_total, 256u);
  for (const CellStatus s : res.status) EXPECT_EQ(s, CellStatus::kOk);
}

TEST(RobustExtractT, ThrowingCellContainedAtAnyJobCount) {
  // Satellite: a throwing cell inside a pool worker must poison only its
  // own cell — every other tile's codes stay bit-identical to serial.
  const auto mc = varied(16, 99);
  const bitmap::AnalogBitmap clean = extract(mc, {}).bitmap;
  for (std::size_t jobs : {1u, 2u, 8u}) {
    util::ThreadPool pool(jobs);
    ExtractRequest req = robust(jobs > 1 ? &pool : nullptr);
    req.cell_hook = [](std::size_t r, std::size_t c, int) {
      if (r == 3 && c == 5) throw MeasureError("poison cell");
    };
    const ExtractReport res = extract(mc, req);
    ASSERT_EQ(res.report.failures.size(), 1u) << "jobs = " << jobs;
    EXPECT_EQ(res.report.failures[0].row, 3u);
    EXPECT_EQ(res.report.failures[0].col, 5u);
    EXPECT_EQ(res.status_at(3, 5), CellStatus::kUnmeasurable);
    for (std::size_t r = 0; r < 16; ++r) {
      for (std::size_t c = 0; c < 16; ++c) {
        if (r == 3 && c == 5) continue;
        EXPECT_EQ(res.bitmap.at(r, c), clean.at(r, c))
            << "jobs = " << jobs << " cell (" << r << "," << c << ")";
        EXPECT_EQ(res.status_at(r, c), CellStatus::kOk);
      }
    }
  }
}

TEST(RobustExtractT, AcceptanceChaosSweep64x64) {
  // The PR's acceptance criterion: 5% injected cell faults on a 64x64
  // array; extraction must not throw, must mark exactly the planned cells
  // non-ok, and healthy codes must be bit-identical to the zero-fault run
  // at any job count.
  const auto mc = varied(64, 12);
  const bitmap::AnalogBitmap clean = extract(mc, {}).bitmap;
  const fault::CellFaultPlan plan(0.05, 42);
  const std::size_t planned = plan.count(64, 64);
  ASSERT_GT(planned, 0u);
  for (std::size_t jobs : {1u, 4u}) {
    util::ThreadPool pool(jobs);
    ExtractRequest req = robust(jobs > 1 ? &pool : nullptr);
    req.cell_hook = plan.hook();
    const ExtractReport res = extract(mc, req);
    EXPECT_EQ(res.report.failures.size(), planned) << "jobs = " << jobs;
    EXPECT_EQ(res.report.unmeasurable(), planned);
    EXPECT_FALSE(res.report.complete());
    for (std::size_t r = 0; r < 64; ++r) {
      for (std::size_t c = 0; c < 64; ++c) {
        if (plan.fails(r, c)) {
          EXPECT_EQ(res.status_at(r, c), CellStatus::kUnmeasurable);
          EXPECT_EQ(res.bitmap.at(r, c), 0);  // unmeasurable_code default
        } else {
          EXPECT_EQ(res.status_at(r, c), CellStatus::kOk);
          EXPECT_EQ(res.bitmap.at(r, c), clean.at(r, c))
              << "jobs = " << jobs << " cell (" << r << "," << c << ")";
        }
      }
    }
  }
}

TEST(RobustExtractT, FailureReportIsSortedRowMajor) {
  const auto mc = varied(16, 99);
  const fault::CellFaultPlan plan(0.2, 8);
  util::ThreadPool pool(8);
  ExtractRequest req = robust(&pool);
  req.cell_hook = plan.hook();
  const ExtractReport res = extract(mc, req);
  ASSERT_GT(res.report.failures.size(), 1u);
  for (std::size_t i = 1; i < res.report.failures.size(); ++i) {
    const auto& a = res.report.failures[i - 1];
    const auto& b = res.report.failures[i];
    EXPECT_TRUE(a.row < b.row || (a.row == b.row && a.col < b.col));
  }
}

TEST(RobustExtractT, FlakyCellsRecoverWithinTheRetryBudget) {
  const auto mc = varied(16, 99);
  const bitmap::AnalogBitmap clean = extract(mc, {}).bitmap;
  const fault::CellFaultPlan plan(0.1, 17);
  ExtractRequest req = robust();
  req.cell_hook = plan.flaky_hook(1);  // fails once, then works
  req.retry.max_attempts = 2;
  const ExtractReport res = extract(mc, req);
  EXPECT_TRUE(res.report.complete());
  EXPECT_EQ(res.report.recovered, plan.count(16, 16));
  EXPECT_EQ(res.bitmap.codes(), clean.codes());  // recovery is lossless
  for (std::size_t r = 0; r < 16; ++r) {
    for (std::size_t c = 0; c < 16; ++c) {
      EXPECT_EQ(res.status_at(r, c), plan.fails(r, c)
                                         ? CellStatus::kRecovered
                                         : CellStatus::kOk);
    }
  }
}

TEST(RobustExtractT, RetryBudgetOfOneLeavesFlakyCellsUnmeasurable) {
  const auto mc = varied(16, 99);
  const fault::CellFaultPlan plan(0.1, 17);
  ExtractRequest req = robust();
  req.cell_hook = plan.flaky_hook(1);
  req.retry.max_attempts = 1;  // no second chance
  const ExtractReport res = extract(mc, req);
  EXPECT_EQ(res.report.unmeasurable(), plan.count(16, 16));
  EXPECT_EQ(res.report.recovered, 0u);
}

TEST(RobustExtractT, FailFastPropagatesThroughThePool) {
  // contain=false is the fail-fast mode: the exception must escape the
  // extraction whether the tile ran inline or on a pool worker.
  const auto mc = varied(16, 99);
  ExtractRequest req = robust();
  req.cell_hook = [](std::size_t r, std::size_t c, int) {
    if (r == 9 && c == 9) throw MeasureError("poison cell");
  };
  req.contain = false;
  EXPECT_THROW(extract(mc, req), MeasureError);
  util::ThreadPool pool(4);
  req.pool = &pool;
  EXPECT_THROW(extract(mc, req), MeasureError);
}

TEST(RobustExtractT, NoisyRobustIsDeterministicAcrossJobCounts) {
  const auto mc = varied(16, 99);
  msu::MeasureNoise noise;
  noise.enabled = true;
  noise.vgs_sigma = 3e-3;
  const fault::CellFaultPlan plan(0.05, 23);
  ExtractRequest req = robust();
  req.cell_hook = plan.hook();
  req.noise = &noise;
  Rng serial_rng(7);
  req.rng = &serial_rng;
  const ExtractReport serial = extract(mc, req);
  for (std::size_t jobs : {2u, 8u}) {
    util::ThreadPool pool(jobs);
    Rng rng(7);
    req.rng = &rng;
    req.pool = &pool;
    const ExtractReport par = extract(mc, req);
    EXPECT_EQ(serial.bitmap.codes(), par.bitmap.codes()) << "jobs = " << jobs;
    EXPECT_EQ(serial.status, par.status) << "jobs = " << jobs;
  }
}

TEST(RobustExtractT, NoisyHealthyCellsUnaffectedByNeighbourFailures) {
  // Per-cell noise streams: knocking out cells must not shift any healthy
  // cell's noise draw, so codes match the zero-fault noisy robust run.
  const auto mc = varied(16, 99);
  msu::MeasureNoise noise;
  noise.enabled = true;
  noise.vgs_sigma = 3e-3;
  ExtractRequest req = robust();
  req.noise = &noise;
  Rng clean_rng(31);
  req.rng = &clean_rng;
  const ExtractReport clean = extract(mc, req);
  const fault::CellFaultPlan plan(0.1, 5);
  req.cell_hook = plan.hook();
  Rng rng(31);
  req.rng = &rng;
  const ExtractReport faulty = extract(mc, req);
  for (std::size_t r = 0; r < 16; ++r) {
    for (std::size_t c = 0; c < 16; ++c) {
      if (plan.fails(r, c)) continue;
      EXPECT_EQ(faulty.bitmap.at(r, c), clean.bitmap.at(r, c))
          << "cell (" << r << "," << c << ")";
    }
  }
}

TEST(RobustExtractT, UnmeasurableCodePolicyIsHonoured) {
  const auto mc = varied(16, 99);
  const fault::CellFaultPlan plan(0.1, 3);
  ExtractRequest req = robust();
  req.cell_hook = plan.hook();
  req.unmeasurable_code = 20;  // park failures at full scale instead of 0
  const ExtractReport res = extract(mc, req);
  for (std::size_t r = 0; r < 16; ++r) {
    for (std::size_t c = 0; c < 16; ++c) {
      if (plan.fails(r, c)) {
        EXPECT_EQ(res.bitmap.at(r, c), 20);
      }
    }
  }
}

}  // namespace
}  // namespace ecms::extraction
