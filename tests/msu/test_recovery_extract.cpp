// Circuit-level extraction through the recovery ladder: solver faults
// injected via ExtractOptions.newton.hooks must either be absorbed by the
// ladder (cells come back kRecovered with sane codes) or be contained per
// cell by extract_array (kUnmeasurable placeholders, no throw).
#include <gtest/gtest.h>

#include <cstdlib>

#include "fault/fault.hpp"
#include "msu/extract.hpp"
#include "tech/tech.hpp"
#include "util/error.hpp"
#include "util/units.hpp"

namespace ecms::msu {
namespace {

edram::MacroCell mc2x2() {
  return edram::MacroCell::uniform({.rows = 2, .cols = 2}, tech::tech018(),
                                   30_fF);
}

TEST(ExtractRecoveryT, LadderRescuesAFaultedCellMeasurement) {
  const auto mc = mc2x2();
  const ExtractionResult ref = extract_cell(mc, 0, 0, {});
  ASSERT_EQ(ref.status, CellStatus::kOk);

  // Stalls until the Newton budget is quadrupled: rung 2 territory.
  fault::SolverFaultInjector inj;
  inj.add({.cleared_by = fault::ClearedBy::kManyIterations,
           .iter_threshold = 150});
  const circuit::SolveHooks hooks = inj.hooks();
  ExtractOptions opts;
  opts.newton.hooks = &hooks;
  const ExtractionResult res = extract_cell(mc, 0, 0, {}, {}, opts);
  EXPECT_EQ(res.status, CellStatus::kRecovered);
  EXPECT_EQ(res.recovery.succeeded_at, circuit::RecoveryRung::kHardenNewton);
  EXPECT_GT(inj.injected(), 0u);
  // Rung 2 runs at dt/4 with tighter damping — same physics, finer time
  // axis; the decoded code may legitimately move by one LSB, no more.
  EXPECT_LE(std::abs(res.code - ref.code), 1);
}

TEST(ExtractRecoveryT, DisabledRecoveryStillThrows) {
  const auto mc = mc2x2();
  fault::SolverFaultInjector inj;
  inj.add({.cleared_by = fault::ClearedBy::kNever});
  const circuit::SolveHooks hooks = inj.hooks();
  ExtractOptions opts;
  opts.newton.hooks = &hooks;
  opts.recovery.enabled = false;
  EXPECT_THROW(extract_cell(mc, 0, 0, {}, {}, opts), SolverError);
}

TEST(ExtractRecoveryT, RobustArrayExtractionContainsHopelessCells) {
  // A fault nothing clears: every cell exhausts the ladder, yet the array
  // extraction must return a complete, fully-degraded result without
  // throwing.
  const auto mc = mc2x2();
  fault::SolverFaultInjector inj;
  inj.add({.cleared_by = fault::ClearedBy::kNever});
  const circuit::SolveHooks hooks = inj.hooks();
  ExtractOptions opts;
  opts.dt = 20e-12;
  opts.record_trace = false;
  opts.newton.hooks = &hooks;
  const RobustExtraction out = extract_array(mc, {}, {.options = opts});
  ASSERT_EQ(out.results.size(), 4u);
  ASSERT_EQ(out.status.size(), 4u);
  EXPECT_EQ(out.report.cells_total, 4u);
  EXPECT_EQ(out.report.unmeasurable(), 4u);
  EXPECT_FALSE(out.report.complete());
  for (const CellStatus s : out.status)
    EXPECT_EQ(s, CellStatus::kUnmeasurable);
  for (const auto& f : out.report.failures)
    EXPECT_NE(f.reason.find("recovery ladder"), std::string::npos);
}

TEST(ExtractRecoveryT, RobustArrayExtractionCleanPathMatchesPlain) {
  const auto mc = mc2x2();
  const auto plain = extract_array(mc, {}, {.contain = false}).results;
  const RobustExtraction out = extract_array(mc, {}, {});
  ASSERT_EQ(out.results.size(), plain.size());
  EXPECT_TRUE(out.report.complete());
  EXPECT_EQ(out.report.recovered, 0u);
  for (std::size_t i = 0; i < plain.size(); ++i) {
    EXPECT_EQ(out.results[i].code, plain[i].code) << "cell " << i;
    EXPECT_EQ(out.status[i], CellStatus::kOk);
  }
}

}  // namespace
}  // namespace ecms::msu
