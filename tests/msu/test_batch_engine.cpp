// Batched lockstep extraction (DESIGN.md §14): the golden contract that
// extract_array with batch_width > 1 produces results bit-identical to the
// scalar per-cell path — codes, stats and recorded traces, exhaustive and
// adaptive flows, fault-injected cells retiring to the scalar path, and the
// engagement predicate that keeps hooked / cache-less plans off the batch
// entirely.
#include <gtest/gtest.h>

#include <cstddef>
#include <stdexcept>
#include <vector>

#include "circuit/kernels.hpp"
#include "fault/fault.hpp"
#include "msu/extract.hpp"
#include "tech/tech.hpp"

#include "extraction_compare.hpp"

namespace ecms::msu {
namespace {

edram::MacroCell mc2x2(double cap = 30e-15) {
  return edram::MacroCell::uniform({.rows = 2, .cols = 2}, tech::tech018(),
                                   cap);
}

// Bit-identity is claimed against the scalar sparse engine (the lane LU is
// that engine's refactor/solve across lanes).
ExtractPlan sparse_plan() {
  ExtractPlan plan;
  plan.retry.max_attempts = 1;
  return plan;
}

TEST(BatchEngineT, EngagementPredicateGatesTheBatchPath) {
  ExtractPlan plan;
  EXPECT_TRUE(batch_engageable(plan));

  ExtractPlan uncached = plan;
  uncached.options.newton.solver.program_cache = nullptr;
  EXPECT_FALSE(batch_engageable(uncached));

  fault::SolverFaultInjector inj;
  const circuit::SolveHooks hooks = inj.hooks();
  ExtractPlan hooked = plan;
  hooked.options.newton.hooks = &hooks;
  EXPECT_FALSE(batch_engageable(hooked));

  EXPECT_EQ(resolved_batch_width(8), 8u);
  EXPECT_EQ(resolved_batch_width(0),
            circuit::kernels::preferred_width());
  EXPECT_GE(resolved_batch_width(0), 4u);
}

TEST(BatchEngineT, ExhaustiveArrayBitIdenticalToScalarPath) {
  const auto mc = mc2x2();
  // Recorded traces must match sample for sample too: the lockstep lanes
  // bind their probes exactly as the scalar transient does.
  for (const bool record_trace : {false, true}) {
    ExtractPlan scalar_plan = sparse_plan();
    scalar_plan.options.adaptive.enabled = false;
    scalar_plan.options.record_trace = record_trace;
    const auto scalar = extract_array(mc, {}, scalar_plan);
    if (record_trace) {
      ASSERT_GT(scalar.results[0].trace.sample_count(), 0u);
    }

    // Widths that tile the 4 cells evenly (4), with a remainder chunk (3),
    // and auto (0 resolves to the preferred lane count).
    for (int width : {4, 3, 0}) {
      ExtractPlan plan = scalar_plan;
      plan.batch_width = width;
      const auto batched = extract_array(mc, {}, plan);
      SCOPED_TRACE("batch_width=" + std::to_string(width) +
                   " record_trace=" + std::to_string(record_trace));
      expect_identical(batched, scalar);
    }
  }
}

TEST(BatchEngineT, AdaptiveArrayBitIdenticalIncludingProbeCounts) {
  // The lanes must stop where the scalar flow stops, level by level, so
  // per-cell segment counts, accumulated step/iteration stats and the
  // traces up to the stop match exactly, not just the codes.
  const auto mc = mc2x2();
  for (const bool record_trace : {false, true}) {
    SCOPED_TRACE("record_trace=" + std::to_string(record_trace));
    ExtractPlan scalar_plan = sparse_plan();
    scalar_plan.options.adaptive.enabled = true;
    scalar_plan.options.record_trace = record_trace;
    const auto scalar = extract_array(mc, {}, scalar_plan);
    if (record_trace) {
      ASSERT_GT(scalar.results[0].trace.sample_count(), 0u);
    }

    ExtractPlan plan = scalar_plan;
    plan.batch_width = 4;
    const auto batched = extract_array(mc, {}, plan);
    expect_identical(batched, scalar);
    for (const auto& r : batched.results) {
      EXPECT_TRUE(r.adaptive.attempted);
    }
  }
}

TEST(BatchEngineT, AdaptiveFallbackRetiresLanesToTheScalarPath) {
  // An oversized sense-chain PMOS leaks the sense node high, so OUT is
  // already high before the ramp: the flow driver retires every lane after
  // the prefix and the scalar path re-measures the cell: the stop-at-flip
  // attempt, its fallback and the exhaustive re-run, exactly as a
  // scalar-only run does. Width 3 leaves a one-lane chunk of the 4.
  const auto mc = mc2x2();
  const StructureParams leaky{.inv_wn = 0.01e-6, .inv_wp = 500e-6};
  ExtractPlan scalar_plan = sparse_plan();
  scalar_plan.options.adaptive.enabled = true;
  const auto scalar = extract_array(mc, leaky, scalar_plan);

  ExtractPlan plan = scalar_plan;
  plan.batch_width = 3;
  const auto batched = extract_array(mc, leaky, plan);
  expect_identical(batched, scalar);
  for (const auto& r : batched.results) {
    EXPECT_TRUE(r.adaptive.fell_back);
    EXPECT_EQ(r.adaptive.fallback_reason,
              "OUT already high before the ramp (monotone threshold "
              "violated)");
    EXPECT_EQ(r.adaptive.probes, 0);
    EXPECT_EQ(r.status, CellStatus::kOk);
  }
}

TEST(BatchEngineT, HookFailedCellsRetireToScalarRetryPath) {
  // Attempt 0 of cell (1, 0) throws before it can join the batch; the
  // retry budget lets attempt 1 measure it on the scalar path, exactly as
  // the scalar engine would have.
  const auto mc = mc2x2();
  auto flaky_hook = [](std::size_t r, std::size_t c, int attempt) {
    if (r == 1 && c == 0 && attempt == 0) {
      throw std::runtime_error("injected attempt-0 fault");
    }
  };

  ExtractPlan scalar_plan = sparse_plan();
  scalar_plan.retry.max_attempts = 2;
  scalar_plan.cell_hook = flaky_hook;
  const auto scalar = extract_array(mc, {}, scalar_plan);

  ExtractPlan plan = scalar_plan;
  plan.batch_width = 4;
  const auto batched = extract_array(mc, {}, plan);
  expect_identical(batched, scalar);
  ASSERT_EQ(batched.status.size(), 4u);
  EXPECT_EQ(batched.status[2], CellStatus::kRecovered);  // cell (1, 0)
  EXPECT_EQ(batched.report.recovered, 1u);
}

TEST(BatchEngineT, UnmeasurableCellsAreContainedIdentically) {
  // Cell (0, 1) fails every attempt: the batch path must produce the same
  // clamped placeholder and failure report as the scalar engine.
  const auto mc = mc2x2();
  auto dead_hook = [](std::size_t r, std::size_t c, int) {
    if (r == 0 && c == 1) throw std::runtime_error("cell is dead");
  };

  ExtractPlan scalar_plan = sparse_plan();
  scalar_plan.retry.max_attempts = 2;
  scalar_plan.unmeasurable_code = 7;
  scalar_plan.cell_hook = dead_hook;
  const auto scalar = extract_array(mc, {}, scalar_plan);

  ExtractPlan plan = scalar_plan;
  plan.batch_width = 4;
  const auto batched = extract_array(mc, {}, plan);
  expect_identical(batched, scalar);
  ASSERT_EQ(batched.status.size(), 4u);
  EXPECT_EQ(batched.status[1], CellStatus::kUnmeasurable);
  EXPECT_EQ(batched.results[1].code, 7);
  ASSERT_EQ(batched.report.failures.size(), 1u);
  EXPECT_EQ(batched.report.failures[0].row, 0u);
  EXPECT_EQ(batched.report.failures[0].col, 1u);
}

TEST(BatchEngineT, AutoSolverEngagesAndCodesMatch) {
  // The default plan, with the solver left to the library, engages the
  // batch and matches the scalar path bit for bit.
  const auto mc = mc2x2();
  ExtractPlan scalar_plan;
  scalar_plan.retry.max_attempts = 1;
  ASSERT_TRUE(batch_engageable(scalar_plan));
  const auto scalar = extract_array(mc, {}, scalar_plan);

  ExtractPlan plan = scalar_plan;
  plan.batch_width = 4;
  expect_identical(extract_array(mc, {}, plan), scalar);
}

TEST(BatchEngineT, NonSquareArrayChunksCoverEveryCell) {
  const auto mc = edram::MacroCell::uniform({.rows = 2, .cols = 3},
                                            tech::tech018(), 30e-15);
  const ExtractPlan scalar_plan = sparse_plan();
  const auto scalar = extract_array(mc, {}, scalar_plan);

  ExtractPlan plan = scalar_plan;
  plan.batch_width = 4;  // chunks of 4 + 2 over the 6 cells
  const auto batched = extract_array(mc, {}, plan);
  expect_identical(batched, scalar);
  EXPECT_EQ(batched.results.size(), 6u);
}

}  // namespace
}  // namespace ecms::msu
