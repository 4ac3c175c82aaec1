// Batched array extraction: row-major chunks of cells advanced in lockstep
// through one shared NetlistProgram by circuit::BatchEngine, with per-cell
// results bit-identical to the scalar extract_array path (DESIGN.md §14).
//
// This header is the internal seam between msu::extract_array (which owns
// the engagement decision) and the lockstep driver; callers configure
// batching through ExtractPlan::batch_width / extraction::ExtractRequest,
// not by calling these directly.
#pragma once

#include <cstddef>

#include "msu/extract.hpp"

namespace ecms::msu {

/// Whether `plan` can run on the lockstep batch path at all: no solve hooks
/// (fault injection runs scalar) and a shared program cache (lanes share
/// one pivot order only through a published program).
bool batch_engageable(const ExtractPlan& plan);

/// Lane count for a requested ExtractPlan::batch_width (0 = auto by host
/// ISA, otherwise the request, floored at 2).
std::size_t resolved_batch_width(int batch_width);

/// extract_array's batched engine: measures every cell of `mc` in lockstep
/// chunks of `width`, re-measuring retired lanes through the scalar
/// extract_cell path. `opts` is plan.options with delta_i already resolved.
/// Preconditions: batch_engageable(plan) and width >= 2.
RobustExtraction extract_array_batched(const edram::MacroCell& mc,
                                       const StructureParams& params,
                                       const ExtractPlan& plan,
                                       const ExtractOptions& opts,
                                       std::size_t width);

}  // namespace ecms::msu
