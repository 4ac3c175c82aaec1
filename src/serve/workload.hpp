// Shared request-to-workload translation (DESIGN.md §13).
//
// The bit-identity contract of the service — a served request's codes are
// byte-for-byte what a one-shot `ecms_tool` run of the same parameters
// produces — only holds if both paths build the synthetic array and the
// extraction request from the SAME code. This header is that code: the CLI
// (array_of) and the server both call build_array()/request_of(), so the
// array identity and measurement shape can never drift apart.
#pragma once

#include <cstdint>

#include "bitmap/extraction.hpp"
#include "edram/macrocell.hpp"
#include "serve/protocol.hpp"

namespace ecms::serve {

/// The result-determining identity of a synthetic test array: dimensions,
/// the process-variation field and the seeded defect population. Two equal
/// ArraySpecs always build bit-identical arrays.
struct ArraySpec {
  std::size_t rows = 8, cols = 8;
  std::uint64_t seed = 1;
  double gradient = 0.0;  ///< systematic across-array capacitance gradient
  double drift = 0.0;     ///< lot-level offset
  double shorts = 0.002, opens = 0.002, partials = 0.005;
};

/// Builds the synthetic macro-cell array for `spec` (local sigma 2%,
/// tech018, seeded defect map) — the body formerly private to ecms_tool.
edram::MacroCell build_array(const ArraySpec& spec);

/// The array identity carried by a wire-level extraction request.
ArraySpec array_spec_of(const ExtractSpec& spec);

/// Translates a wire-level request into a unified extraction request:
/// robust, containing, with the spec's engine/tiling/batch/retry shape.
/// The dispatcher still owns `jobs`/`pool` (worker count is supervision,
/// not identity — codes are bit-identical at any jobs).
extraction::ExtractRequest request_of(const ExtractSpec& spec);

}  // namespace ecms::serve
