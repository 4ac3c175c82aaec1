// Lane width of the lockstep cell simulator (DESIGN.md §14).
#pragma once

#include <cstddef>

namespace ecms::circuit::kernels {

/// Default lane count for batch_width = auto, the same on every host.
/// Measured on the 16x16 array extraction: 16 lanes amortize the per-chunk
/// bootstrap best; 32+ regresses because the SoA working set (a/l/u/work at
/// nnz * W doubles) falls out of L2.
inline std::size_t preferred_width() { return 16; }

}  // namespace ecms::circuit::kernels
