// Batched SoA kernels for the lockstep cell simulator (DESIGN.md §14).
//
// The batch engine advances K cells that share one NetlistProgram; its hot
// loops — the numeric refactorization over the frozen pivot order and the
// forward/backward triangular solves — operate on structure-of-arrays value
// storage, element (slot, lane) at `a[slot * width + lane]`, so one
// instruction stream serves every lane.
//
// Bit-identity contract: a vector kernel performs, per lane, exactly the
// floating-point operations of the scalar SparseLu path in exactly the same
// order. Only lanewise IEEE-754 arithmetic (+, -, *, /) is vectorized —
// never comparisons, max-reductions or anything with NaN-sensitive
// semantics; pivot-health and convergence decisions run the scalar path's
// own predicates (pivot_degraded, damped_update) per lane. No FMA
// contraction on either side (the build forces -ffp-contract=off), so
// scalar and vector lanes agree to the last ulp on every host, and the
// scalar fallback is not a degraded mode but the same function computed 1
// lane at a time.
//
// Dispatch: resolved once at first use from the host CPU (AVX2 on x86-64,
// scalar otherwise), overridable for tests and benches via
// set_force_scalar() or the ECMS_FORCE_SCALAR_KERNELS environment variable
// (any non-empty value other than "0").
#pragma once

#include <cstddef>
#include <cstdint>

#include "circuit/sparse.hpp"

namespace ecms::circuit::kernels {

/// One kernel backend. All array arguments are SoA unless noted.
struct Kernels {
  const char* name;  ///< "scalar" or "avx2"

  /// Numeric refactorization of all `width` lanes over the frozen pivot
  /// order: per permuted row, scatter A, eliminate against finished rows in
  /// ascending column order, gather L and U — the exact op sequence of
  /// SparseLu::refactor(), for every row of every lane unconditionally.
  /// Degraded or singular lanes produce garbage in later rows (confined to
  /// that lane); callers must run first_degraded_row() per lane and discard
  /// accordingly. `work` is the dense scatter scratch, sy.n * width wide.
  void (*refactor)(const LuSymbolic& sy, const double* a, double* l,
                   double* u, double* work, std::size_t width);

  /// Forward/backward triangular solves of all lanes in place on `pb`, the
  /// row-permuted RHS (sy.n * width). Mirrors SparseLu::solve_in_place()
  /// between its permutation steps; callers gather/scatter per lane.
  void (*solve)(const LuSymbolic& sy, const double* l, const double* u,
                double* pb, std::size_t width);
};

/// The runtime-dispatched backend (never null).
const Kernels& active();
/// The portable scalar backend (always available).
const Kernels& scalar();

/// True when a vector backend is compiled in and the CPU supports it
/// (regardless of any forced-scalar override).
bool vector_available();

/// Test/bench hook: force the scalar backend on (true) or return to CPU
/// dispatch (false). Overrides ECMS_FORCE_SCALAR_KERNELS. Thread-safe.
void set_force_scalar(bool force);
bool force_scalar();

/// Human-readable ISA report for `ecms_tool version`, e.g.
/// "avx2 (active), scalar fallback available".
const char* isa_summary();

/// Default lane count for batch_width = auto on this host.
std::size_t preferred_width();

/// The first permuted row of one lane of a vector-refactored U whose pivot
/// fails pivot_degraded() (the predicate SparseLu::refactor() applies), or
/// -1 when every row is healthy. A degraded lane must re-pivot (its L/U
/// rows past that point are garbage).
long first_degraded_row(const LuSymbolic& sy, const double* u,
                        std::size_t width, std::size_t lane);

/// Internal: the AVX2 backend (kernels_avx2.cpp; null on non-x86-64 hosts).
/// Callers use active() — this exists only for the dispatch layer.
const Kernels* avx2_kernels();

}  // namespace ecms::circuit::kernels
