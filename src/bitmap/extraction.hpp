// The array-extraction API: the one entry point for measuring a whole
// array, on either engine.
//
// ExtractRequest → extract() → ExtractReport: one struct carries the engine
// choice (fast model vs. transistor level), the solver knobs (dt / newton /
// recovery / adaptive), the tiling and worker count, the retry/containment
// policy and the measurement noise. The circuit engine measures each tile
// through msu::extract_array.
//
// Semantics:
//   * tiles are independent structures, fanned out across workers; results
//     are bit-identical at any worker count (per-tile / per-cell forked
//     noise streams, deterministic row-major merge);
//   * the non-robust path lets the first cell failure escape (fail-fast),
//     the robust path retries then contains failures as kUnmeasurable;
//   * the circuit engine stops each cell at its flip level (unless
//     options.adaptive.enabled is false) and reports the
//     aggregate transient-step telemetry the benches assert on;
//   * every cell is counted once, from its final status, into
//     bitmap.cells.{ok,recovered,unmeasurable}.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "bitmap/analog_bitmap.hpp"
#include "msu/extract.hpp"
#include "util/retry.hpp"
#include "util/status.hpp"
#include "util/threadpool.hpp"

namespace ecms::extraction {

/// Which backend measures each cell.
enum class Engine {
  kFastModel,  ///< calibrated analytic model (array scale, microseconds)
  kCircuit,    ///< transistor-level transient per cell (the paper's SPICE)
};

/// Everything an array extraction needs, in one struct.
struct ExtractRequest {
  Engine engine = Engine::kFastModel;
  msu::StructureParams params = {};
  msu::MeasurementTiming timing = {};
  /// Solver + adaptive knobs; the fast-model engine ignores them (except
  /// delta_i, which both engines design per tile when left at 0). The
  /// circuit engine shares compiled NetlistPrograms (sparsity pattern,
  /// stamp tapes, pivot order) across tiles and workers through
  /// `options.newton.solver.program_cache`; clearing that pointer makes
  /// every cell compile privately (codes are bit-identical either way).
  msu::ExtractOptions options = {.dt = 20e-12, .record_trace = false};

  /// Circuit engine only: lockstep batch width per tile (DESIGN.md §14).
  /// 0 = auto (16 lanes), 1 = scalar per-cell measurement, N >= 2 = exactly
  /// N lanes. Batching needs a program cache and no solve hooks, and
  /// silently runs scalar when those preconditions fail; codes are
  /// bit-identical either way, at any width and worker count.
  int batch_width = 0;

  /// The array is measured tile-by-tile, each tile by its own structure
  /// (the structure's dynamic range only covers macro-cell-sized plate
  /// loads). 0 means "whole array in one tile" for that dimension; array
  /// dimensions must be divisible by the tile dimensions.
  std::size_t tile_rows = 4;
  std::size_t tile_cols = 4;

  /// Worker threads for the tile fan-out: 1 = serial, 0 = one per hardware
  /// thread, n = that many. Ignored when `pool` is given.
  std::size_t jobs = 1;
  util::ThreadPool* pool = nullptr;  ///< borrowed pool; overrides `jobs`

  /// Robustness: when false, the first cell failure escapes (fail-fast).
  /// When true, each cell gets `retry` attempts and terminal failures are
  /// contained per `contain` as kUnmeasurable placeholders.
  bool robust = false;
  util::RetryPolicy retry = {};
  bool contain = true;
  int unmeasurable_code = 0;
  /// Optional per-attempt hook, hook(row, col, attempt) in array
  /// coordinates, called right before each cell's measurement; throwing
  /// marks the attempt failed (the fault-injection point). Called from
  /// worker threads — must be thread-safe.
  std::function<void(std::size_t, std::size_t, int)> cell_hook = {};

  /// Measurement noise (fast-model engine only); both or neither.
  const msu::MeasureNoise* noise = nullptr;
  Rng* rng = nullptr;

  /// Optional completion tap, hook(tiles_done, tiles_total), called once
  /// per finished tile (any engine). `tiles_done` counts completions, not
  /// tile indices — tiles finish in any order under a pool. Called from
  /// worker threads with no lock held — must be thread-safe; the serve
  /// layer streams its per-tile progress frames from here.
  std::function<void(std::size_t, std::size_t)> tile_hook = {};
};

/// A complete, possibly degraded extraction plus aggregate telemetry.
struct ExtractReport {
  bitmap::AnalogBitmap bitmap;
  std::vector<CellStatus> status;  ///< row-major, same shape as the bitmap
  FailureReport report;

  /// Aggregate measurement cost (circuit engine; zero for the fast model).
  struct Telemetry {
    std::size_t cells = 0;
    std::size_t transient_steps = 0;  ///< accepted solver steps, all cells
    std::size_t prefix_steps = 0;     ///< spent in flow steps 1-4
    std::size_t adaptive_used = 0;  ///< cells stopped at their flip level
    std::size_t adaptive_fallbacks = 0;
    std::size_t adaptive_probes = 0;  ///< ramp segments simulated
    /// Cells whose transient continued their tile's shared step-1 run,
    /// and those runs (one per tile at most). A run's steps are simulated
    /// once and counted in every such cell's transient_steps.
    std::size_t discharge_shared_cells = 0;
    std::size_t discharge_runs = 0;
    /// Steps spent converting (ramping) rather than charging/sharing — the
    /// cost stopping at the flip shortens.
    std::size_t conversion_steps() const {
      return transient_steps > prefix_steps ? transient_steps - prefix_steps
                                            : 0;
    }
  } telemetry;

  CellStatus status_at(std::size_t r, std::size_t c) const {
    return status[r * bitmap.cols() + c];
  }
  bool complete() const { return report.complete(); }
};

/// Measures every cell of `mc` per the request. See ExtractRequest for the
/// failure, determinism and telemetry contracts.
ExtractReport extract(const edram::MacroCell& mc, const ExtractRequest& req);

}  // namespace ecms::extraction
