#include "bitmap/extraction.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"

namespace ecms::extraction {

namespace {

// RAII per-tile instrumentation: a trace span (tile index + origin) plus a
// wall-time observation into bitmap.tile_seconds. The clock is read only
// when metrics are on; with obs fully off this is one relaxed load and two
// dead branches per tile.
class TileProbe {
 public:
  TileProbe(std::size_t tile, std::size_t row0, std::size_t col0)
      : span_("extract_tile"), timed_(obs::metrics_enabled()) {
    span_.arg("tile", static_cast<double>(tile));
    span_.arg("row0", static_cast<double>(row0));
    span_.arg("col0", static_cast<double>(col0));
    if (timed_) t0_ = std::chrono::steady_clock::now();
  }
  ~TileProbe() {
    if (!timed_) return;
    const double s = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0_)
                         .count();
    ECMS_METRIC_OBSERVE("bitmap.tile_seconds", s);
    ECMS_METRIC_COUNT("bitmap.tiles", 1);
  }
  TileProbe(const TileProbe&) = delete;
  TileProbe& operator=(const TileProbe&) = delete;

 private:
  obs::ScopedSpan span_;
  bool timed_;
  std::chrono::steady_clock::time_point t0_;
};

}  // namespace

ExtractReport extract(const edram::MacroCell& mc, const ExtractRequest& req) {
  const std::size_t tile_rows = req.tile_rows == 0 ? mc.rows() : req.tile_rows;
  const std::size_t tile_cols = req.tile_cols == 0 ? mc.cols() : req.tile_cols;
  ECMS_REQUIRE(tile_rows > 0 && tile_cols > 0, "tile must be non-empty");
  ECMS_REQUIRE(mc.rows() % tile_rows == 0 && mc.cols() % tile_cols == 0,
               "array dimensions must be divisible by the tile dimensions");
  ECMS_REQUIRE((req.noise == nullptr) == (req.rng == nullptr),
               "measurement noise and its rng must be provided together");
  ECMS_REQUIRE(req.noise == nullptr || req.engine == Engine::kFastModel,
               "measurement noise applies to the fast-model engine only");

  obs::ScopedSpan span(req.robust ? "extract_robust" : "extract");
  span.arg("rows", static_cast<double>(mc.rows()));
  span.arg("cols", static_cast<double>(mc.cols()));

  ExtractReport out{
      bitmap::AnalogBitmap(mc.rows(), mc.cols(), req.params.ramp_steps),
      std::vector<CellStatus>(mc.cell_count(), CellStatus::kOk),
      {},
      {}};
  out.report.cells_total = mc.cell_count();
  out.telemetry.cells = mc.cell_count();
  const int filler = std::clamp(req.unmeasurable_code, 0, req.params.ramp_steps);

  util::ThreadPool* pool = req.pool;
  std::unique_ptr<util::ThreadPool> owned;
  if (pool == nullptr && req.jobs != 1) {
    owned = std::make_unique<util::ThreadPool>(req.jobs);
    pool = owned.get();
  }

  // The only cross-tile state; guarded and merged deterministically below.
  std::mutex merge_mutex;
  std::vector<CellFailure> failures;
  ExtractReport::Telemetry tally;

  const std::size_t tiles_per_row = mc.cols() / tile_cols;
  const std::size_t n_tiles = (mc.rows() / tile_rows) * tiles_per_row;
  // Fast model: one shape per request; each tile task builds its window's
  // tables in place (no tile copy, no per-tile model).
  std::optional<msu::FastModel::Shape> shape;
  if (req.engine == Engine::kFastModel)
    shape.emplace(mc, tile_rows, tile_cols, req.params);

  const auto tile_body = [&](std::size_t t) {
    const std::size_t tr = (t / tiles_per_row) * tile_rows;
    const std::size_t tc = (t % tiles_per_row) * tile_cols;
    const TileProbe probe(t, tr, tc);

    if (req.engine == Engine::kCircuit) {
      const edram::MacroCell tile = mc.tile(tr, tc, tile_rows, tile_cols);
      msu::ExtractPlan plan;
      plan.timing = req.timing;
      plan.options = req.options;
      // extract_array re-checks the batching preconditions (cache, hooks),
      // so a cache-less request degrades to scalar there.
      plan.batch_width = req.batch_width;
      plan.retry = req.robust ? req.retry : util::RetryPolicy{.max_attempts = 1};
      plan.contain = req.robust && req.contain;
      plan.unmeasurable_code = filler;
      if (req.cell_hook) {
        plan.cell_hook = [&req, tr, tc](std::size_t r, std::size_t c,
                                        int attempt) {
          req.cell_hook(tr + r, tc + c, attempt);
        };
      }
      const msu::RobustExtraction rx =
          msu::extract_array(tile, req.params, plan);

      ExtractReport::Telemetry local;
      for (std::size_t r = 0; r < tile_rows; ++r) {
        for (std::size_t c = 0; c < tile_cols; ++c) {
          const std::size_t i = r * tile_cols + c;
          const msu::ExtractionResult& cell = rx.results[i];
          out.bitmap.set(tr + r, tc + c, cell.code);
          out.status[(tr + r) * mc.cols() + (tc + c)] = rx.status[i];
          local.transient_steps += cell.stats.accepted_steps;
          local.prefix_steps += cell.prefix_steps;
          if (cell.adaptive.used) ++local.adaptive_used;
          if (cell.adaptive.fell_back) ++local.adaptive_fallbacks;
          local.adaptive_probes +=
              static_cast<std::size_t>(std::max(cell.adaptive.probes, 0));
          if (cell.shared_discharge) ++local.discharge_shared_cells;
        }
      }
      if (rx.discharge_steps > 0) local.discharge_runs = 1;
      const std::lock_guard<std::mutex> lock(merge_mutex);
      for (const CellFailure& f : rx.report.failures)
        failures.push_back({tr + f.row, tc + f.col, f.reason});
      tally.transient_steps += local.transient_steps;
      tally.prefix_steps += local.prefix_steps;
      tally.adaptive_used += local.adaptive_used;
      tally.adaptive_fallbacks += local.adaptive_fallbacks;
      tally.adaptive_probes += local.adaptive_probes;
      tally.discharge_shared_cells += local.discharge_shared_cells;
      tally.discharge_runs += local.discharge_runs;
      return;
    }

    // Fast-model engine.
    msu::FastModel::Tables tables;
    shape->build(mc, tr, tc, tables);
    // Noise comes from the tile's own stream, forked by tile index, so the
    // noise a tile sees does not depend on tile visit order or thread count.
    std::optional<Rng> tile_rng;
    if (req.noise != nullptr) tile_rng.emplace(req.rng->fork(t));
    if (!req.robust) {
      Rng* rng = tile_rng ? &*tile_rng : nullptr;
      for (std::size_t r = 0; r < tile_rows; ++r)
        for (std::size_t c = 0; c < tile_cols; ++c)
          out.bitmap.set(tr + r, tc + c,
                         shape->code_of_cell(tables, r, c, req.noise, rng));
      return;
    }

    // Robust fast model. Per-cell (not per-tile-sequential) noise streams:
    // a cell's draws depend only on (rng state, tile, cell, attempt), so
    // containment of one cell's failure cannot shift another cell's noise.
    for (std::size_t r = 0; r < tile_rows; ++r) {
      for (std::size_t c = 0; c < tile_cols; ++c) {
        const std::size_t ar = tr + r;
        const std::size_t ac = tc + c;
        int code = filler;
        const util::RetryResult rr =
            util::run_with_retry(req.retry, [&](int attempt) {
              if (req.cell_hook) req.cell_hook(ar, ac, attempt);
              if (req.noise != nullptr) {
                Rng cell_rng = tile_rng->fork(r * tile_cols + c)
                                   .fork(static_cast<std::uint64_t>(attempt));
                code = shape->code_of_cell(tables, r, c, req.noise, &cell_rng);
              } else {
                code = shape->code_of_cell(tables, r, c);
              }
            });
        if (rr.ok) {
          out.bitmap.set(ar, ac, code);
          if (rr.recovered()) {
            out.status[ar * mc.cols() + ac] = CellStatus::kRecovered;
          }
        } else {
          if (!req.contain) {
            throw MeasureError("cell (" + std::to_string(ar) + "," +
                               std::to_string(ac) +
                               ") unmeasurable: " + rr.last_error);
          }
          out.bitmap.set(ar, ac, filler);
          out.status[ar * mc.cols() + ac] = CellStatus::kUnmeasurable;
          const std::lock_guard<std::mutex> lock(merge_mutex);
          failures.push_back({ar, ac, rr.last_error});
        }
      }
    }
  };

  std::atomic<std::size_t> tiles_done{0};
  util::ThreadPool::run(pool, n_tiles, 1, [&](std::size_t t) {
    tile_body(t);
    if (req.tile_hook) req.tile_hook(tiles_done.fetch_add(1) + 1, n_tiles);
  });

  // Sorted row-major so the report is deterministic regardless of tile
  // completion order.
  std::sort(failures.begin(), failures.end(),
            [](const CellFailure& a, const CellFailure& b) {
              return a.row != b.row ? a.row < b.row : a.col < b.col;
            });
  // Each cell counts once, by its final status, whichever engine ran it.
  std::size_t n_ok = 0, n_unmeasurable = 0;
  for (const CellStatus s : out.status) {
    switch (s) {
      case CellStatus::kOk: ++n_ok; break;
      case CellStatus::kRecovered: ++out.report.recovered; break;
      case CellStatus::kUnmeasurable: ++n_unmeasurable; break;
    }
  }
  ECMS_METRIC_COUNT("bitmap.cells.ok", n_ok);
  ECMS_METRIC_COUNT("bitmap.cells.recovered", out.report.recovered);
  ECMS_METRIC_COUNT("bitmap.cells.unmeasurable", n_unmeasurable);
  out.report.failures = std::move(failures);
  tally.cells = out.telemetry.cells;
  out.telemetry = tally;
  return out;
}

}  // namespace ecms::extraction
