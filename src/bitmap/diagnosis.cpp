#include "bitmap/diagnosis.hpp"

#include <cmath>
#include <memory>
#include <sstream>

#include "util/error.hpp"

namespace ecms::bitmap {

std::string diagnosis_name(DiagnosisKind k) {
  switch (k) {
    case DiagnosisKind::kIsolatedCellDefect:
      return "isolated-cell-defect";
    case DiagnosisKind::kClusterDefect:
      return "cluster-defect";
    case DiagnosisKind::kRowFault:
      return "row-fault";
    case DiagnosisKind::kColumnFault:
      return "column-fault";
    case DiagnosisKind::kProcessGradient:
      return "process-gradient";
    case DiagnosisKind::kLotDrift:
      return "lot-drift";
  }
  return "?";
}

std::vector<Finding> diagnose(const AnalogBitmap& bm,
                              const DisambiguateFn& disambiguate,
                              std::optional<double> expected_mean_code,
                              const DiagnosisParams& params) {
  std::vector<Finding> findings;
  const SignatureMap sig = SignatureMap::categorize(bm, params.signature);

  // Component-level findings.
  const auto comps = find_components(sig.anomaly_mask(), bm.rows(), bm.cols(),
                                     params.spatial);
  for (const auto& comp : comps) {
    Finding f;
    f.cells = comp.cells;
    f.magnitude = static_cast<double>(comp.size());
    std::ostringstream detail;
    switch (comp.kind) {
      case PatternKind::kSingle: {
        f.kind = DiagnosisKind::kIsolatedCellDefect;
        const Cell cell = comp.cells.front();
        detail << "cell (" << cell.row << "," << cell.col << ") "
               << signature_name(sig.at(cell.row, cell.col));
        if (disambiguate && bm.at(cell.row, cell.col) == 0) {
          const auto res = disambiguate(cell.row, cell.col);
          f.zero_cause = res.cause;
          detail << ", code-0 disambiguated as "
                 << msu::zero_code_cause_name(res.cause);
        }
        break;
      }
      case PatternKind::kRowLine:
        f.kind = DiagnosisKind::kRowFault;
        detail << "row " << comp.row_lo << ": " << comp.size()
               << " anomalous cells (word-line / plate-strap suspect)";
        break;
      case PatternKind::kColumnLine:
        f.kind = DiagnosisKind::kColumnFault;
        detail << "column " << comp.col_lo << ": " << comp.size()
               << " anomalous cells (bit-line path suspect)";
        break;
      case PatternKind::kCluster:
        f.kind = DiagnosisKind::kClusterDefect;
        detail << comp.size() << "-cell cluster in rows [" << comp.row_lo
               << "," << comp.row_hi << "] cols [" << comp.col_lo << ","
               << comp.col_hi << "] (particle / local process suspect)";
        break;
    }
    f.detail = detail.str();
    findings.push_back(std::move(f));
  }

  // Field-level findings on the code values.
  std::vector<double> field;
  field.reserve(bm.codes().size());
  for (int code : bm.codes()) field.push_back(static_cast<double>(code));
  if (field.size() >= 3) {
    const PlaneFit plane = fit_plane(field, bm.rows(), bm.cols());
    const double grad =
        std::sqrt(plane.grad_x * plane.grad_x + plane.grad_y * plane.grad_y);
    if (grad > params.gradient_threshold) {
      Finding f;
      f.kind = DiagnosisKind::kProcessGradient;
      f.magnitude = grad;
      std::ostringstream detail;
      detail << "code gradient (" << plane.grad_x << " per col, "
             << plane.grad_y << " per row), r2=" << plane.r2;
      f.detail = detail.str();
      findings.push_back(std::move(f));
    }

    if (expected_mean_code.has_value()) {
      const double shift = plane.mean - *expected_mean_code;
      if (std::abs(shift) > params.drift_threshold) {
        Finding f;
        f.kind = DiagnosisKind::kLotDrift;
        f.magnitude = shift;
        std::ostringstream detail;
        detail << "mean code " << plane.mean << " vs expected "
               << *expected_mean_code << " ("
               << (shift > 0 ? "thicker/larger" : "thinner/smaller")
               << " capacitors)";
        f.detail = detail.str();
        findings.push_back(std::move(f));
      }
    }
  }
  return findings;
}

std::vector<Finding> diagnose(const AnalogBitmap& bm,
                              const msu::FastModel* model,
                              std::optional<double> expected_mean_code,
                              const DiagnosisParams& params) {
  DisambiguateFn fn;
  if (model != nullptr) {
    const msu::Disambiguator dis(*model);
    fn = [dis](std::size_t r, std::size_t c) { return dis.classify(r, c); };
  }
  return diagnose(bm, fn, expected_mean_code, params);
}

DisambiguateFn make_tiled_disambiguator(const edram::MacroCell& mc,
                                        const msu::StructureParams& params,
                                        std::size_t tile_rows,
                                        std::size_t tile_cols) {
  ECMS_REQUIRE(tile_rows > 0 && tile_cols > 0, "tile must be non-empty");
  ECMS_REQUIRE(mc.rows() % tile_rows == 0 && mc.cols() % tile_cols == 0,
               "array dimensions must be divisible by the tile dimensions");
  // Tiles are built lazily and cached (most cells never need follow-up).
  struct Cache {
    const edram::MacroCell mc;
    const msu::StructureParams params;
    std::size_t tile_rows, tile_cols;
    std::vector<std::unique_ptr<msu::Disambiguator>> tiles;
  };
  auto cache = std::make_shared<Cache>(
      Cache{mc, params, tile_rows, tile_cols,
            std::vector<std::unique_ptr<msu::Disambiguator>>(
                (mc.rows() / tile_rows) * (mc.cols() / tile_cols))});
  return [cache](std::size_t r, std::size_t c) {
    const std::size_t tr = r / cache->tile_rows;
    const std::size_t tc = c / cache->tile_cols;
    const std::size_t tiles_per_row = cache->mc.cols() / cache->tile_cols;
    auto& slot = cache->tiles[tr * tiles_per_row + tc];
    if (!slot) {
      slot = std::make_unique<msu::Disambiguator>(msu::FastModel(
          cache->mc.tile(tr * cache->tile_rows, tc * cache->tile_cols,
                         cache->tile_rows, cache->tile_cols),
          cache->params));
    }
    return slot->classify(r % cache->tile_rows, c % cache->tile_cols);
  };
}

}  // namespace ecms::bitmap
