// End-to-end diagnosis pipeline: fabricate -> measure (analog + digital)
// -> categorize -> diagnose -> repair. Exercises every library layer
// together on realistic failure scenarios.
#include <gtest/gtest.h>

#include "bisr/allocator.hpp"
#include "bitmap/compare.hpp"
#include "bitmap/diagnosis.hpp"
#include "bitmap/extraction.hpp"
#include "edram/behavioral.hpp"
#include "march/runner.hpp"
#include "msu/fastmodel.hpp"
#include "report/heatmap.hpp"
#include "tech/tech.hpp"
#include "util/units.hpp"

namespace ecms {
namespace {

// One realistic macro-cell: random local variation, a particle cluster of
// opens, one short, a couple of marginal partials.
edram::MacroCell scenario() {
  tech::CapProcessParams cp;
  cp.local_sigma_rel = 0.02;
  tech::CapField field(cp, 16, 16, 1234);
  tech::DefectMap defects(16, 16);
  defects.inject_cluster(4, 11, 1.2, tech::make_open());
  defects.set(12, 2, tech::make_short());
  defects.set(8, 8, tech::make_partial(0.5));
  defects.set(14, 14, tech::make_partial(0.6));
  return edram::MacroCell({.rows = 16, .cols = 16}, tech::tech018(),
                          std::move(field), std::move(defects));
}

TEST(PipelineT, AnalogSeesEverythingDigitalSeesLess) {
  const auto mc = scenario();

  const bitmap::AnalogBitmap analog =
      extraction::extract(mc, {}).bitmap;

  edram::BehavioralArray array(mc);
  march::EdramMemory mem(array);
  const bitmap::DigitalBitmap digital =
      march::run_march(mem, march::march_c_minus()).fail_bitmap;

  const auto rep = bitmap::compare_bitmaps(mc, analog, digital);
  // Hard defects: 5 opens (cluster) + 1 short; the two mild partials are
  // ground-truth marginal cells (15 fF / 18 fF effective).
  EXPECT_EQ(rep.truth_defects, 6u);
  EXPECT_EQ(rep.defects_seen_analog, 6u);
  EXPECT_EQ(rep.defects_seen_digital, 6u);  // shorts/opens caught digitally
  EXPECT_EQ(rep.truth_marginal, 2u);
  // The digital bitmap misses the marginal cells; the analog bitmap doesn't.
  EXPECT_EQ(rep.marginal_seen_digital, 0u);
  EXPECT_EQ(rep.marginal_seen_analog, 2u);
}

TEST(PipelineT, DiagnosisNamesTheMechanisms) {
  const auto mc = scenario();
  const auto findings = bitmap::diagnose(
      extraction::extract(mc, {}).bitmap,
      bitmap::make_tiled_disambiguator(mc, {}), std::nullopt);
  bool saw_cluster = false, saw_short = false;
  for (const auto& f : findings) {
    if (f.kind == bitmap::DiagnosisKind::kClusterDefect) saw_cluster = true;
    if (f.kind == bitmap::DiagnosisKind::kIsolatedCellDefect &&
        f.zero_cause == msu::ZeroCodeCause::kShort) {
      saw_short = true;
      EXPECT_EQ(f.cells[0].row, 12u);
      EXPECT_EQ(f.cells[0].col, 2u);
    }
  }
  EXPECT_TRUE(saw_cluster);
  EXPECT_TRUE(saw_short);
}

TEST(PipelineT, RepairCoversAnalogFindings) {
  const auto mc = scenario();
  const auto analog = extraction::extract(mc, {}).bitmap;
  const auto sig = bitmap::SignatureMap::categorize(analog);

  bitmap::DigitalBitmap targets(16, 16);
  for (std::size_t r = 0; r < 16; ++r)
    for (std::size_t c = 0; c < 16; ++c)
      if (sig.at(r, c) != bitmap::CellSignature::kNominal)
        targets.set_fail(r, c);

  const auto sol =
      bisr::allocate_greedy(targets, {.spare_rows = 3, .spare_cols = 3});
  EXPECT_TRUE(sol.success);
  EXPECT_TRUE(bisr::covers(targets, sol));
}

TEST(PipelineT, RenderingsHaveArrayShape) {
  const auto mc = scenario();
  const auto analog = extraction::extract(mc, {}).bitmap;
  const auto heat = report::render_code_heatmap(analog);
  EXPECT_EQ(std::count(heat.begin(), heat.end(), '\n'), 16);
  const auto sig = report::render_signature_map(
      bitmap::SignatureMap::categorize(analog));
  EXPECT_EQ(std::count(sig.begin(), sig.end(), '\n'), 16);
  // The short appears as '0' in the signature map at row 12, col 2.
  const std::size_t line_width = 17;  // 16 cells + newline
  EXPECT_EQ(sig[12 * line_width + 2], '0');
}

TEST(PipelineT, GradientLotFlaggedAgainstHealthyReference) {
  // Reference lot.
  const auto healthy =
      edram::MacroCell::uniform({.rows = 16, .cols = 16}, tech::tech018(),
                                30_fF);
  const double expected =
      extraction::extract(healthy, {}).bitmap.mean_in_range_code();

  // Drifted lot with a tilt.
  tech::CapProcessParams cp;
  cp.local_sigma_rel = 0.01;
  cp.lot_offset_rel = -0.2;
  cp.gradient_x_rel = 0.25;
  tech::CapField field(cp, 16, 16, 77);
  const edram::MacroCell drifted({.rows = 16, .cols = 16}, tech::tech018(),
                                 std::move(field), tech::DefectMap(16, 16));
  const auto findings = bitmap::diagnose(
      extraction::extract(drifted, {}).bitmap,
      bitmap::make_tiled_disambiguator(drifted, {}), expected);
  bool saw_gradient = false, saw_drift = false;
  for (const auto& f : findings) {
    if (f.kind == bitmap::DiagnosisKind::kProcessGradient) saw_gradient = true;
    if (f.kind == bitmap::DiagnosisKind::kLotDrift) {
      saw_drift = true;
      EXPECT_LT(f.magnitude, 0.0);
    }
  }
  EXPECT_TRUE(saw_gradient);
  EXPECT_TRUE(saw_drift);
}

}  // namespace
}  // namespace ecms
