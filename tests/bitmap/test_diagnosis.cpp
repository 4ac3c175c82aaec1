#include "bitmap/diagnosis.hpp"

#include <gtest/gtest.h>

#include "bitmap/extraction.hpp"
#include "tech/tech.hpp"
#include "util/units.hpp"

namespace ecms::bitmap {
namespace {

// Diagnosis runs on bitmaps extracted from ground-truth macro-cells, so the
// engine is tested end-to-end: inject -> extract -> diagnose.
edram::MacroCell base_mc(std::size_t n = 16) {
  return edram::MacroCell::uniform({.rows = n, .cols = n}, tech::tech018(),
                                   30_fF);
}

std::vector<Finding> run(const edram::MacroCell& mc,
                         std::optional<double> expected_mean = std::nullopt) {
  const AnalogBitmap bm = extraction::extract(mc, {}).bitmap;
  return diagnose(bm, make_tiled_disambiguator(mc, {}), expected_mean);
}

bool has_kind(const std::vector<Finding>& fs, DiagnosisKind k) {
  for (const auto& f : fs)
    if (f.kind == k) return true;
  return false;
}

TEST(DiagnosisT, HealthyArrayIsQuiet) {
  const auto findings = run(base_mc());
  EXPECT_TRUE(findings.empty());
}

TEST(DiagnosisT, IsolatedShortDisambiguated) {
  auto mc = base_mc();
  mc.set_defect(5, 5, tech::make_short());
  const auto findings = run(mc);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].kind, DiagnosisKind::kIsolatedCellDefect);
  ASSERT_TRUE(findings[0].zero_cause.has_value());
  EXPECT_EQ(*findings[0].zero_cause, msu::ZeroCodeCause::kShort);
  EXPECT_EQ(findings[0].cells[0], (Cell{5, 5}));
}

TEST(DiagnosisT, IsolatedOpenDisambiguated) {
  auto mc = base_mc();
  mc.set_defect(2, 9, tech::make_open());
  const auto findings = run(mc);
  ASSERT_EQ(findings.size(), 1u);
  ASSERT_TRUE(findings[0].zero_cause.has_value());
  EXPECT_EQ(*findings[0].zero_cause, msu::ZeroCodeCause::kOpen);
}

TEST(DiagnosisT, ClusterReported) {
  auto mc = base_mc();
  tech::DefectMap defects = mc.defects();
  defects.inject_cluster(8, 8, 1.6, tech::make_open());
  for (std::size_t r = 0; r < 16; ++r)
    for (std::size_t c = 0; c < 16; ++c) mc.set_defect(r, c, defects.at(r, c));
  const auto findings = run(mc);
  ASSERT_FALSE(findings.empty());
  EXPECT_EQ(findings[0].kind, DiagnosisKind::kClusterDefect);
  EXPECT_GT(findings[0].magnitude, 4.0);
}

TEST(DiagnosisT, RowFaultReported) {
  auto mc = base_mc();
  for (std::size_t c = 0; c < 16; ++c)
    mc.set_defect(7, c, tech::make_partial(0.3));  // whole row under-range
  const auto findings = run(mc);
  EXPECT_TRUE(has_kind(findings, DiagnosisKind::kRowFault));
}

TEST(DiagnosisT, ColumnFaultReported) {
  auto mc = base_mc();
  for (std::size_t r = 0; r < 16; ++r)
    mc.set_defect(r, 3, tech::make_open());
  const auto findings = run(mc);
  EXPECT_TRUE(has_kind(findings, DiagnosisKind::kColumnFault));
}

TEST(DiagnosisT, GradientDetected) {
  tech::CapProcessParams cp;
  cp.local_sigma_rel = 0.0;
  cp.gradient_x_rel = 0.5;  // 50% tilt left-to-right
  tech::CapField field(cp, 16, 16, 1);
  const edram::MacroCell mc({.rows = 16, .cols = 16}, tech::tech018(),
                            std::move(field), tech::DefectMap(16, 16));
  const auto findings = run(mc);
  EXPECT_TRUE(has_kind(findings, DiagnosisKind::kProcessGradient));
  for (const auto& f : findings) {
    if (f.kind == DiagnosisKind::kProcessGradient) {
      EXPECT_GT(f.magnitude, 0.05);
    }
  }
}

TEST(DiagnosisT, LotDriftDetected) {
  tech::CapProcessParams cp;
  cp.local_sigma_rel = 0.0;
  cp.lot_offset_rel = -0.25;  // thin-dielectric lot: caps 25% small
  tech::CapField field(cp, 16, 16, 1);
  const edram::MacroCell drifted({.rows = 16, .cols = 16}, tech::tech018(),
                                 std::move(field), tech::DefectMap(16, 16));
  // Expected mean from a healthy reference.
  const double expected =
      extraction::extract(base_mc(), {}).bitmap.mean_in_range_code();
  const auto findings = run(drifted, expected);
  ASSERT_TRUE(has_kind(findings, DiagnosisKind::kLotDrift));
  for (const auto& f : findings) {
    if (f.kind == DiagnosisKind::kLotDrift) {
      EXPECT_LT(f.magnitude, 0.0);  // shift toward smaller codes
    }
  }
}

TEST(DiagnosisT, NoDriftWhenMeanMatches) {
  const auto mc = base_mc();
  const double expected =
      extraction::extract(mc, {}).bitmap.mean_in_range_code();
  const auto findings = run(mc, expected);
  EXPECT_FALSE(has_kind(findings, DiagnosisKind::kLotDrift));
}

TEST(DiagnosisT, WithoutModelNoDisambiguation) {
  auto mc = base_mc();
  mc.set_defect(5, 5, tech::make_short());
  const AnalogBitmap bm = extraction::extract(mc, {}).bitmap;
  const auto findings = diagnose(bm, DisambiguateFn{}, std::nullopt);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_FALSE(findings[0].zero_cause.has_value());
}

TEST(DiagnosisT, KindNames) {
  EXPECT_EQ(diagnosis_name(DiagnosisKind::kRowFault), "row-fault");
  EXPECT_EQ(diagnosis_name(DiagnosisKind::kLotDrift), "lot-drift");
}

}  // namespace
}  // namespace ecms::bitmap
