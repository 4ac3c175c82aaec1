#include "bitmap/analog_bitmap.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "bitmap/extraction.hpp"
#include "tech/tech.hpp"
#include "util/error.hpp"
#include "util/units.hpp"

namespace ecms::bitmap {
namespace {

edram::MacroCell mc8() {
  return edram::MacroCell::uniform({.rows = 8, .cols = 8}, tech::tech018(),
                                   30_fF);
}

TEST(AnalogBitmapT, ShapeAndAccess) {
  AnalogBitmap bm(4, 6, 20);
  EXPECT_EQ(bm.rows(), 4u);
  EXPECT_EQ(bm.cols(), 6u);
  bm.set(1, 2, 7);
  EXPECT_EQ(bm.at(1, 2), 7);
  EXPECT_THROW(bm.set(0, 0, 21), Error);
  EXPECT_THROW(bm.at(4, 0), Error);
}

TEST(AnalogBitmapT, ExtractUniformArrayIsFlat) {
  const auto mc = mc8();
  const AnalogBitmap bm = extraction::extract(mc, {}).bitmap;
  // Every healthy 30 fF cell gets (nearly) the same code; allow corner-cell
  // offset differences of one step.
  const int ref = bm.at(4, 4);
  for (std::size_t r = 0; r < 8; ++r)
    for (std::size_t c = 0; c < 8; ++c)
      EXPECT_NEAR(bm.at(r, c), ref, 1) << r << "," << c;
  EXPECT_GT(ref, 2);
  EXPECT_LT(ref, 18);
}

TEST(AnalogBitmapT, DefectsShowAsCodeZero) {
  auto mc = mc8();
  mc.set_defect(2, 3, tech::make_short());
  mc.set_defect(5, 6, tech::make_open());
  const AnalogBitmap bm = extraction::extract(mc, {}).bitmap;
  EXPECT_EQ(bm.at(2, 3), 0);
  EXPECT_EQ(bm.at(5, 6), 0);
  EXPECT_EQ(bm.count_code(0), 2u);
  EXPECT_EQ(bm.count_out_of_range(), 2u);
}

TEST(AnalogBitmapT, StatisticsExcludeOutOfRange) {
  AnalogBitmap bm(2, 2, 20);
  bm.set(0, 0, 0);    // excluded
  bm.set(0, 1, 20);   // excluded
  bm.set(1, 0, 10);
  bm.set(1, 1, 12);
  EXPECT_DOUBLE_EQ(bm.mean_in_range_code(), 11.0);
  EXPECT_NEAR(bm.stddev_in_range_code(), std::sqrt(2.0), 1e-12);
}

TEST(AnalogBitmapT, AllOutOfRangeThrowsOnMean) {
  AnalogBitmap bm(1, 2, 20);
  bm.set(0, 0, 0);
  bm.set(0, 1, 20);
  EXPECT_THROW(bm.mean_in_range_code(), Error);
}

TEST(AnalogBitmapT, NoiseChangesSomeCodes) {
  const auto mc = mc8();
  const AnalogBitmap clean = extraction::extract(mc, {}).bitmap;
  const msu::FastModel tile_model(mc.tile(0, 0, 4, 4), {});
  msu::MeasureNoise noise;
  noise.enabled = true;
  noise.comparator_sigma_i = 2.0 * tile_model.delta_i();
  Rng rng(3);
  const AnalogBitmap noisy =
      extraction::extract(mc, {.noise = &noise, .rng = &rng}).bitmap;
  std::size_t diffs = 0;
  for (std::size_t r = 0; r < 8; ++r)
    for (std::size_t c = 0; c < 8; ++c)
      if (clean.at(r, c) != noisy.at(r, c)) ++diffs;
  EXPECT_GT(diffs, 0u);
}

TEST(AnalogBitmapT, CapacitanceMapThroughAbacus) {
  const auto mc = mc8();
  // The abacus belongs to the tile-sized measurement context.
  const msu::FastModel m(mc.tile(0, 0, 4, 4), {});
  const msu::Abacus ab = msu::Abacus::build(
      [&](double cm) { return m.code_of_cap(cm); }, 20, 1e-15, 70e-15, 300);
  const AnalogBitmap bm = extraction::extract(mc, {}).bitmap;
  const auto caps = bm.capacitance_map(ab);
  ASSERT_EQ(caps.size(), 64u);
  // Healthy cells decode to within the abacus bin of 30 fF.
  EXPECT_NEAR(to_unit::fF(caps[9 * 1]), 30.0, 4.0);
}

TEST(AnalogBitmapT, CapacitanceMapNanForOutOfRange) {
  auto mc = mc8();
  mc.set_defect(0, 0, tech::make_short());
  const msu::FastModel m(mc.tile(0, 0, 4, 4), {});
  const msu::Abacus ab = msu::Abacus::build(
      [&](double cm) { return m.code_of_cap(cm); }, 20, 1e-15, 70e-15, 300);
  const auto caps =
      extraction::extract(mc, {}).bitmap.capacitance_map(ab);
  EXPECT_TRUE(std::isnan(caps[0]));
}

TEST(DigitalBitmapT, Basics) {
  DigitalBitmap bm(3, 3);
  EXPECT_EQ(bm.fail_count(), 0u);
  bm.set_fail(1, 1);
  bm.set_fail(2, 0);
  EXPECT_TRUE(bm.fails(1, 1));
  EXPECT_FALSE(bm.fails(0, 0));
  EXPECT_EQ(bm.fail_count(), 2u);
  bm.set_fail(1, 1, false);
  EXPECT_EQ(bm.fail_count(), 1u);
}

TEST(DigitalBitmapT, MergeOrs) {
  DigitalBitmap a(2, 2), b(2, 2);
  a.set_fail(0, 0);
  b.set_fail(1, 1);
  a.merge(b);
  EXPECT_EQ(a.fail_count(), 2u);
  DigitalBitmap wrong(3, 2);
  EXPECT_THROW(a.merge(wrong), Error);
}

}  // namespace
}  // namespace ecms::bitmap
