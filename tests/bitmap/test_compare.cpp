// The paper's central comparative claim, quantified: the analog bitmap sees
// marginal cells the digital bitmap cannot.
#include "bitmap/compare.hpp"

#include <gtest/gtest.h>

#include "bitmap/extraction.hpp"
#include "edram/behavioral.hpp"
#include "march/runner.hpp"
#include "tech/tech.hpp"
#include "util/error.hpp"
#include "util/units.hpp"

namespace ecms::bitmap {
namespace {

struct Scenario {
  edram::MacroCell mc;
  AnalogBitmap analog;
  DigitalBitmap digital;

  explicit Scenario(edram::MacroCell cell)
      : mc(std::move(cell)),
        analog(extraction::extract(mc, {}).bitmap),
        digital(1, 1) {
    edram::BehavioralArray array(mc);
    march::EdramMemory mem(array);
    digital = march::run_march(mem, march::march_c_minus()).fail_bitmap;
  }
};

edram::MacroCell base(std::size_t n = 16) {
  return edram::MacroCell::uniform({.rows = n, .cols = n}, tech::tech018(),
                                   30_fF);
}

TEST(CompareT, CleanArrayScoresPerfect) {
  const Scenario s{base()};
  const auto rep = compare_bitmaps(s.mc, s.analog, s.digital);
  EXPECT_EQ(rep.truth_defects, 0u);
  EXPECT_EQ(rep.truth_marginal, 0u);
  EXPECT_EQ(rep.analog_false_flags, 0u);
  EXPECT_EQ(rep.digital_false_flags, 0u);
}

TEST(CompareT, HardDefectsSeenByBoth) {
  auto mc = base();
  mc.set_defect(1, 1, tech::make_short());
  mc.set_defect(3, 3, tech::make_open());
  const Scenario s{std::move(mc)};
  const auto rep = compare_bitmaps(s.mc, s.analog, s.digital);
  EXPECT_EQ(rep.truth_defects, 2u);
  EXPECT_EQ(rep.defects_seen_analog, 2u);
  EXPECT_EQ(rep.defects_seen_digital, 2u);
  EXPECT_DOUBLE_EQ(rep.defect_coverage_analog(), 1.0);
  EXPECT_DOUBLE_EQ(rep.defect_coverage_digital(), 1.0);
}

TEST(CompareT, MarginalCellsOnlyAnalogSees) {
  // Cells at 15-18 fF: functionally fine on a 16-row array, but deep in the
  // analog bitmap's marginal-low band.
  auto mc = base();
  mc.set_true_cap(2, 2, 15_fF);
  mc.set_true_cap(9, 12, 18_fF);
  const Scenario s{std::move(mc)};
  const auto rep = compare_bitmaps(s.mc, s.analog, s.digital);
  EXPECT_EQ(rep.truth_marginal, 2u);
  EXPECT_EQ(rep.marginal_seen_analog, 2u);
  EXPECT_EQ(rep.marginal_seen_digital, 0u);  // the paper's diagnostic gap
  EXPECT_GT(rep.marginal_coverage_analog(),
            rep.marginal_coverage_digital());
}

TEST(CompareT, MildPartialCountsAsMarginal) {
  // A 0.5 partial leaves 15 fF effective: functional-but-degraded, so it is
  // ground-truth *marginal* (the mechanism behind most marginal cells).
  auto mc = base();
  mc.set_defect(5, 5, tech::make_partial(0.5));
  const Scenario s{std::move(mc)};
  const auto rep = compare_bitmaps(s.mc, s.analog, s.digital);
  EXPECT_EQ(rep.truth_defects, 0u);
  EXPECT_EQ(rep.truth_marginal, 1u);
  EXPECT_EQ(rep.marginal_seen_digital, 0u);
  EXPECT_EQ(rep.marginal_seen_analog, 1u);
}

TEST(CompareT, SeverePartialCountsAsDefect) {
  auto mc = base();
  mc.set_defect(5, 5, tech::make_partial(0.2));  // 6 fF: below the window
  const Scenario s{std::move(mc)};
  const auto rep = compare_bitmaps(s.mc, s.analog, s.digital);
  EXPECT_EQ(rep.truth_defects, 1u);
  EXPECT_EQ(rep.defects_seen_analog, 1u);
}

TEST(CompareT, ShapeMismatchThrows) {
  const Scenario s{base()};
  const AnalogBitmap wrong(4, 4, 20);
  EXPECT_THROW(compare_bitmaps(s.mc, wrong, s.digital), Error);
}

TEST(CompareT, EmptyWindowInvalid) {
  const Scenario s{base()};
  MarginalWindow w;
  w.lo_f = 30e-15;
  w.hi_f = 10e-15;
  EXPECT_THROW(compare_bitmaps(s.mc, s.analog, s.digital, {}, w), Error);
}

}  // namespace
}  // namespace ecms::bitmap
