// Tiling (plate segmentation) and the shared bridge-partner logic.
#include <gtest/gtest.h>

#include "edram/macrocell.hpp"
#include "tech/tech.hpp"
#include "util/error.hpp"
#include "util/units.hpp"

namespace ecms::edram {
namespace {

MacroCell big() {
  tech::CapProcessParams cp;
  cp.local_sigma_rel = 0.05;
  tech::CapField field(cp, 8, 8, 42);
  tech::DefectMap defects(8, 8);
  defects.set(5, 6, tech::make_short());
  return MacroCell({.rows = 8, .cols = 8}, tech::tech018(), std::move(field),
                   std::move(defects));
}

TEST(Tiling, TileCopiesGroundTruth) {
  const MacroCell mc = big();
  const MacroCell t = mc.tile(4, 4, 4, 4);
  EXPECT_EQ(t.rows(), 4u);
  EXPECT_EQ(t.cols(), 4u);
  for (std::size_t r = 0; r < 4; ++r)
    for (std::size_t c = 0; c < 4; ++c)
      EXPECT_DOUBLE_EQ(t.true_cap(r, c), mc.true_cap(4 + r, 4 + c));
  // The short at (5,6) lands at tile coordinates (1,2).
  EXPECT_EQ(t.defect(1, 2).type, tech::DefectType::kShort);
}

TEST(Tiling, TileInheritsSpecAndTech) {
  const MacroCell mc = big();
  const MacroCell t = mc.tile(0, 0, 2, 2);
  EXPECT_DOUBLE_EQ(t.spec().access_w, mc.spec().access_w);
  EXPECT_DOUBLE_EQ(t.tech().vdd, mc.tech().vdd);
  // Bit-line capacitance follows the tile's (shorter) column height.
  EXPECT_LT(t.bitline_cap(), mc.bitline_cap());
}

TEST(Tiling, OutOfRangeThrows) {
  const MacroCell mc = big();
  EXPECT_THROW(mc.tile(6, 0, 4, 4), Error);
  EXPECT_THROW(mc.tile(0, 5, 2, 4), Error);
}

TEST(Tiling, SubFieldAndSubMapValidate) {
  tech::CapProcessParams cp;
  const tech::CapField f(cp, 4, 4, 1);
  EXPECT_THROW(f.sub(2, 2, 4, 4), Error);
  const tech::DefectMap m(4, 4);
  EXPECT_THROW(m.sub(0, 0, 5, 1), Error);
  EXPECT_EQ(m.sub(1, 1, 2, 2).rows(), 2u);
}

TEST(Tiling, SubFieldCopiesParentValues) {
  tech::CapProcessParams cp;
  cp.local_sigma_rel = 0.05;
  cp.gradient_x_rel = 0.1;
  const tech::CapField f(cp, 8, 12, 7);
  const tech::CapField s = f.sub(2, 3, 5, 8);
  ASSERT_EQ(s.rows(), 5u);
  ASSERT_EQ(s.cols(), 8u);
  EXPECT_EQ(s.params().local_sigma_rel, cp.local_sigma_rel);
  for (std::size_t r = 0; r < 5; ++r)
    for (std::size_t c = 0; c < 8; ++c)
      EXPECT_EQ(s.at(r, c), f.at(2 + r, 3 + c));
  // A sub of a sub addresses the grandparent at the summed origin.
  const tech::CapField ss = s.sub(1, 2, 3, 4);
  for (std::size_t r = 0; r < 3; ++r)
    for (std::size_t c = 0; c < 4; ++c)
      EXPECT_EQ(ss.at(r, c), f.at(3 + r, 5 + c));
  EXPECT_THROW(s.sub(0, 0, 0, 1), Error);
  EXPECT_THROW(s.sub(4, 0, 2, 1), Error);
}

TEST(Tiling, SubMapCopiesParentDefects) {
  tech::DefectMap m(6, 9);
  m.set(1, 2, tech::make_short(2e3));
  m.set(2, 4, tech::make_open());
  m.set(3, 5, tech::make_partial(0.4));
  m.set(4, 8, tech::make_bridge(7e3));
  const tech::DefectMap s = m.sub(1, 2, 4, 7);
  ASSERT_EQ(s.rows(), 4u);
  ASSERT_EQ(s.cols(), 7u);
  for (std::size_t r = 0; r < 4; ++r) {
    for (std::size_t c = 0; c < 7; ++c) {
      EXPECT_EQ(s.at(r, c).type, m.at(1 + r, 2 + c).type);
      EXPECT_EQ(s.at(r, c).severity, m.at(1 + r, 2 + c).severity);
    }
  }
  EXPECT_EQ(s.total_defective(), 4u);
  const tech::DefectMap ss = s.sub(1, 2, 3, 5);
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 5; ++c) {
      EXPECT_EQ(ss.at(r, c).type, m.at(2 + r, 4 + c).type);
      EXPECT_EQ(ss.at(r, c).severity, m.at(2 + r, 4 + c).severity);
    }
  }
  EXPECT_EQ(ss.at(1, 1).type, tech::DefectType::kPartial);
}

TEST(BridgePartner, OwnBridgePointsRight) {
  auto mc = MacroCell::uniform({}, tech::tech018(), 30_fF);
  mc.set_defect(1, 1, tech::make_bridge());
  const auto p = mc.bridge_partner_col(1, 1);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(*p, 2u);
}

TEST(BridgePartner, LastColumnBridgesLeft) {
  auto mc = MacroCell::uniform({}, tech::tech018(), 30_fF);
  mc.set_defect(2, 3, tech::make_bridge());  // last column of a 4-wide array
  const auto p = mc.bridge_partner_col(2, 3);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(*p, 2u);
}

TEST(BridgePartner, PartnerSeesItToo) {
  auto mc = MacroCell::uniform({}, tech::tech018(), 30_fF);
  mc.set_defect(1, 1, tech::make_bridge());  // pairs (1,1) <-> (1,2)
  const auto p = mc.bridge_partner_col(1, 2);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(*p, 1u);
}

TEST(BridgePartner, UnrelatedCellsHaveNone) {
  auto mc = MacroCell::uniform({}, tech::tech018(), 30_fF);
  mc.set_defect(1, 1, tech::make_bridge());
  EXPECT_FALSE(mc.bridge_partner_col(1, 0).has_value());
  EXPECT_FALSE(mc.bridge_partner_col(0, 1).has_value());
  EXPECT_FALSE(mc.bridge_partner_col(1, 3).has_value());
}

TEST(BridgePartner, SingleColumnArrayHasNone) {
  auto mc = MacroCell::uniform({.rows = 4, .cols = 1}, tech::tech018(),
                               30_fF);
  mc.set_defect(0, 0, tech::make_bridge());
  EXPECT_FALSE(mc.bridge_partner_col(0, 0).has_value());
}

}  // namespace
}  // namespace ecms::edram
