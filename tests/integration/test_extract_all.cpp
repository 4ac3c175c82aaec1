// Whole-macro-cell circuit-level extraction plus tiled fast-model
// consistency.
#include <gtest/gtest.h>

#include "bitmap/extraction.hpp"
#include "msu/extract.hpp"
#include "msu/fastmodel.hpp"
#include "tech/tech.hpp"
#include "util/error.hpp"
#include "util/units.hpp"

namespace ecms {
namespace {

TEST(ExtractAll, TwoByTwoMacroCell) {
  // 2x2 with one small and one large capacitor: the circuit-level bitmap
  // must order them correctly.
  auto mc = edram::MacroCell::uniform({.rows = 2, .cols = 2},
                                      tech::tech018(), 30_fF);
  mc.set_true_cap(0, 1, 15_fF);
  mc.set_true_cap(1, 0, 45_fF);
  const auto results = msu::extract_array(mc, {}, {.contain = false}).results;
  ASSERT_EQ(results.size(), 4u);
  const int c00 = results[0].code;  // 30 fF
  const int c01 = results[1].code;  // 15 fF
  const int c10 = results[2].code;  // 45 fF
  const int c11 = results[3].code;  // 30 fF
  EXPECT_LT(c01, c00);
  EXPECT_GT(c10, c00);
  EXPECT_NEAR(c00, c11, 1);  // equal capacitors, equal-ish codes
}

TEST(ExtractAll, SharedRampAcrossCells) {
  const auto mc = edram::MacroCell::uniform({.rows = 2, .cols = 2},
                                            tech::tech018(), 30_fF);
  const auto results = msu::extract_array(mc, {}, {.contain = false}).results;
  for (const auto& r : results)
    EXPECT_DOUBLE_EQ(r.delta_i, results[0].delta_i);
}

TEST(ExtractTiled, MatchesPerTileFastModel) {
  // extraction::extract must agree cell-for-cell with manually built per-tile
  // models.
  tech::CapProcessParams cp;
  cp.local_sigma_rel = 0.05;
  tech::CapField field(cp, 8, 8, 5);
  const edram::MacroCell mc({.rows = 8, .cols = 8}, tech::tech018(),
                            std::move(field), tech::DefectMap(8, 8));
  const auto bm = extraction::extract(mc, {}).bitmap;
  for (std::size_t tr = 0; tr < 8; tr += 4) {
    for (std::size_t tc = 0; tc < 8; tc += 4) {
      const msu::FastModel model(mc.tile(tr, tc, 4, 4), {});
      for (std::size_t r = 0; r < 4; ++r)
        for (std::size_t c = 0; c < 4; ++c)
          EXPECT_EQ(bm.at(tr + r, tc + c), model.code_of_cell(r, c));
    }
  }
}

TEST(ExtractTiled, IndivisibleArrayRejected) {
  const auto mc = edram::MacroCell::uniform({.rows = 6, .cols = 8},
                                            tech::tech018(), 30_fF);
  EXPECT_THROW(extraction::extract(mc, {}), Error);
  EXPECT_NO_THROW(extraction::extract(mc, {.tile_rows = 3, .tile_cols = 4}));
}

}  // namespace
}  // namespace ecms
