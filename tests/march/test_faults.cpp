// Textbook detection properties: March C- detects SAFs, TFs and inversion
// coupling faults; MATS+ detects SAFs. These validate the march engine
// itself against known theory before it is trusted as the digital baseline.
#include <gtest/gtest.h>

#include <cstdint>
#include <type_traits>

#include "march/runner.hpp"
#include "util/error.hpp"

namespace ecms::march {
namespace {

TEST(FaultMemT, CleanMemoryBehaves) {
  FaultInjectedMemory m(4, 4);
  m.write(1, 1, true);
  EXPECT_TRUE(m.read(1, 1));
  m.write(1, 1, false);
  EXPECT_FALSE(m.read(1, 1));
  EXPECT_FALSE(m.read(0, 0));  // initial state 0
}

TEST(FaultMemT, StuckAt) {
  FaultInjectedMemory m(4, 4);
  m.inject({FaultModel::kStuckAt1, 2, 2});
  m.write(2, 2, false);
  EXPECT_TRUE(m.read(2, 2));
  m.inject({FaultModel::kStuckAt0, 0, 0});
  m.write(0, 0, true);
  EXPECT_FALSE(m.read(0, 0));
}

TEST(FaultMemT, TransitionFaults) {
  FaultInjectedMemory m(4, 4);
  m.inject({FaultModel::kTransitionUp, 1, 0});
  m.write(1, 0, false);
  m.write(1, 0, true);  // up-transition fails
  EXPECT_FALSE(m.read(1, 0));

  m.inject({FaultModel::kTransitionDown, 1, 1});
  m.write(1, 1, true);  // 0 -> 1 works
  m.write(1, 1, false);  // 1 -> 0 fails
  EXPECT_TRUE(m.read(1, 1));
}

TEST(FaultMemT, CouplingInversion) {
  FaultInjectedMemory m(4, 4);
  m.inject({FaultModel::kCouplingInv, /*victim*/ 0, 1, /*aggressor*/ 0, 0});
  m.write(0, 1, false);
  m.write(0, 0, true);  // aggressor transition inverts the victim
  EXPECT_TRUE(m.read(0, 1));
}

TEST(FaultMemT, InjectionValidation) {
  FaultInjectedMemory m(2, 2);
  EXPECT_THROW(m.inject({FaultModel::kStuckAt0, 5, 0}), Error);
  EXPECT_THROW(m.inject({FaultModel::kCouplingInv, 0, 0, 0, 0}), Error);
}

// Detection-property sweeps: each named test must catch each fault class it
// is known to cover, at several fault locations.
//
// gtest names each case after the raw bytes of its parameter, so the struct
// carries its alignment gap as an explicit zeroed member: with implicit
// padding the names would embed whatever garbage sat in those bytes and
// change from build to build.
struct DetectCase {
  DetectCase(FaultModel m, std::size_t row, std::size_t col)
      : model(m), r(row), c(col) {}
  FaultModel model;
  std::uint32_t zero_pad = 0;
  std::size_t r, c;
};
static_assert(std::has_unique_object_representations_v<DetectCase>,
              "DetectCase must have no padding bytes");

class MarchCMinusDetects : public ::testing::TestWithParam<DetectCase> {};

TEST_P(MarchCMinusDetects, FaultCaught) {
  const DetectCase dc = GetParam();
  FaultInjectedMemory m(8, 8);
  InjectedFault f{dc.model, dc.r, dc.c};
  if (dc.model == FaultModel::kCouplingInv) {
    // Aggressor at a higher address than the victim.
    f.agg_row = dc.r + 1;
    f.agg_col = dc.c;
  }
  m.inject(f);
  const auto res = run_march(m, march_c_minus());
  EXPECT_GT(res.total_read_mismatches, 0u)
      << "fault at (" << dc.r << "," << dc.c << ") escaped March C-";
  EXPECT_TRUE(res.fail_bitmap.fails(dc.r, dc.c));
}

INSTANTIATE_TEST_SUITE_P(
    Coverage, MarchCMinusDetects,
    ::testing::Values(DetectCase{FaultModel::kStuckAt0, 0, 0},
                      DetectCase{FaultModel::kStuckAt0, 3, 5},
                      DetectCase{FaultModel::kStuckAt1, 0, 7},
                      DetectCase{FaultModel::kStuckAt1, 6, 2},
                      DetectCase{FaultModel::kTransitionUp, 2, 2},
                      DetectCase{FaultModel::kTransitionUp, 6, 6},
                      DetectCase{FaultModel::kTransitionDown, 1, 4},
                      DetectCase{FaultModel::kTransitionDown, 5, 0},
                      DetectCase{FaultModel::kCouplingInv, 2, 3},
                      DetectCase{FaultModel::kCouplingInv, 4, 6}));

TEST(MatsPlusT, DetectsAllStuckAts) {
  for (std::size_t r = 0; r < 4; ++r) {
    for (std::size_t c = 0; c < 4; ++c) {
      for (const FaultModel fm :
           {FaultModel::kStuckAt0, FaultModel::kStuckAt1}) {
        FaultInjectedMemory m(4, 4);
        m.inject({fm, r, c});
        const auto res = run_march(m, mats_plus());
        EXPECT_TRUE(res.fail_bitmap.fails(r, c))
            << "SAF at (" << r << "," << c << ") escaped MATS+";
      }
    }
  }
}

TEST(MarchRunnerT, CleanMemoryPassesAllTests) {
  for (const auto& test : standard_tests()) {
    FaultInjectedMemory m(8, 8);
    const auto res = run_march(m, test);
    EXPECT_EQ(res.total_read_mismatches, 0u) << test.name;
    EXPECT_EQ(res.fail_bitmap.fail_count(), 0u) << test.name;
  }
}

TEST(MarchRunnerT, OperationCountMatchesTheory) {
  FaultInjectedMemory m(8, 8);
  const auto res = run_march(m, march_c_minus());
  EXPECT_EQ(res.total_operations, 64u * march_c_minus().ops_per_cell());
}

TEST(MarchRunnerT, ScrambledAddressingStillDetects) {
  FaultInjectedMemory m(8, 8);
  m.inject({FaultModel::kStuckAt1, 3, 3});
  const edram::AddressMap map(8, 8, edram::Scramble::kBitReversalRow);
  const auto res = run_march(m, march_c_minus(), map);
  // The fail must land at the *physical* location in the bitmap.
  EXPECT_TRUE(res.fail_bitmap.fails(3, 3));
}

}  // namespace
}  // namespace ecms::march
