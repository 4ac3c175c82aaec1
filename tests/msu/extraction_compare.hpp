// Field-by-field comparison of two array extractions, shared by the
// extraction identity tests: every result field, the recorded trace and the
// failure accounting must agree exactly (the claims are bit-identity, not
// closeness).
#pragma once

#include <gtest/gtest.h>

#include <cstddef>

#include "msu/extract.hpp"

namespace ecms::msu {

// Per-cell results must agree field by field; doubles compare exactly.
inline void expect_identical(const RobustExtraction& batched,
                             const RobustExtraction& scalar) {
  ASSERT_EQ(batched.results.size(), scalar.results.size());
  ASSERT_EQ(batched.status, scalar.status);
  for (std::size_t i = 0; i < scalar.results.size(); ++i) {
    const ExtractionResult& b = batched.results[i];
    const ExtractionResult& s = scalar.results[i];
    EXPECT_EQ(b.code, s.code) << "cell " << i;
    EXPECT_EQ(b.status, s.status) << "cell " << i;
    ASSERT_EQ(b.t_out_rise.has_value(), s.t_out_rise.has_value())
        << "cell " << i;
    if (s.t_out_rise) {
      EXPECT_EQ(*b.t_out_rise, *s.t_out_rise) << "cell " << i;
    }
    EXPECT_EQ(b.v_plate_charged, s.v_plate_charged) << "cell " << i;
    EXPECT_EQ(b.vgs_shared, s.vgs_shared) << "cell " << i;
    EXPECT_EQ(b.prefix_steps, s.prefix_steps) << "cell " << i;
    EXPECT_EQ(b.stats.accepted_steps, s.stats.accepted_steps) << "cell " << i;
    EXPECT_EQ(b.stats.rejected_steps, s.stats.rejected_steps)
        << "cell " << i;
    EXPECT_EQ(b.stats.newton_iterations, s.stats.newton_iterations)
        << "cell " << i;
    EXPECT_EQ(b.adaptive.attempted, s.adaptive.attempted) << "cell " << i;
    EXPECT_EQ(b.adaptive.used, s.adaptive.used) << "cell " << i;
    EXPECT_EQ(b.adaptive.probes, s.adaptive.probes) << "cell " << i;
    EXPECT_EQ(b.adaptive.fell_back, s.adaptive.fell_back) << "cell " << i;
    EXPECT_EQ(b.adaptive.fallback_reason, s.adaptive.fallback_reason)
        << "cell " << i;
    EXPECT_EQ(b.trace.channel_names(), s.trace.channel_names())
        << "cell " << i;
    EXPECT_EQ(b.trace.times(), s.trace.times()) << "cell " << i;
    ASSERT_EQ(b.trace.channel_count(), s.trace.channel_count());
    for (std::size_t ch = 0; ch < s.trace.channel_count(); ++ch) {
      EXPECT_EQ(b.trace.channel(ch), s.trace.channel(ch))
          << "cell " << i << " channel " << s.trace.channel_names()[ch];
    }
  }
  EXPECT_EQ(batched.report.recovered, scalar.report.recovered);
  EXPECT_EQ(batched.report.failures.size(), scalar.report.failures.size());
}

}  // namespace ecms::msu
