#include "circuit/wave.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace ecms::circuit {
namespace {

TEST(WaveT, DcIsConstant) {
  const auto w = SourceWave::dc(1.8);
  EXPECT_DOUBLE_EQ(w.value(0.0), 1.8);
  EXPECT_DOUBLE_EQ(w.value(1e-6), 1.8);
  EXPECT_DOUBLE_EQ(w.value(-1.0), 1.8);
}

TEST(WaveT, PwlInterpolatesAndClamps) {
  const auto w = SourceWave::pwl({{1.0, 0.0}, {2.0, 10.0}});
  EXPECT_DOUBLE_EQ(w.value(0.5), 0.0);    // clamp before
  EXPECT_DOUBLE_EQ(w.value(1.5), 5.0);    // midpoint
  EXPECT_DOUBLE_EQ(w.value(3.0), 10.0);   // clamp after
  EXPECT_DOUBLE_EQ(w.value(1.25), 2.5);
}

TEST(WaveT, PwlRejectsNonMonotonicTimes) {
  EXPECT_THROW(SourceWave::pwl({{1.0, 0.0}, {1.0, 1.0}}), Error);
  EXPECT_THROW(SourceWave::pwl({{2.0, 0.0}, {1.0, 1.0}}), Error);
  EXPECT_THROW(SourceWave::pwl({}), Error);
}

TEST(WaveT, BreakpointsMatchCorners) {
  const auto w = SourceWave::pwl({{1.0, 0.0}, {2.0, 1.0}, {3.0, 0.0}});
  EXPECT_EQ(w.breakpoints().size(), 3u);
  EXPECT_DOUBLE_EQ(w.breakpoints()[1], 2.0);
}

TEST(WaveT, PulseShape) {
  const auto w = SourceWave::pulse(0.0, 1.8, 10_ns, 20_ns, 0.1_ns);
  EXPECT_DOUBLE_EQ(w.value(5_ns), 0.0);
  EXPECT_DOUBLE_EQ(w.value(15_ns), 1.8);
  EXPECT_DOUBLE_EQ(w.value(25_ns), 0.0);
  // Mid-edge is halfway up.
  EXPECT_NEAR(w.value(10.05_ns), 0.9, 1e-9);
}

TEST(WaveT, PulseAtTimeZero) {
  const auto w = SourceWave::pulse(0.0, 1.0, 0.0, 10_ns, 0.1_ns);
  EXPECT_DOUBLE_EQ(w.value(0.0), 0.0);
  EXPECT_DOUBLE_EQ(w.value(5_ns), 1.0);
}

TEST(WaveT, StepRampLevels) {
  // 4 steps of 1 uA every 1 ns starting at 10 ns, 0.1 ns risers.
  const auto w = SourceWave::step_ramp(10_ns, 1_ns, 1e-6, 4, 0.1_ns);
  EXPECT_DOUBLE_EQ(w.value(5_ns), 0.0);
  EXPECT_NEAR(w.value(10.5_ns), 1e-6, 1e-12);   // after first riser
  EXPECT_NEAR(w.value(11.5_ns), 2e-6, 1e-12);
  EXPECT_NEAR(w.value(13.5_ns), 4e-6, 1e-12);
  EXPECT_NEAR(w.value(20_ns), 4e-6, 1e-12);     // holds the top
}

TEST(WaveT, StepRampStepIndex) {
  const auto w = SourceWave::step_ramp(10_ns, 1_ns, 1e-6, 4, 0.1_ns);
  EXPECT_EQ(w.ramp_step_at(5_ns), 0);
  EXPECT_EQ(w.ramp_step_at(10.5_ns), 1);
  EXPECT_EQ(w.ramp_step_at(11.5_ns), 2);
  EXPECT_EQ(w.ramp_step_at(13.9_ns), 4);
  EXPECT_EQ(w.ramp_step_at(100_ns), 4);  // clamped at the top
  // Far past the ramp the step count exceeds INT_MAX; it clamps, not wraps.
  EXPECT_EQ(w.ramp_step_at(1e3), 4);
}

TEST(WaveT, StepRampValidation) {
  EXPECT_THROW(SourceWave::step_ramp(0, 1_ns, 1e-6, 0, 0.1_ns), Error);
  EXPECT_THROW(SourceWave::step_ramp(0, 1_ns, 1e-6, 4, 2_ns), Error);
}

TEST(WaveT, NonRampStepIndexIsZero) {
  EXPECT_EQ(SourceWave::dc(1.0).ramp_step_at(1.0), 0);
}

// value() without its segment hint: clamp, binary search, interpolate.
double searched_value(const SourceWave& w, double t) {
  const auto& pts = w.points();
  if (t <= pts.front().t) return pts.front().v;
  if (t >= pts.back().t) return pts.back().v;
  const auto it = std::upper_bound(
      pts.begin(), pts.end(), t,
      [](double tv, const PwlPoint& p) { return tv < p.t; });
  const auto& hi = *it;
  const auto& lo = *(it - 1);
  const double f = (t - lo.t) / (hi.t - lo.t);
  return lo.v + f * (hi.v - lo.v);
}

TEST(WaveT, SegmentHintMatchesBinarySearchBitwise) {
  const auto ramp = SourceWave::step_ramp(10_ns, 1_ns, 1e-6, 20, 0.1_ns);
  const auto& pts = ramp.points();
  std::vector<double> times;
  // Every breakpoint exactly, and one ulp either side.
  for (const PwlPoint& p : pts) {
    times.push_back(p.t);
    times.push_back(std::nextafter(p.t, -1.0));
    times.push_back(std::nextafter(p.t, 1.0));
  }
  // Before the first point and after the last.
  times.push_back(-1_ns);
  times.push_back(pts.back().t + 5_ns);
  // A forward walk in transient-sized steps.
  for (double t = 0.0; t < pts.back().t + 1_ns; t += 0.02_ns) {
    times.push_back(t);
  }
  // Backward jumps, as a halved retry of a rejected step or a rerun of the
  // flow on the same circuit (an adaptive fallback) makes them: back to the
  // start of the ramp, into the middle, and forward again.
  for (const double t : {12.05_ns, 10.5_ns, 25.3_ns, 11.0_ns, 29.99_ns}) {
    times.push_back(t);
  }
  // Random times over and around the ramp.
  Rng rng(11);
  for (int i = 0; i < 2000; ++i) times.push_back(rng.uniform(-1_ns, 35_ns));

  for (const double t : times) {
    const double got = ramp.value(t);
    const double want = searched_value(ramp, t);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
              std::bit_cast<std::uint64_t>(want))
        << "t = " << t << ": " << got << " vs " << want;
  }

  // A copied wave carries the hint along and agrees too.
  const SourceWave copy = ramp;
  for (const double t : {29.99_ns, 10.05_ns, 20.5_ns}) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(copy.value(t)),
              std::bit_cast<std::uint64_t>(searched_value(ramp, t)));
  }
}

}  // namespace
}  // namespace ecms::circuit
