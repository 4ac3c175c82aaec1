#include "circuit/wave.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace ecms::circuit {

SourceWave SourceWave::dc(double value) {
  SourceWave w;
  w.points_ = {{0.0, value}};
  return w;
}

SourceWave SourceWave::pwl(std::vector<PwlPoint> points) {
  ECMS_REQUIRE(!points.empty(), "PWL needs at least one point");
  for (std::size_t i = 1; i < points.size(); ++i)
    ECMS_REQUIRE(points[i].t > points[i - 1].t,
                 "PWL times must be strictly increasing");
  SourceWave w;
  w.points_ = std::move(points);
  for (const auto& p : w.points_) w.breakpoints_.push_back(p.t);
  return w;
}

SourceWave SourceWave::step_ramp(double t_start, double step_duration,
                                 double delta, int steps, double rise) {
  ECMS_REQUIRE(steps > 0, "ramp needs at least one step");
  ECMS_REQUIRE(step_duration > 0 && rise > 0 && rise < step_duration,
               "ramp rise must be positive and shorter than a step");
  std::vector<PwlPoint> pts;
  pts.push_back({0.0, 0.0});
  if (t_start > 0.0) pts.push_back({t_start, 0.0});
  double level = 0.0;
  for (int k = 0; k < steps; ++k) {
    const double t_edge = t_start + static_cast<double>(k) * step_duration;
    level += delta;
    pts.push_back({t_edge + rise, level});
    pts.push_back({t_edge + step_duration, level});
  }
  // Deduplicate any coincident times produced when t_start == 0.
  std::vector<PwlPoint> clean;
  for (const auto& p : pts) {
    if (!clean.empty() && p.t <= clean.back().t) continue;
    clean.push_back(p);
  }
  SourceWave w = pwl(std::move(clean));
  w.is_ramp_ = true;
  w.ramp_t0_ = t_start;
  w.ramp_dt_ = step_duration;
  w.ramp_rise_ = rise;
  w.ramp_steps_ = steps;
  return w;
}

SourceWave SourceWave::pulse(double low, double high, double t_on, double t_off,
                             double edge) {
  ECMS_REQUIRE(edge > 0, "pulse edge must be positive");
  ECMS_REQUIRE(t_off > t_on + edge, "pulse must stay high for a while");
  std::vector<PwlPoint> pts;
  if (t_on > 0.0) pts.push_back({0.0, low});
  pts.push_back({t_on, low});
  pts.push_back({t_on + edge, high});
  pts.push_back({t_off, high});
  pts.push_back({t_off + edge, low});
  // Drop a leading duplicate if t_on == 0.
  std::vector<PwlPoint> clean;
  for (const auto& p : pts) {
    if (!clean.empty() && p.t <= clean.back().t) continue;
    clean.push_back(p);
  }
  return pwl(std::move(clean));
}

double SourceWave::value(double t) const {
  const auto& pts = points_;
  if (t <= pts.front().t) return pts.front().v;
  if (t >= pts.back().t) return pts.back().v;
  // The segment [pts[k].t, pts[k + 1].t) containing t: the hinted one if it
  // does, else the binary search's (times are strictly increasing, so both
  // name the same segment).
  std::size_t k = hint_.load(std::memory_order_relaxed);
  if (k + 1 >= pts.size() || !(pts[k].t <= t && t < pts[k + 1].t)) {
    const auto it = std::upper_bound(
        pts.begin(), pts.end(), t,
        [](double tv, const PwlPoint& p) { return tv < p.t; });
    k = static_cast<std::size_t>(it - pts.begin()) - 1;
    hint_.store(k, std::memory_order_relaxed);
  }
  const auto& hi = pts[k + 1];
  const auto& lo = pts[k];
  const double f = (t - lo.t) / (hi.t - lo.t);
  return lo.v + f * (hi.v - lo.v);
}

int SourceWave::ramp_step_at(double t) const {
  if (!is_ramp_) return 0;
  if (t < ramp_t0_ + ramp_rise_) return 0;
  // Clamped as a double: the cast of an out-of-range value is undefined.
  const double k = std::floor((t - ramp_t0_ - ramp_rise_) / ramp_dt_) + 1.0;
  return static_cast<int>(
      std::clamp(k, 0.0, static_cast<double>(ramp_steps_)));
}

}  // namespace ecms::circuit
