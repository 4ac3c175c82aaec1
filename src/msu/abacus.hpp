// The abacus (Figure 3 of the paper): the calibration curve between the
// digital current-step code and the capacitor value, "obtained from a set of
// simulations".
//
// Built by sweeping any extractor function (fast model or circuit-level)
// over a capacitance range, it answers the questions the paper answers:
// which capacitance interval maps to each code (the inverse lookup used to
// read analog bitmaps), the measurable range, and the measurement accuracy
// (relative half-width of each code's interval; the paper quotes 6 %).
#pragma once

#include <functional>
#include <optional>
#include <vector>

namespace ecms::msu {

class Abacus {
 public:
  /// Extractor: capacitance (F) -> code.
  using ExtractFn = std::function<int(double)>;

  /// Sweeps `fn` over [cm_lo, cm_hi] with `points` uniform samples.
  /// The extractor must be monotone (non-decreasing) for the inverse lookup
  /// to be meaningful; build() records whether it was.
  static Abacus build(const ExtractFn& fn, int ramp_steps, double cm_lo,
                      double cm_hi, std::size_t points);

  /// One sample from an adaptive extractor: the code plus what the
  /// stop-at-flip flow spent deciding it (see msu::AdaptiveReport).
  struct ProbedCode {
    int code = 0;
    int probes = 0;         ///< ramp segments simulated (0: whole window)
    bool fell_back = false; ///< the exhaustive ramp decided this sample
  };
  /// Adaptive extractor: capacitance (F) -> probed code.
  using ProbedExtractFn = std::function<ProbedCode(double)>;

  /// Same sweep driven by an adaptive extractor; additionally accumulates
  /// the search cost, exposed via total_probes() / fallbacks().
  static Abacus build(const ProbedExtractFn& fn, int ramp_steps, double cm_lo,
                      double cm_hi, std::size_t points);

  /// Refines every code boundary by bisection to `tol` farads (extra calls
  /// to `fn`; worthwhile when fn is the cheap fast model).
  void refine(const ExtractFn& fn, double tol);

  int ramp_steps() const { return steps_; }
  double sweep_lo() const { return cm_lo_; }
  double sweep_hi() const { return cm_hi_; }
  bool monotonic() const { return monotonic_; }

  /// Adaptive search cost accumulated over the calibration sweep; both are
  /// zero when the abacus was built from a plain ExtractFn.
  std::size_t total_probes() const { return total_probes_; }
  std::size_t fallbacks() const { return fallbacks_; }

  /// Codes inside the observed span that no sweep sample produced — the
  /// holes a non-monotone extractor or a too-coarse grid leaves in the
  /// calibration curve (also warned about at build time). Empty when the
  /// curve is gap-free.
  std::vector<int> skipped_codes() const;

  /// A code's capacitance interval [lo, hi). Codes never observed in the
  /// sweep return nullopt.
  struct Bin {
    int code = 0;
    double lo = 0.0;
    double hi = 0.0;
    double mid() const { return 0.5 * (lo + hi); }
    /// Quantization accuracy: half-width relative to the midpoint.
    double relative_halfwidth() const {
      return mid() > 0.0 ? 0.5 * (hi - lo) / mid() : 0.0;
    }
  };
  std::optional<Bin> bin(int code) const;

  /// Capacitance estimate for a code (bin midpoint). Throws MeasureError for
  /// code 0 / full-scale (they are half-open: "below range" / "above range")
  /// and for unobserved codes.
  double estimate_cap(int code) const;

  /// Smallest capacitance measured as in-range (code >= 1): the bottom of
  /// the measurable window (paper: ~10 fF).
  double range_lo() const;
  /// Smallest capacitance measured at full scale: the top of the measurable
  /// window (paper: ~55 fF).
  double range_hi() const;

  /// Worst / mean relative half-width over in-range codes [from, to].
  double worst_accuracy(int from_code, int to_code) const;
  double mean_accuracy(int from_code, int to_code) const;

  /// Number of distinct codes observed in the sweep.
  std::size_t codes_used() const;

  /// Raw sweep samples (capacitance, code) for plotting Figure 3.
  struct Sample {
    double cm;
    int code;
  };
  const std::vector<Sample>& samples() const { return samples_; }

 private:
  Abacus() = default;
  void rebuild_bins();

  int steps_ = 0;
  double cm_lo_ = 0.0, cm_hi_ = 0.0;
  bool monotonic_ = true;
  std::size_t total_probes_ = 0;
  std::size_t fallbacks_ = 0;
  std::vector<Sample> samples_;
  std::vector<std::optional<Bin>> bins_;  // index = code
};

}  // namespace ecms::msu
