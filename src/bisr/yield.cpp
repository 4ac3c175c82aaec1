#include "bisr/yield.hpp"

#include <vector>

#include "bitmap/extraction.hpp"
#include "edram/behavioral.hpp"
#include "march/runner.hpp"
#include "msu/fastmodel.hpp"
#include "tech/tech.hpp"
#include "util/error.hpp"

namespace ecms::bisr {

namespace {

// The analog repair list: functional failures plus everything the analog
// bitmap flags as at-risk (under-range, over-range, marginal-low).
bitmap::DigitalBitmap analog_repair_targets(
    const bitmap::DigitalBitmap& functional_fails,
    const bitmap::AnalogBitmap& analog,
    const bitmap::SignatureParams& sig_params) {
  bitmap::DigitalBitmap targets = functional_fails;
  const bitmap::SignatureMap sig =
      bitmap::SignatureMap::categorize(analog, sig_params);
  for (std::size_t r = 0; r < analog.rows(); ++r) {
    for (std::size_t c = 0; c < analog.cols(); ++c) {
      const bitmap::CellSignature s = sig.at(r, c);
      if (s == bitmap::CellSignature::kUnderRange ||
          s == bitmap::CellSignature::kMarginalLow ||
          s == bitmap::CellSignature::kOverRange) {
        targets.set_fail(r, c);
      }
    }
  }
  return targets;
}

}  // namespace

namespace {

/// One Monte-Carlo trial's pass/fail outcomes (reduced after the loop so
/// the counters are identical whatever order the trials finish in).
struct TrialOutcome {
  bool repaired_digital = false;
  bool repaired_analog = false;
  bool survive_digital = false;
  bool survive_analog = false;
};

}  // namespace

YieldReport estimate_repair_yield(const YieldExperiment& exp,
                                  util::ThreadPool* pool) {
  ECMS_REQUIRE(exp.trials > 0, "yield experiment needs trials");
  const Rng rng(exp.seed);
  const tech::Technology t = tech::tech018();
  YieldReport rep;
  rep.trials = exp.trials;

  std::vector<TrialOutcome> outcomes(exp.trials);
  util::ThreadPool::run(pool, exp.trials, 1, [&](std::size_t trial) {
    // Fabricate one array; every draw of this trial comes from a stream
    // keyed by the trial index, independent of scheduling.
    Rng trial_rng = rng.fork(trial);
    edram::MacroCellSpec spec;
    spec.rows = exp.rows;
    spec.cols = exp.cols;
    tech::CapField caps(exp.cap_process, exp.rows, exp.cols,
                        trial_rng.next_u64());
    tech::DefectMap defects = tech::DefectMap::random(
        exp.rows, exp.cols, exp.defect_rates, trial_rng);
    const edram::MacroCell mc(spec, t, std::move(caps), std::move(defects));

    // Time-zero digital bitmap (March C-).
    edram::BehavioralArray array(mc);
    march::EdramMemory mem(array);
    const auto march_res = march::run_march(mem, march::march_c_minus());
    const bitmap::DigitalBitmap& digital = march_res.fail_bitmap;

    // Analog bitmap (plate-segmented: one structure per 4x4 tile).
    const msu::StructureParams sp;
    const bitmap::AnalogBitmap analog =
        extraction::extract(mc, {.params = sp}).bitmap;

    // Allocate both repairs.
    const RepairSolution rep_digital =
        allocate_greedy(digital, exp.redundancy);
    const bitmap::DigitalBitmap analog_targets =
        analog_repair_targets(digital, analog, exp.signature);
    const RepairSolution rep_analog =
        allocate_greedy(analog_targets, exp.redundancy);

    outcomes[trial].repaired_digital = rep_digital.success;
    outcomes[trial].repaired_analog = rep_analog.success;

    // Burn-in: decide which cells degrade into failures (same draw for both
    // policies so the comparison is paired).
    std::vector<char> burnin_fail(exp.rows * exp.cols, 0);
    for (std::size_t r = 0; r < exp.rows; ++r) {
      for (std::size_t c = 0; c < exp.cols; ++c) {
        const double cap = mc.effective_cap(r, c);
        const bool marginal =
            cap >= exp.marginal.lo_f && cap < exp.marginal.hi_f;
        const double p = marginal ? exp.burn_in.marginal_fail_prob
                                  : exp.burn_in.nominal_fail_prob;
        burnin_fail[r * exp.cols + c] = trial_rng.bernoulli(p) ? 1 : 0;
      }
    }

    const auto survives = [&](const RepairSolution& sol,
                              const bitmap::DigitalBitmap& t0_fails) {
      if (!sol.success) return false;
      for (std::size_t r = 0; r < exp.rows; ++r) {
        for (std::size_t c = 0; c < exp.cols; ++c) {
          const bool fails_eventually =
              t0_fails.fails(r, c) || burnin_fail[r * exp.cols + c] != 0;
          if (!fails_eventually) continue;
          const bool covered =
              std::find(sol.rows.begin(), sol.rows.end(), r) !=
                  sol.rows.end() ||
              std::find(sol.cols.begin(), sol.cols.end(), c) !=
                  sol.cols.end();
          if (!covered) return false;
        }
      }
      return true;
    };

    outcomes[trial].survive_digital = survives(rep_digital, digital);
    outcomes[trial].survive_analog = survives(rep_analog, digital);
  });

  for (const TrialOutcome& o : outcomes) {
    if (o.repaired_digital) ++rep.repaired_time_zero_digital;
    if (o.repaired_analog) ++rep.repaired_time_zero_analog;
    if (o.survive_digital) ++rep.survive_burn_in_digital;
    if (o.survive_analog) ++rep.survive_burn_in_analog;
  }
  return rep;
}

}  // namespace ecms::bisr
