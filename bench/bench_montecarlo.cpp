// EXT-A4 — process-monitoring use case.
//
// The paper motivates the structure with "problems of process monitoring":
// this experiment quantifies how well analog-bitmap statistics detect a
// lot-level dielectric drift. Monte-Carlo lots of arrays are drawn with and
// without a systematic capacitance shift; the detector compares mean
// in-range codes via Welch's t-test.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "bitmap/analog_bitmap.hpp"
#include "bitmap/extraction.hpp"
#include "report/experiment.hpp"
#include "tech/tech.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/threadpool.hpp"
#include "util/units.hpp"

namespace {
using namespace ecms;

constexpr std::size_t kArray = 16;
constexpr std::size_t kArraysPerLot = 8;

// Mean in-range code of one lot (with measurement noise). Each array of the
// lot samples from Rng::fork(array index), one pool task per array, so the
// lot statistics are identical at any thread count (per-array means are
// accumulated in index order).
RunningStats lot_codes(double offset_rel, std::uint64_t seed,
                       util::ThreadPool* pool = nullptr) {
  const Rng rng(seed);
  msu::MeasureNoise noise;
  noise.enabled = true;
  noise.vgs_sigma = 2e-3;  // charge-sharing noise
  std::vector<double> means(kArraysPerLot);
  util::ThreadPool::run(pool, kArraysPerLot, 1, [&](std::size_t i) {
    Rng arr_rng = rng.fork(i);
    tech::CapProcessParams cp;
    cp.local_sigma_rel = 0.03;
    cp.lot_offset_rel = offset_rel;
    tech::CapField field(cp, kArray, kArray, arr_rng.next_u64());
    const edram::MacroCell mc({.rows = kArray, .cols = kArray},
                              tech::tech018(), std::move(field),
                              tech::DefectMap(kArray, kArray));
    Rng noise_rng = arr_rng.split();
    const auto bm =
        extraction::extract(mc, {.noise = &noise, .rng = &noise_rng}).bitmap;
    means[i] = bm.mean_in_range_code();
  });
  RunningStats stats;
  for (double m : means) stats.add(m);
  return stats;
}

void run_monitor(util::ThreadPool* pool) {
  std::printf("EXT-A4: lot-drift detection power (mean code Welch t-test)\n\n");
  Table table({"drift (%)", "reference mean code", "lot mean code", "t",
               "p (two-sided)", "detected (p<0.01)"});
  report::Experiment exp("EXT-A4", "process monitoring via analog bitmap");

  const RunningStats ref = lot_codes(0.0, 1, pool);
  bool detected_5 = false, detected_1 = false, false_alarm = false;
  for (double drift : {0.0, 0.01, 0.02, 0.05, 0.10}) {
    const RunningStats lot =
        lot_codes(-drift, 1000 + static_cast<int>(drift * 1000), pool);
    const double t = welch_t(lot, ref);
    const double p = two_sided_p_from_z(t);
    const bool detected = p < 0.01;
    table.add_row({Table::num(100 * drift, 0), Table::num(ref.mean(), 2),
                   Table::num(lot.mean(), 2), Table::num(t, 2),
                   Table::num(p, 4), detected ? "yes" : "no"});
    if (drift == 0.05) detected_5 = detected;
    if (drift == 0.01) detected_1 = detected;
    if (drift == 0.0) false_alarm = detected;
  }
  std::cout << table << '\n';

  exp.check("a 5% capacitance drift is detected from 8 arrays",
            detected_5 ? "detected" : "missed", detected_5);
  exp.check("no false alarm on an identical lot",
            false_alarm ? "FALSE ALARM" : "quiet", !false_alarm);
  exp.note(detected_1 ? "even the 1% drift was detected at this sample size"
                      : "the 1% drift is below this sample size's power");
  exp.note("functional (digital) test detects none of these drifts: every "
           "cell still reads correctly");
  std::cout << exp << '\n';
}

void BM_LotExtraction(benchmark::State& state) {
  tech::CapProcessParams cp;
  cp.local_sigma_rel = 0.03;
  tech::CapField field(cp, kArray, kArray, 7);
  const edram::MacroCell mc({.rows = kArray, .cols = kArray}, tech::tech018(),
                            std::move(field), tech::DefectMap(kArray, kArray));
  for (auto _ : state) {
    auto bm = extraction::extract(mc, {}).bitmap;
    benchmark::DoNotOptimize(bm.mean_in_range_code());
  }
}
BENCHMARK(BM_LotExtraction)->Unit(benchmark::kMillisecond);

void BM_LotCodesParallel(benchmark::State& state) {
  util::ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    auto stats = lot_codes(0.0, 1, &pool);
    benchmark::DoNotOptimize(stats.mean());
  }
  state.SetLabel(std::to_string(state.range(0)) + " threads");
}
BENCHMARK(BM_LotCodesParallel)->Arg(1)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

// Consumes "--jobs N" (worker threads for the lot sweep; default serial).
std::size_t take_jobs_flag(int& argc, char** argv) {
  std::size_t jobs = 1;
  int w = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--jobs" && i + 1 < argc) {
      // strtol (not stoul): garbage parses to 0 -> serial, and negatives
      // stay negative instead of wrapping to a huge worker count.
      const long v = std::strtol(argv[i + 1], nullptr, 10);
      jobs = v < 1 ? 0 : static_cast<std::size_t>(std::min<long>(v, 512));
      ++i;
    } else {
      argv[w++] = argv[i];
    }
  }
  argc = w;
  return jobs == 0 ? 1 : jobs;
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t jobs = take_jobs_flag(argc, argv);
  util::ThreadPool pool(jobs);
  run_monitor(jobs > 1 ? &pool : nullptr);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
