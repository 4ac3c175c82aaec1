// CLM-BITMAP — the paper's motivating claim: "the diagnosis of failure of
// each cell in the array is improved" because the analog bitmap carries
// per-cell capacitance codes instead of pass/fail bits.
//
// Two quantified comparisons on 32x32 arrays (4x4 plate segmentation):
//  1. severity sweep: at which capacitor degradation does each bitmap first
//     see a cell (the digital bitmap only fails once the sense margin is
//     gone; the analog bitmap grades the whole range);
//  2. random defect population: coverage of hard defects and of marginal
//     cells by both bitmaps.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <iostream>

#include "bitmap/compare.hpp"
#include "bitmap/extraction.hpp"
#include "edram/behavioral.hpp"
#include "march/runner.hpp"
#include "report/experiment.hpp"
#include "tech/tech.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace {
using namespace ecms;

constexpr std::size_t kN = 32;

edram::MacroCell fresh_array(std::uint64_t seed) {
  tech::CapProcessParams cp;
  cp.local_sigma_rel = 0.02;
  tech::CapField field(cp, kN, kN, seed);
  return edram::MacroCell({.rows = kN, .cols = kN}, tech::tech018(),
                          std::move(field), tech::DefectMap(kN, kN));
}

bitmap::DigitalBitmap digital_of(const edram::MacroCell& mc) {
  edram::BehavioralArray array(mc);
  march::EdramMemory mem(array);
  return march::run_march(mem, march::march_c_minus()).fail_bitmap;
}

void severity_sweep(report::Experiment& exp) {
  std::printf("-- severity sweep: one degraded cell at (7, 7) --\n\n");
  Table table({"cap scale", "effective Cm (fF)", "digital sees it",
               "analog code", "analog flags it"});
  double digital_first = 0.0, analog_first = 0.0;
  for (double scale : {0.9, 0.7, 0.55, 0.4, 0.3, 0.2, 0.12, 0.05}) {
    auto mc = fresh_array(1);
    mc.set_defect(7, 7, tech::make_partial(scale));
    const auto digital = digital_of(mc);
    const auto analog = extraction::extract(mc, {}).bitmap;
    const auto sig = bitmap::SignatureMap::categorize(analog);
    const bool dig = digital.fails(7, 7);
    const bool ana = sig.at(7, 7) != bitmap::CellSignature::kNominal;
    if (dig && digital_first == 0.0) digital_first = scale;
    if (ana && analog_first == 0.0) analog_first = scale;
    table.add_row({Table::num(scale, 2),
                   Table::num(to_unit::fF(mc.effective_cap(7, 7)), 1),
                   dig ? "FAIL" : "pass",
                   Table::num(static_cast<long long>(analog.at(7, 7))),
                   ana ? "flagged" : "nominal"});
  }
  std::cout << table << '\n';
  exp.check(
      "the analog bitmap sees degradation long before the functional test",
      "analog flags from scale " + Table::num(analog_first, 2) +
          ", digital fails only from scale " + Table::num(digital_first, 2),
      analog_first > digital_first);
}

void population_comparison(report::Experiment& exp) {
  std::printf("-- random defect population (32x32, 5 arrays) --\n\n");
  Table table({"array", "truth defects", "digital sees", "analog sees",
               "marginal cells", "digital sees", "analog sees"});
  std::size_t sum_md = 0, sum_ma = 0, sum_m = 0, sum_d = 0, sum_dd = 0,
              sum_da = 0;
  Rng rng(99);
  for (int i = 0; i < 5; ++i) {
    auto mc = fresh_array(100 + static_cast<std::uint64_t>(i));
    tech::DefectRates rates;
    rates.short_rate = 0.003;
    rates.open_rate = 0.003;
    rates.partial_rate = 0.01;
    const auto defects = tech::DefectMap::random(kN, kN, rates, rng);
    for (std::size_t r = 0; r < kN; ++r)
      for (std::size_t c = 0; c < kN; ++c) mc.set_defect(r, c, defects.at(r, c));
    const auto rep = bitmap::compare_bitmaps(
        mc, extraction::extract(mc, {}).bitmap, digital_of(mc));
    table.add_row({Table::num(static_cast<long long>(i)),
                   Table::num(static_cast<long long>(rep.truth_defects)),
                   Table::num(static_cast<long long>(rep.defects_seen_digital)),
                   Table::num(static_cast<long long>(rep.defects_seen_analog)),
                   Table::num(static_cast<long long>(rep.truth_marginal)),
                   Table::num(static_cast<long long>(rep.marginal_seen_digital)),
                   Table::num(static_cast<long long>(rep.marginal_seen_analog))});
    sum_d += rep.truth_defects;
    sum_dd += rep.defects_seen_digital;
    sum_da += rep.defects_seen_analog;
    sum_m += rep.truth_marginal;
    sum_md += rep.marginal_seen_digital;
    sum_ma += rep.marginal_seen_analog;
  }
  std::cout << table << '\n';
  exp.check("hard-defect coverage at least matches the digital bitmap",
            "analog " + Table::num(static_cast<long long>(sum_da)) + "/" +
                Table::num(static_cast<long long>(sum_d)) + " vs digital " +
                Table::num(static_cast<long long>(sum_dd)) + "/" +
                Table::num(static_cast<long long>(sum_d)),
            sum_da >= sum_dd);
  exp.check("marginal cells are visible only in the analog bitmap",
            "analog " + Table::num(static_cast<long long>(sum_ma)) + "/" +
                Table::num(static_cast<long long>(sum_m)) + " vs digital " +
                Table::num(static_cast<long long>(sum_md)) + "/" +
                Table::num(static_cast<long long>(sum_m)),
            sum_m > 0 && sum_ma > sum_md && sum_md == 0);
}

void run_claim() {
  std::printf("CLM-BITMAP: analog vs digital bitmap diagnosis\n\n");
  report::Experiment exp("CLM-BITMAP",
                         "analog bitmapping improves per-cell diagnosis");
  severity_sweep(exp);
  population_comparison(exp);
  exp.note(
      "digital bitmap = March C- over the behavioral array; analog bitmap = "
      "per-4x4-tile measurement structures (plate segmentation)");
  std::cout << exp << '\n';
}

void BM_TiledBitmap32(benchmark::State& state) {
  const auto mc = fresh_array(5);
  for (auto _ : state) {
    auto bm = extraction::extract(mc, {}).bitmap;
    benchmark::DoNotOptimize(bm.count_out_of_range());
  }
}
BENCHMARK(BM_TiledBitmap32)->Unit(benchmark::kMillisecond);

void BM_MarchCMinus32(benchmark::State& state) {
  const auto mc = fresh_array(5);
  for (auto _ : state) {
    edram::BehavioralArray array(mc);
    march::EdramMemory mem(array);
    auto res = march::run_march(mem, march::march_c_minus());
    benchmark::DoNotOptimize(res.total_read_mismatches);
  }
}
BENCHMARK(BM_MarchCMinus32)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  run_claim();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
