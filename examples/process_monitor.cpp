// Process monitoring: watching the capacitor module of an eDRAM process
// with the embedded structure's analog bitmaps.
//
// Simulates a production line: lots of arrays stream by; most are healthy,
// some carry a dielectric-thickness drift, one has a deposition tilt. The
// monitor keeps a reference distribution of mean codes and flags lots whose
// statistics move. The digital (pass/fail) test sees nothing until cells
// actually fail — the analog bitmap sees the drift while everything still
// "works".
//
// Build & run:  ./examples/process_monitor
#include <cstdio>

#include "bitmap/analog_bitmap.hpp"
#include "bitmap/extraction.hpp"
#include "bitmap/spatial.hpp"
#include "edram/behavioral.hpp"
#include "march/runner.hpp"
#include "tech/tech.hpp"
#include "util/stats.hpp"
#include "util/units.hpp"

namespace {
using namespace ecms;
constexpr std::size_t kN = 16;

edram::MacroCell make_lot_array(const tech::CapProcessParams& cp,
                                std::uint64_t seed) {
  tech::CapField field(cp, kN, kN, seed);
  return edram::MacroCell({.rows = kN, .cols = kN}, tech::tech018(),
                          std::move(field), tech::DefectMap(kN, kN));
}

struct LotResult {
  RunningStats mean_codes;
  std::size_t digital_fails = 0;
  double grad_x = 0.0;
};

LotResult run_lot(const tech::CapProcessParams& cp, std::uint64_t seed,
                  std::size_t arrays) {
  LotResult res;
  Rng rng(seed);
  for (std::size_t i = 0; i < arrays; ++i) {
    const auto mc = make_lot_array(cp, rng.next_u64());
    const auto bm = extraction::extract(mc, {}).bitmap;
    res.mean_codes.add(bm.mean_in_range_code());

    std::vector<double> field(bm.codes().begin(), bm.codes().end());
    res.grad_x += bitmap::fit_plane(field, kN, kN).grad_x /
                  static_cast<double>(arrays);

    edram::BehavioralArray array(mc);
    march::EdramMemory mem(array);
    res.digital_fails +=
        march::run_march(mem, march::march_c_minus()).fail_bitmap.fail_count();
  }
  return res;
}
}  // namespace

int main() {
  using namespace ecms;
  constexpr std::size_t kArraysPerLot = 6;

  std::printf("eDRAM capacitor-module monitor (16x16 arrays, %zu per lot)\n\n",
              kArraysPerLot);

  // Reference distribution from known-good lots.
  tech::CapProcessParams healthy;
  healthy.local_sigma_rel = 0.03;
  const LotResult reference = run_lot(healthy, 1, 4 * kArraysPerLot);
  std::printf("reference: mean code %.2f (sigma %.2f across arrays)\n\n",
              reference.mean_codes.mean(), reference.mean_codes.stddev());

  struct Lot {
    const char* name;
    tech::CapProcessParams cp;
  };
  std::vector<Lot> lots;
  lots.push_back({"lot A (healthy)", healthy});
  {
    Lot l{"lot B (dielectric -6%)", healthy};
    l.cp.lot_offset_rel = -0.06;
    lots.push_back(l);
  }
  {
    Lot l{"lot C (healthy)", healthy};
    lots.push_back(l);
  }
  {
    Lot l{"lot D (deposition tilt)", healthy};
    l.cp.gradient_x_rel = 0.15;
    lots.push_back(l);
  }
  {
    Lot l{"lot E (dielectric +8%)", healthy};
    l.cp.lot_offset_rel = 0.08;
    lots.push_back(l);
  }

  std::printf("%-26s %-10s %-8s %-9s %-14s %s\n", "lot", "mean code", "t",
              "|grad_x|", "digital fails", "verdict");
  std::uint64_t seed = 100;
  for (const auto& lot : lots) {
    const LotResult res = run_lot(lot.cp, seed++, kArraysPerLot);
    const double t = welch_t(res.mean_codes, reference.mean_codes);
    const double p = two_sided_p_from_z(t);
    const bool drift = p < 0.01;
    const bool tilt = std::abs(res.grad_x) > 0.05;
    const char* verdict = drift   ? "DRIFT ALARM"
                          : tilt  ? "TILT ALARM"
                                  : "ok";
    std::printf("%-26s %-10.2f %-8.2f %-9.3f %-14zu %s\n", lot.name,
                res.mean_codes.mean(), t, std::abs(res.grad_x),
                res.digital_fails, verdict);
  }

  std::printf(
      "\nnote the 'digital fails' column: every lot passes functional test —\n"
      "only the analog bitmap statistics expose the process movement.\n");
  return 0;
}
