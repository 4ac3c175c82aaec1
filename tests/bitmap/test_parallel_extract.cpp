// Determinism contract of the parallel tiled extraction: for any worker
// count, the thread-pool path must produce codes bit-identical to the
// serial path — including the noisy overload, whose per-tile randomness is
// derived via Rng::fork(tile_index) rather than a shared sequential stream.
#include <gtest/gtest.h>

#include "bitmap/extraction.hpp"
#include "tech/tech.hpp"
#include "util/threadpool.hpp"
#include "util/units.hpp"

namespace ecms::bitmap {
namespace {

// 16x16 array with process variation and a few defects, so codes actually
// vary from cell to cell.
edram::MacroCell varied16() {
  tech::CapProcessParams cp;
  cp.local_sigma_rel = 0.04;
  tech::CapField field(cp, 16, 16, 99);
  Rng rng(99);
  tech::DefectRates rates;
  rates.short_rate = 0.01;
  rates.open_rate = 0.01;
  rates.partial_rate = 0.02;
  tech::DefectMap defects = tech::DefectMap::random(16, 16, rates, rng);
  return edram::MacroCell({.rows = 16, .cols = 16}, tech::tech018(),
                          std::move(field), std::move(defects));
}

TEST(ParallelExtractT, CleanCodesIdenticalAtAnyJobCount) {
  const auto mc = varied16();
  const AnalogBitmap serial = extraction::extract(mc, {}).bitmap;
  for (std::size_t jobs : {1u, 2u, 8u}) {
    util::ThreadPool pool(jobs);
    const AnalogBitmap par = extraction::extract(mc, {.pool = &pool}).bitmap;
    EXPECT_EQ(serial.codes(), par.codes()) << "jobs = " << jobs;
  }
}

TEST(ParallelExtractT, NoisyCodesIdenticalAtAnyJobCount) {
  const auto mc = varied16();
  msu::MeasureNoise noise;
  noise.enabled = true;
  noise.vgs_sigma = 3e-3;
  Rng serial_rng(7);
  const AnalogBitmap serial =
      extraction::extract(mc, {.noise = &noise, .rng = &serial_rng}).bitmap;
  for (std::size_t jobs : {1u, 2u, 8u}) {
    util::ThreadPool pool(jobs);
    Rng rng(7);
    const AnalogBitmap par =
        extraction::extract(mc, {.pool = &pool, .noise = &noise, .rng = &rng})
            .bitmap;
    EXPECT_EQ(serial.codes(), par.codes()) << "jobs = " << jobs;
  }
}

TEST(ParallelExtractT, NoisyExtractionIsAPureFunctionOfRngState) {
  // fork() does not consume the caller's stream, so repeating the call with
  // an equally seeded Rng reproduces the exact bitmap.
  const auto mc = varied16();
  msu::MeasureNoise noise;
  noise.enabled = true;
  noise.vgs_sigma = 3e-3;
  Rng r1(21), r2(21);
  const AnalogBitmap a =
      extraction::extract(mc, {.noise = &noise, .rng = &r1}).bitmap;
  const AnalogBitmap b =
      extraction::extract(mc, {.noise = &noise, .rng = &r2}).bitmap;
  EXPECT_EQ(a.codes(), b.codes());
}

TEST(ParallelExtractT, NoiseStillPerturbsCodes) {
  const auto mc = varied16();
  const AnalogBitmap clean = extraction::extract(mc, {}).bitmap;
  msu::MeasureNoise noise;
  noise.enabled = true;
  noise.vgs_sigma = 5e-3;
  util::ThreadPool pool(4);
  Rng rng(3);
  const AnalogBitmap noisy =
      extraction::extract(mc, {.pool = &pool, .noise = &noise, .rng = &rng})
          .bitmap;
  std::size_t diffs = 0;
  for (std::size_t i = 0; i < clean.codes().size(); ++i)
    if (clean.codes()[i] != noisy.codes()[i]) ++diffs;
  EXPECT_GT(diffs, 0u);
}

TEST(ParallelExtractT, NonSquareTilingWorksInParallel) {
  const auto mc = varied16();
  util::ThreadPool pool(3);
  const AnalogBitmap serial =
      extraction::extract(mc, {.tile_rows = 2, .tile_cols = 8}).bitmap;
  const AnalogBitmap par =
      extraction::extract(mc, {.tile_rows = 2, .tile_cols = 8, .pool = &pool})
          .bitmap;
  EXPECT_EQ(serial.codes(), par.codes());
}

}  // namespace
}  // namespace ecms::bitmap
