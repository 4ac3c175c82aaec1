// Fast-model request path microbenchmark (BENCH_fastmodel.json).
//
// Splits one served 64x64 fast-model request (seed 1, 4x4 tiles, the
// dispatcher's robust request shape) into its parts:
//   * Extract64Tiled     — the whole extraction::extract call;
//   * TileAndModel64     — building the 256 tiles and their models;
//   * PlateOffset64      — plate_offset() of all 4,096 cells, models prebuilt;
//   * RefCurrent4096     — 4,096 REF current evaluations;
// and times the untiled 64x64 model, where the plate offset dominates:
//   * Ctor64Untiled      — one FastModel over the whole array;
//   * Extract64Untiled   — AnalogBitmap::extract of that model.
// and times the rest of the dispatcher's service path for that request:
//   * BuildArray64       — serve::build_array (capacitance field + defects);
//   * ServeFast64        — build, extract, then encode the result frame
//                          (header, codes, statuses), as the server does.
// Only public API is used, so the same file times any revision.
//
//   ./build/bench/bench_fastmodel --benchmark_repetitions=5
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "bitmap/analog_bitmap.hpp"
#include "bitmap/extraction.hpp"
#include "msu/fastmodel.hpp"
#include "serve/protocol.hpp"
#include "serve/workload.hpp"
#include "util/crc32.hpp"

namespace {
using namespace ecms;

constexpr std::size_t kN = 64, kTile = 4;

const edram::MacroCell& array64() {
  static const edram::MacroCell mc =
      serve::build_array({.rows = kN, .cols = kN, .seed = 1});
  return mc;
}

void Extract64Tiled(benchmark::State& state) {
  serve::ExtractSpec spec;
  spec.rows = spec.cols = kN;
  spec.seed = 1;
  spec.tile_rows = spec.tile_cols = kTile;
  const extraction::ExtractRequest req = serve::request_of(spec);
  for (auto _ : state)
    benchmark::DoNotOptimize(extraction::extract(array64(), req));
}
BENCHMARK(Extract64Tiled)->Unit(benchmark::kMillisecond);

void TileAndModel64(benchmark::State& state) {
  for (auto _ : state) {
    for (std::size_t r0 = 0; r0 < kN; r0 += kTile) {
      for (std::size_t c0 = 0; c0 < kN; c0 += kTile) {
        const msu::FastModel m(array64().tile(r0, c0, kTile, kTile), {});
        benchmark::DoNotOptimize(m.delta_i());
      }
    }
  }
}
BENCHMARK(TileAndModel64)->Unit(benchmark::kMillisecond);

void PlateOffset64(benchmark::State& state) {
  std::vector<msu::FastModel> models;
  for (std::size_t r0 = 0; r0 < kN; r0 += kTile)
    for (std::size_t c0 = 0; c0 < kN; c0 += kTile)
      models.emplace_back(array64().tile(r0, c0, kTile, kTile),
                          msu::StructureParams{});
  for (auto _ : state) {
    double sum = 0.0;
    for (const msu::FastModel& m : models)
      for (std::size_t r = 0; r < kTile; ++r)
        for (std::size_t c = 0; c < kTile; ++c) sum += m.plate_offset(r, c);
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(PlateOffset64)->Unit(benchmark::kMillisecond);

void RefCurrent4096(benchmark::State& state) {
  const msu::FastModel m(array64().tile(0, 0, kTile, kTile), {});
  for (auto _ : state) {
    double sum = 0.0;
    for (std::size_t k = 0; k < kN * kN; ++k)
      sum += m.ref_current(0.6 + 1e-4 * static_cast<double>(k % 1000));
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(RefCurrent4096)->Unit(benchmark::kMillisecond);

void Ctor64Untiled(benchmark::State& state) {
  for (auto _ : state) {
    const msu::FastModel m(array64(), {});
    benchmark::DoNotOptimize(m.delta_i());
  }
}
BENCHMARK(Ctor64Untiled)->Unit(benchmark::kMillisecond);

void Extract64Untiled(benchmark::State& state) {
  const msu::FastModel m(array64(), {});
  for (auto _ : state)
    benchmark::DoNotOptimize(bitmap::AnalogBitmap::extract(m));
}
BENCHMARK(Extract64Untiled)->Unit(benchmark::kMillisecond);

void BuildArray64(benchmark::State& state) {
  for (auto _ : state)
    benchmark::DoNotOptimize(
        serve::build_array({.rows = kN, .cols = kN, .seed = 1}));
}
BENCHMARK(BuildArray64)->Unit(benchmark::kMillisecond);

void ServeFast64(benchmark::State& state) {
  serve::ExtractSpec spec;
  spec.rows = spec.cols = kN;
  spec.seed = 1;
  spec.tile_rows = spec.tile_cols = kTile;
  for (auto _ : state) {
    const edram::MacroCell mc = serve::build_array(serve::array_spec_of(spec));
    const extraction::ExtractReport rep =
        extraction::extract(mc, serve::request_of(spec));
    const std::vector<int>& codes = rep.bitmap.codes();
    serve::ResultInfo info;
    info.rows = info.cols = kN;
    info.code_hash = util::fnv1a64(codes.data(), codes.size() * sizeof(int));
    std::string payload(reinterpret_cast<const char*>(&info), sizeof info);
    payload.append(reinterpret_cast<const char*>(codes.data()),
                   codes.size() * sizeof(int));
    for (const CellStatus s : rep.status)
      payload.push_back(static_cast<char>(s));
    benchmark::DoNotOptimize(serve::encode_frame(
        serve::FrameType::kResult, payload.data(), payload.size()));
  }
}
BENCHMARK(ServeFast64)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
