// ecms_perfbench — end-to-end and per-layer benchmark of the ecms
// libraries. See README.md beside this file for the workloads, metrics and
// the layer -> metric predictions; run it through run.py, which builds it.
//
// The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Lines before it are the human-readable report. A failed
// correctness check exits 1; a usage or runtime error exits 2.
#include <cstdio>
#include <exception>
#include <filesystem>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

struct MetricDef {
  const char* name;
  const char* unit;
};

// Keep in step with BENCHMARK.json (the self-test compares them).
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"items_per_s", "1/s"},
    {"cpu_ms_per_item", "ms"},
    {"op_p50_ms", "ms"},
    {"peak_rss_mb", "MB"},
};

constexpr MetricDef kPerLayer[] = {
    {"circuit.assemble_us", "us"},
    {"circuit.factor_us", "us"},
    {"circuit.solve_us", "us"},
    {"circuit.newton_point_us", "us"},
    {"circuit.transient_ms", "ms"},
    {"circuit.batch_advance_ms", "ms"},
    {"circuit.steps_per_cell", "count"},
    {"circuit.newton_iters_per_step", "count"},
    {"circuit.lu_numeric_per_cell", "count"},
    {"circuit.lu_symbolic", "count"},
    {"circuit.program_hit_ratio", "ratio"},
    {"circuit.batch_retire_ratio", "ratio"},
    {"msu.extract_array_ms", "ms"},
    {"msu.adaptive_probes_per_cell", "count"},
    {"msu.prefix_steps_per_cell", "count"},
    {"msu.conversion_steps_per_cell", "count"},
    {"msu.adaptive_fallback_ratio", "ratio"},
    {"msu.extract_cell_ms", "ms"},
    {"msu.calibrate_ms", "ms"},
    {"msu.fastmodel_us_per_cell", "us"},
    {"bitmap.extract_ms", "ms"},
    {"bitmap.tile_p50_ms", "ms"},
    {"bitmap.tile_p99_ms", "ms"},
    {"bitmap.pool_idle_frac", "ratio"},
    {"util.pool_cpu_overhead", "ratio"},
    {"serve.admit_us", "us"},
    {"serve.overhead_p50_ms", "ms"},
    {"serve.overhead_p99_ms", "ms"},
    {"serve.queue_depth_mean", "count"},
    {"serve.rejected", "count"},
    {"campaign.measure_unit_ms", "ms"},
    {"campaign.commit_us", "us"},
    {"campaign.compact_ms", "ms"},
    {"campaign.supervisor_overhead_frac", "ratio"},
    {"self.bitmap_frac", "ratio"},
    {"self.msu_frac", "ratio"},
    {"self.serve_frac", "ratio"},
    {"self.campaign_frac", "ratio"},
    {"self.uncovered_frac", "ratio"},
    {"obs.trace_overhead_pct", "%"},
};

std::string json_number(double v) {
  if (!(v == v) || v > 1e300 || v < -1e300) v = 0.0;  // JSON has no NaN/inf
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

template <std::size_t N>
std::string metrics_json(const MetricDef (&defs)[N],
                         const std::map<std::string, double>& values) {
  std::string s = "{";
  for (std::size_t i = 0; i < N; ++i) {
    const auto it = values.find(defs[i].name);
    s += std::string(i ? ", " : "") + "\"" + defs[i].name +
         "\": {\"value\": " + json_number(it == values.end() ? 0.0 : it->second) +
         ", \"unit\": \"" + defs[i].unit + "\"}";
  }
  return s + "}";
}

Outcome dispatch(const Options& o) {
  if (o.workload == "array16") return run_array16(o);
  if (o.workload == "abacus-sweep") return run_abacus_sweep(o);
  if (o.workload == "serve-mix") return run_serve_mix(o);
  if (o.workload == "campaign") return run_campaign(o);
  throw std::runtime_error("unknown workload '" + o.workload + "'");
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options o = parse_options(argc, argv);
    Digests digests;
    if (!o.digests_path.empty()) digests.load(o.digests_path);
    std::filesystem::create_directories(o.scratch_dir);

    Outcome out = dispatch(o);

    const std::uint64_t digest = digest_of(out);
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(digest));
    const std::string seed_key =
        out.seed_independent ? "*" : std::to_string(o.seed);
    if (!o.record_path.empty()) {
      Digests::append(o.record_path, o.workload, o.tiny, seed_key, digest);
      std::printf("digest %s recorded for %s seed %s\n", hex,
                  o.workload.c_str(), seed_key.c_str());
    } else if (const std::uint64_t want = digests.find(o.workload, o.tiny, o.seed);
               want == 0) {
      std::printf("digest %s (none recorded for seed %s; other checks only)\n",
                  hex, seed_key.c_str());
    } else {
      out.check(want == digest, "code digest " + std::string(hex) +
                                    " differs from the recorded digest");
      std::printf("digest %s matches the recorded digest\n", hex);
    }

    for (const std::string& line : out.report) std::printf("%s\n", line.c_str());
    const std::vector<double>& ops = out.main.op_ms;
    std::printf("stat ops %zu, op ms p25 %.6g p50 %.6g p75 %.6g\n", ops.size(),
                percentile(ops, 25), percentile(ops, 50), percentile(ops, 75));
    for (const std::string& f : out.failures)
      std::fprintf(stderr, "CHECK FAILED: %s\n", f.c_str());

    std::string metrics;
    if (o.trace) {
      for (const auto& [name, v] : out.layer)
        std::printf("layer %s %.6g\n", name.c_str(), v);
      metrics = metrics_json(kPerLayer, out.layer);
      if (!o.trace_out.empty()) {
        Recorder::global().write_chrome_json(o.trace_out);
        std::printf("spans written to %s\n", o.trace_out.c_str());
      }
    } else {
      const Phase& m = out.main;
      const std::map<std::string, double> e2e = {
          {"setup_s", out.setup_s},
          {"items_per_s", m.items_per_s()},
          {"cpu_ms_per_item", m.cpu_ms_per_item()},
          {"op_p50_ms", out.op_p50_ms >= 0 ? out.op_p50_ms : median(m.op_ms)},
          {"peak_rss_mb", peak_rss_mb(out.rss_with_children)},
      };
      metrics = metrics_json(kEndToEnd, e2e);
    }
    const bool correct = out.failures.empty();
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(out.attempted),
                static_cast<unsigned long long>(out.failed), metrics.c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
