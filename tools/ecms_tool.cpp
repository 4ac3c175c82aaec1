// ecms_tool — command-line driver for the library. Run with no arguments
// for the full usage text (commands, per-command flags, observability
// flags, exit-code taxonomy).
//
// Exit codes:
//   0  success, every cell measured
//   1  usage error (bad command line)
//   2  runtime failure (extraction aborted, fail-fast hit, bad netlist, ...)
//   3  degraded success: the run completed but some cells are unmeasurable
//      (--keep-going, the default; the per-cell failure report lists them)
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <map>
#include <string>
#include <thread>

#include "bitmap/compare.hpp"
#include "campaign/campaign.hpp"
#include "campaign/compact.hpp"
#include "campaign/supervisor.hpp"
#include "campaign/worker.hpp"
#include "bitmap/diagnosis.hpp"
#include "bitmap/extraction.hpp"
#include "circuit/kernels.hpp"
#include "circuit/spice_io.hpp"
#include "edram/behavioral.hpp"
#include "edram/netlister.hpp"
#include "fault/fault.hpp"
#include "march/runner.hpp"
#include "msu/abacus.hpp"
#include "msu/designer.hpp"
#include "msu/extract.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "report/heatmap.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "serve/workload.hpp"
#include "tech/tech.hpp"
#include "util/crc32.hpp"
#include "util/error.hpp"
#include "util/log.hpp"
#include "util/table.hpp"
#include "util/threadpool.hpp"
#include "util/units.hpp"

namespace {
using namespace ecms;

constexpr int kExitOk = 0;
constexpr int kExitUsage = 1;
constexpr int kExitFailure = 2;
constexpr int kExitDegraded = 3;

/// Bad command line (vs a runtime failure, which exits differently).
class UsageError : public ecms::Error {
 public:
  explicit UsageError(const std::string& what) : Error(what) {}
};

class Args {
 public:
  Args(int argc, char** argv, int from) {
    for (int i = from; i < argc; ++i) {
      std::string key = argv[i];
      if (key.rfind("--", 0) != 0) {
        throw UsageError("expected --option, got '" + key + "'");
      }
      key = key.substr(2);
      // A token not starting with "--" is this option's value; otherwise the
      // option is a boolean flag (e.g. --keep-going).
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        kv_[key] = argv[++i];
      } else {
        kv_[key] = "1";
      }
    }
  }

  double num(const std::string& key, double fallback) const {
    const auto it = kv_.find(key);
    return it == kv_.end() ? fallback : std::stod(it->second);
  }
  /// Strict integer parse: trailing garbage ("--jobs 4x") is a usage error
  /// instead of being silently truncated.
  long long integer(const std::string& key, long long fallback) const {
    const auto it = kv_.find(key);
    if (it == kv_.end()) return fallback;
    try {
      std::size_t pos = 0;
      const long long v = std::stoll(it->second, &pos);
      if (pos != it->second.size()) throw std::invalid_argument(it->second);
      return v;
    } catch (const std::exception&) {
      throw UsageError("--" + key + " expects an integer, got '" +
                       it->second + "'");
    }
  }
  std::string str(const std::string& key, const std::string& fallback) const {
    const auto it = kv_.find(key);
    return it == kv_.end() ? fallback : it->second;
  }
  bool flag(const std::string& key) const { return kv_.count(key) > 0; }

 private:
  std::map<std::string, std::string> kv_;
};

/// Resolves --jobs: default 1 (serial); 0 means one worker per hardware
/// thread; negatives and non-integers are usage errors. The result is
/// clamped to 512 workers — far beyond any host this runs on, but it bounds
/// an accidental "--jobs 100000" thread bomb. N >= 2 starts an N-worker
/// pool whose parallel_for caller drains tiles beside it: N + 1 threads.
std::size_t jobs_of(const Args& args) {
  constexpr long long kMaxJobs = 512;
  long long jobs = args.integer("jobs", 1);
  if (jobs < 0) throw UsageError("--jobs must be >= 0 (0 = all hardware threads)");
  if (jobs == 0) {
    jobs = static_cast<long long>(
        std::max(1u, std::thread::hardware_concurrency()));
  }
  return static_cast<std::size_t>(std::min(jobs, kMaxJobs));
}

/// One-screen metrics summary (non-zero counters, gauges, histograms) via
/// util::Table, printed after bitmap/extract runs.
void print_metrics_summary() {
  const obs::MetricsSnapshot snap = obs::Registry::global().snapshot();
  std::printf("\n-- metrics summary --\n");
  Table counters({"counter", "value"});
  for (const auto& [name, v] : snap.counters) {
    if (v == 0) continue;
    counters.add_row({name, Table::num(static_cast<long long>(v))});
  }
  if (counters.rows() > 0) std::printf("%s\n", counters.to_text().c_str());
  Table gauges({"gauge", "value", "max"});
  for (const auto& [name, g] : snap.gauges) {
    if (g.value == 0 && g.max == 0) continue;
    gauges.add_row({name, Table::num(static_cast<long long>(g.value)),
                    Table::num(static_cast<long long>(g.max))});
  }
  if (gauges.rows() > 0) std::printf("%s\n", gauges.to_text().c_str());
  Table hists({"histogram", "count", "mean", "max"});
  for (const auto& [name, h] : snap.histograms) {
    if (h.count == 0 && h.rejected == 0) continue;
    hists.add_row({name, Table::num(static_cast<long long>(h.count)),
                   Table::num(h.mean(), 6), Table::num(h.max, 6)});
  }
  if (hists.rows() > 0) std::printf("%s\n", hists.to_text().c_str());
}

/// Run-shape options shared by every measuring command (extract, bitmap,
/// array): worker count, per-cell retry budget, containment, fault
/// injection and the stop-at-flip ramp flow. Parsed in exactly one place so
/// the flags are spelled (and validated) the same way everywhere — a new
/// shared flag like --no-adaptive is defined once, not once per
/// subcommand.
struct CliRunConfig {
  std::size_t jobs = 1;
  int retries = 2;
  bool fail_fast = false;  ///< --fail-fast; default is --keep-going
  double fault_rate = 0.0;
  std::uint64_t fault_seed = 1;
  bool adaptive = true;  ///< --no-adaptive: the whole-window reference
  /// --no-program-cache: compile every netlist program privately instead
  /// of sharing through the process-wide topology cache (the A/B switch
  /// for cache-accounting runs; codes are bit-identical either way).
  bool program_cache = true;
  /// --batch / --batch-width N / --no-batch: lockstep batch width for the
  /// circuit engine (DESIGN.md §14). 0 = auto (16 lanes), 1 = scalar
  /// per-cell measurement, N >= 2 = exactly N lanes. Codes are
  /// bit-identical either way.
  int batch_width = 0;
};

/// Every measuring command stops each cell's transient at the end of the
/// ramp level where OUT flips unless --no-adaptive asks for the whole
/// window; codes are identical either way.
CliRunConfig run_config_of(const Args& args) {
  CliRunConfig cfg;
  cfg.jobs = jobs_of(args);
  cfg.retries = static_cast<int>(args.integer("retries", 2));
  if (args.flag("keep-going") && args.flag("fail-fast")) {
    throw UsageError("--keep-going and --fail-fast are mutually exclusive");
  }
  cfg.fail_fast = args.flag("fail-fast");
  cfg.fault_rate = args.num("fault-rate", 0.0);
  // A probability: reject anything outside [0,1] (NaN fails both compares).
  if (!(cfg.fault_rate >= 0.0 && cfg.fault_rate <= 1.0)) {
    throw UsageError("--fault-rate must be a probability in [0, 1], got '" +
                     args.str("fault-rate", "") + "'");
  }
  cfg.fault_seed = static_cast<std::uint64_t>(args.num("fault-seed", 1));
  cfg.adaptive = !args.flag("no-adaptive");
  cfg.program_cache = !args.flag("no-program-cache");
  if (args.flag("no-batch") &&
      (args.flag("batch") || args.flag("batch-width"))) {
    throw UsageError("--no-batch and --batch/--batch-width are mutually "
                     "exclusive");
  }
  if (args.flag("no-batch")) {
    cfg.batch_width = 1;
  } else if (args.flag("batch-width")) {
    const long long w = args.integer("batch-width", 0);
    if (w < 2 || w > 64) {
      throw UsageError("--batch-width expects a lane count in [2, 64], got '" +
                       args.str("batch-width", "") + "'");
    }
    cfg.batch_width = static_cast<int>(w);
  }
  // Bare --batch selects the default (auto width); accepted so scripted A/B
  // runs can spell both arms explicitly.
  return cfg;
}

/// Applies the shared run shape to a unified extraction request. `plan`
/// must outlive the extraction (the cell hook borrows it).
void apply_run_config(extraction::ExtractRequest& req, const CliRunConfig& cfg,
                      const fault::CellFaultPlan& plan) {
  req.jobs = cfg.jobs;
  req.robust = true;
  req.retry.max_attempts = cfg.retries;
  req.contain = !cfg.fail_fast;
  req.options.adaptive.enabled = cfg.adaptive;
  if (!cfg.program_cache) req.options.newton.solver.program_cache = nullptr;
  req.batch_width = cfg.batch_width;
  if (cfg.fault_rate > 0.0) req.cell_hook = plan.hook();
}

/// Observability wrapper for the measuring commands (bitmap, extract).
/// Collection is armed only when --metrics-out or --trace-out asks for it,
/// so the default output stays byte-identical run to run and across --jobs
/// (the determinism flows in the verify recipe cmp full stdout; a summary
/// with wall-clock histograms would break them). finish() prints the
/// one-screen summary and writes the requested artifacts.
class ObsSession {
 public:
  explicit ObsSession(const Args& args)
      : metrics_path_(args.str("metrics-out", "")),
        trace_path_(args.str("trace-out", "")) {
    if (!enabled()) return;
    obs::Registry::global().reset();
    obs::set_metrics_enabled(true);
    if (!trace_path_.empty()) obs::start_tracing();
  }

  void finish() {
    if (!enabled()) return;
    if (!trace_path_.empty()) {
      obs::stop_tracing();
      obs::write_trace_json(trace_path_);
      std::printf("\ntrace written to %s (open in chrome://tracing or "
                  "https://ui.perfetto.dev)\n",
                  trace_path_.c_str());
    }
    print_metrics_summary();
    if (!metrics_path_.empty()) {
      obs::write_metrics_json(metrics_path_);
      std::printf("metrics written to %s\n", metrics_path_.c_str());
    }
  }

 private:
  bool enabled() const {
    return !metrics_path_.empty() || !trace_path_.empty();
  }

 private:
  std::string metrics_path_;
  std::string trace_path_;
};

edram::MacroCellSpec spec_of(const Args& args) {
  edram::MacroCellSpec spec;
  spec.rows = static_cast<std::size_t>(args.num("rows", 4));
  spec.cols = static_cast<std::size_t>(args.num("cols", 4));
  return spec;
}

int cmd_abacus(const Args& args) {
  msu::StructureParams p;
  if (args.num("ref-w", 0) > 0) p.ref_w = args.num("ref-w", 0) * 1e-6;
  p.ramp_steps = static_cast<int>(args.num("steps", 20));
  const auto mc =
      edram::MacroCell::uniform(spec_of(args), tech::tech018(), 30_fF);
  const msu::FastModel model(mc, p);
  msu::Abacus ab = msu::Abacus::build(
      [&](double cm) { return model.code_of_cap(cm); }, p.ramp_steps, 1e-15,
      75e-15, 741);
  ab.refine([&](double cm) { return model.code_of_cap(cm); }, 1e-19);

  Table t({"code", "Cm low (fF)", "Cm high (fF)", "accuracy (%)"});
  for (int code = 1; code < p.ramp_steps; ++code) {
    const auto bin = ab.bin(code);
    if (!bin) continue;
    t.add_row({Table::num(static_cast<long long>(code)),
               Table::num(to_unit::fF(bin->lo), 2),
               Table::num(to_unit::fF(bin->hi), 2),
               Table::num(100 * bin->relative_halfwidth(), 1)});
  }
  std::cout << t;
  std::printf("\nwindow %.1f - %.1f fF, mean accuracy %.1f%%\n",
              to_unit::fF(ab.range_lo()), to_unit::fF(ab.range_hi()),
              100 * ab.mean_accuracy(1, p.ramp_steps - 1));
  return 0;
}

int cmd_extract(const Args& args) {
  ObsSession obs_session(args);
  const CliRunConfig cfg = run_config_of(args);
  const auto r = static_cast<std::size_t>(args.num("row", 0));
  const auto c = static_cast<std::size_t>(args.num("col", 0));
  auto mc = edram::MacroCell::uniform(spec_of(args), tech::tech018(), 30_fF);
  mc.set_true_cap(r, c, args.num("cap", 30.0) * 1e-15);
  const std::string defect = args.str("defect", "");
  if (defect == "short") mc.set_defect(r, c, tech::make_short());
  if (defect == "open") mc.set_defect(r, c, tech::make_open());

  msu::ExtractOptions options;
  options.adaptive.enabled = cfg.adaptive;
  if (!cfg.program_cache) options.newton.solver.program_cache = nullptr;
  const auto res = msu::extract_cell(mc, r, c, {}, {}, options);
  std::printf("cell (%zu,%zu): code %d / %d\n", r, c, res.code,
              res.schedule.ramp_steps);
  if (res.status == CellStatus::kRecovered) {
    std::printf("  solver recovery    : succeeded at rung '%s' (%d attempts)\n",
                circuit::recovery_rung_name(res.recovery.succeeded_at).c_str(),
                res.recovery.attempts);
  }
  if (res.adaptive.attempted) {
    if (res.adaptive.used) {
      std::printf("  stopped at the flip: %d ramp segment(s)\n",
                  res.adaptive.probes);
    } else {
      std::printf("  stopped at the flip: no, whole window instead (%s)\n",
                  res.adaptive.fallback_reason.c_str());
    }
  }
  std::printf("  plate after charge : %.3f V\n", res.v_plate_charged);
  std::printf("  V_GS after share   : %.3f V\n", res.vgs_shared);
  if (res.t_out_rise) {
    std::printf("  OUT flip           : %.2f ns\n",
                to_unit::ns(*res.t_out_rise));
  } else {
    std::printf("  OUT did not flip (full-scale)\n");
  }
  std::printf("  transient steps    : %zu\n", res.stats.accepted_steps);
  obs_session.finish();
  return 0;
}

/// Builds the synthetic array the bitmap/array commands measure: process
/// variation (local sigma + optional gradient/drift) plus random defects,
/// all keyed off --seed.
/// The CLI's array flags, as the serve-layer spec both the one-shot
/// commands and the service build arrays from (one body = the served
/// bit-identity contract; see serve/workload.hpp).
serve::ArraySpec array_spec_of(const Args& args, std::size_t default_n) {
  serve::ArraySpec spec;
  spec.rows = static_cast<std::size_t>(
      args.num("rows", static_cast<double>(default_n)));
  spec.cols = static_cast<std::size_t>(
      args.num("cols", static_cast<double>(default_n)));
  spec.seed = static_cast<std::uint64_t>(args.num("seed", 1));
  spec.gradient = args.num("gradient", 0.0);
  spec.drift = args.num("drift", 0.0);
  spec.shorts = args.num("shorts", 0.002);
  spec.opens = args.num("opens", 0.002);
  spec.partials = args.num("partials", 0.005);
  return spec;
}

edram::MacroCell array_of(const Args& args, std::size_t default_n) {
  return serve::build_array(array_spec_of(args, default_n));
}

/// Extraction-health footer shared by bitmap/array: the ok/recovered/
/// unmeasurable summary plus (a bounded list of) per-cell failures.
void print_health(const FailureReport& rep) {
  std::printf("\nextraction health: %s\n", rep.summary().c_str());
  constexpr std::size_t kMaxListed = 16;
  for (std::size_t i = 0; i < rep.failures.size() && i < kMaxListed; ++i) {
    const auto& f = rep.failures[i];
    std::printf("  unmeasurable (%zu,%zu): %s\n", f.row, f.col,
                f.reason.c_str());
  }
  if (rep.failures.size() > kMaxListed) {
    std::printf("  ... and %zu more\n", rep.failures.size() - kMaxListed);
  }
}

/// The fnv1a64 digest of a bitmap's codes, the same one a served request
/// reports, so one-shot and served runs of one array compare by one line.
void print_code_hash(const bitmap::AnalogBitmap& analog) {
  const std::vector<int>& codes = analog.codes();
  std::printf("code hash %016llx\n\n",
              static_cast<unsigned long long>(
                  util::fnv1a64(codes.data(), codes.size() * sizeof(int))));
}

int cmd_bitmap(const Args& args) {
  ObsSession obs_session(args);
  const CliRunConfig cfg = run_config_of(args);
  const edram::MacroCell mc = array_of(args, 32);

  // Codes are bit-identical whatever --jobs says (per-tile RNG streams);
  // the workers only change wall time.
  const fault::CellFaultPlan plan(cfg.fault_rate, cfg.fault_seed);
  extraction::ExtractRequest req;  // fast-model engine, 4x4 tiles
  apply_run_config(req, cfg, plan);
  const extraction::ExtractReport result = extraction::extract(mc, req);
  const auto& analog = result.bitmap;
  std::printf("analog bitmap (codes 0..20):\n%s\n",
              report::render_code_heatmap(analog).c_str());
  print_code_hash(analog);
  const auto sig = bitmap::SignatureMap::categorize(analog);
  std::printf("signatures:\n%s\n", report::render_signature_map(sig).c_str());

  const auto findings = bitmap::diagnose(
      analog, bitmap::make_tiled_disambiguator(mc, {}), std::nullopt);
  std::printf("findings (%zu):\n", findings.size());
  for (const auto& f : findings)
    std::printf("  [%s] %s\n", bitmap::diagnosis_name(f.kind).c_str(),
                f.detail.c_str());

  print_health(result.report);
  obs_session.finish();
  return result.complete() ? kExitOk : kExitDegraded;
}

/// array — transistor-level extraction of every cell, tile by tile, through
/// the unified API's circuit engine. This is the paper's validation flow at
/// array scale; each cell stops at its flip level unless --no-adaptive
/// (codes are bit-identical either way, only the transient-step cost
/// changes).
int cmd_array(const Args& args) {
  ObsSession obs_session(args);
  const CliRunConfig cfg = run_config_of(args);
  const edram::MacroCell mc = array_of(args, 8);

  const fault::CellFaultPlan plan(cfg.fault_rate, cfg.fault_seed);
  extraction::ExtractRequest req;
  req.engine = extraction::Engine::kCircuit;
  apply_run_config(req, cfg, plan);
  const extraction::ExtractReport result = extraction::extract(mc, req);

  std::printf("analog bitmap (codes 0..20, transistor level):\n%s\n",
              report::render_code_heatmap(result.bitmap).c_str());
  print_code_hash(result.bitmap);

  const auto& t = result.telemetry;
  std::printf("measurement cost:\n");
  std::printf("  cells              : %zu\n", t.cells);
  std::printf("  transient steps    : %zu (prefix %zu + conversion %zu)\n",
              t.transient_steps, t.prefix_steps, t.conversion_steps());
  if (cfg.adaptive) {
    std::printf("  adaptive scheduling: %zu cell(s) stopped at the flip "
                "(%zu ramp segments), %zu fallback(s)\n",
                t.adaptive_used, t.adaptive_probes, t.adaptive_fallbacks);
  } else {
    std::printf("  adaptive scheduling: off (exhaustive ramp per cell)\n");
  }
  std::printf("  shared discharge   : %zu cell(s) continue %zu step-1 "
              "run(s)\n",
              t.discharge_shared_cells, t.discharge_runs);

  print_health(result.report);
  obs_session.finish();
  return result.complete() ? kExitOk : kExitDegraded;
}

int cmd_design(const Args& args) {
  const auto mc =
      edram::MacroCell::uniform(spec_of(args), tech::tech018(), 30_fF);
  const msu::StructureParams best = msu::auto_size_structure(mc);
  const msu::DesignPoint d = msu::evaluate_design(mc, best);
  std::printf("auto-sized structure for %zux%zu macro-cell:\n", mc.rows(),
              mc.cols());
  std::printf("  REF            : W = %.1f um, L = %.2f um\n",
              to_unit::um(best.ref_w), to_unit::um(best.ref_l));
  std::printf("  C_REF          : %.1f fF\n", to_unit::fF(d.cref));
  std::printf("  window         : %.1f - %.1f fF\n", to_unit::fF(d.range_lo),
              to_unit::fF(d.range_hi));
  std::printf("  codes used     : %zu\n", d.codes_used);
  std::printf("  mean accuracy  : %.1f %%\n", 100 * d.mean_acc);
  std::printf("  score          : %.3f\n", d.score);
  return 0;
}

int cmd_spice(const Args& args) {
  const auto mc =
      edram::MacroCell::uniform(spec_of(args), tech::tech018(), 30_fF);
  circuit::Circuit ckt;
  const auto arr = edram::build_array(ckt, mc);
  msu::build_structure(ckt, arr.plate, mc.tech(), {});
  circuit::write_spice(ckt, std::cout,
                       "eDRAM macro-cell + measurement structure");
  return 0;
}

/// Strict positive-integer flag for the campaign subcommand: --workers 0,
/// --retries 0 or "--dies -3" exit 1 with a one-line reason instead of
/// being clamped into something runnable.
long long positive_of(const Args& args, const std::string& key,
                      long long fallback) {
  const long long v = args.integer(key, fallback);
  if (v < 1) {
    throw UsageError("--" + key + " must be >= 1 (got " + std::to_string(v) +
                     ")");
  }
  return v;
}

/// Parses the campaign flags shared by `campaign` and the hidden
/// `campaign-worker` (the supervisor serializes them with
/// campaign::worker_args, so both sides must use this one parser).
campaign::CampaignConfig campaign_config_of(const Args& args) {
  campaign::CampaignConfig cfg;
  cfg.space.dies = static_cast<std::uint32_t>(positive_of(args, "dies", 16));
  cfg.space.corners =
      static_cast<std::uint32_t>(positive_of(args, "corners", 5));
  if (cfg.space.corners > 5) {
    throw UsageError("--corners must be in [1, 5] (tech has 5 corners)");
  }
  cfg.space.seeds = static_cast<std::uint32_t>(positive_of(args, "seeds", 2));
  cfg.seed = static_cast<std::uint64_t>(args.integer("seed", 1));
  cfg.rows = static_cast<std::size_t>(positive_of(args, "rows", 8));
  cfg.cols = static_cast<std::size_t>(positive_of(args, "cols", 8));
  if (cfg.rows % 4 != 0 || cfg.cols % 4 != 0) {
    throw UsageError("--rows/--cols must be multiples of the 4x4 tile");
  }
  cfg.noise_sigma_rel = args.num("noise", 0.02);
  cfg.local_sigma_rel = args.num("sigma", 0.02);
  cfg.gradient = args.num("gradient", 0.0);
  cfg.drift = args.num("drift", 0.0);
  cfg.defect_rates.short_rate = args.num("shorts", 0.002);
  cfg.defect_rates.open_rate = args.num("opens", 0.002);
  cfg.defect_rates.partial_rate = args.num("partials", 0.005);
  cfg.defect_rates.bridge_rate = args.num("bridges", 0.0);

  // --workers (alias --jobs for symmetry with the other commands): strict,
  // >= 1; a campaign worker is a subprocess, so 0 has no "hardware
  // threads" meaning here.
  const std::string wkey = args.flag("workers") ? "workers" : "jobs";
  cfg.workers = static_cast<int>(
      std::min<long long>(positive_of(args, wkey, 1), 512));
  cfg.retries = static_cast<int>(positive_of(args, "retries", 2));
  cfg.unit_timeout_ms =
      static_cast<int>(positive_of(args, "unit-timeout-ms", 30000));
  cfg.unit_delay_ms =
      static_cast<int>(args.integer("unit-delay-ms", 0));
  if (cfg.unit_delay_ms < 0) {
    throw UsageError("--unit-delay-ms must be >= 0");
  }
  cfg.hang_unit = static_cast<std::uint64_t>(
      args.integer("hang-unit", static_cast<long long>(-1)));
  cfg.crash_rate = args.num("fault-rate", 0.0);
  if (!(cfg.crash_rate >= 0.0 && cfg.crash_rate <= 1.0)) {
    throw UsageError("--fault-rate must be a probability in [0, 1], got '" +
                     args.str("fault-rate", "") + "'");
  }
  cfg.crash_seed = static_cast<std::uint64_t>(args.integer("fault-seed", 1));
  cfg.dir = args.str("dir", "");
  cfg.resume = args.flag("resume");
  return cfg;
}

/// campaign — run (or --resume) a wafer-scale measurement campaign:
/// journaled result store, sharded worker subprocesses, kill-resume
/// recovery (DESIGN.md §12).
int cmd_campaign(const Args& args) {
  ObsSession obs_session(args);
  campaign::CampaignConfig cfg = campaign_config_of(args);
  if (cfg.dir.empty()) {
    throw UsageError("campaign needs --dir DIR (store, manifest, worker "
                     "logs live there)");
  }
  // Workers run as fork+exec of this binary so a worker crash — including
  // an OOM-kill or sanitizer abort — can never take the supervisor's
  // address space with it. Fall back to plain fork when /proc/self/exe is
  // unreadable (exotic mounts); isolation is the same, only exec hygiene
  // differs.
  char self[4096];
  const ssize_t n = ::readlink("/proc/self/exe", self, sizeof self - 1);
  if (n > 0 && !args.flag("fork-workers")) {
    self[n] = '\0';
    cfg.exec_self = true;
    cfg.self_path = self;
  }

  const campaign::CampaignResult res = campaign::run_campaign(cfg);
  const campaign::CampaignSummary& s = res.summary;

  std::printf("campaign %s: %llu/%llu units done\n",
              s.complete() ? (s.degraded() ? "complete (degraded)"
                                           : "complete")
                           : "interrupted (resumable)",
              static_cast<unsigned long long>(s.units_done),
              static_cast<unsigned long long>(s.units_total));
  std::printf(
      "  this run: %llu ok, %llu retried, %llu failed; workers: %llu "
      "spawned, %llu crashed, %llu timed out\n",
      static_cast<unsigned long long>(s.units_ok),
      static_cast<unsigned long long>(s.units_retried),
      static_cast<unsigned long long>(s.units_failed),
      static_cast<unsigned long long>(s.workers_spawned),
      static_cast<unsigned long long>(s.worker_crashes),
      static_cast<unsigned long long>(s.worker_timeouts));
  if (cfg.resume) {
    std::printf(
        "  resume replay: %llu records recovered, %llu uncommitted "
        "dropped, %llu torn bytes, %llu quarantined frames\n",
        static_cast<unsigned long long>(s.replay.committed_records),
        static_cast<unsigned long long>(s.replay.dropped_records),
        static_cast<unsigned long long>(s.replay.dropped_tail_bytes),
        static_cast<unsigned long long>(s.replay.quarantined_frames));
  }
  for (const auto& f : s.failures) {
    std::printf("  failed unit %llu after %d attempts: %s (log: %s)\n",
                static_cast<unsigned long long>(f.unit), f.attempts,
                f.reason.c_str(), f.worker_log.c_str());
  }
  std::printf("  store: %s\n  manifest: %s\n", res.store_path.c_str(),
              res.manifest_path.c_str());
  if (!res.compact_path.empty()) {
    std::printf("  compact: %s\n", res.compact_path.c_str());
  }

  if (!res.records.empty()) {
    std::printf("\ncorner drift / code-histogram stability:\n");
    // Prefer the compacted columnar image (mmap'd, CRC-verified end to
    // end) — the out-of-core aggregate path. The in-memory records are
    // the fallback when no compact was written (interrupted campaign) or
    // the file fails verification.
    bool reported = false;
    if (!res.compact_path.empty()) {
      try {
        const auto reader = campaign::CompactReader::open(res.compact_path);
        campaign::print_campaign_report(reader.records(), reader.space());
        reported = true;
      } catch (const std::exception& e) {
        std::fprintf(stderr, "warning: compact unreadable (%s); reporting "
                     "from the journal instead\n", e.what());
      }
    }
    if (!reported) campaign::print_campaign_report(res.records, cfg.space);
  }
  obs_session.finish();
  return s.degraded() ? kExitDegraded : kExitOk;
}

/// campaign-worker — hidden: the supervisor's fork+exec target. Speaks the
/// stdin/--result-fd protocol; never run it by hand.
int cmd_campaign_worker(const Args& args) {
  const campaign::CampaignConfig cfg = campaign_config_of(args);
  const int result_fd = static_cast<int>(args.integer("result-fd", -1));
  if (result_fd < 0) {
    throw UsageError("campaign-worker needs --result-fd (spawned by "
                     "`campaign`, not run directly)");
  }
  return campaign::run_worker_loop(cfg, STDIN_FILENO, result_fd);
}

/// SIGINT/SIGTERM → graceful drain (finish accepted work, refuse new).
volatile std::sig_atomic_t g_serve_drain = 0;

void serve_signal_handler(int) { g_serve_drain = 1; }

serve::ExtractSpec extract_spec_of(const Args& args) {
  serve::ExtractSpec spec;
  const serve::ArraySpec arr = array_spec_of(args, 8);
  spec.rows = static_cast<std::uint32_t>(arr.rows);
  spec.cols = static_cast<std::uint32_t>(arr.cols);
  spec.seed = arr.seed;
  spec.gradient = arr.gradient;
  spec.drift = arr.drift;
  spec.shorts = arr.shorts;
  spec.opens = arr.opens;
  spec.partials = arr.partials;

  const std::string engine = args.str("engine", "fast");
  if (engine == "fast") {
    spec.engine = 0;
  } else if (engine == "circuit") {
    spec.engine = 1;
  } else {
    throw UsageError("unknown --engine '" + engine + "' (want fast|circuit)");
  }
  // Tiling defaults to the spec's own 4x4, the same as a one-shot `array`
  // run, so a default request returns that run's codes.
  spec.tile_rows =
      static_cast<std::uint32_t>(args.num("tile-rows", spec.tile_rows));
  spec.tile_cols =
      static_cast<std::uint32_t>(args.num("tile-cols", spec.tile_cols));
  spec.adaptive = args.flag("no-adaptive") ? 0 : 1;
  spec.retries = static_cast<std::uint32_t>(args.integer("retries", 2));
  // Same spelling as the one-shot run shape: --no-batch pins scalar,
  // --batch-width pins a lane count, the default lets the server pick its
  // auto width.
  if (args.flag("no-batch") &&
      (args.flag("batch") || args.flag("batch-width"))) {
    throw UsageError("--no-batch and --batch/--batch-width are mutually "
                     "exclusive");
  }
  if (args.flag("no-batch")) {
    spec.batch = 1;
  } else if (args.flag("batch-width")) {
    const long long w = args.integer("batch-width", 0);
    if (w < 2 || w > 64) {
      throw UsageError("--batch-width expects a lane count in [2, 64], got '" +
                       args.str("batch-width", "") + "'");
    }
    spec.batch = static_cast<std::uint32_t>(w);
  }
  spec.want_progress = args.flag("progress") ? 1 : 0;
  spec.deadline_ms = static_cast<std::uint32_t>(args.num("deadline-ms", 0));
  return spec;
}

/// serve — run the long-lived extraction service on a Unix-domain socket.
int cmd_serve(const Args& args) {
  const std::string socket_path = args.str("socket", "");
  if (socket_path.empty()) {
    throw UsageError("serve needs --socket PATH (Unix-domain socket to "
                     "listen on)");
  }
  serve::ServerConfig cfg;
  cfg.socket_path = socket_path;
  cfg.queue_capacity = static_cast<std::size_t>(args.num("queue-cap", 64));
  cfg.dispatchers = static_cast<std::size_t>(args.num("dispatchers", 1));
  cfg.jobs = jobs_of(args);

  // A service always exports /metrics; tracing is opt-in (ring buffer
  // memory) and drained through the /trace request, not a file.
  obs::Registry::global().reset();
  obs::set_metrics_enabled(true);
  if (args.flag("trace")) obs::start_tracing();

  serve::Server server(cfg);
  server.start();
  std::printf("ecms_tool serve: listening on %s (queue %zu, dispatchers "
              "%zu, jobs %zu)\n",
              socket_path.c_str(), cfg.queue_capacity, cfg.dispatchers,
              cfg.jobs);
  std::fflush(stdout);

  struct sigaction sa{};
  sa.sa_handler = serve_signal_handler;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;  // no SA_RESTART: let blocking calls wake for the drain
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);

  while (g_serve_drain == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }

  std::printf("ecms_tool serve: draining (accepted work finishes, new "
              "requests are refused)\n");
  std::fflush(stdout);
  server.begin_drain();
  server.wait_drained();
  server.stop();
  std::printf("ecms_tool serve: drained; %llu accepted, %llu completed, "
              "%llu failed\n",
              static_cast<unsigned long long>(server.accepted()),
              static_cast<unsigned long long>(server.completed()),
              static_cast<unsigned long long>(server.failed()));
  return kExitOk;
}

/// client — submit requests to a running `serve` daemon.
int cmd_client(const Args& args) {
  const std::string socket_path = args.str("socket", "");
  if (socket_path.empty()) {
    throw UsageError("client needs --socket PATH (the daemon's socket)");
  }
  serve::Client client;
  std::string error;
  if (!client.connect(socket_path, &error)) {
    std::fprintf(stderr, "error: connect %s: %s\n", socket_path.c_str(),
                 error.c_str());
    return kExitFailure;
  }

  if (args.flag("metrics") || args.flag("trace")) {
    std::string json;
    const bool ok = args.flag("metrics") ? client.metrics(&json, &error)
                                         : client.trace(&json, &error);
    if (!ok) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      return kExitFailure;
    }
    std::printf("%s\n", json.c_str());
    return kExitOk;
  }

  if (args.flag("calibrate")) {
    serve::CalibrateSpec spec;
    spec.request_id = 1;
    spec.rows = static_cast<std::uint32_t>(args.num("rows", 4));
    spec.cols = static_cast<std::uint32_t>(args.num("cols", 4));
    spec.ramp_steps = static_cast<std::uint32_t>(args.num("steps", 20));
    spec.points = static_cast<std::uint32_t>(args.num("points", 741));
    serve::CalibrateInfo info{};
    if (!client.calibrate(spec, &info, &error)) {
      std::fprintf(stderr, "error: calibrate: %s\n", error.c_str());
      return kExitFailure;
    }
    std::printf("calibration %s: window [%.3g, %.3g] F, %u codes used, "
                "mean accuracy %.4g F/code\n",
                info.cache_hit != 0 ? "(warm cache hit)" : "(built)",
                info.range_lo, info.range_hi, info.codes_used,
                info.mean_accuracy);
    return kExitOk;
  }

  // Extraction mode: submit --count requests, then await each. The ids
  // are local to this session, so concurrent clients never collide.
  const auto count =
      static_cast<std::uint64_t>(std::max<long long>(1, args.integer("count", 1)));
  serve::ExtractSpec spec = extract_spec_of(args);
  bool any_failed = false;
  std::vector<std::uint64_t> accepted;
  accepted.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t id = 1; id <= count; ++id) {
    spec.request_id = id;
    const serve::Client::Submission sub = client.submit(spec);
    if (!sub.accepted) {
      // Rejected ids never get a result frame — don't await them.
      any_failed = true;
      std::fprintf(stderr,
                   "request %llu rejected: %s (retry after %u ms)\n",
                   static_cast<unsigned long long>(id), sub.reason.c_str(),
                   sub.retry_after_ms);
      continue;
    }
    accepted.push_back(id);
  }

  bool any_unmeasurable = false;
  std::function<void(const serve::Progress&)> on_progress;
  if (spec.want_progress != 0) {
    on_progress = [](const serve::Progress& p) {
      std::printf("  tile %u/%u\n", p.tiles_done, p.tiles_total);
    };
  }
  for (const std::uint64_t id : accepted) {
    const serve::Client::Result res = client.await_result(id, on_progress);
    if (!res.ok) {
      std::fprintf(stderr, "request %llu failed: %s\n",
                   static_cast<unsigned long long>(id), res.error.c_str());
      any_failed = true;
      continue;
    }
    std::printf("request %llu: %ux%u, %u ok, %u recovered, %u "
                "unmeasurable, code hash %016llx\n",
                static_cast<unsigned long long>(id), res.info.rows,
                res.info.cols, res.info.ok, res.info.recovered,
                res.info.unmeasurable,
                static_cast<unsigned long long>(res.info.code_hash));
    if (res.info.unmeasurable > 0) any_unmeasurable = true;
  }
  if (any_failed) return kExitFailure;
  return any_unmeasurable ? kExitDegraded : kExitOk;
}

/// Build/runtime capability report: what batch_width = auto means, plus
/// the serve protocol version so client/daemon pairings can be checked by
/// eye.
int cmd_version(const Args&) {
  std::printf("ecms_tool — eDRAM capacitor measurement structure\n");
  std::printf("  batch auto width %zu lanes\n",
              circuit::kernels::preferred_width());
  std::printf("  serve protocol   v%u\n",
              static_cast<unsigned>(serve::kProtocolVersion));
  return kExitOk;
}

int usage() {
  std::fprintf(stderr, "%s",
      "usage: ecms_tool <command> [--option value ...]\n"
      "\n"
      "commands:\n"
      "  abacus   print the code -> capacitance conversion table\n"
      "           --rows N --cols N --ref-w UM --steps N\n"
      "  extract  measure one cell through the transient flow, up to\n"
      "           the end of the ramp level where OUT flips\n"
      "           --rows N --cols N --row R --col C --cap FF\n"
      "           --defect short|open\n"
      "  bitmap   extract every cell (fast model), render heatmap +\n"
      "           diagnosis\n"
      "           --rows N --cols N --seed S --gradient G --drift D\n"
      "           --shorts R --opens R --partials R\n"
      "  array    extract every cell at transistor level (circuit engine,\n"
      "           one transient per cell, stopped at the flip), render\n"
      "           heatmap + measurement cost\n"
      "           same array flags as bitmap (default 8x8)\n"
      "  design   auto-size the measurement structure for the array\n"
      "           --rows N --cols N\n"
      "  spice    dump the array + structure netlist as SPICE\n"
      "           --rows N --cols N\n"
      "  campaign run a wafer-scale (die x corner x seed) measurement\n"
      "           campaign: journaled crash-safe result store, worker\n"
      "           subprocesses, kill-resume recovery; prints the\n"
      "           corner-drift / histogram-stability report\n"
      "           --dir DIR (required) --resume\n"
      "           --dies N --corners N --seeds N --seed S\n"
      "           --rows N --cols N --noise S --sigma S\n"
      "           --gradient G --drift D --shorts R --opens R\n"
      "           --partials R --bridges R\n"
      "           --workers N (strict, >= 1) --retries N (strict, >= 1)\n"
      "           --unit-timeout-ms MS --unit-delay-ms MS\n"
      "           --fault-rate P --fault-seed S (inject worker crashes)\n"
      "  serve    run the long-lived extraction service: Unix-socket\n"
      "           daemon, admission-controlled request queue, shared\n"
      "           program/calibration warm caches; SIGINT/SIGTERM drain\n"
      "           gracefully (accepted work finishes, zero loss)\n"
      "           --socket PATH (required) --queue-cap N (default 64)\n"
      "           --dispatchers N (concurrent requests, default 1)\n"
      "           --jobs N (tile threads per request: 1 = the dispatcher\n"
      "           alone; N >= 2 = the dispatcher plus N pool workers)\n"
      "           --trace\n"
      "  client   talk to a running serve daemon\n"
      "           --socket PATH (required)\n"
      "           extract mode (default): array flags as bitmap, plus\n"
      "           --engine fast|circuit --tile-rows N --tile-cols N\n"
      "           --count N (submit N pipelined requests) --progress\n"
      "           --deadline-ms MS --retries N --no-adaptive\n"
      "           --batch | --batch-width N | --no-batch\n"
      "           --metrics | --trace   print the server's JSON export\n"
      "           --calibrate [--rows N --cols N --steps N --points N]\n"
      "  version  report the auto lane width and the serve protocol\n"
      "           version\n"
      "\n"
      "run shape (extract, bitmap, array — parsed once, same everywhere):\n"
      "  --jobs N        tile threads: 1 (default) runs serially; N >= 2\n"
      "                  starts N pool workers and the calling thread\n"
      "                  works beside them (N + 1 threads); 0 = one\n"
      "                  worker per hardware thread; clamped to 512\n"
      "  --retries N     per-cell solve attempts (default 2)\n"
      "  --keep-going    contain per-cell failures, finish the array\n"
      "                  (default; excludes --fail-fast)\n"
      "  --fail-fast     abort on the first unmeasurable cell\n"
      "  --fault-rate P  inject transient solver faults with\n"
      "                  probability P per cell (testing aid)\n"
      "  --fault-seed S  RNG seed for --fault-rate (default 1)\n"
      "  --no-adaptive   simulate each cell's whole window instead of\n"
      "                  stopping at the end of the ramp level where OUT\n"
      "                  flips (circuit engine; codes identical)\n"
      "  --no-program-cache  compile netlist programs privately\n"
      "                  instead of sharing the process-wide topology\n"
      "                  cache (A/B switch for cache accounting; codes\n"
      "                  are bit-identical either way)\n"
      "  --batch         lockstep batched cell simulation, auto = 16\n"
      "                  lanes (the default for the circuit engine;\n"
      "                  spelled out for A/B runs against --no-batch)\n"
      "  --batch-width N exactly N lockstep lanes (2..64)\n"
      "  --no-batch      scalar per-cell measurement; codes are\n"
      "                  bit-identical to every batched shape\n"
      "\n"
      "observability (extract, bitmap, array; either flag also prints a\n"
      "summary table; default runs stay uninstrumented and deterministic):\n"
      "  --metrics-out FILE  write counters/gauges/histograms as JSON\n"
      "  --trace-out FILE    collect spans, write Chrome trace_event JSON\n"
      "                      (open in chrome://tracing or ui.perfetto.dev)\n"
      "\n"
      "global:\n"
      "  --log-level L       debug|info|warn|error|off (default warn)\n"
      "\n"
      "exit codes:\n"
      "  0  success, every cell measured\n"
      "  1  usage error (bad command line)\n"
      "  2  runtime failure (extraction aborted, --fail-fast hit, ...)\n"
      "  3  degraded success: run completed, some cells unmeasurable\n"
      "     (the per-cell failure report lists them); for campaign:\n"
      "     finished or drained with failed units / crashes / timeouts /\n"
      "     retries — resumable, never aborted\n");
  return kExitUsage;
}

}  // namespace

int main(int argc, char** argv) {
  // A dead peer must surface as EPIPE from write(), never as a
  // process-killing SIGPIPE — the serve daemon outlives any one client,
  // and one-shot commands piped to `head` shouldn't die mid-report either.
  ::signal(SIGPIPE, SIG_IGN);
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  try {
    const Args args(argc, argv, 2);
    const std::string level = args.str("log-level", "");
    if (!level.empty()) {
      LogLevel parsed;
      if (!parse_log_level(level, parsed)) {
        throw UsageError("unknown --log-level '" + level +
                         "' (want debug|info|warn|error|off)");
      }
      set_log_level(parsed);
    }
    if (cmd == "abacus") return cmd_abacus(args);
    if (cmd == "extract") return cmd_extract(args);
    if (cmd == "bitmap") return cmd_bitmap(args);
    if (cmd == "array") return cmd_array(args);
    if (cmd == "design") return cmd_design(args);
    if (cmd == "spice") return cmd_spice(args);
    if (cmd == "campaign") return cmd_campaign(args);
    if (cmd == "campaign-worker") return cmd_campaign_worker(args);
    if (cmd == "serve") return cmd_serve(args);
    if (cmd == "client") return cmd_client(args);
    if (cmd == "version" || cmd == "--version") return cmd_version(args);
    return usage();
  } catch (const UsageError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return kExitUsage;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return kExitFailure;
  }
}
