#include "workloads.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <mutex>
#include <thread>

#include "bitmap/extraction.hpp"
#include "campaign/supervisor.hpp"
#include "layers.hpp"
#include "msu/abacus.hpp"
#include "msu/calibrate.hpp"
#include "msu/fastmodel.hpp"
#include "obs/metrics.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "serve/workload.hpp"
#include "tech/tech.hpp"

namespace perfbench {

namespace {

using namespace ecms;

constexpr int kSetupReps = 5;

std::uint64_t hash_codes(const std::vector<int>& codes) {
  return fnv1a(codes.data(), codes.size() * sizeof(int));
}

/// The timed phases of one run. The untraced run is one phase over the
/// whole budget. The traced run spends half untraced and half traced (spans
/// on, obs metrics on), so the two can be compared for the tracing overhead
/// and their codes checked equal.
struct Phases {
  Phase untraced, traced;
  double t0 = 0.0, t1 = 0.0;  ///< traced window on the recorder's clock
  obs::MetricsSnapshot counters;
};

void begin_traced(Phases& p) {
  obs::Registry::global().reset();
  obs::set_metrics_enabled(true);
  Recorder::global().enable(true);
  p.t0 = Recorder::global().now();
}

void end_traced(Phases& p) {
  p.t1 = Recorder::global().now();
  Recorder::global().enable(false);
  p.counters = obs::Registry::global().snapshot();
  obs::set_metrics_enabled(false);
}

Phases run_phases(const Options& o, std::size_t min_ops, bool children,
                  const std::function<std::size_t(std::size_t, bool)>& op) {
  Phases p;
  const double budget = o.trace ? o.seconds / 2 : o.seconds;
  p.untraced = run_phase(budget, min_ops, children,
                         [&](std::size_t i) { return op(i, false); });
  if (!o.trace) return p;
  begin_traced(p);
  p.traced = run_phase(budget, min_ops, children,
                       [&](std::size_t i) { return op(i, true); });
  end_traced(p);
  return p;
}

/// Self-time shares of the traced window and the tracing overhead.
void finish_traced(const Phases& p, Outcome& out) {
  const SelfTime st = self_time(Recorder::global().spans(), p.t0, p.t1);
  for (const char* layer : {"bitmap", "msu", "serve", "campaign"}) {
    const auto it = st.layer_s.find(layer);
    out.layer[std::string("self.") + layer + "_frac"] =
        it == st.layer_s.end() || st.window_s <= 0 ? 0.0
                                                   : it->second / st.window_s;
  }
  out.layer["self.uncovered_frac"] = st.uncovered_frac;
  out.layer["obs.trace_overhead_pct"] = overhead_pct(p.untraced, p.traced);
}

double mean(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

void common_lines(Outcome& out, const char* items_name, const char* per) {
  const Phase& m = out.main;
  out.line(std::string(items_name) + "_per_s", m.items_per_s(), "1/s");
  out.line(std::string("cpu_ms_per_") + per, m.cpu_ms_per_item(), "ms");
  out.line("peak_rss_mb", peak_rss_mb(out.rss_with_children), "MB");
  out.line("failed_frac",
           out.attempted ? static_cast<double>(out.failed) / out.attempted : 0.0,
           "1");
}

// Per-thread completion clock behind the traced run's tile spans: a tile
// starts when the previous tile on the same worker finished (the pool hands
// out one tile at a time), or when the extraction began.
class TileSpans {
 public:
  TileSpans(std::uint64_t parent, double start) : parent_(parent), start_(start) {}
  void done() {
    Recorder& r = Recorder::global();
    const double now = r.now();
    std::lock_guard<std::mutex> lock(mu_);
    const auto [it, fresh] = last_.emplace(std::this_thread::get_id(), start_);
    Span s;
    s.name = "msu.extract_array";
    s.parent = parent_;
    s.start_s = it->second;
    s.end_s = now;
    it->second = now;
    ms_.push_back(1e3 * (s.end_s - s.start_s));
    r.add(std::move(s));
  }
  const std::vector<double>& durations_ms() const { return ms_; }
  /// Threads that ran tiles: the pool's workers plus the calling thread.
  std::size_t threads() const { return last_.size(); }

 private:
  std::uint64_t parent_;
  double start_;
  std::mutex mu_;
  std::map<std::thread::id, double> last_;
  std::vector<double> ms_;
};

// The campaign workload's configuration: 64x64 rather than 32x32 dies, so
// the workers' fast model outweighs the journal fsync on a virtual disk
// (README.md).
campaign::CampaignConfig campaign_config(const Options& o) {
  campaign::CampaignConfig cfg;
  cfg.space.dies = o.tiny ? 2 : 128;
  cfg.space.corners = 5;
  cfg.space.seeds = o.tiny ? 1 : 2;
  cfg.seed = o.seed + 1;
  cfg.rows = cfg.cols = o.tiny ? 8 : 64;
  cfg.workers = 2;
  return cfg;
}

}  // namespace

// --- array16: the `ecms_tool array` flow on seeded varied arrays ---

Outcome run_array16(const Options& o) {
  Outcome out;
  const std::size_t n = o.tiny ? 8 : 16;
  const std::size_t instances = o.tiny ? 1 : 4;
  constexpr std::size_t kJobs = 2;

  // Workload shape only; solver, batch width and every other knob stay at
  // the library defaults. Robust with two attempts, as `ecms_tool array`.
  extraction::ExtractRequest req;
  req.engine = extraction::Engine::kCircuit;
  req.tile_rows = req.tile_cols = 4;
  req.options.adaptive.enabled = true;
  req.jobs = kJobs;
  req.robust = true;
  req.retry.max_attempts = 2;
  req.contain = true;

  // Set-up: build the arrays, then measure one tile so the program cache
  // holds the tile circuit before timing starts.
  std::vector<serve::ArraySpec> specs;
  std::vector<edram::MacroCell> arrays;
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const auto t0 = Clock::now();
    specs.clear();
    arrays.clear();
    for (std::size_t k = 0; k < instances; ++k) {
      serve::ArraySpec spec;
      spec.rows = spec.cols = n;
      spec.seed = o.seed * 100 + k + 1;
      specs.push_back(spec);
      arrays.push_back(serve::build_array(spec));
    }
    extraction::ExtractRequest warm = req;
    warm.jobs = 1;
    extraction::extract(arrays[0].tile(0, 0, 4, 4), warm);
    setup_s.push_back(seconds_since(t0));
  }
  out.setup_s = median(setup_s);

  std::map<std::uint64_t, extraction::ExtractReport::Telemetry> telemetry;
  extraction::ExtractReport::Telemetry traced_tally;
  std::vector<double> tile_ms;
  double thread_seconds = 0.0;  // traced extract wall x threads that ran tiles

  auto op = [&](std::size_t i, bool traced) -> std::size_t {
    const std::size_t k = i % instances;
    extraction::ExtractRequest r = req;
    std::unique_ptr<TileSpans> tiles;
    const auto t0 = Clock::now();
    const ScopedSpan span("bitmap.extract");
    if (traced) {
      tiles = std::make_unique<TileSpans>(span.id(), Recorder::global().now());
      r.tile_hook = [&tiles](std::size_t, std::size_t) { tiles->done(); };
    }
    const extraction::ExtractReport rep = extraction::extract(arrays[k], r);
    const std::size_t cells = rep.bitmap.codes().size();
    std::size_t ok = 0, recovered = 0, unmeasurable = 0;
    for (const CellStatus s : rep.status) {
      if (s == CellStatus::kOk) ++ok;
      else if (s == CellStatus::kRecovered) ++recovered;
      else ++unmeasurable;
    }
    out.check(ok + recovered + unmeasurable == cells &&
                  cells == arrays[k].cell_count() &&
                  unmeasurable == rep.report.unmeasurable(),
              "array16: cell accounting (ok + recovered + unmeasurable != cells)");
    out.attempted += cells;
    out.failed += unmeasurable;
    out.instance(specs[k].seed, hash_codes(rep.bitmap.codes()));
    telemetry.emplace(specs[k].seed, rep.telemetry);
    if (traced) {
      thread_seconds += seconds_since(t0) * static_cast<double>(tiles->threads());
      const auto& d = tiles->durations_ms();
      tile_ms.insert(tile_ms.end(), d.begin(), d.end());
      const auto& t = rep.telemetry;
      traced_tally.cells += t.cells;
      traced_tally.transient_steps += t.transient_steps;
      traced_tally.prefix_steps += t.prefix_steps;
      traced_tally.adaptive_used += t.adaptive_used;
      traced_tally.adaptive_fallbacks += t.adaptive_fallbacks;
      traced_tally.adaptive_probes += t.adaptive_probes;
    }
    return cells;
  };
  const Phases p = run_phases(o, instances, false, op);
  out.main = p.untraced;

  common_lines(out, "cells", "cell");
  for (const auto& [seed, t] : telemetry) {
    const std::string key = "array16.seed" + std::to_string(seed) + ".";
    out.stat(key + "accepted_steps", static_cast<double>(t.transient_steps));
    out.stat(key + "prefix_steps", static_cast<double>(t.prefix_steps));
    out.stat(key + "conversion_steps", static_cast<double>(t.conversion_steps()));
    out.stat(key + "adaptive_probes", static_cast<double>(t.adaptive_probes));
    out.stat(key + "adaptive_fallbacks", static_cast<double>(t.adaptive_fallbacks));
  }
  if (!o.trace) return out;

  // --- traced run: per-layer metrics ---
  LayerMetrics& L = out.layer;
  const double cells = static_cast<double>(traced_tally.cells);
  circuit_counters(p.counters, cells, L);
  out.stat("array16.traced.newton_iterations",
           counter(p.counters, "circuit.newton.iterations"));
  out.stat("array16.traced.lu_numeric", counter(p.counters, "circuit.lu.numeric"));
  out.stat("array16.traced.lu_symbolic", counter(p.counters, "circuit.lu.symbolic"));
  L["msu.adaptive_probes_per_cell"] = traced_tally.adaptive_probes / cells;
  L["msu.prefix_steps_per_cell"] = traced_tally.prefix_steps / cells;
  L["msu.conversion_steps_per_cell"] = traced_tally.conversion_steps() / cells;
  L["msu.adaptive_fallback_ratio"] = traced_tally.adaptive_fallbacks / cells;
  L["bitmap.extract_ms"] = mean(p.traced.op_ms);
  L["bitmap.tile_p50_ms"] = percentile(tile_ms, 50);
  L["bitmap.tile_p99_ms"] = percentile(tile_ms, 99);
  double busy = 0.0;
  for (const double v : tile_ms) busy += v / 1e3;
  L["bitmap.pool_idle_frac"] =
      thread_seconds > 0 ? std::max(0.0, 1.0 - busy / thread_seconds) : 0.0;
  finish_traced(p, out);

  // Layer probes on the first array's first tile, outside the timed phases.
  const edram::MacroCell tile = arrays[0].tile(0, 0, 4, 4);
  const double delta_i = msu::FastModel(tile, req.params).delta_i();
  probe_circuit(tile, 0, 0, delta_i, L);
  probe_batch(tile, delta_i, L);
  msu::ExtractPlan plan;  // what extraction::extract hands each tile
  plan.timing = req.timing;
  plan.options = req.options;
  plan.batch_width = req.batch_width;
  plan.retry = req.retry;
  plan.contain = true;
  std::vector<double> array_ms;
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = Clock::now();
    msu::extract_array(tile, req.params, plan);
    array_ms.push_back(1e3 * seconds_since(t0));
  }
  L["msu.extract_array_ms"] = median(array_ms);

  // Thread-pool CPU overhead: the same array serially against the
  // untraced jobs-2 phase, CPU per cell.
  extraction::ExtractRequest serial = req;
  serial.jobs = 1;
  const double cpu0 = cpu_seconds(false);
  extraction::extract(arrays[0], serial);
  const double serial_cpu_per_cell =
      (cpu_seconds(false) - cpu0) / static_cast<double>(arrays[0].cell_count());
  const double pooled_cpu_per_cell = out.main.cpu_ms_per_item() / 1e3;
  L["util.pool_cpu_overhead"] = pooled_cpu_per_cell / serial_cpu_per_cell - 1.0;
  return out;
}

// --- abacus-sweep: the paper's Fig. 3 flow, one thread, exhaustive ramp ---

Outcome run_abacus_sweep(const Options& o) {
  Outcome out;
  out.seed_independent = true;  // a fixed reference sweep; seeds rotate it
  std::vector<double> caps_ff;
  if (o.tiny) {
    caps_ff = {10, 25, 40, 55};
  } else {
    for (int f = 10; f <= 55; ++f) caps_ff.push_back(f);
  }
  const std::size_t points = caps_ff.size();

  // Set-up: the uniform macro-cell and its calibrated fast model.
  const edram::MacroCell mc =
      edram::MacroCell::uniform({}, tech::tech018(), 30e-15);
  const msu::StructureParams params;
  std::unique_ptr<msu::FastModel> model;
  std::vector<double> setup_s, calibrate_ms;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const auto t0 = Clock::now();
    model = std::make_unique<msu::FastModel>(mc, params);
    const auto t1 = Clock::now();
    msu::calibrate_fast_model(*model);
    calibrate_ms.push_back(1e3 * seconds_since(t1));
    setup_s.push_back(seconds_since(t0));
  }
  out.setup_s = median(setup_s);

  // Default extraction options, with the calibrated ramp LSB (the design
  // loop calibrate_fast_model closes).
  msu::ExtractOptions opts;
  opts.delta_i = model->delta_i();

  struct Point {
    int code = -1;
    circuit::TranStats stats;
    std::size_t prefix = 0;
  };
  std::vector<Point> sweep(points);
  double traced_prefix = 0, traced_conversion = 0, traced_cells = 0;

  auto op = [&](std::size_t i, bool traced) -> std::size_t {
    const std::size_t k = (i + o.seed) % points;
    edram::MacroCell probe = mc;
    probe.set_true_cap(0, 0, caps_ff[k] * 1e-15);
    ++out.attempted;
    try {
      const ScopedSpan span("msu.extract_cell");
      const msu::ExtractionResult res =
          msu::extract_cell(probe, 0, 0, params, {}, opts);
      sweep[k] = {res.code, res.stats, res.prefix_steps};
      out.instance(k, static_cast<std::uint64_t>(res.code));
      if (traced) {
        traced_prefix += res.prefix_steps;
        traced_conversion += res.conversion_steps();
        ++traced_cells;
      }
    } catch (const std::exception& e) {
      ++out.failed;
      out.check(false, std::string("abacus-sweep: extract_cell failed: ") +
                           e.what());
    }
    return 1;
  };
  const Phases p = run_phases(o, points, false, op);
  out.main = p.untraced;

  common_lines(out, "cells", "cell");
  std::size_t steps = 0, prefix = 0, iters = 0, mismatch = 0;
  for (std::size_t k = 0; k < points; ++k) {
    steps += sweep[k].stats.accepted_steps;
    prefix += sweep[k].prefix;
    iters += sweep[k].stats.newton_iterations;
    const int fast = model->code_of_cap(caps_ff[k] * 1e-15);
    if (std::abs(fast - sweep[k].code) > 1) ++mismatch;
  }
  out.stat("abacus.sweep.accepted_steps", static_cast<double>(steps));
  out.stat("abacus.sweep.prefix_steps", static_cast<double>(prefix));
  out.stat("abacus.sweep.conversion_steps", static_cast<double>(steps - prefix));
  out.stat("abacus.sweep.newton_iterations", static_cast<double>(iters));
  out.line("fast_model_mismatch_frac",
           static_cast<double>(mismatch) / static_cast<double>(points), "1");
  if (!o.tiny) {
    // The circuit-level abacus over the 1 fF grid: window and accuracy,
    // against the paper's 10-55 fF and about 6%.
    const msu::Abacus::ExtractFn measured = [&](double cm) {
      const auto k = static_cast<std::size_t>(std::lround(cm * 1e15 - 10));
      return sweep[std::min(k, points - 1)].code;
    };
    const msu::Abacus ab =
        msu::Abacus::build(measured, params.ramp_steps, 10e-15, 55e-15, points);
    // An edge the 10-55 fF sweep does not reach is reported, not fatal.
    auto edge = [&](const char* name, double (msu::Abacus::*fn)() const) {
      try {
        out.line(name, (ab.*fn)() * 1e15, "fF");
      } catch (const std::exception&) {
        out.report.push_back(std::string("note ") + name +
                             " lies outside the 10-55 fF sweep");
      }
    };
    edge("window_lo_ff", &msu::Abacus::range_lo);
    edge("window_hi_ff", &msu::Abacus::range_hi);
    out.line("mean_accuracy_pct", 100 * ab.mean_accuracy(1, params.ramp_steps - 1),
             "%");
    out.report.push_back("paper window 10 - 55 fF, mean accuracy about 6 %");
  }
  if (!o.trace) return out;

  LayerMetrics& L = out.layer;
  circuit_counters(p.counters, traced_cells, L);
  out.stat("abacus.traced.lu_numeric", counter(p.counters, "circuit.lu.numeric"));
  out.stat("abacus.traced.lu_symbolic", counter(p.counters, "circuit.lu.symbolic"));
  L["msu.extract_cell_ms"] = mean(p.traced.op_ms);
  L["msu.calibrate_ms"] = median(calibrate_ms);
  L["msu.prefix_steps_per_cell"] = traced_prefix / traced_cells;
  L["msu.conversion_steps_per_cell"] = traced_conversion / traced_cells;
  finish_traced(p, out);
  probe_circuit(mc, 0, 0, opts.delta_i, L);
  return out;
}

// --- serve-mix: an in-process server driven by three closed-loop clients ---

namespace {

struct ClientLog {
  std::vector<double> fast_ms, circuit_ms, admit_us;
  std::vector<double> depth;
  std::size_t sent = 0, rejected = 0, failed = 0, completed = 0;
  std::size_t circuit_cells = 0;
  std::uint64_t circuit_prefix = 0, circuit_conversion = 0;
  /// (engine << 32 | seed) -> code hash, per result; and latency per spec.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> hashes;
  std::vector<std::pair<std::uint64_t, double>> latency_ms;
  std::map<std::uint64_t, ecms::serve::ResultInfo> circuit_info;  ///< by seed
  std::vector<std::string> failures;
};

std::uint64_t spec_key(const serve::ExtractSpec& s) {
  return (std::uint64_t{s.engine} << 32) | s.seed;
}

}  // namespace

Outcome run_serve_mix(const Options& o) {
  Outcome out;
  const std::uint32_t fast_n = o.tiny ? 16 : 64;
  const std::size_t fast_pool = o.tiny ? 2 : 8;
  const std::size_t circuit_pool = o.tiny ? 1 : 4;

  auto spec_of = [&](std::uint32_t engine, std::uint64_t seed) {
    serve::ExtractSpec s;
    s.rows = s.cols = engine == 1 ? 4 : fast_n;
    s.seed = seed;
    s.engine = engine;
    s.tile_rows = s.tile_cols = 4;  // pinned: the client's default is one tile
    return s;
  };
  // Clients 0 and 1 send fast-model requests, client 2 circuit requests,
  // each cycling its own seed pool.
  std::vector<std::vector<serve::ExtractSpec>> pools(3);
  for (std::size_t k = 0; k < fast_pool; ++k) {
    pools[k % 2].push_back(spec_of(0, o.seed * 100 + 1 + k));
  }
  for (std::size_t k = 0; k < circuit_pool; ++k) {
    pools[2].push_back(spec_of(1, o.seed * 100 + 51 + k));
  }

  const std::string socket = o.scratch_dir + "/serve.sock";
  std::unique_ptr<serve::Server> server;
  std::vector<std::unique_ptr<serve::Client>> clients;

  std::atomic<std::size_t> completed{0};  // requests finished, all clients
  auto request = [&](serve::Client& c, serve::ExtractSpec spec,
                     ClientLog& log, bool traced) {
    spec.request_id = ++log.sent;  // ids only need be unique per session
    const auto t0 = Clock::now();
    const ScopedSpan span("serve.request");
    serve::Client::Submission sub;
    {
      const ScopedSpan admit("serve.admit", span.id());
      const auto a0 = Clock::now();
      sub = c.submit(spec);
      if (traced) log.admit_us.push_back(1e6 * seconds_since(a0));
    }
    if (!sub.accepted) {
      ++log.rejected;
      return;
    }
    log.depth.push_back(sub.queue_depth);
    const serve::Client::Result res = c.await_result(spec.request_id);
    const double ms = 1e3 * seconds_since(t0);
    if (!res.ok) {
      ++log.failed;
      log.failures.push_back("serve-mix: request failed: " + res.error);
      return;
    }
    ++log.completed;
    ++completed;
    const std::size_t cells = std::size_t{spec.rows} * spec.cols;
    std::vector<int> codes(res.codes.begin(), res.codes.end());
    const std::uint64_t h = hash_codes(codes);
    if (res.info.ok + res.info.recovered + res.info.unmeasurable != cells ||
        codes.size() != cells || h != res.info.code_hash) {
      log.failures.push_back("serve-mix: result accounting or code hash "
                             "mismatch for seed " + std::to_string(spec.seed));
    }
    log.hashes.emplace_back(spec_key(spec), h);
    if (traced) log.latency_ms.emplace_back(spec_key(spec), ms);
    if (spec.engine == 1) {
      log.circuit_ms.push_back(ms);
      log.circuit_info.emplace(spec.seed, res.info);
      if (traced) {
        log.circuit_cells += cells;
        log.circuit_prefix += res.info.transient_steps - res.info.conversion_steps;
        log.circuit_conversion += res.info.conversion_steps;
      }
    } else {
      log.fast_ms.push_back(ms);
    }
  };

  auto stop = [&] {
    for (auto& c : clients) c->close();
    clients.clear();
    if (server) {
      server->begin_drain();
      server->wait_drained();
      server->stop();
      server.reset();
    }
  };

  // Set-up: server start, three connections, and one warm request each
  // (the first circuit request compiles the tile program).
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const auto t0 = Clock::now();
    serve::ServerConfig cfg;
    cfg.socket_path = socket;
    cfg.dispatchers = 2;
    cfg.jobs = 1;
    server = std::make_unique<serve::Server>(cfg);
    server->start();
    for (std::size_t c = 0; c < 3; ++c) {
      clients.push_back(std::make_unique<serve::Client>());
      std::string err;
      if (!clients.back()->connect(socket, &err)) {
        stop();
        throw std::runtime_error("serve-mix: connect: " + err);
      }
      ClientLog warm;
      request(*clients.back(), pools[c][0], warm, false);
      if (warm.completed != 1) {
        stop();
        throw std::runtime_error("serve-mix: warm-up request failed");
      }
    }
    setup_s.push_back(seconds_since(t0));
    if (rep + 1 < kSetupReps) stop();
  }
  out.setup_s = median(setup_s);

  // One closed-loop phase: each client sends its next request only after
  // the previous one finished, until the budget is spent and it has cycled
  // its seed pool once. Rates are taken per time slice (requests completed
  // and CPU spent), sampled by the calling thread while the clients run.
  constexpr double kSlice = 0.25;
  auto phase = [&](double budget, bool traced, std::vector<ClientLog>& logs) {
    Phase ph;
    logs.assign(3, {});
    completed = 0;
    std::atomic<int> running{3};
    const double cpu0 = cpu_seconds(false);
    const auto t0 = Clock::now();
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < 3; ++c) {
      threads.emplace_back([&, c] {
        for (std::size_t i = 0;
             i < pools[c].size() || seconds_since(t0) < budget; ++i) {
          request(*clients[c], pools[c][i % pools[c].size()], logs[c], traced);
        }
        --running;
      });
    }
    double t_prev = 0.0, cpu_prev = cpu0;
    std::size_t done_prev = 0;
    while (running > 0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(kSlice));
      const double t = seconds_since(t0), cpu = cpu_seconds(false);
      const std::size_t done = completed;
      ph.add_op(1e3 * (t - t_prev), 1e3 * (cpu - cpu_prev), done - done_prev);
      t_prev = t;
      cpu_prev = cpu;
      done_prev = done;
    }
    for (auto& t : threads) t.join();
    ph.wall_s = seconds_since(t0);
    ph.items = completed;
    return ph;
  };

  Phases p;
  std::vector<ClientLog> untraced_logs, traced_logs;
  const double budget = o.trace ? o.seconds / 2 : o.seconds;
  p.untraced = phase(budget, false, untraced_logs);
  if (o.trace) {
    begin_traced(p);
    p.traced = phase(budget, true, traced_logs);
    end_traced(p);
  }
  stop();
  out.main = p.untraced;

  // Served codes against in-process extraction of the same spec.
  std::map<std::uint64_t, double> ref_ms;
  std::map<std::uint64_t, std::uint64_t> ref_hash;
  for (const auto& pool : pools) {
    for (const serve::ExtractSpec& spec : pool) {
      const edram::MacroCell mc = serve::build_array(serve::array_spec_of(spec));
      const auto t0 = Clock::now();
      const extraction::ExtractReport rep =
          extraction::extract(mc, serve::request_of(spec));
      ref_ms[spec_key(spec)] = 1e3 * seconds_since(t0);
      ref_hash[spec_key(spec)] = hash_codes(rep.bitmap.codes());
    }
  }
  std::vector<double> fast_ms, circuit_ms;
  for (const auto* logs : {&untraced_logs, &traced_logs}) {
    for (const ClientLog& l : *logs) {
      out.attempted += l.sent;
      out.failed += l.rejected + l.failed;
      for (const std::string& f : l.failures) out.check(false, f);
      for (const auto& [key, h] : l.hashes) {
        out.check(ref_hash.at(key) == h,
                  "serve-mix: served codes differ from in-process extract "
                  "(seed " + std::to_string(key & 0xffffffffu) + ")");
        out.instance(key, h);
      }
    }
  }
  for (const ClientLog& l : untraced_logs) {
    fast_ms.insert(fast_ms.end(), l.fast_ms.begin(), l.fast_ms.end());
    circuit_ms.insert(circuit_ms.end(), l.circuit_ms.begin(), l.circuit_ms.end());
    for (const auto& [seed, info] : l.circuit_info) {
      const std::string key = "serve.circuit.seed" + std::to_string(seed) + ".";
      out.stat(key + "accepted_steps", static_cast<double>(info.transient_steps));
      out.stat(key + "conversion_steps", static_cast<double>(info.conversion_steps));
    }
  }

  out.op_p50_ms = percentile(fast_ms, 50);
  out.line("requests_per_s", out.main.items_per_s(), "1/s");
  out.line("cpu_ms_per_request", out.main.cpu_ms_per_item(), "ms");
  out.line("req_fast_p50_ms", out.op_p50_ms, "ms");
  const int fq = reportable_percentile(fast_ms.size());
  if (fq > 50) out.line("req_fast_p" + std::to_string(fq) + "_ms", percentile(fast_ms, fq), "ms");
  out.line("req_circuit_p50_ms", percentile(circuit_ms, 50), "ms");
  const int cq = reportable_percentile(circuit_ms.size());
  if (cq > 50) {
    out.line("req_circuit_p" + std::to_string(cq) + "_ms", percentile(circuit_ms, cq), "ms");
  }
  out.stat("serve.fast_requests", static_cast<double>(fast_ms.size()));
  out.stat("serve.circuit_requests", static_cast<double>(circuit_ms.size()));
  out.line("peak_rss_mb", peak_rss_mb(false), "MB");
  out.line("failed_frac",
           out.attempted ? static_cast<double>(out.failed) / out.attempted : 0.0,
           "1");
  if (!o.trace) return out;

  LayerMetrics& L = out.layer;
  std::vector<double> admit, overhead, depth;
  double rejected = 0, cells = 0, prefix = 0, conversion = 0;
  for (const ClientLog& l : traced_logs) {
    admit.insert(admit.end(), l.admit_us.begin(), l.admit_us.end());
    depth.insert(depth.end(), l.depth.begin(), l.depth.end());
    for (const auto& [key, ms] : l.latency_ms) overhead.push_back(ms - ref_ms.at(key));
    rejected += l.rejected;
    cells += l.circuit_cells;
    prefix += l.circuit_prefix;
    conversion += l.circuit_conversion;
  }
  L["serve.admit_us"] = median(admit);
  L["serve.overhead_p50_ms"] = percentile(overhead, 50);
  L["serve.overhead_p99_ms"] = percentile(overhead, 99);
  L["serve.queue_depth_mean"] = mean(depth);
  L["serve.rejected"] = rejected;
  circuit_counters(p.counters, cells, L);
  L["msu.adaptive_probes_per_cell"] =
      cells > 0 ? counter(p.counters, "msu.adaptive.probes") / cells : 0.0;
  L["msu.adaptive_fallback_ratio"] =
      cells > 0 ? counter(p.counters, "msu.adaptive.fallbacks") / cells : 0.0;
  L["msu.prefix_steps_per_cell"] = cells > 0 ? prefix / cells : 0.0;
  L["msu.conversion_steps_per_cell"] = cells > 0 ? conversion / cells : 0.0;
  std::vector<double> fast_ref;
  for (const serve::ExtractSpec& s : pools[0]) fast_ref.push_back(ref_ms.at(spec_key(s)));
  L["bitmap.extract_ms"] = median(fast_ref);
  finish_traced(p, out);

  const edram::MacroCell fast_mc =
      serve::build_array(serve::array_spec_of(pools[0][0]));
  probe_fastmodel(fast_mc, L);
  // The campaign layer is probed here too, on a 16-die campaign: the
  // campaign workload is not run by default (its pass time follows the
  // disk's fsync latency; README.md).
  campaign::CampaignConfig campaign = campaign_config(o);
  campaign.space.dies = std::min<std::uint32_t>(campaign.space.dies, 16);
  probe_campaign(campaign, o.scratch_dir, L);
  const edram::MacroCell tile =
      serve::build_array(serve::array_spec_of(pools[2][0]));
  const double delta_i = msu::FastModel(tile, {}).delta_i();
  probe_circuit(tile, 0, 0, delta_i, L);
  probe_batch(tile, delta_i, L);
  return out;
}

// --- campaign: repeated fresh passes of a fast-model wafer campaign ---

Outcome run_campaign(const Options& o) {
  Outcome out;
  out.rss_with_children = true;
  const campaign::CampaignConfig cfg = campaign_config(o);
  const std::string dir = o.scratch_dir + "/campaign";
  namespace fs = std::filesystem;

  // Set-up: a one-die warm-up campaign in a fresh directory (store create,
  // worker spawn, journal fsyncs, compact image).
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const auto t0 = Clock::now();
    campaign::CampaignConfig warm = cfg;
    warm.space.dies = 1;
    warm.dir = dir + "-warm";
    fs::remove_all(warm.dir);
    const campaign::CampaignResult r = campaign::run_campaign(warm);
    if (!r.summary.complete()) throw std::runtime_error("campaign: warm-up failed");
    setup_s.push_back(seconds_since(t0));
    fs::remove_all(warm.dir);
  }
  out.setup_s = median(setup_s);

  std::string first_image;
  auto op = [&](std::size_t, bool) -> std::size_t {
    campaign::CampaignConfig c = cfg;
    c.dir = dir;
    fs::remove_all(dir);
    const ScopedSpan span("campaign.run_campaign");
    const campaign::CampaignResult r = campaign::run_campaign(c);
    const campaign::CampaignSummary& s = r.summary;
    out.attempted += s.units_total;
    out.failed += s.units_failed;
    out.check(s.complete() && !s.degraded() && s.units_ok == s.units_total,
              "campaign: pass incomplete or degraded");
    std::ifstream f(r.compact_path, std::ios::binary);
    const std::string image((std::istreambuf_iterator<char>(f)),
                            std::istreambuf_iterator<char>());
    out.check(!image.empty(), "campaign: no compact image written");
    if (first_image.empty()) first_image = image;
    out.check(image == first_image,
              "campaign: compact images of two passes differ");
    out.instance(cfg.seed, fnv1a(image.data(), image.size()));
    return s.units_total;
  };
  // Two passes at least: their compact images must be byte-identical.
  const Phases p = run_phases(o, 2, true, op);
  out.main = p.untraced;
  common_lines(out, "units", "unit");
  out.stat("campaign.units_per_pass", static_cast<double>(cfg.space.total()));
  out.stat("campaign.compact_bytes", static_cast<double>(first_image.size()));

  fs::remove_all(dir);
  if (o.trace) {
    finish_traced(p, out);
    probe_campaign(cfg, o.scratch_dir, out.layer);
    serve::ArraySpec die;
    die.rows = die.cols = cfg.rows;
    die.seed = cfg.seed;
    probe_fastmodel(serve::build_array(die), out.layer);
  }
  return out;
}

}  // namespace perfbench
