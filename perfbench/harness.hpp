// Benchmark plumbing shared by the workloads: command-line options, clocks
// and resource usage, the in-memory span recorder of the traced run, the
// recorded code digests, and the result each workload hands back to main.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Small inputs for the self-test: every workload finishes in a second or
  /// two and is checked against its own recorded digests.
  bool tiny = false;
  std::string digests_path;  ///< recorded digests to check against
  std::string record_path;   ///< append this run's digest here instead
  std::string scratch_dir;   ///< per-run directory for stores and sockets
  std::string trace_out;     ///< Chrome trace JSON of the traced run
};

/// Parses argv; throws std::runtime_error with a usage message on bad input.
Options parse_options(int argc, char** argv);

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// User+system CPU seconds of this process, plus its reaped children when
/// `children` is set.
double cpu_seconds(bool children);
/// Peak resident set of this process, plus the largest reaped child's peak
/// when `children` is set (MiB).
double peak_rss_mb(bool children);

double median(std::vector<double> v);
/// Nearest-rank percentile, q in [0, 100]; 0 for an empty sample.
double percentile(std::vector<double> v, double q);
/// Highest of {99, 90, 80, 75, 50} that has at least ten samples above it
/// (the guide's reporting rule); 0 when even the median has fewer.
int reportable_percentile(std::size_t samples);

std::uint64_t fnv1a(const void* data, std::size_t n,
                    std::uint64_t h = 1469598103934665603ull);

/// One timed phase of a workload: its wall time and items and, per
/// operation (or per time slice, for the server), wall, CPU and items
/// completed. The reported rates are medians over operations, so a burst of
/// load from outside the benchmark moves a few operations, not the figure.
struct Phase {
  double wall_s = 0.0;
  std::size_t items = 0;
  std::vector<double> op_ms, op_cpu_ms;
  std::vector<std::size_t> op_items;

  void add_op(double ms, double cpu_ms, std::size_t n) {
    op_ms.push_back(ms);
    op_cpu_ms.push_back(cpu_ms);
    op_items.push_back(n);
  }
  /// Median over operations of items per wall second.
  double items_per_s() const;
  /// Median over operations of CPU milliseconds per item.
  double cpu_ms_per_item() const;
  /// Median wall seconds per item (the tracing-overhead base).
  double s_per_item() const;
};

/// Runs `op(i)` (which returns the items it completed) for i = 0, 1, ...
/// until `budget_s` seconds have passed and at least `min_ops` calls were
/// made. CPU includes reaped children when `children` is set.
Phase run_phase(double budget_s, std::size_t min_ops, bool children,
                const std::function<std::size_t(std::size_t)>& op);

/// Tracing overhead in percent: traced seconds per item over untraced.
double overhead_pct(const Phase& untraced, const Phase& traced);

// --- traced run: spans recorded around calls into the library's layers ---

struct Span {
  std::string name;  ///< "<layer>.<call>"
  std::uint64_t id = 0, parent = 0;
  std::uint32_t tid = 0;
  double start_s = 0.0, end_s = 0.0;  ///< relative to the recorder's origin
};

/// In-memory span store. Disabled (the untraced run) it records nothing
/// and costs one branch per span. Spans are kept until the process ends and
/// written out once.
class Recorder {
 public:
  static Recorder& global();
  void enable(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }
  double now() const { return seconds_since(origin_); }
  /// Stores a finished span, stamped with the calling thread; assigns the
  /// id when s.id == 0.
  std::uint64_t add(Span s);
  std::uint64_t next_id();
  std::vector<Span> spans() const;
  void write_chrome_json(const std::string& path) const;

 private:
  const Clock::time_point origin_ = Clock::now();
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::uint64_t next_id_ = 1;
  std::map<std::thread::id, std::uint32_t> tids_;
};

/// RAII span on the calling thread; nests under `parent` (0 = top level).
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, std::uint64_t parent = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  std::uint64_t id() const { return span_.id; }

 private:
  bool active_ = false;
  Span span_;
};

/// Self time per layer (span minus the part of it its children cover) over
/// the spans that start inside [t0, t1), and the share of that window no
/// top-level span covers.
struct SelfTime {
  std::map<std::string, double> layer_s;  ///< layer -> self seconds
  double uncovered_frac = 0.0;
  double window_s = 0.0;
};
SelfTime self_time(const std::vector<Span>& spans, double t0, double t1);

// --- recorded code digests ---

/// Digest table: one line per "<workload> <full|tiny> <seed|*> <hex>",
/// '#' starts a comment. A seed of '*' applies to every seed.
class Digests {
 public:
  void load(const std::string& path);  ///< throws on unreadable/malformed
  /// The recorded digest, or 0 when none is recorded for this key.
  std::uint64_t find(const std::string& workload, bool tiny,
                     std::uint64_t seed) const;
  static void append(const std::string& path, const std::string& workload,
                     bool tiny, const std::string& seed, std::uint64_t digest);

 private:
  std::map<std::string, std::uint64_t> table_;
};

// --- what a workload hands back ---

struct Outcome {
  double setup_s = 0.0;
  /// The untraced timed phase behind the end-to-end metrics; op_ms holds
  /// the latencies op_p50_ms is taken from.
  Phase main;
  /// op_p50_ms when it is not the median operation time (the server's
  /// fast-request latency); negative = median of main.op_ms.
  double op_p50_ms = -1.0;
  bool rss_with_children = false;

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  /// Per-instance code hashes, instance id -> hash; the run's digest is
  /// computed over these in id order.
  std::map<std::uint64_t, std::uint64_t> instances;
  /// The digest is the same for every seed (a fixed reference input).
  bool seed_independent = false;

  std::vector<std::string> failures;  ///< failed correctness checks

  /// Human-readable lines: the workload's named end-to-end metrics
  /// ("name value unit") and exact simulated statistics.
  std::vector<std::string> report;

  /// Per-layer metrics of the traced run (unset ones are reported as 0:
  /// the layer is not exercised by this workload).
  std::map<std::string, double> layer;

  void check(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
  /// Records an instance hash, failing the run if a repeated measurement
  /// of the same instance disagrees with the first.
  void instance(std::uint64_t id, std::uint64_t hash);
  void line(const std::string& name, double value, const std::string& unit);
  void stat(const std::string& name, double value);
};

std::uint64_t digest_of(const Outcome& o);

}  // namespace perfbench
