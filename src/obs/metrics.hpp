// Lock-cheap metrics registry: Counter, Gauge, Histogram + JSON export.
//
// Design constraints (the overhead contract, see DESIGN.md §8):
//   * Disabled is free. Every instrumentation site is guarded by a single
//     relaxed atomic load (`metrics_enabled()`): no locks, no allocation,
//     no clock reads on the disabled path. `bench_array_scale` measures the
//     enabled-vs-disabled difference and holds it under 2%.
//   * Enabled hot paths are wait-free. Counters and histograms are sharded
//     (kShards cache-line-padded slots, threads hash to a slot), so an
//     increment is one relaxed fetch_add with essentially no cross-thread
//     contention under `--jobs N`. Shards are merged only on snapshot().
//   * Handles are stable. Registry::counter()/gauge()/histogram() return
//     references that stay valid for the registry's lifetime; reset()
//     zeroes values but never invalidates a handle, so instrumentation
//     sites may cache them in function-local statics (the ECMS_* macros do).
//
// Naming convention: dotted lowercase paths, `<layer>.<object>.<what>`
// (e.g. "circuit.newton.iterations", "util.pool.queue_depth").
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace ecms::obs {

namespace detail {
inline std::atomic<bool> g_metrics_on{false};
}  // namespace detail

/// Global metrics switch. An inline relaxed-atomic read: the only cost
/// paid by instrumentation sites when metrics are off.
inline bool metrics_enabled() {
  return detail::g_metrics_on.load(std::memory_order_relaxed);
}
inline void set_metrics_enabled(bool on) {
  detail::g_metrics_on.store(on, std::memory_order_relaxed);
}

/// Number of shard slots per instrument; threads hash onto slots, so hot
/// increments never contend on a single cache line.
inline constexpr std::size_t kMetricShards = 16;

/// Stable per-thread shard slot in [0, kMetricShards).
std::size_t metric_shard_index();

namespace detail {
struct alignas(64) CounterSlot {
  std::atomic<std::uint64_t> v{0};
};
}  // namespace detail

/// Monotonic counter. add() is wait-free; value() merges the shards.
class Counter {
 public:
  void add(std::uint64_t n = 1) {
    slots_[metric_shard_index()].v.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    std::uint64_t sum = 0;
    for (const auto& s : slots_) sum += s.v.load(std::memory_order_relaxed);
    return sum;
  }
  void reset() {
    for (auto& s : slots_) s.v.store(0, std::memory_order_relaxed);
  }

 private:
  detail::CounterSlot slots_[kMetricShards];
};

/// Point-in-time integer value (queue depth, worker count). set()/add() are
/// lock-free; the high-watermark is tracked so saturation is visible even
/// when the snapshot is taken after the burst.
class Gauge {
 public:
  void set(std::int64_t v) {
    v_.store(v, std::memory_order_relaxed);
    raise_max(v);
  }
  void add(std::int64_t d) {
    const std::int64_t now = v_.fetch_add(d, std::memory_order_relaxed) + d;
    raise_max(now);
  }
  std::int64_t value() const { return v_.load(std::memory_order_relaxed); }
  std::int64_t max() const { return max_.load(std::memory_order_relaxed); }
  void reset() {
    v_.store(0, std::memory_order_relaxed);
    max_.store(0, std::memory_order_relaxed);
  }

 private:
  void raise_max(std::int64_t v) {
    std::int64_t cur = max_.load(std::memory_order_relaxed);
    while (v > cur &&
           !max_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  std::atomic<std::int64_t> v_{0};
  std::atomic<std::int64_t> max_{0};
};

/// Read-only merged view of one histogram (see Histogram for the layout).
struct HistogramSnapshot {
  std::uint64_t count = 0;     ///< accepted observations
  std::uint64_t rejected = 0;  ///< negative / NaN observations refused
  double sum = 0.0;
  double min = 0.0;  ///< 0 when count == 0
  double max = 0.0;  ///< 0 when count == 0
  double min_bound = 0.0;
  double growth = 0.0;
  /// buckets[0] is the underflow bucket [0, min_bound); buckets[i] for
  /// i in [1, n] covers [min_bound*growth^(i-1), min_bound*growth^i); the
  /// last bucket is the overflow bucket.
  std::vector<std::uint64_t> buckets;

  double mean() const { return count == 0 ? 0.0 : sum / count; }
  /// Upper bound of bucket `i` (+inf for the overflow bucket).
  double bucket_upper(std::size_t i) const;
};

/// Fixed log-scale-bucket histogram for durations and iteration counts.
/// record() is wait-free (sharded); negative or NaN values are rejected
/// (counted separately) because a negative duration is always a caller bug.
class Histogram {
 public:
  struct Options {
    double min_bound = 1e-9;  ///< lower edge of the first log bucket
    double growth = 2.0;      ///< bucket width ratio (> 1)
    int buckets = 40;         ///< log buckets between underflow and overflow
  };

  Histogram();  // default Options
  explicit Histogram(const Options& opts);

  /// Records one observation. Returns false (and counts it as rejected)
  /// for negative or NaN values; 0 lands in the underflow bucket.
  bool record(double v);

  HistogramSnapshot snapshot() const;
  void reset();

  const Options& options() const { return opts_; }

 private:
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> rejected{0};
    std::atomic<double> sum{0.0};
    std::atomic<double> min{0.0};  ///< valid only when count > 0
    std::atomic<double> max{0.0};
    std::vector<std::atomic<std::uint64_t>> buckets;
  };

  std::size_t bucket_of(double v) const;

  Options opts_;
  double inv_log_growth_ = 0.0;
  std::vector<Shard> shards_;
};

/// Merged view of the whole registry at one instant.
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  struct GaugeValue {
    std::int64_t value = 0;
    std::int64_t max = 0;
  };
  std::map<std::string, GaugeValue> gauges;
  std::map<std::string, HistogramSnapshot> histograms;

  /// Whole snapshot as a JSON object ({"counters":{...},"gauges":{...},
  /// "histograms":{...}}).
  std::string to_json() const;
};

/// Named instrument registry. Lookup takes a mutex (cold path: sites cache
/// the returned reference); the instruments themselves are wait-free.
class Registry {
 public:
  /// The process-wide registry used by all ECMS_* instrumentation macros.
  static Registry& global();

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  /// `opts` applies only on first creation of `name`.
  Histogram& histogram(const std::string& name,
                       const Histogram::Options& opts = {});

  /// Merges every instrument's shards into one consistent-enough view.
  /// Safe to call while other threads are incrementing (each slot is read
  /// atomically; the snapshot is a point-in-time-ish sum, as with any
  /// sharded metrics system).
  MetricsSnapshot snapshot() const;

  /// Zeroes every instrument's value. Handles stay valid.
  void reset();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// Writes Registry::global().snapshot().to_json() to `path`; throws
/// ecms::Error on I/O failure.
void write_metrics_json(const std::string& path);

}  // namespace ecms::obs

/// Counter increment with a cached handle; free when metrics are disabled.
/// `name` must be a string literal (the handle is cached in a static).
#define ECMS_METRIC_COUNT(name, n)                                         \
  do {                                                                     \
    if (::ecms::obs::metrics_enabled()) {                                  \
      static ::ecms::obs::Counter& ecms_metric_counter_ =                  \
          ::ecms::obs::Registry::global().counter(name);                   \
      ecms_metric_counter_.add(static_cast<std::uint64_t>(n));             \
    }                                                                      \
  } while (false)

/// Histogram observation with a cached handle; free when disabled.
#define ECMS_METRIC_OBSERVE(name, v)                                       \
  do {                                                                     \
    if (::ecms::obs::metrics_enabled()) {                                  \
      static ::ecms::obs::Histogram& ecms_metric_hist_ =                   \
          ::ecms::obs::Registry::global().histogram(name);                 \
      ecms_metric_hist_.record(static_cast<double>(v));                    \
    }                                                                      \
  } while (false)

/// Gauge delta (e.g. +1/-1 around a queue); free when disabled.
#define ECMS_METRIC_GAUGE_ADD(name, d)                                     \
  do {                                                                     \
    if (::ecms::obs::metrics_enabled()) {                                  \
      static ::ecms::obs::Gauge& ecms_metric_gauge_ =                      \
          ::ecms::obs::Registry::global().gauge(name);                     \
      ecms_metric_gauge_.add(static_cast<std::int64_t>(d));                \
    }                                                                      \
  } while (false)

/// Gauge absolute set; free when disabled.
#define ECMS_METRIC_GAUGE_SET(name, v)                                     \
  do {                                                                     \
    if (::ecms::obs::metrics_enabled()) {                                  \
      static ::ecms::obs::Gauge& ecms_metric_gauge_ =                      \
          ::ecms::obs::Registry::global().gauge(name);                     \
      ecms_metric_gauge_.set(static_cast<std::int64_t>(v));                \
    }                                                                      \
  } while (false)
