#include "obs/metrics.hpp"

#include <cmath>
#include <limits>

#include "obs/json.hpp"
#include "util/error.hpp"
#include "util/fileio.hpp"

namespace ecms::obs {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();

// Lock-free add for atomic<double> (fetch_add on double is C++20 but not
// universally lowered well; a relaxed CAS loop is portable and the slot is
// effectively single-writer, so the loop almost never retries).
void atomic_add(std::atomic<double>& a, double d) {
  double cur = a.load(std::memory_order_relaxed);
  while (!a.compare_exchange_weak(cur, cur + d, std::memory_order_relaxed)) {
  }
}

void atomic_min(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (v < cur &&
         !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void atomic_max(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (v > cur &&
         !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}
}  // namespace

std::size_t metric_shard_index() {
  static std::atomic<std::size_t> next{0};
  // Round-robin assignment spreads threads evenly over the slots; the pool's
  // long-lived workers each keep their own cache line.
  thread_local const std::size_t idx =
      next.fetch_add(1, std::memory_order_relaxed) % kMetricShards;
  return idx;
}

double HistogramSnapshot::bucket_upper(std::size_t i) const {
  if (i == 0) return min_bound;
  if (i + 1 >= buckets.size()) return kInf;
  return min_bound * std::pow(growth, static_cast<double>(i));
}

Histogram::Histogram() : Histogram(Options{}) {}

Histogram::Histogram(const Options& opts) : opts_(opts) {
  ECMS_REQUIRE(opts_.min_bound > 0.0, "histogram min_bound must be positive");
  ECMS_REQUIRE(opts_.growth > 1.0, "histogram growth must exceed 1");
  ECMS_REQUIRE(opts_.buckets > 0, "histogram needs at least one log bucket");
  inv_log_growth_ = 1.0 / std::log(opts_.growth);
  const auto total = static_cast<std::size_t>(opts_.buckets) + 2;
  shards_ = std::vector<Shard>(kMetricShards);
  for (auto& s : shards_) {
    s.buckets = std::vector<std::atomic<std::uint64_t>>(total);
    s.min.store(kInf, std::memory_order_relaxed);
    s.max.store(-kInf, std::memory_order_relaxed);
  }
}

std::size_t Histogram::bucket_of(double v) const {
  if (v < opts_.min_bound) return 0;  // underflow, includes 0
  const double steps = std::log(v / opts_.min_bound) * inv_log_growth_;
  // Compare before casting: for huge values (or +inf) `steps` exceeds any
  // bucket index and converting it to an integer would be UB.
  if (steps >= static_cast<double>(opts_.buckets)) {
    return static_cast<std::size_t>(opts_.buckets) + 1;  // overflow bucket
  }
  // +1 skips the underflow bucket; values exactly on a boundary belong to
  // the bucket whose lower edge they are.
  return static_cast<std::size_t>(std::floor(steps)) + 1;
}

bool Histogram::record(double v) {
  Shard& s = shards_[metric_shard_index()];
  if (std::isnan(v) || v < 0.0) {
    s.rejected.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  s.count.fetch_add(1, std::memory_order_relaxed);
  atomic_add(s.sum, v);
  atomic_min(s.min, v);
  atomic_max(s.max, v);
  s.buckets[bucket_of(v)].fetch_add(1, std::memory_order_relaxed);
  return true;
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot out;
  out.min_bound = opts_.min_bound;
  out.growth = opts_.growth;
  out.buckets.assign(static_cast<std::size_t>(opts_.buckets) + 2, 0);
  double lo = kInf, hi = -kInf;
  for (const auto& s : shards_) {
    out.count += s.count.load(std::memory_order_relaxed);
    out.rejected += s.rejected.load(std::memory_order_relaxed);
    out.sum += s.sum.load(std::memory_order_relaxed);
    lo = std::min(lo, s.min.load(std::memory_order_relaxed));
    hi = std::max(hi, s.max.load(std::memory_order_relaxed));
    for (std::size_t i = 0; i < out.buckets.size(); ++i) {
      out.buckets[i] += s.buckets[i].load(std::memory_order_relaxed);
    }
  }
  if (out.count > 0) {
    out.min = lo;
    out.max = hi;
  }
  return out;
}

void Histogram::reset() {
  for (auto& s : shards_) {
    s.count.store(0, std::memory_order_relaxed);
    s.rejected.store(0, std::memory_order_relaxed);
    s.sum.store(0.0, std::memory_order_relaxed);
    s.min.store(kInf, std::memory_order_relaxed);
    s.max.store(-kInf, std::memory_order_relaxed);
    for (auto& b : s.buckets) b.store(0, std::memory_order_relaxed);
  }
}

Registry& Registry::global() {
  static Registry* r = new Registry();  // leaked: outlives static teardown
  return *r;
}

Counter& Registry::counter(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& Registry::gauge(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& Registry::histogram(const std::string& name,
                               const Histogram::Options& opts) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>(opts);
  return *slot;
}

MetricsSnapshot Registry::snapshot() const {
  MetricsSnapshot out;
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [name, c] : counters_) out.counters[name] = c->value();
  for (const auto& [name, g] : gauges_) {
    out.gauges[name] = {g->value(), g->max()};
  }
  for (const auto& [name, h] : histograms_) {
    out.histograms[name] = h->snapshot();
  }
  return out;
}

void Registry::reset() {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
}

std::string MetricsSnapshot::to_json() const {
  std::string j = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, v] : counters) {
    j += first ? "\n" : ",\n";
    first = false;
    j += "    \"" + json_escape(name) + "\": " + json_number(v);
  }
  j += first ? "},\n" : "\n  },\n";
  j += "  \"gauges\": {";
  first = true;
  for (const auto& [name, g] : gauges) {
    j += first ? "\n" : ",\n";
    first = false;
    j += "    \"" + json_escape(name) + "\": {\"value\": " +
         json_number(static_cast<std::int64_t>(g.value)) +
         ", \"max\": " + json_number(static_cast<std::int64_t>(g.max)) + "}";
  }
  j += first ? "},\n" : "\n  },\n";
  j += "  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms) {
    j += first ? "\n" : ",\n";
    first = false;
    j += "    \"" + json_escape(name) + "\": {\"count\": " +
         json_number(h.count) + ", \"rejected\": " + json_number(h.rejected) +
         ", \"sum\": " + json_number(h.sum) + ", \"min\": " +
         json_number(h.min) + ", \"max\": " + json_number(h.max) +
         ", \"mean\": " + json_number(h.mean()) + ", \"buckets\": [";
    // Sparse bucket emission keeps the file one screen: only non-empty
    // buckets, each with its upper bound ("le", -1 for overflow).
    bool bfirst = true;
    for (std::size_t i = 0; i < h.buckets.size(); ++i) {
      if (h.buckets[i] == 0) continue;
      if (!bfirst) j += ", ";
      bfirst = false;
      const double upper = h.bucket_upper(i);
      j += "{\"le\": " + (upper == kInf ? std::string("-1")
                                        : json_number(upper)) +
           ", \"count\": " + json_number(h.buckets[i]) + "}";
    }
    j += "]}";
  }
  j += first ? "}\n}\n" : "\n  }\n}\n";
  return j;
}

void write_metrics_json(const std::string& path) {
  // Atomic (tmp + rename): a crash mid-write never leaves a torn JSON
  // artifact where a previous good one stood.
  util::atomic_write_file(path, Registry::global().snapshot().to_json());
}

}  // namespace ecms::obs
