#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace perfbench {

namespace {

const char* const kUsage =
    "usage: ecms_perfbench --workload array16|abacus-sweep|serve-mix|campaign\n"
    "         --seed N --seconds S --trace 0|1\n"
    "         [--tiny] [--digests FILE] [--record FILE] [--scratch DIR]\n"
    "         [--trace-out FILE]";

std::uint64_t parse_u64(const std::string& flag, const std::string& v) {
  std::size_t pos = 0;
  unsigned long long n = 0;
  try {
    n = std::stoull(v, &pos);
  } catch (const std::exception&) {
    pos = 0;
  }
  if (pos == 0 || pos != v.size() || v[0] == '-') {
    throw std::runtime_error(flag + " needs a non-negative integer, got '" +
                             v + "'");
  }
  return n;
}

/// Length of the union of [a, b) intervals.
double union_length(std::vector<std::pair<double, double>> iv) {
  std::sort(iv.begin(), iv.end());
  double total = 0.0, lo = 0.0, hi = -1.0;
  for (const auto& [a, b] : iv) {
    if (b <= a) continue;
    if (a > hi) {
      if (hi > lo) total += hi - lo;
      lo = a;
      hi = b;
    } else {
      hi = std::max(hi, b);
    }
  }
  if (hi > lo) total += hi - lo;
  return total;
}

std::string layer_of(const std::string& name) {
  return name.substr(0, name.find('.'));
}

}  // namespace

Options parse_options(int argc, char** argv) {
  Options o;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::runtime_error(a + " needs a value");
      return argv[++i];
    };
    if (a == "--workload") {
      o.workload = value();
      have_workload = true;
    } else if (a == "--seed") {
      o.seed = parse_u64(a, value());
      have_seed = true;
    } else if (a == "--seconds") {
      o.seconds = static_cast<double>(parse_u64(a, value()));
      have_seconds = true;
    } else if (a == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") throw std::runtime_error("--trace is 0 or 1");
      o.trace = v == "1";
      have_trace = true;
    } else if (a == "--tiny") {
      o.tiny = true;
    } else if (a == "--digests") {
      o.digests_path = value();
    } else if (a == "--record") {
      o.record_path = value();
    } else if (a == "--scratch") {
      o.scratch_dir = value();
    } else if (a == "--trace-out") {
      o.trace_out = value();
    } else {
      throw std::runtime_error("unknown argument '" + a + "'\n" + kUsage);
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    throw std::runtime_error(std::string("missing a required argument\n") +
                             kUsage);
  }
  if (o.seconds < 1) throw std::runtime_error("--seconds must be >= 1");
  if (o.scratch_dir.empty()) o.scratch_dir = ".";
  return o;
}

double cpu_seconds(bool children) {
  auto secs = [](const rusage& u) {
    return static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
           1e-6 * static_cast<double>(u.ru_utime.tv_usec + u.ru_stime.tv_usec);
  };
  rusage self{};
  getrusage(RUSAGE_SELF, &self);
  double total = secs(self);
  if (children) {
    rusage kids{};
    getrusage(RUSAGE_CHILDREN, &kids);
    total += secs(kids);
  }
  return total;
}

double peak_rss_mb(bool children) {
  rusage self{};
  getrusage(RUSAGE_SELF, &self);
  double kb = static_cast<double>(self.ru_maxrss);
  if (children) {
    rusage kids{};
    getrusage(RUSAGE_CHILDREN, &kids);
    kb += static_cast<double>(kids.ru_maxrss);
  }
  return kb / 1024.0;
}

double median(std::vector<double> v) { return percentile(std::move(v), 50); }

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q / 100.0 * static_cast<double>(v.size()));
  const std::size_t i = rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(i, v.size() - 1)];
}

int reportable_percentile(std::size_t samples) {
  for (const int q : {99, 90, 80, 75, 50}) {
    if (static_cast<double>(samples) * (100 - q) / 100.0 >= 10.0) return q;
  }
  return 0;
}

std::uint64_t fnv1a(const void* data, std::size_t n, std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

double Phase::items_per_s() const {
  std::vector<double> r;
  for (std::size_t i = 0; i < op_ms.size(); ++i)
    if (op_ms[i] > 0) r.push_back(1e3 * static_cast<double>(op_items[i]) / op_ms[i]);
  return median(r);
}

double Phase::cpu_ms_per_item() const {
  std::vector<double> r;
  for (std::size_t i = 0; i < op_cpu_ms.size(); ++i)
    if (op_items[i] > 0) r.push_back(op_cpu_ms[i] / static_cast<double>(op_items[i]));
  return median(r);
}

double Phase::s_per_item() const {
  const double rate = items_per_s();
  return rate > 0 ? 1.0 / rate : 0.0;
}

Phase run_phase(double budget_s, std::size_t min_ops, bool children,
                const std::function<std::size_t(std::size_t)>& op) {
  Phase p;
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < min_ops || seconds_since(t0) < budget_s; ++i) {
    const auto t = Clock::now();
    const double c = cpu_seconds(children);
    const std::size_t n = op(i);
    p.items += n;
    p.add_op(1e3 * seconds_since(t), 1e3 * (cpu_seconds(children) - c), n);
  }
  p.wall_s = seconds_since(t0);
  return p;
}

double overhead_pct(const Phase& untraced, const Phase& traced) {
  const double a = untraced.s_per_item(), b = traced.s_per_item();
  return a > 0.0 ? 100.0 * (b / a - 1.0) : 0.0;
}

// --- spans ---

Recorder& Recorder::global() {
  static Recorder r;
  return r;
}

std::uint64_t Recorder::next_id() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

std::uint64_t Recorder::add(Span s) {
  std::lock_guard<std::mutex> lock(mu_);
  if (s.id == 0) s.id = next_id_++;
  const auto [it, fresh] = tids_.emplace(
      std::this_thread::get_id(), static_cast<std::uint32_t>(tids_.size() + 1));
  s.tid = it->second;
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

std::vector<Span> Recorder::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

void Recorder::write_chrome_json(const std::string& path) const {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("cannot write trace to " + path);
  f << "{\"traceEvents\":[";
  bool first = true;
  for (const Span& s : spans()) {
    char buf[128];
    std::snprintf(buf, sizeof buf, "\"ts\":%.3f,\"dur\":%.3f", 1e6 * s.start_s,
                  1e6 * (s.end_s - s.start_s));
    f << (first ? "" : ",") << "\n{\"name\":\"" << s.name
      << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.tid << "," << buf
      << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent << "}}";
    first = false;
  }
  f << "\n]}\n";
}

ScopedSpan::ScopedSpan(const char* name, std::uint64_t parent) {
  Recorder& r = Recorder::global();
  if (!r.enabled()) return;
  active_ = true;
  span_.name = name;
  span_.parent = parent;
  span_.id = r.next_id();
  span_.start_s = r.now();
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  Recorder& r = Recorder::global();
  span_.end_s = r.now();
  r.add(std::move(span_));
}

SelfTime self_time(const std::vector<Span>& spans, double t0, double t1) {
  SelfTime st;
  st.window_s = t1 - t0;
  std::map<std::uint64_t, std::vector<std::pair<double, double>>> children;
  std::vector<std::pair<double, double>> top;
  for (const Span& s : spans) {
    if (s.start_s < t0 || s.start_s >= t1) continue;
    if (s.parent != 0) children[s.parent].emplace_back(s.start_s, s.end_s);
    else top.emplace_back(std::max(s.start_s, t0), std::min(s.end_s, t1));
  }
  for (const Span& s : spans) {
    if (s.start_s < t0 || s.start_s >= t1) continue;
    std::vector<std::pair<double, double>> kids;
    if (const auto it = children.find(s.id); it != children.end()) {
      for (const auto& [a, b] : it->second)
        kids.emplace_back(std::max(a, s.start_s), std::min(b, s.end_s));
    }
    st.layer_s[layer_of(s.name)] +=
        std::max(0.0, (s.end_s - s.start_s) - union_length(kids));
  }
  if (st.window_s > 0.0) {
    st.uncovered_frac =
        std::max(0.0, 1.0 - union_length(top) / st.window_s);
  }
  return st;
}

// --- digests ---

namespace {
std::string digest_key(const std::string& workload, bool tiny,
                       const std::string& seed) {
  return workload + (tiny ? " tiny " : " full ") + seed;
}
}  // namespace

void Digests::load(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw std::runtime_error("cannot read digests from " + path);
  std::string line;
  int lineno = 0;
  while (std::getline(f, line)) {
    ++lineno;
    if (const auto hash = line.find('#'); hash != std::string::npos)
      line.resize(hash);
    std::istringstream in(line);
    std::string workload, size, seed, hex;
    if (!(in >> workload)) continue;
    std::string extra;
    if (!(in >> size >> seed >> hex) || (in >> extra) ||
        (size != "full" && size != "tiny")) {
      throw std::runtime_error(path + ":" + std::to_string(lineno) +
                               ": expected '<workload> full|tiny <seed|*> "
                               "<hex digest>'");
    }
    table_[digest_key(workload, size == "tiny", seed)] =
        std::stoull(hex, nullptr, 16);
  }
}

std::uint64_t Digests::find(const std::string& workload, bool tiny,
                            std::uint64_t seed) const {
  for (const std::string& s : {std::to_string(seed), std::string("*")}) {
    if (const auto it = table_.find(digest_key(workload, tiny, s));
        it != table_.end())
      return it->second;
  }
  return 0;
}

void Digests::append(const std::string& path, const std::string& workload,
                     bool tiny, const std::string& seed,
                     std::uint64_t digest) {
  std::ofstream f(path, std::ios::app);
  if (!f) throw std::runtime_error("cannot append to " + path);
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(digest));
  f << workload << (tiny ? " tiny " : " full ") << seed << ' ' << hex << '\n';
}

// --- outcome ---

void Outcome::instance(std::uint64_t id, std::uint64_t hash) {
  const auto [it, fresh] = instances.emplace(id, hash);
  check(fresh || it->second == hash,
        "instance " + std::to_string(id) +
            " gave different codes on a repeated measurement");
}

void Outcome::line(const std::string& name, double value,
                   const std::string& unit) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", value);
  report.push_back("metric " + name + " " + buf + " " + unit);
}

void Outcome::stat(const std::string& name, double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", value);
  report.push_back("stat " + name + " " + buf);
}

std::uint64_t digest_of(const Outcome& o) {
  std::uint64_t h = fnv1a(nullptr, 0);
  for (const auto& [id, hash] : o.instances) {
    h = fnv1a(&id, sizeof id, h);
    h = fnv1a(&hash, sizeof hash, h);
  }
  return h;
}

}  // namespace perfbench
