#include "serve/server.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <map>
#include <optional>
#include <utility>

#include "bitmap/extraction.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/protocol.hpp"
#include "serve/workload.hpp"
#include "util/crc32.hpp"
#include "util/error.hpp"

namespace ecms::serve {
namespace {

/// EINTR-retrying full write; false on any other error (including EPIPE —
/// SIGPIPE is ignored process-wide, so a dead peer surfaces here).
bool send_all(int fd, const char* data, std::size_t n) {
  while (n > 0) {
    const ssize_t w = ::write(fd, data, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += w;
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

/// Structural sanity of an extraction request; returns a refusal reason or
/// empty. Supervision-side bound: a wild spec must not allocate wild.
std::string validate(const ExtractSpec& s) {
  constexpr std::uint64_t kMaxCells = 1u << 20;
  if (s.rows == 0 || s.cols == 0) return "array dimensions must be positive";
  if (std::uint64_t(s.rows) * s.cols > kMaxCells)
    return "array too large (limit " + std::to_string(kMaxCells) + " cells)";
  if (s.tile_rows != 0 && s.rows % s.tile_rows != 0)
    return "rows not divisible by tile_rows";
  if (s.tile_cols != 0 && s.cols % s.tile_cols != 0)
    return "cols not divisible by tile_cols";
  if (s.engine > 1) return "unknown engine";
  if (s.batch > 64) return "batch width too large (limit 64 lanes)";
  return {};
}

}  // namespace

/// One client connection. All frame writes go through send() so session
/// and dispatcher threads interleave whole frames; a failed write marks
/// the peer dead and later sends become no-ops.
struct Server::Connection {
  int fd = -1;
  std::mutex write_mu;
  std::atomic<bool> alive{true};

  void send(const std::string& frame) {
    std::lock_guard<std::mutex> lock(write_mu);
    if (!alive.load()) return;
    if (!send_all(fd, frame.data(), frame.size())) {
      alive.store(false);
      ECMS_METRIC_COUNT("serve.sessions.write_errors", 1);
    }
  }

  /// The last holder closes the fd — dispatcher jobs may outlive the
  /// session thread, and an fd must never be recycled under a send().
  ~Connection() {
    if (fd >= 0) ::close(fd);
  }
};

/// The array of one admitted extract request. Whichever thread asks first
/// builds it, exactly once: the session thread while the job waits, or the
/// dispatcher that takes it. A build that throws leaves it unbuilt, so the
/// next caller builds again.
struct Server::PreparedArray {
  explicit PreparedArray(const ExtractSpec& spec)
      : spec(array_spec_of(spec)) {}

  /// Builds the array unless it is built; true when this call built it.
  bool build() {
    bool built = false;
    std::call_once(once, [&] {
      mc.emplace(build_array(spec));
      built = true;
    });
    return built;
  }

  const edram::MacroCell& get() {
    build();
    return *mc;
  }

  ArraySpec spec;
  std::once_flag once;
  std::optional<edram::MacroCell> mc;
};

Server::Server(ServerConfig cfg)
    : cfg_(std::move(cfg)), queue_(cfg_.queue_capacity) {}

Server::~Server() { stop(); }

void Server::start() {
  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    throw Error(std::string("serve: socket: ") + std::strerror(errno));
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (cfg_.socket_path.size() >= sizeof addr.sun_path) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw Error("serve: socket path too long: " + cfg_.socket_path);
  }
  std::strncpy(addr.sun_path, cfg_.socket_path.c_str(),
               sizeof addr.sun_path - 1);
  ::unlink(cfg_.socket_path.c_str());  // stale socket from a dead server
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0 ||
      ::listen(listen_fd_, 64) < 0) {
    const std::string why = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw Error("serve: bind/listen " + cfg_.socket_path + ": " + why);
  }

  accept_thread_ = std::thread([this] { accept_loop(); });
  const std::size_t n = std::max<std::size_t>(1, cfg_.dispatchers);
  dispatchers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    dispatchers_.emplace_back([this, i] { dispatch_loop(i); });
  }
}

void Server::begin_drain() { queue_.begin_drain(); }

void Server::wait_drained() {
  const auto drained = [this] {
    return queue_.depth() == 0 &&
           accepted_.load() ==
               completed_.load() + failed_.load() + expired_.load();
  };
  std::unique_lock<std::mutex> lock(flight_mu_);
  // Timed wait: dispatcher notifications race the predicate check (they
  // notify without the lock), so poll instead of trusting every wakeup.
  while (!drained()) {
    flight_cv_.wait_for(lock, std::chrono::milliseconds(20));
  }
}

void Server::stop() {
  // Expire the backlog before raising shutdown_: a session thread that sees
  // shutdown_ marks its connection dead on the way out, and the "stopped"
  // frames must reach their clients first. queue_.stop() is idempotent.
  queue_.stop();
  if (shutdown_.exchange(true)) return;
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    for (auto& c : sessions_) {
      if (c->fd >= 0) ::shutdown(c->fd, SHUT_RDWR);
    }
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  for (auto& t : dispatchers_) {
    if (t.joinable()) t.join();
  }
  std::map<std::uint64_t, std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    threads.swap(session_threads_);
    finished_sessions_.clear();
  }
  for (auto& [id, t] : threads) {
    if (t.joinable()) t.join();
  }
  {
    // Dropping the last references closes any remaining fds
    // (~Connection); dispatcher jobs are all drained by now.
    std::lock_guard<std::mutex> lock(sessions_mu_);
    sessions_.clear();
  }
  if (listen_fd_ >= 0) ::close(listen_fd_);
  listen_fd_ = -1;
  ::unlink(cfg_.socket_path.c_str());
  flight_cv_.notify_all();
}

void Server::pause_dispatch() { queue_.pause(true); }
void Server::resume_dispatch() { queue_.pause(false); }

void Server::accept_loop() {
  while (!shutdown_.load()) {
    reap_sessions();
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int r = ::poll(&pfd, 1, 200);
    if (r <= 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    ECMS_METRIC_COUNT("serve.sessions.opened", 1);
    std::lock_guard<std::mutex> lock(sessions_mu_);
    const std::uint64_t id = next_session_id_++;
    sessions_.push_back(conn);
    session_threads_.emplace(
        id, std::thread([this, id, conn = std::move(conn)] {
          session_loop(id, conn);
        }));
  }
}

void Server::reap_sessions() {
  std::vector<std::thread> done;
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    for (const std::uint64_t id : finished_sessions_) {
      const auto it = session_threads_.find(id);
      if (it != session_threads_.end()) {
        done.push_back(std::move(it->second));
        session_threads_.erase(it);
      }
    }
    finished_sessions_.clear();
  }
  for (auto& t : done) t.join();  // instant: these threads have exited
}

void Server::session_loop(std::uint64_t session_id,
                          std::shared_ptr<Connection> conn) {
  obs::ScopedSpan span("serve.session");
  Decoder decoder;
  bool handshaken = false;
  char buf[4096];
  while (!shutdown_.load() && conn->alive.load()) {
    pollfd pfd{conn->fd, POLLIN, 0};
    const int pr = ::poll(&pfd, 1, 200);
    if (pr < 0 && errno != EINTR) break;
    if (pr <= 0) continue;
    const ssize_t n = ::read(conn->fd, buf, sizeof buf);
    if (n == 0) break;  // peer closed
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    decoder.feed(buf, static_cast<std::size_t>(n));

    Frame frame;
    Decoder::Status st;
    while ((st = decoder.next(frame)) == Decoder::Status::kFrame) {
      if (!handshaken) {
        // First frame must be a compatible kHello; anything else is
        // refused before a single request is admitted (the campaign
        // meta-mismatch rule, applied to the wire).
        Hello hello;
        if (frame.type != FrameType::kHello || !read_struct(frame, hello)) {
          conn->send(encode_text_frame(FrameType::kReject, 0, 0,
                                       "handshake required"));
          conn->alive.store(false);
          break;
        }
        if (hello.version != kProtocolVersion ||
            hello.config_hash != wire_format_hash()) {
          ECMS_METRIC_COUNT("serve.sessions.version_mismatch", 1);
          conn->send(encode_text_frame(
              FrameType::kReject, 0, 0,
              "protocol mismatch: server version " +
                  std::to_string(kProtocolVersion)));
          conn->alive.store(false);
          break;
        }
        Hello ok;
        ok.config_hash = wire_format_hash();
        conn->send(encode_struct(FrameType::kHelloOk, ok));
        handshaken = true;
        continue;
      }
      handle_frame(conn, frame);
    }
    if (st == Decoder::Status::kBad) {
      // Poisoned stream: one best-effort diagnostic, then drop this
      // session. Every other session keeps serving.
      ECMS_METRIC_COUNT("serve.protocol.errors", 1);
      conn->send(
          encode_text_frame(FrameType::kError, 0, 0, decoder.error()));
      conn->alive.store(false);
    }
  }
  conn->alive.store(false);
  // Peer sees EOF now, not at server stop; the fd itself stays open until
  // the last dispatcher job holding this connection drops it.
  ::shutdown(conn->fd, SHUT_RDWR);
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    sessions_.erase(std::remove(sessions_.begin(), sessions_.end(), conn),
                    sessions_.end());
    finished_sessions_.push_back(session_id);
  }
  ECMS_METRIC_COUNT("serve.sessions.closed", 1);
}

void Server::handle_frame(const std::shared_ptr<Connection>& conn,
                          const Frame& frame) {
  switch (frame.type) {
    case FrameType::kExtract: {
      ExtractSpec spec;
      if (!read_struct(frame, spec)) {
        conn->send(encode_text_frame(FrameType::kError, 0, 0,
                                     "short ExtractSpec payload"));
        return;
      }
      if (const std::string why = validate(spec); !why.empty()) {
        conn->send(
            encode_text_frame(FrameType::kError, spec.request_id, 0, why));
        return;
      }

      Job job;
      job.id = spec.request_id;
      if (spec.deadline_ms > 0) {
        job.deadline = std::chrono::steady_clock::now() +
                       std::chrono::milliseconds(spec.deadline_ms);
      }
      auto array = std::make_shared<PreparedArray>(spec);
      job.run = [this, conn, spec, array](util::ThreadPool* pool) {
        run_extract(conn, spec, *array, pool);
      };
      job.expire = [this, conn, spec](const std::string& why) {
        expired_.fetch_add(1);
        conn->send(
            encode_text_frame(FrameType::kError, spec.request_id, 0, why));
      };

      const Admission verdict = queue_.offer(std::move(job));
      if (verdict.accepted) {
        accepted_.fetch_add(1);
        Ack ack;
        ack.request_id = spec.request_id;
        ack.queue_depth = verdict.queue_depth;
        conn->send(encode_struct(FrameType::kAccepted, ack));
        // Build the array while the job waits, so its dispatcher only
        // extracts. The queue is FIFO, so gating on the admission depth
        // keeps at most `dispatchers` waiting jobs holding an array; deeper
        // jobs leave the build to their dispatcher.
        if (verdict.queue_depth <= std::max<std::size_t>(1, cfg_.dispatchers)) {
          obs::ScopedSpan prepare("serve.prepare");
          try {
            if (array->build()) {
              ECMS_METRIC_COUNT("serve.requests.prepared_ahead", 1);
            }
          } catch (const std::exception&) {
            // The dispatcher builds again and answers the failure.
          }
        }
      } else {
        conn->send(encode_text_frame(FrameType::kReject, spec.request_id,
                                     verdict.retry_after_ms, verdict.reason));
      }
      return;
    }
    case FrameType::kMetrics: {
      conn->send(encode_frame(FrameType::kMetricsReply,
                              obs::Registry::global().snapshot().to_json()));
      return;
    }
    case FrameType::kTrace: {
      conn->send(encode_frame(FrameType::kTraceReply, obs::trace_to_json()));
      return;
    }
    case FrameType::kCalibrate: {
      CalibrateSpec spec;
      if (!read_struct(frame, spec)) {
        conn->send(encode_text_frame(FrameType::kError, 0, 0,
                                     "short CalibrateSpec payload"));
        return;
      }
      if (spec.rows == 0 || spec.cols == 0 || spec.rows > 64 ||
          spec.cols > 64 || spec.ramp_steps < 2 || spec.ramp_steps > 4096 ||
          spec.points < 2 || spec.points > 100000 ||
          !(spec.cm_lo > 0 && spec.cm_hi > spec.cm_lo)) {
        conn->send(encode_text_frame(FrameType::kError, spec.request_id, 0,
                                     "calibration spec out of range"));
        return;
      }
      try {
        bool hit = false;
        CalibrationCache::Key key;
        key.rows = spec.rows;
        key.cols = spec.cols;
        key.ramp_steps = spec.ramp_steps;
        key.points = spec.points;
        key.cm_lo = spec.cm_lo;
        key.cm_hi = spec.cm_hi;
        const auto ab = calibrations_.get_or_build(key, &hit);
        CalibrateInfo info;
        info.request_id = spec.request_id;
        info.cache_hit = hit ? 1 : 0;
        info.codes_used = static_cast<std::uint32_t>(ab->codes_used());
        info.range_lo = ab->range_lo();
        info.range_hi = ab->range_hi();
        info.mean_accuracy = ab->mean_accuracy(
            1, static_cast<int>(spec.ramp_steps) - 1);
        conn->send(encode_struct(FrameType::kCalibrateReply, info));
      } catch (const std::exception& e) {
        conn->send(encode_text_frame(FrameType::kError, spec.request_id, 0,
                                     e.what()));
      }
      return;
    }
    default:
      conn->send(encode_text_frame(
          FrameType::kError, 0, 0,
          "unexpected frame type " +
              std::to_string(static_cast<std::uint32_t>(frame.type))));
      return;
  }
}

void Server::run_extract(const std::shared_ptr<Connection>& conn,
                         const ExtractSpec& spec, PreparedArray& array,
                         util::ThreadPool* pool) {
  obs::ScopedSpan span("serve.request");
  const auto start = std::chrono::steady_clock::now();
  std::string frame;
  bool ok = false;
  try {
    const edram::MacroCell& mc = array.get();
    extraction::ExtractRequest req = request_of(spec);
    req.pool = pool;
    if (spec.want_progress != 0) {
      req.tile_hook = [&conn, &spec](std::size_t done, std::size_t total) {
        Progress p;
        p.request_id = spec.request_id;
        p.tiles_done = static_cast<std::uint32_t>(done);
        p.tiles_total = static_cast<std::uint32_t>(total);
        conn->send(encode_struct(FrameType::kProgress, p));
      };
    }
    const extraction::ExtractReport rep = extraction::extract(mc, req);

    ResultInfo info;
    info.request_id = spec.request_id;
    info.rows = static_cast<std::uint32_t>(rep.bitmap.rows());
    info.cols = static_cast<std::uint32_t>(rep.bitmap.cols());
    for (const CellStatus s : rep.status) {
      if (s == CellStatus::kOk) ++info.ok;
      else if (s == CellStatus::kRecovered) ++info.recovered;
      else ++info.unmeasurable;
    }
    info.transient_steps = rep.telemetry.transient_steps;
    info.conversion_steps = rep.telemetry.conversion_steps();

    const std::vector<int>& codes = rep.bitmap.codes();
    static_assert(sizeof(int) == 4, "codes are framed as int32");
    info.code_hash =
        util::fnv1a64(codes.data(), codes.size() * sizeof(int));

    std::string payload(reinterpret_cast<const char*>(&info), sizeof info);
    payload.append(reinterpret_cast<const char*>(codes.data()),
                   codes.size() * sizeof(int));
    for (const CellStatus s : rep.status) {
      payload.push_back(static_cast<char>(s));
    }
    frame = encode_frame(FrameType::kResult, payload.data(), payload.size());
    ok = true;
  } catch (const std::exception& e) {
    frame = encode_text_frame(FrameType::kError, spec.request_id, 0, e.what());
  }
  // Counted before the frame goes out, so a client holding its answer
  // never reads a count (or a service-time histogram) one short.
  if (ok) {
    completed_.fetch_add(1);
    ECMS_METRIC_COUNT("serve.requests.completed", 1);
  } else {
    failed_.fetch_add(1);
    ECMS_METRIC_COUNT("serve.requests.failed", 1);
  }
  ECMS_METRIC_OBSERVE(
      "serve.request.service_seconds",
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count());
  conn->send(frame);
}

void Server::dispatch_loop(std::size_t) {
  // Each dispatcher owns its tile-worker pool: pools are never shared, so
  // concurrent requests can't nest parallel_for on one pool.
  std::unique_ptr<util::ThreadPool> pool;
  if (cfg_.jobs > 1) pool = std::make_unique<util::ThreadPool>(cfg_.jobs);

  using Seconds = std::chrono::duration<double>;
  Job job;
  while (queue_.take(job)) {
    const auto taken = std::chrono::steady_clock::now();
    ECMS_METRIC_OBSERVE("serve.request.queue_seconds",
                        Seconds(taken - job.admitted).count());
    if (job.run) job.run(pool.get());
    job = Job{};  // release captured state (and its array) before sleeping
    flight_cv_.notify_all();
  }
  flight_cv_.notify_all();
}

}  // namespace ecms::serve
