// The extraction service daemon (DESIGN.md §13).
//
// One Server owns: a Unix-domain listener, one session thread per
// connection (frame decode, handshake, admission), an AdmissionQueue, and
// N dispatcher threads that pop admitted jobs and run them through the
// unified extraction::extract(). Warm state — ProgramCache::global() and
// the CalibrationCache — is shared read-only across every request, so a
// repeated topology pays zero symbolic factorizations after its first
// appearance (the EXT-A12 gate).
//
// Threading rules:
//   * an admitted extract request's array is built once, by whichever
//     thread asks first: its session thread right after the ack, while
//     the job waits (only when the job joined the queue within the first
//     `dispatchers` places, so at most that many waiting jobs hold an
//     array), or else the dispatcher that takes it;
//   * each dispatcher owns a private util::ThreadPool (jobs > 1); pools
//     are never shared between dispatchers, so tile fan-outs from
//     concurrent requests cannot interleave on one pool (ThreadPool
//     forbids nested/concurrent parallel_for);
//   * all writes to one connection go through its write mutex — session
//     thread (acks, rejections, metrics) and dispatcher (progress,
//     results) interleave whole frames, never bytes;
//   * a dead client (EPIPE — SIGPIPE must be ignored process-wide, see
//     tools/ecms_tool.cpp) marks the connection dead; its queued/running
//     jobs still run to completion and drop their frames on the floor.
//
// Shutdown taxonomy (mirrors the campaign supervisor):
//   begin_drain(): queue rejects new work ("draining"), accepted jobs
//   finish, wait_drained() returns once queue and in-flight are empty —
//   zero accepted requests lost. stop(): tear down listener, sessions and
//   dispatchers (queued jobs are expired with "stopped", never silent).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/calibration.hpp"
#include "serve/queue.hpp"
#include "util/threadpool.hpp"

namespace ecms::serve {

struct ServerConfig {
  std::string socket_path;
  std::size_t queue_capacity = 64;
  std::size_t dispatchers = 1;  ///< concurrent requests in flight
  /// Tile threads per request: 1 runs tiles on the dispatcher alone; N >= 2
  /// gives the dispatcher a private N-worker pool that it drains beside,
  /// so tiles run on N + 1 threads.
  std::size_t jobs = 1;
};

class Server {
 public:
  explicit Server(ServerConfig cfg);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds the socket and starts accept/dispatcher threads. Throws
  /// ecms::Error when the socket can't be bound.
  void start();

  /// Queue rejects new offers; accepted work keeps running.
  void begin_drain();
  /// Blocks until the queue is empty and no job is in flight.
  void wait_drained();
  /// Full teardown: listener, sessions, dispatchers; unlinks the socket.
  /// Graceful shutdown is begin_drain(); wait_drained(); stop().
  void stop();

  /// Test hooks: freeze/unfreeze dispatchers so admission behaviour
  /// (capacity rejections, drain) can be probed with a deterministically
  /// full queue.
  void pause_dispatch();
  void resume_dispatch();

  std::size_t queue_depth() const { return queue_.depth(); }
  const ServerConfig& config() const { return cfg_; }
  /// Requests accepted / completed / failed since start.
  std::uint64_t accepted() const { return accepted_.load(); }
  std::uint64_t completed() const { return completed_.load(); }
  std::uint64_t failed() const { return failed_.load(); }

 private:
  struct Connection;
  struct PreparedArray;

  void accept_loop();
  void session_loop(std::uint64_t session_id,
                    std::shared_ptr<Connection> conn);
  void dispatch_loop(std::size_t dispatcher_index);
  /// Joins session threads that have announced their exit — called from the
  /// accept loop so a long-lived daemon never accumulates dead thread
  /// stacks (a joinable-but-exited pthread keeps its stack mapped).
  void reap_sessions();
  /// Session-thread frame handling after a completed handshake.
  void handle_frame(const std::shared_ptr<Connection>& conn,
                    const struct Frame& frame);
  /// Dispatcher-thread body of one accepted extraction request.
  void run_extract(const std::shared_ptr<Connection>& conn,
                   const struct ExtractSpec& spec, PreparedArray& array,
                   util::ThreadPool* pool);

  ServerConfig cfg_;
  int listen_fd_ = -1;
  AdmissionQueue queue_;
  CalibrationCache calibrations_;

  std::thread accept_thread_;
  std::vector<std::thread> dispatchers_;
  std::mutex sessions_mu_;
  std::vector<std::shared_ptr<Connection>> sessions_;
  std::uint64_t next_session_id_ = 0;
  std::map<std::uint64_t, std::thread> session_threads_;
  std::vector<std::uint64_t> finished_sessions_;

  std::atomic<bool> shutdown_{false};
  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> failed_{0};
  std::atomic<std::uint64_t> expired_{0};

  // wait_drained() sleeps here; dispatchers notify after every job.
  mutable std::mutex flight_mu_;
  std::condition_variable flight_cv_;
};

}  // namespace ecms::serve
