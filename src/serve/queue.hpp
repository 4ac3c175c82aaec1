// Bounded admission queue of the extraction service (DESIGN.md §13).
//
// Admission control is decided at offer() time, synchronously, so a caller
// always learns its fate immediately: accepted (with the depth it joined
// at), or rejected with a retry-after hint sized to the backlog. A full
// queue NEVER blocks the offering session thread and an admitted job is
// NEVER silently dropped — once accepted, a job either runs or (past its
// deadline) has its expire callback invoked, even across drain.
//
// Drain (SIGINT/SIGTERM) follows the campaign-supervisor taxonomy: new
// offers are rejected with retry_after_ms = 0 ("draining" is not a
// transient condition worth retrying against this process), already-queued
// jobs still run to completion, and take() returns false only once the
// queue is empty — so a graceful shutdown loses zero accepted requests.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>

namespace ecms::util {
class ThreadPool;
}

namespace ecms::serve {

/// One admitted unit of work. `run` executes on a dispatcher thread and
/// receives that dispatcher's private tile-worker pool (null = serial);
/// `expire` is called instead when the deadline passes while the job is
/// still queued (on a dispatcher thread) or the queue is stopped (on the
/// thread calling stop()).
struct Job {
  std::uint64_t id = 0;
  /// time_point::max() = no deadline.
  std::chrono::steady_clock::time_point deadline =
      std::chrono::steady_clock::time_point::max();
  /// Stamped by offer() when the job is admitted.
  std::chrono::steady_clock::time_point admitted;
  std::function<void(util::ThreadPool*)> run;
  std::function<void(const std::string&)> expire;
};

/// offer() verdict.
struct Admission {
  bool accepted = false;
  /// Depth at admission (this job included) when accepted.
  std::uint32_t queue_depth = 0;
  /// Backpressure hint when rejected; 0 = do not retry (draining/stopped).
  std::uint32_t retry_after_ms = 0;
  std::string reason;
};

class AdmissionQueue {
 public:
  explicit AdmissionQueue(std::size_t capacity);

  /// Admit or reject `job` without blocking. Counts
  /// serve.requests.{accepted,rejected} and tracks serve.queue.depth.
  Admission offer(Job job);

  /// Blocks until a job is available; pops it into `out` and returns true.
  /// Jobs whose deadline has passed are expired here (their expire callback
  /// runs on the calling thread, counted as serve.requests.expired) rather
  /// than handed out. Returns false when the queue is stopped, or draining
  /// and empty — the dispatcher's signal to exit.
  bool take(Job& out);

  /// Freeze/unfreeze take(): while paused, dispatchers block without
  /// popping, but offer() admission is unchanged — the test hook that makes
  /// a deterministically full queue possible.
  void pause(bool on);

  /// Reject new offers; queued jobs still drain through take().
  void begin_drain();
  /// Reject new offers and unblock take() immediately, abandoning queued
  /// jobs: their expire callbacks run with reason "stopped" on the calling
  /// thread before stop() returns. Hard-stop path only; graceful shutdown
  /// uses begin_drain().
  void stop();

  std::size_t depth() const;
  std::size_t capacity() const { return capacity_; }
  bool draining() const;

 private:
  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Job> jobs_;
  bool draining_ = false;
  bool stopped_ = false;
  bool paused_ = false;
};

}  // namespace ecms::serve
