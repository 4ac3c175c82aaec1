#include "serve/queue.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"

namespace ecms::serve {

AdmissionQueue::AdmissionQueue(std::size_t capacity)
    : capacity_(std::max<std::size_t>(1, capacity)) {}

Admission AdmissionQueue::offer(Job job) {
  Admission a;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopped_ || draining_) {
      a.reason = stopped_ ? "stopped" : "draining";
      a.retry_after_ms = 0;
    } else if (jobs_.size() >= capacity_) {
      a.reason = "queue full (capacity " + std::to_string(capacity_) + ")";
      // Scale the hint with the backlog: deeper queue, longer backoff.
      a.retry_after_ms = static_cast<std::uint32_t>(
          std::min<std::size_t>(25 * (jobs_.size() + 1), 5000));
    } else {
      job.admitted = std::chrono::steady_clock::now();
      jobs_.push_back(std::move(job));
      a.accepted = true;
      a.queue_depth = static_cast<std::uint32_t>(jobs_.size());
      ECMS_METRIC_GAUGE_SET("serve.queue.depth", static_cast<std::int64_t>(jobs_.size()));
    }
  }
  if (a.accepted) {
    ECMS_METRIC_COUNT("serve.requests.accepted", 1);
    cv_.notify_one();
  } else {
    ECMS_METRIC_COUNT("serve.requests.rejected", 1);
  }
  return a;
}

bool AdmissionQueue::take(Job& out) {
  std::vector<std::pair<Job, const char*>> dropped;  // job, reason
  bool got = false;
  {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      if (paused_ && !stopped_) {
        cv_.wait(lock);
        continue;
      }
      // Expire dead-deadline jobs before handing anything out, so a stale
      // request never occupies a dispatcher slot.
      const auto now = std::chrono::steady_clock::now();
      while (!jobs_.empty() && jobs_.front().deadline <= now) {
        dropped.emplace_back(std::move(jobs_.front()), "deadline expired in queue");
        jobs_.pop_front();
      }
      if (stopped_) break;  // stop() already expired the backlog
      if (!jobs_.empty()) {
        out = std::move(jobs_.front());
        jobs_.pop_front();
        got = true;
        break;
      }
      if (draining_) break;  // empty + draining: dispatcher is done
      if (!dropped.empty()) break;  // deliver expirations before sleeping
      cv_.wait(lock);
    }
    ECMS_METRIC_GAUGE_SET("serve.queue.depth", static_cast<std::int64_t>(jobs_.size()));
  }
  for (auto& [job, reason] : dropped) {
    ECMS_METRIC_COUNT("serve.requests.expired", 1);
    if (job.expire) job.expire(reason);
  }
  if (!got && !dropped.empty()) return take(out);
  return got;
}

void AdmissionQueue::pause(bool on) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    paused_ = on;
  }
  cv_.notify_all();
}

void AdmissionQueue::begin_drain() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    draining_ = true;
  }
  cv_.notify_all();
}

void AdmissionQueue::stop() {
  std::deque<Job> abandoned;
  {
    std::lock_guard<std::mutex> lock(mu_);
    draining_ = true;
    stopped_ = true;
    abandoned.swap(jobs_);
    ECMS_METRIC_GAUGE_SET("serve.queue.depth", 0);
  }
  cv_.notify_all();
  // Hard stop abandons the backlog; expire it here, before returning, so
  // no accepted job vanishes without a word even when the caller tears
  // down its connections next.
  for (Job& job : abandoned) {
    ECMS_METRIC_COUNT("serve.requests.expired", 1);
    if (job.expire) job.expire("stopped");
  }
}

std::size_t AdmissionQueue::depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return jobs_.size();
}

bool AdmissionQueue::draining() const {
  std::lock_guard<std::mutex> lock(mu_);
  return draining_;
}

}  // namespace ecms::serve
