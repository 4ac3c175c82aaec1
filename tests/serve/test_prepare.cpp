// Arrays built ahead on the session thread: a live server prepares the
// array of at most `dispatchers` waiting extract requests while they queue,
// and every served result — whichever thread built its array — equals
// in-process extraction of the same spec. Drain loses no prepared job,
// stop() expires one with its error frame, and a request is counted before
// its result goes out.
#include <gtest/gtest.h>

#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bitmap/extraction.hpp"
#include "obs/metrics.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "serve/workload.hpp"
#include "util/crc32.hpp"

namespace ecms::serve {
namespace {

// Results go to clients that may already be gone (see test_protocol.cpp).
const bool g_sigpipe_ignored = [] {
  std::signal(SIGPIPE, SIG_IGN);
  return true;
}();

constexpr std::size_t kDispatchers = 2;

class ServePrepareLiveT : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::Registry::global().reset();
    obs::set_metrics_enabled(true);
    socket_path_ =
        "/tmp/ecms-serve-prepare-" + std::to_string(::getpid()) + ".sock";
    ServerConfig cfg;
    cfg.socket_path = socket_path_;
    cfg.queue_capacity = 16;
    cfg.dispatchers = kDispatchers;
    cfg.jobs = 1;
    server_ = std::make_unique<Server>(cfg);
    server_->start();
    std::string error;
    ASSERT_TRUE(client_.connect(socket_path_, &error)) << error;
  }
  void TearDown() override {
    client_.close();
    server_->stop();
    std::remove(socket_path_.c_str());
  }

  /// A fast-model 64x64 request in 4x4 tiles, one seed per id, with the
  /// default defect rates so status bytes vary.
  static ExtractSpec fast_spec(std::uint64_t id) {
    ExtractSpec spec;
    spec.request_id = id;
    spec.rows = 64;
    spec.cols = 64;
    spec.seed = 100 + id;
    spec.engine = 0;
    spec.tile_rows = 4;
    spec.tile_cols = 4;
    return spec;
  }

  /// Pauses dispatch and submits ids first..last from the fixture's one
  /// connection; each joins the queue one place deeper.
  void fill_paused(std::uint64_t first, std::uint64_t last) {
    server_->pause_dispatch();
    for (std::uint64_t id = first; id <= last; ++id) {
      const Client::Submission sub = client_.submit(fast_spec(id));
      ASSERT_TRUE(sub.accepted) << sub.reason;
      ASSERT_EQ(sub.queue_depth, id - first + 1);
    }
  }

  static std::uint64_t counter(const std::string& name) {
    const auto snap = obs::Registry::global().snapshot();
    const auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0 : it->second;
  }

  /// Every field of a served result against in-process extraction of the
  /// same spec on a freshly built array.
  static void expect_matches_in_process(const ExtractSpec& spec,
                                        const Client::Result& res) {
    SCOPED_TRACE("request " + std::to_string(spec.request_id));
    ASSERT_TRUE(res.ok) << res.error;
    const edram::MacroCell mc = build_array(array_spec_of(spec));
    const extraction::ExtractReport rep =
        extraction::extract(mc, request_of(spec));

    const std::vector<int>& codes = rep.bitmap.codes();
    ASSERT_EQ(res.codes.size(), codes.size());
    EXPECT_EQ(std::memcmp(res.codes.data(), codes.data(),
                          codes.size() * sizeof(int)),
              0);
    ASSERT_EQ(res.status.size(), rep.status.size());
    std::uint32_t ok = 0, recovered = 0, unmeasurable = 0;
    for (std::size_t i = 0; i < rep.status.size(); ++i) {
      EXPECT_EQ(res.status[i], static_cast<std::uint8_t>(rep.status[i]));
      if (rep.status[i] == CellStatus::kOk) ++ok;
      else if (rep.status[i] == CellStatus::kRecovered) ++recovered;
      else ++unmeasurable;
    }
    EXPECT_EQ(res.info.request_id, spec.request_id);
    EXPECT_EQ(res.info.rows, rep.bitmap.rows());
    EXPECT_EQ(res.info.cols, rep.bitmap.cols());
    EXPECT_EQ(res.info.ok, ok);
    EXPECT_EQ(res.info.recovered, recovered);
    EXPECT_EQ(res.info.unmeasurable, unmeasurable);
    EXPECT_EQ(res.info.transient_steps, rep.telemetry.transient_steps);
    EXPECT_EQ(res.info.conversion_steps, rep.telemetry.conversion_steps());
    EXPECT_EQ(res.info.code_hash,
              util::fnv1a64(codes.data(), codes.size() * sizeof(int)));
  }

  std::string socket_path_;
  std::unique_ptr<Server> server_;
  Client client_;
};

TEST_F(ServePrepareLiveT, AtMostDispatchersWaitingJobsArePreparedAhead) {
  // One connection's frames are handled in order, so each ack arrives after
  // the previous request's build: counts are final once submit returns.
  fill_paused(1, 6);
  EXPECT_EQ(counter("serve.requests.prepared_ahead"), kDispatchers);
  EXPECT_EQ(server_->queue_depth(), 6u);

  server_->resume_dispatch();
  for (std::uint64_t id = 1; id <= 6; ++id) {
    EXPECT_TRUE(client_.await_result(id).ok) << "request " << id;
  }
  EXPECT_EQ(counter("serve.requests.prepared_ahead"), kDispatchers);
  server_->wait_drained();
  EXPECT_EQ(server_->completed(), 6u);
}

TEST_F(ServePrepareLiveT, CountsAreFinalWhenTheResultArrives) {
  // A request is counted before its result frame is sent: a client that
  // holds result i reads i completions, from completed(), the counter and
  // the service-time histogram alike, with no wait in between.
  constexpr std::uint64_t kRequests = 40;
  for (std::uint64_t id = 1; id <= kRequests; ++id) {
    ASSERT_TRUE(client_.submit(fast_spec(id)).accepted);
    ASSERT_TRUE(client_.await_result(id).ok) << "request " << id;
    EXPECT_EQ(server_->completed(), id);
    EXPECT_EQ(counter("serve.requests.completed"), id);
    const auto snap = obs::Registry::global().snapshot();
    const auto it = snap.histograms.find("serve.request.service_seconds");
    ASSERT_NE(it, snap.histograms.end());
    EXPECT_EQ(it->second.count, id);
  }
  EXPECT_EQ(server_->failed(), 0u);
}

TEST_F(ServePrepareLiveT, ResultsEqualInProcessExtractWhoeverBuiltTheArray) {
  // Ids 1-2 are built on the session thread, 3-5 by their dispatchers.
  fill_paused(1, 5);
  server_->resume_dispatch();
  // Ids 6-9 arrive while dispatchers run: the session thread and the
  // dispatcher that takes a job race for its build.
  for (std::uint64_t id = 6; id <= 9; ++id) {
    ASSERT_TRUE(client_.submit(fast_spec(id)).accepted);
  }
  for (std::uint64_t id = 1; id <= 9; ++id) {
    expect_matches_in_process(fast_spec(id), client_.await_result(id));
  }
  EXPECT_GE(counter("serve.requests.prepared_ahead"), kDispatchers);
  EXPECT_EQ(server_->failed(), 0u);
}

TEST_F(ServePrepareLiveT, DrainWithPreparedJobsQueuedLosesNothing) {
  fill_paused(1, 4);
  ASSERT_EQ(counter("serve.requests.prepared_ahead"), kDispatchers);

  server_->begin_drain();
  const Client::Submission late = client_.submit(fast_spec(5));
  EXPECT_FALSE(late.accepted);
  EXPECT_EQ(late.retry_after_ms, 0u);

  server_->resume_dispatch();
  server_->wait_drained();
  for (std::uint64_t id = 1; id <= 4; ++id) {
    EXPECT_TRUE(client_.await_result(id).ok) << "request " << id;
  }
  EXPECT_EQ(server_->accepted(), 4u);
  EXPECT_EQ(server_->completed(), 4u);
  EXPECT_EQ(server_->failed(), 0u);
}

TEST_F(ServePrepareLiveT, StopExpiresPreparedQueuedJobsWithTheirErrorFrame) {
  fill_paused(1, 3);
  ASSERT_EQ(counter("serve.requests.prepared_ahead"), kDispatchers);

  server_->stop();
  for (std::uint64_t id = 1; id <= 3; ++id) {
    const Client::Result res = client_.await_result(id);
    EXPECT_FALSE(res.ok);
    EXPECT_NE(res.error.find("stopped"), std::string::npos)
        << "request " << id << ": " << res.error;
  }
  EXPECT_EQ(server_->completed(), 0u);
}

}  // namespace
}  // namespace ecms::serve
