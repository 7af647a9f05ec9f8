// Tests for the embedded introspection server (util/statusz.h): loopback
// GETs of all four endpoints, 404/405 handling, and a concurrent scrape
// during an 8-thread join (exercised under TSan by ci.sh) that must leave
// the join results byte-identical to a server-off run.
//
// The raw-socket HTTP client below is test-only; in src/ the lint rule
// no-raw-sockets confines socket calls to src/util/statusz.cc.

#include "util/statusz.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/join.h"
#include "core/progress.h"
#include "test_util.h"
#include "util/health.h"
#include "util/heap_profiler.h"
#include "util/metrics.h"
#include "util/run_record.h"
#include "util/trace.h"

namespace simj::statusz {
namespace {

using simj::testing::MakeRandomJoinWorkload;
using simj::testing::RandomJoinWorkload;

// Minimal blocking HTTP client: sends `request` verbatim to
// 127.0.0.1:port and returns everything the server wrote before closing.
std::string RawRequest(int port, const std::string& request) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return "";
  }
  size_t sent = 0;
  while (sent < request.size()) {
    ssize_t n = ::send(fd, request.data() + sent, request.size() - sent, 0);
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
  }
  std::string response;
  char chunk[2048];
  ssize_t n;
  while ((n = ::recv(fd, chunk, sizeof(chunk), 0)) > 0) {
    response.append(chunk, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

std::string Get(int port, const std::string& path) {
  return RawRequest(port, "GET " + path + " HTTP/1.0\r\n\r\n");
}

// Body after the blank line separating HTTP headers.
std::string BodyOf(const std::string& response) {
  size_t split = response.find("\r\n\r\n");
  return split == std::string::npos ? "" : response.substr(split + 4);
}

class StatuszTest : public ::testing::Test {
 protected:
  void StartServer(std::vector<Section> sections = {}) {
    Server::Options options;
    options.port = 0;  // kernel-assigned; the harness "0 = off" rule is
                       // flag-level policy, not the server's
    options.sections = std::move(sections);
    ASSERT_TRUE(server_.Start(options).ok());
    ASSERT_GT(server_.bound_port(), 0);
  }

  Server server_;
};

TEST_F(StatuszTest, HealthzAnswersOk) {
  health::ResetForTesting();
  StartServer();
  std::string response = Get(server_.bound_port(), "/healthz");
  EXPECT_NE(response.find("HTTP/1.0 200 OK"), std::string::npos) << response;
  EXPECT_NE(response.find("Connection: close"), std::string::npos);
  EXPECT_NE(response.find("Content-Type: application/json"),
            std::string::npos);
  EXPECT_EQ(BodyOf(response), "{\"status\":\"ok\"}\n");
}

TEST_F(StatuszTest, HealthzReportsDegradedWithReasons) {
  health::ResetForTesting();
  StartServer();
  health::SetUnhealthy("stall_watchdog", "worker 3 stalled for 1200 ms");
  health::SetUnhealthy("dist_worker_1", "died on shard 4; not yet restarted");
  std::string body = BodyOf(Get(server_.bound_port(), "/healthz"));
  EXPECT_NE(body.find("\"status\":\"degraded\""), std::string::npos) << body;
  // Components are listed sorted, "; "-joined, each as "<component>: <why>".
  EXPECT_NE(body.find("dist_worker_1: died on shard 4; not yet restarted"),
            std::string::npos)
      << body;
  EXPECT_NE(body.find("stall_watchdog: worker 3 stalled for 1200 ms"),
            std::string::npos)
      << body;

  // Clearing one component keeps the other's reason; clearing both
  // restores "ok" — the recovered-worker / restarted-watchdog path.
  health::SetHealthy("stall_watchdog");
  body = BodyOf(Get(server_.bound_port(), "/healthz"));
  EXPECT_NE(body.find("\"status\":\"degraded\""), std::string::npos) << body;
  EXPECT_EQ(body.find("stall_watchdog"), std::string::npos) << body;
  health::SetHealthy("dist_worker_1");
  EXPECT_EQ(BodyOf(Get(server_.bound_port(), "/healthz")),
            "{\"status\":\"ok\"}\n");
}

TEST_F(StatuszTest, RegisteredEndpointIsServedAndReplaceable) {
  StartServer();
  RegisterEndpoint({"/probez", "application/json",
                    [] { return std::string("{\"v\":1}\n"); }});
  std::string response = Get(server_.bound_port(), "/probez");
  EXPECT_NE(response.find("HTTP/1.0 200 OK"), std::string::npos) << response;
  EXPECT_NE(response.find("Content-Type: application/json"),
            std::string::npos);
  EXPECT_EQ(BodyOf(response), "{\"v\":1}\n");

  // Re-registering the same path replaces the handler (idempotent setup
  // for per-run endpoints like /clusterz).
  RegisterEndpoint({"/probez", "application/json",
                    [] { return std::string("{\"v\":2}\n"); }});
  EXPECT_EQ(BodyOf(Get(server_.bound_port(), "/probez")), "{\"v\":2}\n");
}

TEST_F(StatuszTest, MetricszServesExpositionWithBuildInfo) {
  run_record::PublishBuildInfoMetric();
  metrics::Registry::Global().GetCounter("statusz_test_counter").Add(3);
  StartServer();
  std::string response = Get(server_.bound_port(), "/metricsz");
  EXPECT_NE(response.find("Content-Type: text/plain; version=0.0.4"),
            std::string::npos);
  std::string body = BodyOf(response);
  EXPECT_NE(body.find("# TYPE simj_build_info gauge"), std::string::npos);
  EXPECT_NE(body.find("simj_build_info{git_sha="), std::string::npos);
  EXPECT_NE(body.find("statusz_test_counter 3"), std::string::npos);
}

TEST_F(StatuszTest, StatuszCarriesBuildInfoAndSections) {
  StartServer({{"join", [] { return std::string("{\"probe\":42}"); }}});
  std::string response = Get(server_.bound_port(), "/statusz");
  EXPECT_NE(response.find("Content-Type: application/json"),
            std::string::npos);
  std::string body = BodyOf(response);
  EXPECT_NE(body.find("\"git_sha\":"), std::string::npos) << body;
  EXPECT_NE(body.find("\"build_type\":"), std::string::npos);
  EXPECT_NE(body.find("\"uptime_seconds\":"), std::string::npos);
  EXPECT_NE(body.find("\"rss_bytes\":"), std::string::npos);
  EXPECT_NE(body.find("\"join\":{\"probe\":42}"), std::string::npos) << body;
}

TEST_F(StatuszTest, TracezListsRecentSpans) {
  StartServer();  // Start() arms the recent-span ring
  trace::SetThisThreadName("statusz-test-main");
  { trace::ScopedSpan span("tracez_probe_span", "test"); }
  std::string body = BodyOf(Get(server_.bound_port(), "/tracez"));
  EXPECT_NE(body.find("\"threads\":["), std::string::npos) << body;
  EXPECT_NE(body.find("\"name\":\"tracez_probe_span\""), std::string::npos)
      << body;
  EXPECT_NE(body.find("\"statusz-test-main\""), std::string::npos) << body;
}

TEST_F(StatuszTest, UnknownPathIs404) {
  StartServer();
  EXPECT_NE(Get(server_.bound_port(), "/nope").find("HTTP/1.0 404"),
            std::string::npos);
}

TEST_F(StatuszTest, NonGetIs405) {
  StartServer();
  std::string response =
      RawRequest(server_.bound_port(), "POST /healthz HTTP/1.0\r\n\r\n");
  EXPECT_NE(response.find("HTTP/1.0 405"), std::string::npos) << response;
}

TEST_F(StatuszTest, MalformedRequestLineIs400) {
  StartServer();
  std::string response = RawRequest(server_.bound_port(), "garbage\r\n\r\n");
  EXPECT_NE(response.find("HTTP/1.0 400"), std::string::npos) << response;
}

TEST_F(StatuszTest, StopIsIdempotentAndRestartable) {
  StartServer();
  int first_port = server_.bound_port();
  EXPECT_GT(first_port, 0);
  server_.Stop();
  server_.Stop();  // second stop is a no-op
  EXPECT_FALSE(server_.running());
  ASSERT_TRUE(server_.Start(Server::Options{}).ok());
  EXPECT_TRUE(server_.running());
}

TEST_F(StatuszTest, DoubleStartFails) {
  StartServer();
  EXPECT_FALSE(server_.Start(Server::Options{}).ok());
}

TEST_F(StatuszTest, ConcurrentScrapeDuringJoinLeavesResultsIdentical) {
  RandomJoinWorkload w = MakeRandomJoinWorkload(
      21, {.num_certain = 8, .num_uncertain = 8});
  core::SimJParams params;
  params.tau = 2;
  params.alpha = 0.3;
  params.group_count = 2;
  params.num_threads = 8;
  params.slow_pair_log_ms = 0.0;

  // Baseline: no server.
  core::JoinResult baseline = core::SimJoin(w.d, w.u, params, w.dict);

  StartServer({{"join", [] {
                  return core::JoinProgress::Global().StatusJson();
                }}});
  const int port = server_.bound_port();

  std::atomic<bool> stop{false};
  std::thread scraper([&] {
    while (!stop.load(std::memory_order_acquire)) {
      std::string status = Get(port, "/statusz");
      EXPECT_NE(status.find("\"join\":{"), std::string::npos);
      EXPECT_NE(Get(port, "/metricsz").find("# TYPE"), std::string::npos);
      EXPECT_NE(Get(port, "/tracez").find("\"threads\""), std::string::npos);
      EXPECT_NE(BodyOf(Get(port, "/healthz")), "");
    }
  });
  core::JoinResult live = core::SimJoin(w.d, w.u, params, w.dict);
  stop.store(true, std::memory_order_release);
  scraper.join();

  ASSERT_EQ(baseline.pairs.size(), live.pairs.size());
  for (size_t i = 0; i < baseline.pairs.size(); ++i) {
    EXPECT_EQ(baseline.pairs[i].q_index, live.pairs[i].q_index);
    EXPECT_EQ(baseline.pairs[i].g_index, live.pairs[i].g_index);
    EXPECT_EQ(baseline.pairs[i].similarity_probability,
              live.pairs[i].similarity_probability);
    EXPECT_EQ(baseline.pairs[i].mapping, live.pairs[i].mapping);
  }
  EXPECT_EQ(baseline.stats.results, live.stats.results);
  EXPECT_EQ(baseline.stats.candidates, live.stats.candidates);
}

TEST_F(StatuszTest, ProfilezScrapeMidJoinLeavesResultsByteIdentical) {
  RandomJoinWorkload w = MakeRandomJoinWorkload(
      22, {.num_certain = 8, .num_uncertain = 8});
  core::SimJParams params;
  params.tau = 2;
  params.alpha = 0.3;
  params.group_count = 2;
  params.num_threads = 8;
  params.slow_pair_log_ms = 0.0;

  // Baseline: no server, no profiler.
  core::JoinResult baseline = core::SimJoin(w.d, w.u, params, w.dict);

  StartServer();
  trace::SetThisThreadName("statusz-test-main");  // registers a thread so
                                                  // /profilez can arm
  const int port = server_.bound_port();

  // Scrape /profilez repeatedly while the join runs on 8 threads. Each
  // capture arms the real SIGPROF machinery against the join workers; the
  // join results must not notice. Builds where arming is refused (TSan)
  // answer 503 — the scrape must still be harmless.
  std::atomic<bool> stop{false};
  std::atomic<int> captures{0};
  std::thread scraper([&] {
    while (!stop.load(std::memory_order_acquire)) {
      std::string response =
          Get(port, "/profilez?seconds=0.05&hz=500&format=json");
      if (response.find("HTTP/1.0 200 OK") != std::string::npos) {
        EXPECT_NE(BodyOf(response).find("\"schema\":\"simj_profile_v1\""),
                  std::string::npos)
            << response;
        captures.fetch_add(1, std::memory_order_relaxed);
      } else {
        // 503: profiler refused (sanitizer build). 409 cannot happen —
        // this is the only caller — but either way never a crash.
        EXPECT_NE(response.find("HTTP/1.0 503"), std::string::npos)
            << response;
      }
    }
  });
  core::JoinResult live = core::SimJoin(w.d, w.u, params, w.dict);
  stop.store(true, std::memory_order_release);
  scraper.join();

  ASSERT_EQ(baseline.pairs.size(), live.pairs.size());
  for (size_t i = 0; i < baseline.pairs.size(); ++i) {
    EXPECT_EQ(baseline.pairs[i].q_index, live.pairs[i].q_index);
    EXPECT_EQ(baseline.pairs[i].g_index, live.pairs[i].g_index);
    EXPECT_EQ(baseline.pairs[i].similarity_probability,
              live.pairs[i].similarity_probability);
    EXPECT_EQ(baseline.pairs[i].mapping, live.pairs[i].mapping);
  }
  EXPECT_EQ(baseline.stats.results, live.stats.results);
  EXPECT_EQ(baseline.stats.candidates, live.stats.candidates);
}

// Both sampling profilers armed at once, mid-join: /profilez (SIGPROF
// machinery) and the heap profiler (operator new/delete countdown
// sampling) are independent subsystems, so captures must succeed — or
// answer a clean 409/503 — while the heap hooks sample every join thread,
// and the join must stay byte-identical.
TEST_F(StatuszTest, ProfilezWithHeapProfilerArmedMidJoinStaysByteIdentical) {
  RandomJoinWorkload w = MakeRandomJoinWorkload(
      22, {.num_certain = 8, .num_uncertain = 8});
  core::SimJParams params;
  params.tau = 2;
  params.alpha = 0.3;
  params.group_count = 2;
  params.num_threads = 8;
  params.slow_pair_log_ms = 0.0;

  // Baseline: no server, neither profiler.
  core::JoinResult baseline = core::SimJoin(w.d, w.u, params, w.dict);

  StartServer();
  trace::SetThisThreadName("statusz-test-main");
  const int port = server_.bound_port();

  // Sanitizer builds refuse to arm the heap hooks; the join then runs
  // with the CPU profiler alone.
  const bool heap_armed =
      heapprof::StartHeapProfiling(heapprof::HeapProfileOptions{4096}).ok();
  std::atomic<bool> stop{false};
  std::thread scraper([&] {
    while (!stop.load(std::memory_order_acquire)) {
      std::string response =
          Get(port, "/profilez?seconds=0.05&hz=500&format=json");
      if (response.find("HTTP/1.0 200 OK") != std::string::npos) {
        EXPECT_NE(BodyOf(response).find("\"schema\":\"simj_profile_v1\""),
                  std::string::npos)
            << response;
      } else {
        // 503: the profiler refused to arm (sanitizer build). 409: a
        // previous capture still draining. Either is a clean refusal,
        // never a crash or a corrupted join.
        EXPECT_TRUE(
            response.find("HTTP/1.0 503") != std::string::npos ||
            response.find("HTTP/1.0 409") != std::string::npos)
            << response;
      }
    }
  });
  core::JoinResult live = core::SimJoin(w.d, w.u, params, w.dict);
  stop.store(true, std::memory_order_release);
  scraper.join();
  if (heap_armed) {
    StatusOr<heapprof::HeapProfile> heap = heapprof::StopHeapProfiling();
    ASSERT_TRUE(heap.ok()) << heap.status().ToString();
    EXPECT_GT(heap->TotalAllocObjects(), 0);
  }

  ASSERT_EQ(baseline.pairs.size(), live.pairs.size());
  for (size_t i = 0; i < baseline.pairs.size(); ++i) {
    EXPECT_EQ(baseline.pairs[i].q_index, live.pairs[i].q_index);
    EXPECT_EQ(baseline.pairs[i].g_index, live.pairs[i].g_index);
    EXPECT_EQ(baseline.pairs[i].similarity_probability,
              live.pairs[i].similarity_probability);
    EXPECT_EQ(baseline.pairs[i].mapping, live.pairs[i].mapping);
  }
  EXPECT_EQ(baseline.stats.results, live.stats.results);
  EXPECT_EQ(baseline.stats.candidates, live.stats.candidates);
}

TEST_F(StatuszTest, ProfilezValidatesItsQuery) {
  StartServer();
  const int port = server_.bound_port();
  // Unparseable parameters are a client error, not a capture attempt.
  EXPECT_NE(Get(port, "/profilez?seconds=abc").find("HTTP/1.0 400"),
            std::string::npos);
  EXPECT_NE(Get(port, "/profilez?hz=abc").find("HTTP/1.0 400"),
            std::string::npos);
  EXPECT_NE(Get(port, "/profilez?format=yaml").find("HTTP/1.0 400"),
            std::string::npos);
  // strtod parses "nan", which no clamp can bound.
  EXPECT_NE(Get(port, "/profilez?seconds=nan").find("HTTP/1.0 400"),
            std::string::npos);
  // /profilez is the only on-demand capture; there is no heap endpoint.
  EXPECT_NE(Get(port, "/heapz").find("HTTP/1.0 404"), std::string::npos);
  // Query strings never leak into path matching for the other endpoints.
  EXPECT_NE(Get(port, "/healthz?x=1").find("HTTP/1.0 200"),
            std::string::npos);
}

}  // namespace
}  // namespace simj::statusz
