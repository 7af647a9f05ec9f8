// Tests for the live join-progress tracker (core/progress.h): monotone
// counters under a concurrent sampler, ETA math, the stall watchdog on a
// deliberately-parked worker, the pair-time budget's completion log on a
// real join, byte-identical join results with the introspection machinery
// armed vs. idle, and a thread-name registry that forgets exited join
// threads.

#include "core/progress.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <iterator>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/join.h"
#include "test_util.h"
#include "util/log.h"
#include "util/metrics.h"
#include "util/stack_profile.h"

namespace simj::core {
namespace {

using simj::testing::MakeRandomJoinWorkload;
using simj::testing::RandomJoinWorkload;

SimJParams BaseParams() {
  SimJParams params;
  params.tau = 2;
  params.alpha = 0.3;
  params.group_count = 2;
  params.slow_pair_log_ms = 0.0;  // keep the per-pair watchdog out of the way
  return params;
}

JoinResult RunJoin(const RandomJoinWorkload& w, const SimJParams& params) {
  return SimJoin(w.d, w.u, params, w.dict);
}

void ExpectSameResults(const JoinResult& a, const JoinResult& b) {
  ASSERT_EQ(a.pairs.size(), b.pairs.size());
  for (size_t i = 0; i < a.pairs.size(); ++i) {
    EXPECT_EQ(a.pairs[i].q_index, b.pairs[i].q_index);
    EXPECT_EQ(a.pairs[i].g_index, b.pairs[i].g_index);
    EXPECT_EQ(a.pairs[i].similarity_probability,
              b.pairs[i].similarity_probability);
    EXPECT_EQ(a.pairs[i].mapping, b.pairs[i].mapping);
    EXPECT_EQ(a.pairs[i].best_world_ged, b.pairs[i].best_world_ged);
  }
  EXPECT_EQ(a.stats.total_pairs, b.stats.total_pairs);
  EXPECT_EQ(a.stats.pruned_structural, b.stats.pruned_structural);
  EXPECT_EQ(a.stats.pruned_probabilistic, b.stats.pruned_probabilistic);
  EXPECT_EQ(a.stats.candidates, b.stats.candidates);
  EXPECT_EQ(a.stats.results, b.stats.results);
  EXPECT_EQ(a.stats.verify.worlds_enumerated, b.stats.verify.worlds_enumerated);
  EXPECT_EQ(a.stats.verify.ged_calls, b.stats.verify.ged_calls);
}

TEST(EtaTest, EtaSecondsMath) {
  EXPECT_EQ(JoinProgress::EtaSeconds(0, 5.0), 0.0);    // done
  EXPECT_EQ(JoinProgress::EtaSeconds(-3, 5.0), 0.0);   // clamped
  EXPECT_EQ(JoinProgress::EtaSeconds(100, 0.0), -1.0);  // no throughput yet
  EXPECT_EQ(JoinProgress::EtaSeconds(100, -2.0), -1.0);
  EXPECT_DOUBLE_EQ(JoinProgress::EtaSeconds(100, 50.0), 2.0);
  EXPECT_DOUBLE_EQ(JoinProgress::EtaSeconds(1, 4.0), 0.25);
}

TEST(ProgressTest, SnapshotCountsMatchJoinStats) {
  RandomJoinWorkload w = MakeRandomJoinWorkload(11);
  SimJParams params = BaseParams();
  JoinResult result = RunJoin(w, params);

  // The join finished; the tracker still holds its baselines, so the
  // deltas must equal the join's own stats.
  ProgressSnapshot s = JoinProgress::Global().Snapshot();
  EXPECT_FALSE(s.active);
  EXPECT_EQ(s.total_pairs, result.stats.total_pairs);
  EXPECT_EQ(s.completed_pairs, result.stats.total_pairs);
  EXPECT_EQ(s.pruned_structural, result.stats.pruned_structural);
  EXPECT_EQ(s.pruned_probabilistic, result.stats.pruned_probabilistic);
  EXPECT_EQ(s.candidates, result.stats.candidates);
  EXPECT_EQ(s.results, result.stats.results);
  EXPECT_GE(s.elapsed_seconds, 0.0);
}

TEST(ProgressTest, MonotoneCountersUnderConcurrentSampler) {
  RandomJoinWorkload w = MakeRandomJoinWorkload(
      12, {.num_certain = 8, .num_uncertain = 8});
  SimJParams params = BaseParams();
  params.num_threads = 8;

  std::atomic<bool> stop{false};
  std::vector<ProgressSnapshot> samples;
  std::thread sampler([&] {
    while (!stop.load(std::memory_order_acquire)) {
      samples.push_back(JoinProgress::Global().Snapshot());
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  });
  JoinResult result = RunJoin(w, params);
  stop.store(true, std::memory_order_release);
  sampler.join();

  const int64_t join_id = JoinProgress::Global().Snapshot().joins_started;
  int64_t previous = 0;
  for (const ProgressSnapshot& s : samples) {
    if (s.joins_started != join_id) continue;  // before the join began
    EXPECT_GE(s.completed_pairs, previous);
    EXPECT_LE(s.completed_pairs, s.total_pairs);
    EXPECT_GE(s.completed_pairs,
              s.pruned_structural + s.pruned_probabilistic);
    previous = s.completed_pairs;
  }
  EXPECT_EQ(result.stats.total_pairs, 64);
}

TEST(ProgressTest, StallWatchdogFlagsParkedWorker) {
  JoinProgress& progress = JoinProgress::Global();
  progress.BeginJoin(/*total_pairs=*/10, /*workers=*/2);

  // Park worker 0 inside pair <3,7>: beat once, then go silent.
  progress.Heartbeat(0, 3, 7, std::chrono::steady_clock::now());
  std::this_thread::sleep_for(std::chrono::milliseconds(5));

  std::vector<StallEvent> events = progress.CheckStalls(/*budget_ms=*/1.0);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].worker, 0);
  EXPECT_EQ(events[0].q_index, 3);
  EXPECT_EQ(events[0].g_index, 7);
  EXPECT_GT(events[0].stalled_ms, 1.0);

  // The same stalled heartbeat is never reported twice.
  EXPECT_TRUE(progress.CheckStalls(1.0).empty());

  // A fresh pair re-arms detection for that worker.
  progress.Heartbeat(0, 4, 8, std::chrono::steady_clock::now());
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  events = progress.CheckStalls(1.0);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].q_index, 4);

  // An idle worker (pair done, heartbeat cleared) never reads as stalled.
  progress.PairDone(0);
  std::this_thread::sleep_for(std::chrono::milliseconds(3));
  EXPECT_TRUE(progress.CheckStalls(1.0).empty());
  progress.EndJoin();
}

TEST(ProgressTest, RequeuedShardNeverRegressesCompletionOrEta) {
  // The distributed join requeues shards abandoned by dead workers: the
  // pairs a worker evaluated before dying stay in the registry counters,
  // and the re-execution counts them again. The tracker must present that
  // overshoot as "done", never as >100% completion or a negative ETA.
  JoinProgress& progress = JoinProgress::Global();
  metrics::Counter& pairs =
      metrics::Registry::Global().GetCounter("simj_join_pairs_total");
  progress.BeginJoin(/*total_pairs=*/10, /*workers=*/2);

  // Worker 1 completes 6 of its shard's pairs, then dies mid-shard.
  progress.Heartbeat(1, 0, 0, std::chrono::steady_clock::now());
  pairs.Add(6);
  ProgressSnapshot before = progress.Snapshot();
  EXPECT_EQ(before.completed_pairs, 6);
  EXPECT_LE(before.completed_pairs, before.total_pairs);

  // The coordinator requeues the dead worker's shard; worker 0 re-runs it
  // from the start. 3 pairs the dead worker already counted are counted
  // again, then the remaining 7: the registry delta lands at 16 > 10.
  progress.PairDone(1);
  progress.Heartbeat(0, 0, 0, std::chrono::steady_clock::now());
  pairs.Add(3);
  pairs.Add(7);
  progress.PairDone(0);

  ProgressSnapshot after = progress.Snapshot();
  EXPECT_GE(after.completed_pairs, before.completed_pairs)
      << "completion regressed across a requeue";
  EXPECT_EQ(after.completed_pairs, after.total_pairs)
      << "overshoot must clamp to the planned total";
  EXPECT_GE(after.eta_seconds, 0.0)
      << "a fully-complete join must not report a negative ETA";
  EXPECT_DOUBLE_EQ(after.eta_seconds, 0.0);
  progress.EndJoin();
}

TEST(ProgressTest, HeartbeatsAppearInSnapshotDuringJoin) {
  JoinProgress& progress = JoinProgress::Global();
  progress.BeginJoin(10, 2);
  progress.Heartbeat(1, 5, 6, std::chrono::steady_clock::now());
  ProgressSnapshot s = progress.Snapshot();
  ASSERT_EQ(s.heartbeats.size(), 1u);
  EXPECT_EQ(s.heartbeats[0].worker, 1);
  EXPECT_EQ(s.heartbeats[0].q_index, 5);
  EXPECT_EQ(s.heartbeats[0].g_index, 6);
  EXPECT_GE(s.heartbeats[0].age_ms, 0.0);
  progress.PairDone(1);
  EXPECT_TRUE(progress.Snapshot().heartbeats.empty());
  progress.EndJoin();
}

TEST(ProgressTest, StatusJsonCarriesProgressFields) {
  JoinProgress& progress = JoinProgress::Global();
  progress.BeginJoin(10, 2);
  progress.Heartbeat(0, 1, 2, std::chrono::steady_clock::now());
  std::string json = progress.StatusJson();
  EXPECT_NE(json.find("\"active\":true"), std::string::npos) << json;
  EXPECT_NE(json.find("\"total_pairs\":10"), std::string::npos) << json;
  EXPECT_NE(json.find("\"completed_pairs\":"), std::string::npos) << json;
  EXPECT_NE(json.find("\"eta_seconds\":"), std::string::npos) << json;
  EXPECT_NE(json.find("\"heartbeats\":[{\"worker\":0,"), std::string::npos)
      << json;
  progress.EndJoin();
  EXPECT_NE(progress.StatusJson().find("\"active\":false"),
            std::string::npos);
}

TEST(ProgressTest, ProgressEveryLogsRateLimitedLines) {
  auto sink = std::make_unique<log::CaptureSink>();
  log::CaptureSink* capture = sink.get();
  auto previous = log::SetSink(std::move(sink));

  RandomJoinWorkload w = MakeRandomJoinWorkload(13);
  SimJParams params = BaseParams();
  params.progress_every = 1;
  JoinResult result = RunJoin(w, params);
  EXPECT_GT(result.stats.total_pairs, 0);

  int progress_lines = 0;
  for (const log::Entry& entry : capture->Entries()) {
    if (entry.message.find("join progress:") != std::string::npos) {
      ++progress_lines;
      EXPECT_EQ(entry.level, log::Level::kInfo);
    }
  }
  // The first eligible completion always logs; later ones are rate-limited
  // to one line per 100 ms, so a fast join may produce exactly one.
  EXPECT_GE(progress_lines, 1);
  log::SetSink(std::move(previous));
}

// A progress line counts the pairs this tracker has seen, not the
// registry's published batches: the first line of a serial join with
// progress_every = 1 reports exactly one pair, although no batch has been
// published yet.
TEST(ProgressTest, ProgressLineCountsEveryCompletedPair) {
  auto sink = std::make_unique<log::CaptureSink>();
  log::CaptureSink* capture = sink.get();
  auto previous = log::SetSink(std::move(sink));

  RandomJoinWorkload w = MakeRandomJoinWorkload(13);
  SimJParams params = BaseParams();
  params.progress_every = 1;
  JoinResult result = RunJoin(w, params);

  const std::string first =
      "join progress: 1/" + std::to_string(result.stats.total_pairs) +
      " pairs";
  bool found = false;
  for (const log::Entry& entry : capture->Entries()) {
    if (entry.message.find("join progress:") == std::string::npos) continue;
    EXPECT_EQ(entry.message.rfind(first, 0), 0u) << entry.message;
    found = true;
    break;
  }
  EXPECT_TRUE(found);
  log::SetSink(std::move(previous));
}

// At the smallest positive budget every pair that reaches the CSS filter
// (all but the count-bound prunes) blows it: the completion log names each
// such pair exactly once, in a "slow pair:" WARN, the counter agrees, and
// the results are those of a run with the budget off.
TEST(ProgressTest, PairBudgetLogsEveryPairPastTheCountBound) {
  RandomJoinWorkload w = MakeRandomJoinWorkload(14);
  metrics::Counter& slow_pairs =
      metrics::Registry::Global().GetCounter("simj_join_slow_pairs_total");
  for (int threads : {1, 2}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    SimJParams params = BaseParams();
    params.num_threads = threads;
    const JoinResult off = RunJoin(w, params);

    auto sink = std::make_unique<log::CaptureSink>();
    log::CaptureSink* capture = sink.get();
    auto previous = log::SetSink(std::move(sink));
    const int64_t slow_before = slow_pairs.Value();
    params.slow_pair_log_ms = std::numeric_limits<double>::min();
    const JoinResult on = RunJoin(w, params);
    const int64_t counted = slow_pairs.Value() - slow_before;
    const std::vector<log::Entry> entries = capture->Entries();
    log::SetSink(std::move(previous));

    std::set<std::pair<int, int>> logged;
    int64_t lines = 0;
    for (const log::Entry& entry : entries) {
      if (entry.message.rfind("slow pair: ", 0) != 0) continue;
      ++lines;
      EXPECT_EQ(entry.level, log::Level::kWarn);
      int q = -1;
      int g = -1;
      const size_t at = entry.message.find("<q=");
      ASSERT_NE(at, std::string::npos) << entry.message;
      ASSERT_EQ(std::sscanf(entry.message.c_str() + at, "<q=%d,g=%d>", &q, &g),
                2)
          << entry.message;
      EXPECT_TRUE(logged.insert({q, g}).second)
          << "pair <" << q << "," << g << "> logged twice";
    }
    const int64_t reached_css =
        on.stats.total_pairs - on.stats.pruned_count_bound;
    EXPECT_GT(reached_css, 0);
    EXPECT_EQ(lines, reached_css);
    EXPECT_EQ(counted, reached_css);
    ExpectSameResults(off, on);
  }
}

TEST(ProgressTest, ResultsByteIdenticalWithIntrospectionArmed) {
  RandomJoinWorkload w = MakeRandomJoinWorkload(
      15, {.num_certain = 6, .num_uncertain = 6});
  for (int threads : {1, 2, 8}) {
    SimJParams params = BaseParams();
    params.num_threads = threads;
    params.explain.enabled = true;  // explain output must match too
    JoinResult plain = RunJoin(w, params);

    // The budget fires on every pair, on completion and live.
    auto previous = log::SetSink(std::make_unique<log::CaptureSink>());
    SimJParams armed = params;
    armed.slow_pair_log_ms = std::numeric_limits<double>::min();
    armed.progress_every = 7;
    JoinResult live = RunJoin(w, armed);
    log::SetSink(std::move(previous));

    ExpectSameResults(plain, live);
    ASSERT_EQ(plain.explains.size(), live.explains.size());
    for (size_t i = 0; i < plain.explains.size(); ++i) {
      EXPECT_EQ(FormatExplain(plain.explains[i], params),
                FormatExplain(live.explains[i], armed))
          << "explain " << i << " diverged at threads=" << threads;
    }
  }
}

// Join workers and the budget's monitor thread name themselves for the
// profilers. With no capture armed, a name goes when its thread exits, so
// the registry never holds more names than the process has threads.
TEST(ThreadNameRegistryTest, ForgetsExitedJoinThreads) {
  RandomJoinWorkload w = MakeRandomJoinWorkload(
      16, {.num_certain = 2, .num_uncertain = 2});
  SimJParams params = BaseParams();
  params.num_threads = 4;
  params.slow_pair_log_ms = 1000.0;
  for (int join = 0; join < 200; ++join) (void)RunJoin(w, params);
  const auto live_threads = std::distance(
      std::filesystem::directory_iterator("/proc/self/task"),
      std::filesystem::directory_iterator());
  EXPECT_LE(static_cast<long>(stackprof::ThreadNames().size()),
            static_cast<long>(live_threads));
}

// The destructor wakes the monitor thread from its poll wait: an armed
// monitor whose poll interval is 200 ms stops in well under that.
TEST(ProgressTest, StallMonitorStopsPromptly) {
  auto monitor =
      std::make_unique<StallMonitor>(/*budget_ms=*/1000.0, "stall-test");
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const auto start = std::chrono::steady_clock::now();
  monitor.reset();
  const double stop_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  EXPECT_LT(stop_ms, 100.0);
}

}  // namespace
}  // namespace simj::core
