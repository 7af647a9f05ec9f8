// Tests for the scoped-span tracer: recording on/off, per-thread tids,
// JSON escaping, and the Chrome-trace JSON shape.

#include "util/trace.h"

#include <sstream>
#include <thread>

#include <gtest/gtest.h>

namespace simj::trace {
namespace {

TEST(TracerTest, DisabledSpansRecordNothing) {
  Tracer& tracer = Tracer::Global();
  tracer.Start();
  tracer.Stop();
  { ScopedSpan span("should_not_record", "test"); }
  EXPECT_EQ(tracer.event_count(), 0);
}

TEST(TracerTest, SpansRecordWhileEnabled) {
  Tracer& tracer = Tracer::Global();
  tracer.Start();
  { ScopedSpan span("outer", "test"); ScopedSpan inner("inner", "test"); }
  { ScopedSpan span("second", "test"); }
  tracer.Stop();
  EXPECT_EQ(tracer.event_count(), 3);
  { ScopedSpan span("after_stop", "test"); }
  EXPECT_EQ(tracer.event_count(), 3);
}

TEST(TracerTest, StartClearsPreviousEvents) {
  Tracer& tracer = Tracer::Global();
  tracer.Start();
  { ScopedSpan span("first_run", "test"); }
  tracer.Stop();
  EXPECT_EQ(tracer.event_count(), 1);
  tracer.Start();
  EXPECT_EQ(tracer.event_count(), 0);
  tracer.Stop();
}

TEST(TracerTest, ThreadsGetDistinctTraceIds) {
  int main_tid = ThisThreadTraceId();
  EXPECT_EQ(main_tid, ThisThreadTraceId());  // stable within a thread
  int worker_tid = -1;
  std::thread worker([&worker_tid] { worker_tid = ThisThreadTraceId(); });
  worker.join();
  EXPECT_NE(main_tid, worker_tid);
}

TEST(TracerTest, ChromeTraceJsonShape) {
  Tracer& tracer = Tracer::Global();
  tracer.Start();
  { ScopedSpan span("main_span", "join"); }
  std::thread worker([] { ScopedSpan span("worker_span", "verify"); });
  worker.join();
  tracer.Stop();

  std::ostringstream os;
  tracer.WriteChromeTrace(os);
  std::string json = os.str();

  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '\n');
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  // Both spans with their categories, as complete events.
  EXPECT_NE(json.find("\"name\":\"main_span\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"worker_span\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"join\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"verify\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  // Metadata so Perfetto labels the lanes.
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(json.find("process_name"), std::string::npos);
  EXPECT_NE(json.find("thread_name"), std::string::npos);
  EXPECT_NE(json.find("\"pid\":1"), std::string::npos);
}

TEST(TracerTest, WorkerSpanCarriesWorkerTid) {
  Tracer& tracer = Tracer::Global();
  tracer.Start();
  int worker_tid = -1;
  std::thread worker([&worker_tid] {
    worker_tid = ThisThreadTraceId();
    ScopedSpan span("tid_probe", "test");
  });
  worker.join();
  tracer.Stop();
  std::ostringstream os;
  tracer.WriteChromeTrace(os);
  std::string json = os.str();
  std::string expected =
      "\"tid\":" + std::to_string(worker_tid) + ",";
  size_t probe = json.find("\"name\":\"tid_probe\"");
  ASSERT_NE(probe, std::string::npos);
  // The tid field appears inside the same event object as the probe name.
  size_t event_end = json.find('}', probe);
  EXPECT_NE(json.substr(probe, event_end - probe).find(expected),
            std::string::npos)
      << json.substr(probe, event_end - probe);
}

TEST(TracerTest, RegisteredThreadNamesAppearInMetadata) {
  Tracer& tracer = Tracer::Global();
  tracer.Start();
  SetThisThreadName("main");
  { ScopedSpan span("named_main_span", "test"); }
  std::thread worker([] {
    SetThisThreadName("join-worker-probe");
    ScopedSpan span("named_worker_span", "test");
  });
  worker.join();
  tracer.Stop();

  std::ostringstream os;
  tracer.WriteChromeTrace(os);
  std::string json = os.str();
  EXPECT_NE(json.find("\"args\":{\"name\":\"main\"}"), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"name\":\"join-worker-probe\"}"),
            std::string::npos);
}

TEST(TracerTest, SetThisThreadNameIsNoOpWhileIdle) {
  Tracer& tracer = Tracer::Global();
  tracer.Stop();
  tracer.SetRecentRing(false);
  // Must not register a buffer (and must not crash) while both collectors
  // are off; nothing observable to assert beyond absence of new events.
  SetThisThreadName("idle-name");
  EXPECT_FALSE(tracer.collecting());
}

TEST(TracerTest, RecentRingKeepsLastSpansWithoutFullTrace) {
  Tracer& tracer = Tracer::Global();
  tracer.Start();  // clear events left over from earlier tests
  tracer.Stop();
  tracer.SetRecentRing(true);
  SetThisThreadName("ring-main");
  for (int i = 0; i < kRecentRingCapacity + 10; ++i) {
    ScopedSpan span("ring_span", "test");
  }
  tracer.SetRecentRing(false);

  // The full-trace collector stayed off.
  EXPECT_EQ(tracer.event_count(), 0);

  std::vector<RecentThreadSpans> recent = tracer.RecentSpans();
  int my_tid = ThisThreadTraceId();
  bool found = false;
  for (const RecentThreadSpans& thread : recent) {
    if (thread.tid != my_tid) continue;
    found = true;
    EXPECT_EQ(thread.name, "ring-main");
    EXPECT_EQ(static_cast<int>(thread.spans.size()), kRecentRingCapacity);
    for (const TraceEvent& span : thread.spans) {
      EXPECT_EQ(span.name, "ring_span");
      EXPECT_EQ(span.tid, my_tid);
    }
    // Oldest-first ordering.
    for (size_t i = 1; i < thread.spans.size(); ++i) {
      EXPECT_LE(thread.spans[i - 1].ts_us, thread.spans[i].ts_us);
    }
  }
  EXPECT_TRUE(found);
}

TEST(TracerTest, ReArmingRecentRingClearsStaleSpans) {
  Tracer& tracer = Tracer::Global();
  tracer.SetRecentRing(true);
  { ScopedSpan span("stale_span", "test"); }
  tracer.SetRecentRing(true);  // re-arm: discards the stale ring
  { ScopedSpan span("fresh_span", "test"); }
  tracer.SetRecentRing(false);

  int my_tid = ThisThreadTraceId();
  for (const RecentThreadSpans& thread : tracer.RecentSpans()) {
    if (thread.tid != my_tid) continue;
    ASSERT_EQ(thread.spans.size(), 1u);
    EXPECT_EQ(thread.spans[0].name, "fresh_span");
  }
}

// --- Cluster-trace features: process lanes, injection, thread capture ---

TEST(ClusterTraceTest, RegisteredProcessLanesEmitNamedMetadata) {
  Tracer& tracer = Tracer::Global();
  tracer.Start();
  tracer.RegisterProcessLane(2, "worker-0");
  tracer.RegisterProcessLane(3, "worker-1");
  TraceEvent remote;
  remote.name = "shard-0/attempt-0";
  remote.category = "shard";
  remote.pid = 3;
  remote.ts_us = 5.0;
  remote.dur_us = 2.0;
  tracer.InjectEvents({remote});
  tracer.Stop();

  std::ostringstream os;
  tracer.WriteChromeTrace(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"worker-0\""), std::string::npos);
  EXPECT_NE(json.find("\"worker-1\""), std::string::npos);
  // The injected event rides the registered lane.
  const size_t probe = json.find("\"name\":\"shard-0/attempt-0\"");
  ASSERT_NE(probe, std::string::npos);
  const size_t event_end = json.find('}', probe);
  EXPECT_NE(json.substr(probe, event_end - probe).find("\"pid\":3"),
            std::string::npos);
}

// Worker/process lane names come from user-facing strings in the cluster
// path, so the JSON writer must escape quotes, backslashes, and pass
// non-ASCII bytes through (UTF-8 is valid JSON as-is).
TEST(ClusterTraceTest, LaneAndEventNamesAreJsonEscaped) {
  Tracer& tracer = Tracer::Global();
  tracer.Start();
  tracer.RegisterProcessLane(2, "worker \"zero\"");
  tracer.RegisterProcessLane(3, "lane\\back");
  tracer.RegisterProcessLane(4, "wörker-ü");  // non-ASCII survives verbatim
  TraceEvent odd;
  odd.name = "span \"q\"\\x\n";
  odd.category = "c\\t";
  odd.pid = 2;
  tracer.InjectEvents({odd});
  tracer.Stop();

  std::ostringstream os;
  tracer.WriteChromeTrace(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"worker \\\"zero\\\"\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"lane\\\\back\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"wörker-ü\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"span \\\"q\\\"\\\\x\\n\""), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"cat\":\"c\\\\t\""), std::string::npos) << json;
  // No raw quote/backslash/newline leaked into any JSON string.
  EXPECT_EQ(json.find("worker \"zero\""), std::string::npos);
  EXPECT_EQ(json.find('\n'), json.size() - 1) << "embedded raw newline";
}

TEST(ClusterTraceTest, SpanContextIdsSerializeIntoArgs) {
  Tracer& tracer = Tracer::Global();
  tracer.Start();
  TraceEvent span;
  span.name = "ctx_span";
  span.category = "shard";
  span.pid = 2;
  span.trace_id = 7;
  span.span_id = 9;
  span.parent_span_id = 3;
  TraceEvent plain;
  plain.name = "plain_span";
  plain.category = "shard";
  tracer.InjectEvents({span, plain});
  tracer.Stop();

  std::ostringstream os;
  tracer.WriteChromeTrace(os);
  const std::string json = os.str();
  const size_t ctx = json.find("\"name\":\"ctx_span\"");
  ASSERT_NE(ctx, std::string::npos);
  const size_t ctx_end = json.find('}', json.find("\"args\"", ctx));
  const std::string ctx_event = json.substr(ctx, ctx_end - ctx);
  EXPECT_NE(ctx_event.find("\"trace_id\":\"7\""), std::string::npos)
      << ctx_event;
  EXPECT_NE(ctx_event.find("\"span_id\":\"9\""), std::string::npos);
  EXPECT_NE(ctx_event.find("\"parent_span_id\":\"3\""), std::string::npos);
  // Id-less events omit args entirely.
  const size_t p = json.find("\"name\":\"plain_span\"");
  ASSERT_NE(p, std::string::npos);
  EXPECT_EQ(json.substr(p, json.find('}', p) - p).find("\"args\""),
            std::string::npos);
}

TEST(ClusterTraceTest, ThreadCaptureDivertsSpansExclusively) {
  Tracer& tracer = Tracer::Global();
  tracer.Start();
  tracer.BeginThreadCapture();
  { ScopedSpan span("captured_span", "test"); }
  std::vector<TraceEvent> captured = tracer.EndThreadCapture();
  { ScopedSpan span("buffered_span", "test"); }
  tracer.Stop();

  ASSERT_EQ(captured.size(), 1u);
  EXPECT_EQ(captured[0].name, "captured_span");
  // The captured span did NOT also land in the shared buffers — injecting
  // it later is the only way it enters the trace (no double record).
  EXPECT_EQ(tracer.event_count(), 1);
  std::vector<TraceEvent> snapshot = tracer.SnapshotEvents();
  ASSERT_EQ(snapshot.size(), 1u);
  EXPECT_EQ(snapshot[0].name, "buffered_span");
}

// A forked process-transport worker inherits an arbitrary enabled_
// snapshot; the capture must record regardless of it.
TEST(ClusterTraceTest, ThreadCaptureRecordsWhileTracerDisabled) {
  Tracer& tracer = Tracer::Global();
  tracer.Start();
  tracer.Stop();  // tracer idle
  EXPECT_FALSE(tracer.enabled());
  tracer.BeginThreadCapture();
  EXPECT_TRUE(tracer.collecting());
  { ScopedSpan span("disabled_capture", "test"); }
  std::vector<TraceEvent> captured = tracer.EndThreadCapture();
  ASSERT_EQ(captured.size(), 1u);
  EXPECT_EQ(captured[0].name, "disabled_capture");
  EXPECT_EQ(tracer.event_count(), 0);
  // InjectEvents while disabled is a no-op (nothing to merge into).
  tracer.InjectEvents(std::move(captured));
  EXPECT_EQ(tracer.event_count(), 0);
}

TEST(ClusterTraceTest, StartClearsInjectedEventsAndLanes) {
  Tracer& tracer = Tracer::Global();
  tracer.Start();
  tracer.RegisterProcessLane(2, "stale-lane");
  TraceEvent stale;
  stale.name = "stale_injected";
  tracer.InjectEvents({stale});
  EXPECT_EQ(tracer.event_count(), 1);
  tracer.Start();  // re-arm: a new run starts from a clean slate
  EXPECT_EQ(tracer.event_count(), 0);
  tracer.Stop();
  std::ostringstream os;
  tracer.WriteChromeTrace(os);
  EXPECT_EQ(os.str().find("stale"), std::string::npos);
}

}  // namespace
}  // namespace simj::trace
