// Tests for the coordinator flight recorder (util/flight_recorder.h) and
// its replay checker (dist/clusterz.h): ring bounding with drop counting,
// byte-deterministic JSON rendering, Clear() semantics, and
// ReplayFinalAssignment acceptance of coordinator-shaped event sequences /
// rejection of transitions the real coordinator could not have produced.

#include "util/flight_recorder.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "dist/clusterz.h"

namespace simj::flight {
namespace {

Event MakeEvent(const std::string& type, int worker = -1, int shard = -1,
                int attempt = -1, const std::string& detail = "") {
  Event event;
  event.type = type;
  event.worker = worker;
  event.shard = shard;
  event.attempt = attempt;
  event.detail = detail;
  return event;
}

TEST(FlightRecorderTest, RecordStampsMonotoneSeqAndTimestamps) {
  FlightRecorder recorder(/*capacity=*/16);
  recorder.Record(MakeEvent("deal", 0, 0));
  recorder.Record(MakeEvent("dispatch", 0, 0, 0));
  recorder.Record(MakeEvent("complete", 0, 0, 0));
  std::vector<Event> events = recorder.Events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].seq, 0);
  EXPECT_EQ(events[1].seq, 1);
  EXPECT_EQ(events[2].seq, 2);
  EXPECT_LE(events[0].ts_us, events[1].ts_us);
  EXPECT_LE(events[1].ts_us, events[2].ts_us);
  EXPECT_EQ(recorder.dropped(), 0);
}

TEST(FlightRecorderTest, RingDropsOldestWhenFull) {
  FlightRecorder recorder(/*capacity=*/4);
  for (int i = 0; i < 10; ++i) {
    recorder.Record(MakeEvent("deal", /*worker=*/i % 2, /*shard=*/i));
  }
  std::vector<Event> events = recorder.Events();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(recorder.dropped(), 6);
  // The survivors are the newest four, still oldest-first, and their seq
  // numbers kept counting across the drops.
  EXPECT_EQ(events.front().shard, 6);
  EXPECT_EQ(events.front().seq, 6);
  EXPECT_EQ(events.back().shard, 9);
  EXPECT_EQ(events.back().seq, 9);
}

TEST(FlightRecorderTest, ClearResetsSeqAndDropped) {
  FlightRecorder recorder(/*capacity=*/2);
  for (int i = 0; i < 5; ++i) recorder.Record(MakeEvent("deal"));
  EXPECT_EQ(recorder.dropped(), 3);
  recorder.Clear();
  EXPECT_TRUE(recorder.Events().empty());
  EXPECT_EQ(recorder.dropped(), 0);
  recorder.Record(MakeEvent("deal"));
  EXPECT_EQ(recorder.Events().front().seq, 0);
}

TEST(FlightRecorderTest, EventsJsonIsByteDeterministic) {
  // Hand-built events (not via Record) so seq/ts are fixed and the
  // rendering can be golden-checked byte for byte.
  Event a;
  a.seq = 0;
  a.ts_us = 12.5;
  a.type = "steal";
  a.worker = 1;
  a.shard = 3;
  a.attempt = 0;
  a.detail = "victim=2";
  Event b;
  b.seq = 1;
  b.ts_us = 99.0;
  b.type = "requeue";
  b.worker = 2;
  b.shard = 3;
  b.attempt = 1;
  b.detail = "injected \"death\"";  // quotes must be escaped
  const std::string json = EventsJson({a, b}, /*dropped=*/7);
  EXPECT_EQ(json,
            "{\"schema\":\"simj_flight_v1\",\"dropped\":7,\"events\":["
            "{\"seq\":0,\"ts_us\":12.500,\"type\":\"steal\",\"worker\":1,"
            "\"shard\":3,\"attempt\":0,\"detail\":\"victim=2\"},"
            "{\"seq\":1,\"ts_us\":99.000,\"type\":\"requeue\",\"worker\":2,"
            "\"shard\":3,\"attempt\":1,"
            "\"detail\":\"injected \\\"death\\\"\"}]}\n");
}

TEST(FlightRecorderTest, ToJsonRendersEmptyRing) {
  FlightRecorder recorder(4);
  EXPECT_EQ(recorder.ToJson(),
            "{\"schema\":\"simj_flight_v1\",\"dropped\":0,\"events\":[]}\n");
}

// --- ReplayFinalAssignment -------------------------------------------------
//
// The replay checker simulates the per-worker deques from the recorded
// events; sequences below are coordinator-shaped (deal -> dispatch/steal ->
// complete/requeue/fallback).

using simj::dist::ReplayFinalAssignment;

TEST(ReplayTest, DealDispatchCompleteAssignsWorker) {
  std::vector<Event> events;
  events.push_back(MakeEvent("deal", 0, 0));
  events.push_back(MakeEvent("deal", 1, 1));
  events.push_back(MakeEvent("dispatch", 0, 0, 0));
  events.push_back(MakeEvent("dispatch", 1, 1, 0));
  events.push_back(MakeEvent("complete", 0, 0, 0));
  events.push_back(MakeEvent("complete", 1, 1, 0));
  auto assignment = ReplayFinalAssignment(events, 2);
  ASSERT_TRUE(assignment.ok()) << assignment.status().message();
  EXPECT_EQ(assignment.value(), (std::vector<int>{0, 1}));
}

TEST(ReplayTest, StealMovesShardToThief) {
  std::vector<Event> events;
  // Both shards dealt to worker 0; worker 1 steals from the BACK.
  events.push_back(MakeEvent("deal", 0, 0));
  events.push_back(MakeEvent("deal", 0, 1));
  events.push_back(MakeEvent("steal", 1, 1, 0, "victim=0"));
  events.push_back(MakeEvent("dispatch", 0, 0, 0));
  events.push_back(MakeEvent("complete", 1, 1, 0));
  events.push_back(MakeEvent("complete", 0, 0, 0));
  auto assignment = ReplayFinalAssignment(events, 2);
  ASSERT_TRUE(assignment.ok()) << assignment.status().message();
  EXPECT_EQ(assignment.value(), (std::vector<int>{0, 1}));
}

TEST(ReplayTest, RequeueThenRetryAndFallback) {
  std::vector<Event> events;
  events.push_back(MakeEvent("deal", 0, 0));
  events.push_back(MakeEvent("deal", 1, 1));
  // Shard 0 dies on worker 0, is requeued, retried, and completes.
  events.push_back(MakeEvent("dispatch", 0, 0, 0));
  events.push_back(MakeEvent("requeue", 0, 0, 0, "injected death"));
  events.push_back(MakeEvent("restart", 0));
  events.push_back(MakeEvent("dispatch", 0, 0, 1));
  events.push_back(MakeEvent("complete", 0, 0, 1));
  // Shard 1 never dispatches; the coordinator runs it inline.
  events.push_back(MakeEvent("fallback", -1, 1));
  auto assignment = ReplayFinalAssignment(events, 2);
  ASSERT_TRUE(assignment.ok()) << assignment.status().message();
  EXPECT_EQ(assignment.value(), (std::vector<int>{0, -1}));
}

TEST(ReplayTest, RejectsDispatchOfNonFrontShard) {
  std::vector<Event> events;
  events.push_back(MakeEvent("deal", 0, 0));
  events.push_back(MakeEvent("deal", 0, 1));
  // Worker 0's queue front is shard 0; dispatching shard 1 first is a
  // transition the real coordinator cannot produce.
  events.push_back(MakeEvent("dispatch", 0, 1, 0));
  EXPECT_FALSE(ReplayFinalAssignment(events, 2).ok());
}

TEST(ReplayTest, RejectsStealOfNonBackShard) {
  std::vector<Event> events;
  events.push_back(MakeEvent("deal", 0, 0));
  events.push_back(MakeEvent("deal", 0, 1));
  // Steals pop the victim's BACK (shard 1 here), not its front.
  events.push_back(MakeEvent("steal", 1, 0, 0, "victim=0"));
  EXPECT_FALSE(ReplayFinalAssignment(events, 2).ok());
}

TEST(ReplayTest, RejectsCompleteWithoutDispatch) {
  std::vector<Event> events;
  events.push_back(MakeEvent("deal", 0, 0));
  events.push_back(MakeEvent("complete", 0, 0, 0));
  EXPECT_FALSE(ReplayFinalAssignment(events, 1).ok());
}

TEST(ReplayTest, RejectsUnfinishedShard) {
  std::vector<Event> events;
  events.push_back(MakeEvent("deal", 0, 0));
  events.push_back(MakeEvent("dispatch", 0, 0, 0));
  // No complete/fallback: the replay must refuse to call this final.
  EXPECT_FALSE(ReplayFinalAssignment(events, 1).ok());
}

}  // namespace
}  // namespace simj::flight
