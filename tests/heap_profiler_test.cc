// Tests for the sampling heap profiler (util/heap_profiler.h):
// deterministic emission (JSON schema golden from a hand-built
// HeapProfile, including negative in-stream inuse deltas),
// batch merge/normalize semantics, the remote-section merge path the
// cluster coordinator uses, and live-capture attribution with exact
// counts — allocations of at least sample_bytes are always sampled, so a
// run of chunk-sized allocations yields exact inuse/alloc byte totals.
//
// Live-capture tests arm the real operator new/delete hooks; sanitizer
// builds refuse to arm by design (ASan/TSan own the allocator), so those
// tests skip when arming fails. Live assertions target counters, never
// symbol names: test binaries are not linked -rdynamic, so frames
// symbolize as module+offset.

#include "util/heap_profiler.h"

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace simj::heapprof {
namespace {

// Arms the heap profiler or skips the test (sanitizer builds refuse by
// design).
#define ARM_OR_SKIP(options)                                    \
  do {                                                          \
    Status armed = StartHeapProfiling(options);                 \
    if (!armed.ok()) GTEST_SKIP() << armed.ToString();          \
  } while (false)

// Large enough that incidental test-infrastructure allocations between
// two drains never add up to a sample of their own; every chunk of
// exactly this size is sampled deterministically (size >= sample_bytes).
constexpr int64_t kChunk = 4 * 1024 * 1024;

HeapProfile MakeHandBuiltProfile() {
  HeapProfile profile;
  profile.sample_bytes = 524288;
  profile.duration_seconds = 0.25;
  HeapSection coordinator;
  coordinator.label = "coordinator";
  coordinator.batch.dropped = 1;
  coordinator.batch.truncated = 2;
  coordinator.batch.stacks = {
      {"main", {"JoinDriver", "BuildCandidates"}, 1024, 2, 4096, 8},
      {"io", {"ReadGraph"}, 0, 0, 2048, 4},
  };
  coordinator.batch.Normalize();
  HeapSection worker;
  worker.label = "worker-1";
  // A shipped delta batch: more frees than allocations since the last
  // drain makes the inuse counters negative mid-stream.
  worker.batch.stacks = {
      {"shard", {"RunShard"}, -512, -1, 1536, 3},
  };
  worker.batch.Normalize();
  // Deliberately out of label order; emission must sort.
  profile.sections.push_back(std::move(worker));
  profile.sections.push_back(std::move(coordinator));
  return profile;
}

int64_t SumField(const HeapBatch& batch, int64_t HeapFoldedStack::*field) {
  int64_t total = 0;
  for (const HeapFoldedStack& stack : batch.stacks) total += stack.*field;
  return total;
}

TEST(HeapProfileJsonTest, GoldenRecordIsByteForByteStable) {
  const HeapProfile profile = MakeHandBuiltProfile();
  const std::string json = HeapProfileJson(profile);
  EXPECT_EQ(
      json,
      "{\"schema\":\"simj_heap_v1\",\"sample_bytes\":524288,"
      "\"duration_seconds\":0.250,\"inuse_bytes\":512,\"inuse_objects\":1,"
      "\"alloc_bytes\":7680,\"alloc_objects\":15,\"dropped\":1,"
      "\"truncated\":2,\"sections\":["
      "{\"label\":\"coordinator\",\"inuse_bytes\":1024,\"inuse_objects\":2,"
      "\"alloc_bytes\":6144,\"alloc_objects\":12,\"dropped\":1,"
      "\"truncated\":2,\"stacks\":["
      "{\"thread\":\"io\",\"inuse_bytes\":0,\"inuse_objects\":0,"
      "\"alloc_bytes\":2048,\"alloc_objects\":4,\"frames\":[\"ReadGraph\"]},"
      "{\"thread\":\"main\",\"inuse_bytes\":1024,\"inuse_objects\":2,"
      "\"alloc_bytes\":4096,\"alloc_objects\":8,"
      "\"frames\":[\"JoinDriver\",\"BuildCandidates\"]}]},"
      "{\"label\":\"worker-1\",\"inuse_bytes\":-512,\"inuse_objects\":-1,"
      "\"alloc_bytes\":1536,\"alloc_objects\":3,\"dropped\":0,"
      "\"truncated\":0,\"stacks\":["
      "{\"thread\":\"shard\",\"inuse_bytes\":-512,\"inuse_objects\":-1,"
      "\"alloc_bytes\":1536,\"alloc_objects\":3,"
      "\"frames\":[\"RunShard\"]}]}]}\n");
}

TEST(HeapProfileJsonTest, EscapesFrameStrings) {
  HeapProfile profile;
  profile.sample_bytes = 1024;
  HeapSection section;
  section.label = "coordinator";
  section.batch.stacks = {{"t\"1", {"Fn\\path", "Line\nBreak"}, 1, 1, 1, 1}};
  profile.sections.push_back(std::move(section));
  const std::string json = HeapProfileJson(profile);
  EXPECT_NE(json.find("\"t\\\"1\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"Fn\\\\path\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"Line\\nBreak\""), std::string::npos) << json;
}

TEST(HeapBatchTest, NormalizeMergesDuplicatesAndSorts) {
  HeapBatch batch;
  batch.stacks = {
      {"b", {"Y"}, 10, 1, 20, 2},
      {"a", {"X"}, 1, 1, 2, 2},
      {"b", {"Y"}, -4, -1, 8, 1},
  };
  batch.Normalize();
  ASSERT_EQ(batch.stacks.size(), 2u);
  EXPECT_EQ(batch.stacks[0].thread, "a");
  EXPECT_EQ(batch.stacks[1].thread, "b");
  EXPECT_EQ(batch.stacks[1].inuse_bytes, 6);
  EXPECT_EQ(batch.stacks[1].inuse_objects, 0);
  EXPECT_EQ(batch.stacks[1].alloc_bytes, 28);
  EXPECT_EQ(batch.stacks[1].alloc_objects, 3);
}

TEST(HeapBatchTest, MergeFromSumsAllFourCountersAndLossCounts) {
  HeapBatch a;
  a.dropped = 1;
  a.stacks = {{"main", {"F"}, 100, 1, 100, 1}};
  HeapBatch b;
  b.truncated = 2;
  b.stacks = {{"main", {"F"}, -100, -1, 50, 1}, {"main", {"G"}, 7, 1, 7, 1}};
  a.MergeFrom(b);
  EXPECT_EQ(a.dropped, 1);
  EXPECT_EQ(a.truncated, 2);
  ASSERT_EQ(a.stacks.size(), 2u);
  EXPECT_EQ(a.stacks[0].frames, std::vector<std::string>{"F"});
  EXPECT_EQ(a.stacks[0].inuse_bytes, 0);
  EXPECT_EQ(a.stacks[0].alloc_bytes, 150);
  EXPECT_EQ(a.stacks[0].alloc_objects, 2);
}

TEST(HeapProfilerLiveTest, StopWithoutStartFails) {
  StatusOr<HeapProfile> profile = StopHeapProfiling();
  EXPECT_FALSE(profile.ok());
  EXPECT_EQ(profile.status().code(), StatusCode::kFailedPrecondition);
}

TEST(HeapProfilerLiveTest, RejectsOutOfRangeSampleBytes) {
  HeapProfileOptions options;
  options.sample_bytes = 16;
  Status status = StartHeapProfiling(options);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(HeapProfilerLiveTest, DoubleStartFailsAndActiveReportsRate) {
  EXPECT_FALSE(HeapProfilingActive());
  EXPECT_EQ(ActiveSampleBytes(), 0);
  HeapProfileOptions options;
  options.sample_bytes = kChunk;
  ARM_OR_SKIP(options);
  EXPECT_TRUE(HeapProfilingActive());
  EXPECT_EQ(ActiveSampleBytes(), kChunk);
  Status again = StartHeapProfiling(options);
  EXPECT_FALSE(again.ok());
  EXPECT_EQ(again.code(), StatusCode::kFailedPrecondition);
  StatusOr<HeapProfile> profile = StopHeapProfiling();
  ASSERT_TRUE(profile.ok()) << profile.status().ToString();
  EXPECT_FALSE(HeapProfilingActive());
  EXPECT_EQ(profile->sample_bytes, kChunk);
}

TEST(HeapProfilerLiveTest, ChunkAllocationsAreCountedExactly) {
  HeapProfileOptions options;
  options.sample_bytes = kChunk;
  ARM_OR_SKIP(options);
  // Flush anything pending from arming so the next drain is ours alone.
  (void)DrainAllThreadsBatch();

  constexpr int kChunks = 8;
  std::vector<char*> chunks;
  chunks.reserve(kChunks);
  for (int i = 0; i < kChunks; ++i) {
    char* chunk = new char[kChunk];
    chunk[0] = static_cast<char>(i);  // touch so the store is observable
    chunks.push_back(chunk);
  }
  for (int i = 0; i < kChunks / 2; ++i) {
    delete[] chunks[i];
    chunks[i] = nullptr;
  }

  HeapBatch batch = DrainAllThreadsBatch();
  EXPECT_EQ(SumField(batch, &HeapFoldedStack::alloc_bytes),
            kChunks * kChunk);
  EXPECT_EQ(SumField(batch, &HeapFoldedStack::alloc_objects), kChunks);
  EXPECT_EQ(SumField(batch, &HeapFoldedStack::inuse_bytes),
            (kChunks / 2) * kChunk);
  EXPECT_EQ(SumField(batch, &HeapFoldedStack::inuse_objects), kChunks / 2);
  EXPECT_EQ(batch.dropped, 0);

  // Already-drained deltas must not reappear in the final capture.
  StatusOr<HeapProfile> profile = StopHeapProfiling();
  ASSERT_TRUE(profile.ok()) << profile.status().ToString();
  EXPECT_EQ(profile->TotalAllocBytes(), 0);
  for (char* chunk : chunks) delete[] chunk;
}

TEST(HeapProfilerLiveTest, ThreadDrainAttributesToTheRegisteredName) {
  HeapProfileOptions options;
  options.sample_bytes = kChunk;
  ARM_OR_SKIP(options);

  HeapBatch from_thread;
  std::thread worker([&from_thread] {
    NoteThisThread("heap-worker");
    std::vector<std::unique_ptr<char[]>> owned;
    for (int i = 0; i < 2; ++i) {
      owned.push_back(std::make_unique<char[]>(kChunk));
      owned.back()[0] = 1;
    }
    from_thread = DrainThisThreadBatch();
  });
  worker.join();

  ASSERT_FALSE(from_thread.stacks.empty());
  for (const HeapFoldedStack& stack : from_thread.stacks) {
    EXPECT_EQ(stack.thread, "heap-worker");
  }
  EXPECT_EQ(SumField(from_thread, &HeapFoldedStack::alloc_bytes),
            2 * kChunk);
  StatusOr<HeapProfile> profile = StopHeapProfiling();
  ASSERT_TRUE(profile.ok()) << profile.status().ToString();
}

TEST(HeapProfilerLiveTest, RemoteSectionsMergeUnderTheirLabels) {
  HeapProfileOptions options;
  options.sample_bytes = kChunk;
  ARM_OR_SKIP(options);

  HeapBatch shipment;
  shipment.stacks = {{"shard", {"RunShard"}, 64, 1, 64, 1}};
  AccumulateRemoteSection("worker-1", shipment);
  AccumulateRemoteSection("worker-1", shipment);
  AccumulateRemoteSection("worker-0", shipment);

  StatusOr<HeapProfile> profile = StopHeapProfiling();
  ASSERT_TRUE(profile.ok()) << profile.status().ToString();
  ASSERT_EQ(profile->sections.size(), 3u);
  EXPECT_EQ(profile->sections[0].label, "coordinator");
  EXPECT_EQ(profile->sections[1].label, "worker-0");
  EXPECT_EQ(profile->sections[2].label, "worker-1");
  EXPECT_EQ(SumField(profile->sections[1].batch,
                     &HeapFoldedStack::alloc_bytes),
            64);
  ASSERT_EQ(profile->sections[2].batch.stacks.size(), 1u);
  EXPECT_EQ(profile->sections[2].batch.stacks[0].alloc_bytes, 128);
  EXPECT_EQ(profile->sections[2].batch.stacks[0].inuse_bytes, 128);

  // Remote sections were consumed: a fresh capture starts empty.
  ARM_OR_SKIP(options);
  StatusOr<HeapProfile> second = StopHeapProfiling();
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  for (const HeapSection& section : second->sections) {
    EXPECT_NE(section.label, "worker-1");
  }
}

}  // namespace
}  // namespace simj::heapprof
