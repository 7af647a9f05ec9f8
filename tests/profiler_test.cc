// Tests for the sampling CPU profiler (util/profiler.h): deterministic
// emission (JSON schema golden + folded text from a hand-built Profile),
// live-capture attribution of CPU burn to named threads, exact
// drop-counter accounting when a 1 kHz burst overflows the undrained
// ring, batch merge/normalize semantics, the remote-section merge path
// the cluster coordinator uses, and the fork safety of the thread-name
// registry both profilers label stacks from.
//
// Live-capture tests arm the real SIGPROF machinery; under TSan
// StartProfiling refuses by design (the handler's stack walk races the
// sanitizer runtime), so those tests skip when arming fails.

#include "util/profiler.h"

#include <sys/wait.h>
#include <unistd.h>

#include <csignal>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#if defined(__SANITIZE_THREAD__)
#define SIMJ_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define SIMJ_TSAN 1
#endif
#endif

namespace simj::prof {
namespace {

// Spends roughly `seconds` of CPU time in a loop the sampler can observe.
// The volatile sink keeps the loop from being optimized away.
void BurnCpu(double seconds) {
  volatile double sink = 0.0;
  const auto clock_start = std::chrono::steady_clock::now();
  const std::chrono::duration<double> budget(seconds);
  while (std::chrono::steady_clock::now() - clock_start < budget) {
    for (int i = 1; i < 2000; ++i) sink = sink + 1.0 / i;
  }
  (void)sink;
}

// Arms the profiler or skips the test (TSan builds refuse by design).
#define ARM_OR_SKIP(options)                                    \
  do {                                                          \
    Status armed = StartProfiling(options);                     \
    if (!armed.ok()) GTEST_SKIP() << armed.ToString();          \
  } while (false)

Profile MakeHandBuiltProfile() {
  Profile profile;
  profile.hz = 99;
  profile.period_us = 1e6 / 99.0;
  profile.duration_seconds = 0.25;
  ProfileSection coordinator;
  coordinator.label = "coordinator";
  coordinator.batch.samples = 7;
  coordinator.batch.dropped = 1;
  coordinator.batch.truncated = 2;
  coordinator.batch.stacks = {
      {"main", {"Run", "Join", "Verify(int, long)"}, 5},
      {"join-w0", {"Run", "Join", "Prune"}, 2},
  };
  coordinator.batch.Normalize();
  ProfileSection worker;
  worker.label = "worker-0";
  worker.batch.samples = 3;
  worker.batch.stacks = {{"serve", {"ServeShards", "EvalShard"}, 3}};
  // Deliberately appended out of label order: emission must sort.
  profile.sections = {worker, coordinator};
  return profile;
}

TEST(ProfilerEmissionTest, JsonMatchesSchemaGolden) {
  const std::string json = ProfileJson(MakeHandBuiltProfile());
  // The full record, byte for byte: key order, %.3f floats, sections
  // sorted by label, stacks by (thread, frames), trailing newline. Any
  // change here is a schema change — coordinate ci.sh's validator and
  // tools/flame.py before re-goldening.
  EXPECT_EQ(json,
            "{\"schema\":\"simj_profile_v1\",\"hz\":99,"
            "\"period_us\":10101.010,\"duration_seconds\":0.250,"
            "\"samples\":10,\"dropped\":1,\"truncated\":2,\"sections\":["
            "{\"label\":\"coordinator\",\"samples\":7,\"dropped\":1,"
            "\"truncated\":2,\"stacks\":["
            "{\"thread\":\"join-w0\",\"count\":2,"
            "\"frames\":[\"Run\",\"Join\",\"Prune\"]},"
            "{\"thread\":\"main\",\"count\":5,"
            "\"frames\":[\"Run\",\"Join\",\"Verify(int, long)\"]}]},"
            "{\"label\":\"worker-0\",\"samples\":3,\"dropped\":0,"
            "\"truncated\":0,\"stacks\":["
            "{\"thread\":\"serve\",\"count\":3,"
            "\"frames\":[\"ServeShards\",\"EvalShard\"]}]}]}\n");
}

TEST(ProfilerEmissionTest, FoldedTextIsSemicolonSafe) {
  const std::string folded = FoldedText(MakeHandBuiltProfile());
  // label;thread;root;...;leaf count — with the space inside
  // "Verify(int, long)" cleaned so the trailing count stays parseable.
  EXPECT_EQ(folded,
            "coordinator;join-w0;Run;Join;Prune 2\n"
            "coordinator;main;Run;Join;Verify(int,long) 5\n"
            "worker-0;serve;ServeShards;EvalShard 3\n");
}

TEST(ProfilerEmissionTest, JsonEscapesFrameStrings) {
  Profile profile;
  profile.hz = 1;
  profile.sections = {{"coordinator",
                       {1, 0, 0, {{"t\"1", {"A\\B"}, 1}}}}};
  const std::string json = ProfileJson(profile);
  EXPECT_NE(json.find("\"t\\\"1\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"A\\\\B\""), std::string::npos) << json;
}

TEST(SampleBatchTest, MergeFoldsIdenticalStacksAndSumsCounters) {
  SampleBatch a;
  a.samples = 3;
  a.dropped = 1;
  a.stacks = {{"main", {"X", "Y"}, 3}};
  SampleBatch b;
  b.samples = 5;
  b.truncated = 2;
  b.stacks = {{"main", {"X", "Y"}, 2}, {"main", {"X", "Z"}, 3}};
  a.MergeFrom(b);
  EXPECT_EQ(a.samples, 8);
  EXPECT_EQ(a.dropped, 1);
  EXPECT_EQ(a.truncated, 2);
  ASSERT_EQ(a.stacks.size(), 2u);
  EXPECT_EQ(a.stacks[0].frames, (std::vector<std::string>{"X", "Y"}));
  EXPECT_EQ(a.stacks[0].count, 5);
  EXPECT_EQ(a.stacks[1].count, 3);
  EXPECT_TRUE(SampleBatch{}.empty());
  EXPECT_FALSE(a.empty());
}

TEST(ProfilerCaptureTest, AttributesBurnToNamedThreads) {
  NoteThisThread("prof-test-main");
  ARM_OR_SKIP(ProfileOptions{200});
  EXPECT_TRUE(ProfilingActive());
  EXPECT_EQ(ActiveHz(), 200);

  std::thread alpha([] {
    NoteThisThread("prof-test-alpha");
    BurnCpu(0.4);
  });
  BurnCpu(0.4);
  alpha.join();

  StatusOr<Profile> profile = StopProfiling();
  ASSERT_TRUE(profile.ok()) << profile.status().ToString();
  EXPECT_FALSE(ProfilingActive());
  EXPECT_EQ(ActiveHz(), 0);
  ASSERT_EQ(profile->sections.size(), 1u);
  EXPECT_EQ(profile->sections[0].label, "coordinator");
  int64_t main_samples = 0;
  int64_t alpha_samples = 0;
  for (const FoldedStack& stack : profile->sections[0].batch.stacks) {
    ASSERT_FALSE(stack.frames.empty());
    if (stack.thread == "prof-test-main") main_samples += stack.count;
    if (stack.thread == "prof-test-alpha") alpha_samples += stack.count;
  }
  // 0.4 CPU-seconds at 200 Hz is ~80 samples per thread; even heavily
  // time-shared CI machines deliver a healthy multiple of 1.
  EXPECT_GT(main_samples, 5) << ProfileJson(*profile);
  EXPECT_GT(alpha_samples, 5) << ProfileJson(*profile);
  EXPECT_GT(profile->duration_seconds, 0.0);
}

TEST(ProfilerCaptureTest, BurstOverflowIsCountedNotLost) {
  NoteThisThread("prof-test-main");
  ARM_OR_SKIP(ProfileOptions{1000});
  // Timer-driven delivery tops out at the kernel tick rate (often 250 Hz),
  // so overflow the undrained ring deterministically instead: raise
  // SIGPROF synchronously well past kRingCapacity — a burst far beyond
  // 1 kHz through the same handler path. Every delivery must land as
  // either a stored sample or a counted drop; none may vanish.
  constexpr int kExtra = 200;
  for (int i = 0; i < kRingCapacity + kExtra; ++i) ::raise(SIGPROF);
  StatusOr<Profile> profile = StopProfiling();
  ASSERT_TRUE(profile.ok()) << profile.status().ToString();
  int64_t main_samples = 0;
  for (const ProfileSection& section : profile->sections) {
    for (const FoldedStack& stack : section.batch.stacks) {
      if (stack.thread == "prof-test-main") main_samples += stack.count;
    }
  }
  EXPECT_LE(main_samples, kRingCapacity);
  EXPECT_GE(profile->TotalDropped(), kExtra) << ProfileJson(*profile);
  // stored + dropped >= synchronous deliveries (timer ticks only add).
  EXPECT_GE(main_samples + profile->TotalDropped(),
            kRingCapacity + kExtra);
}

TEST(ProfilerCaptureTest, DoubleStartFailsAndStopWithoutStartFails) {
  NoteThisThread("prof-test-main");
  ARM_OR_SKIP(ProfileOptions{99});
  EXPECT_FALSE(StartProfiling(ProfileOptions{99}).ok());
  StatusOr<Profile> profile = StopProfiling();
  ASSERT_TRUE(profile.ok());
  EXPECT_FALSE(StopProfiling().ok());
  EXPECT_FALSE(StartProfiling(ProfileOptions{0}).ok());       // hz too low
  EXPECT_FALSE(StartProfiling(ProfileOptions{20000}).ok());   // hz too high
}

TEST(ProfilerCaptureTest, RemoteSectionsMergeUnderTheirLabels) {
  NoteThisThread("prof-test-main");
  ARM_OR_SKIP(ProfileOptions{99});
  SampleBatch shipped;
  shipped.samples = 4;
  shipped.stacks = {{"serve", {"ServeShards", "EvalShard"}, 4}};
  AccumulateRemoteSection("worker-1", shipped);
  SampleBatch more;
  more.samples = 2;
  more.dropped = 1;
  more.stacks = {{"serve", {"ServeShards", "EvalShard"}, 2}};
  AccumulateRemoteSection("worker-1", more);
  AccumulateRemoteSection("worker-0", shipped);
  BurnCpu(0.05);
  StatusOr<Profile> profile = StopProfiling();
  ASSERT_TRUE(profile.ok()) << profile.status().ToString();
  ASSERT_EQ(profile->sections.size(), 3u);
  EXPECT_EQ(profile->sections[0].label, "coordinator");
  EXPECT_EQ(profile->sections[1].label, "worker-0");
  EXPECT_EQ(profile->sections[2].label, "worker-1");
  EXPECT_EQ(profile->sections[2].batch.samples, 6);
  EXPECT_EQ(profile->sections[2].batch.dropped, 1);
  ASSERT_EQ(profile->sections[2].batch.stacks.size(), 1u);
  EXPECT_EQ(profile->sections[2].batch.stacks[0].count, 6);
  // Accumulated remotes were consumed: a fresh capture starts clean.
  ARM_OR_SKIP(ProfileOptions{99});
  StatusOr<Profile> clean = StopProfiling();
  ASSERT_TRUE(clean.ok());
  for (const ProfileSection& section : clean->sections) {
    EXPECT_EQ(section.label, "coordinator");
  }
}

TEST(ProfilerCaptureTest, CaptureProfileIsSelfContained) {
  NoteThisThread("prof-test-main");
  std::atomic<bool> stop{false};
  std::thread burner([&] {
    NoteThisThread("prof-test-burner");
    while (!stop.load(std::memory_order_acquire)) BurnCpu(0.02);
  });
  StatusOr<Profile> profile = CaptureProfile(0.3, 200);
  stop.store(true, std::memory_order_release);
  burner.join();
  if (!profile.ok()) GTEST_SKIP() << profile.status().ToString();
  EXPECT_EQ(profile->hz, 200);
  EXPECT_GE(profile->duration_seconds, 0.3);
  EXPECT_GT(profile->TotalSamples(), 0);
  EXPECT_FALSE(ProfilingActive());
}

// A fork() while another thread is inside NoteThisThread must not hand the
// child a locked name registry, or the child's own NoteThisThread hangs.
// Skipped under TSan, whose runtime does not support fork() from a
// threaded parent.
TEST(ThreadNameRegistryTest, ForkWhileAnotherThreadRenamesItself) {
#ifdef SIMJ_TSAN
  GTEST_SKIP() << "fork() from a threaded parent is unsupported under TSan";
#endif
  std::atomic<bool> stop{false};
  std::thread renamer([&] {
    for (int i = 0; !stop.load(std::memory_order_acquire); ++i) {
      NoteThisThread("prof-test-renamer-" + std::to_string(i % 8));
    }
  });
  int hung_round = -1;
  int failed_round = -1;
  for (int round = 0; round < 200 && hung_round < 0 && failed_round < 0;
       ++round) {
    const pid_t pid = ::fork();
    if (pid == 0) {
      NoteThisThread("prof-test-child");
      ::_exit(0);
    }
    if (pid < 0) {
      failed_round = round;
      break;
    }
    // Poll with a deadline: a child stuck on an inherited locked mutex
    // never exits on its own.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    int status = 0;
    pid_t reaped = 0;
    while ((reaped = ::waitpid(pid, &status, WNOHANG)) == 0 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (reaped == 0) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, &status, 0);
      hung_round = round;
    } else if (reaped != pid || !WIFEXITED(status) ||
               WEXITSTATUS(status) != 0) {
      failed_round = round;
    }
  }
  stop.store(true, std::memory_order_release);
  renamer.join();
  EXPECT_EQ(hung_round, -1) << "child hung in NoteThisThread";
  EXPECT_EQ(failed_round, -1) << "fork or child exit failed";
}

}  // namespace
}  // namespace simj::prof
