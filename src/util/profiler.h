// Sampling CPU profiler: per-thread CPU-time timers deliver SIGPROF to the
// running thread, an async-signal-safe handler appends the raw backtrace()
// frames to that thread's preallocated lock-free ring, and symbolization
// (dladdr + demangling) happens entirely off the hot path when a capture is
// drained. Output is Brendan-Gregg folded-stack text (tools/flame.py turns
// it into an SVG flamegraph) and a deterministic `simj_profile_v1` JSON
// record (tools/flame.py --diff compares two captures).
//
// This file is the CPU front end of the sampled-stack core
// (util/stack_profile.h), which owns symbolization, thread names, batch
// merging, remote sections and the emitters. Sample -> symbolize split
// (DESIGN.md §12): the handler may only execute
// async-signal-safe operations — write/clock_gettime-class syscalls,
// sig-atomic loads/stores, and backtrace() — which rules out malloc, locks,
// and therefore symbol resolution. So the handler stores raw return
// addresses in a fixed-capacity per-thread ring (dropping, with an exact
// counter, once the ring is full) and everything that needs the allocator
// runs later on the draining thread. tools/simj_lint.py's
// signal-handler-safety rule enforces the handler-side restriction.
//
// Thread coverage: threads are sampled once they are registered — either
// explicitly via NoteThisThread or, transparently, whenever they call
// trace::SetThisThreadName (main, join workers, dispatch threads, statusz
// all do). Each registered thread gets its own timer on its own CPU-time
// clock (SIGEV_THREAD_ID), so samples are attributed to the thread that
// actually burned the CPU, and sleeping threads cost nothing.
//
// Cluster captures: `ShardedSimJoin` forwards the active hz to shard
// workers through the pipe protocol; thread workers drain their own ring
// per shard (DrainThisThreadBatch) and forked children run their own
// profiler and drain everything per response (DrainAllThreadsBatch). The
// coordinator folds the shipped batches into per-worker sections via
// AccumulateRemoteSection; StopProfiling() then returns one Profile whose
// "coordinator" section is this process and whose "worker-N" sections are
// the shipped remote samples.
//
// The profiler is purely observational: with no capture armed the join
// path costs one pid-checked atomic load per shard dispatch, and an armed
// capture never touches join state — results are byte-identical either way.

#ifndef SIMJ_UTIL_PROFILER_H_
#define SIMJ_UTIL_PROFILER_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "util/stack_profile.h"
#include "util/status.h"

namespace simj::prof {

// Deepest stack recorded per sample; deeper stacks are truncated (counted).
inline constexpr int kMaxFrames = 32;
// Concurrently sampled threads; later registrations are ignored (counted).
inline constexpr int kMaxThreads = 64;
// Samples buffered per thread between drains; overflow drops (counted).
inline constexpr int kRingCapacity = 512;

struct ProfileOptions {
  // Sampling frequency per thread, in samples per CPU-second. 99 (not a
  // round 100) avoids lockstep with common periodic work.
  int hz = 99;
};

// One aggregated call stack: `frames` is root-first, already symbolized;
// `thread` is the sampled thread's registered name (or "tid-N").
struct FoldedStack {
  std::string thread;
  std::vector<std::string> frames;
  int64_t count = 0;
};

// A drained set of samples plus its loss accounting. samples counts stacks
// actually stored (== sum of stack counts); dropped counts ring-overflow
// losses; truncated counts stacks cut at kMaxFrames (still stored).
struct SampleBatch {
  int64_t samples = 0;
  int64_t dropped = 0;
  int64_t truncated = 0;
  std::vector<FoldedStack> stacks;

  bool empty() const {
    return samples == 0 && dropped == 0 && truncated == 0 && stacks.empty();
  }
  // Folds `other` in, merging identical (thread, frames) stacks.
  void MergeFrom(const SampleBatch& other);
  // Deterministic order: by (thread, frames) ascending. MergeFrom leaves
  // the batch normalized; call this after building one by hand.
  void Normalize();
};

// One process's (or one worker's) share of a capture.
struct ProfileSection {
  std::string label;  // "coordinator" locally, "worker-N" when shipped
  SampleBatch batch;
};

struct Profile {
  int hz = 0;
  double period_us = 0.0;        // 1e6 / hz
  double duration_seconds = 0.0; // armed wall time
  std::vector<ProfileSection> sections;  // sorted by label

  int64_t TotalSamples() const;
  int64_t TotalDropped() const;
  int64_t TotalTruncated() const;
};

// The record layout the shared core merges, ships and emits: one counter
// per stack; section and record totals are the batch counters.
struct ProfileSchema {
  using Section = ProfileSection;
  static constexpr const char* kName = "simj_profile_v1";
  static constexpr std::array<stackprof::Field<FoldedStack>, 1> kStackFields{
      {{"count", &FoldedStack::count}}};
  static constexpr std::array<stackprof::Field<SampleBatch>, 3> kBatchFields{
      {{"samples", &SampleBatch::samples},
       {"dropped", &SampleBatch::dropped},
       {"truncated", &SampleBatch::truncated}}};
  static constexpr bool kTotalsSumStacks = false;
};

// Arms the profiler process-wide: installs the SIGPROF handler, allocates
// the rings (first call only), and starts one CPU-time timer per
// registered thread. Fails if already armed in this process. In a fork()ed
// child the inherited armed state is stale (POSIX timers do not survive
// fork); Start detects the pid change, resets, and arms fresh.
[[nodiscard]] Status StartProfiling(const ProfileOptions& options = {});

// Disarms, drains every ring, symbolizes, and returns the capture: the
// local "coordinator" section plus any accumulated remote sections.
[[nodiscard]] StatusOr<Profile> StopProfiling();

// True while armed in THIS process (a fork child of an armed parent
// reports false until it arms itself).
bool ProfilingActive();

// The armed sampling frequency, or 0 when not armed in this process.
int ActiveHz();

// Start + sleep(seconds) + Stop, for on-demand captures (/profilez).
[[nodiscard]] StatusOr<Profile> CaptureProfile(double seconds, int hz);

// Registers the calling thread for sampling under `name` (the shared
// registry: it names the thread for the heap profiler too). Called by
// trace::SetThisThreadName, so named threads are covered transparently;
// safe to call any time, before or while armed. Re-registering renames.
using stackprof::NoteThisThread;

// Drains and symbolizes the calling thread's samples since its last drain.
// Used by thread-transport shard workers to ship per-shard profile batches
// (the drained samples will not reappear in StopProfiling's section).
SampleBatch DrainThisThreadBatch();

// Drains every thread's ring — the fork child's per-response shipping path
// (the child's serve loop is the only thread that ever drains there).
SampleBatch DrainAllThreadsBatch();

// Folds a worker-shipped batch into the section named `label`; merged
// batches are returned (and cleared) by the next StopProfiling().
void AccumulateRemoteSection(const std::string& label,
                             const SampleBatch& batch);

// Deterministic single-line JSON record (schema "simj_profile_v1"),
// newline-terminated. Sections sorted by label, stacks by (thread,
// frames); fixed float formatting — golden-testable.
std::string ProfileJson(const Profile& profile);

// Brendan-Gregg folded-stack text: one "label;thread;root;...;leaf count"
// line per aggregated stack (spaces/semicolons in symbols are rewritten so
// the line structure survives). tools/flame.py consumes this directly.
std::string FoldedText(const Profile& profile);

}  // namespace simj::prof

#endif  // SIMJ_UTIL_PROFILER_H_
