// Sampling heap profiler: global operator new/new[]/delete/delete[]
// overrides (confined to heap_profiler.cc; tools/simj_lint.py's
// no-raw-allocator-interposition rule keeps them out of the rest of src/)
// record a deterministic sample of live allocations, attributing bytes to
// the call stacks that own them. Output is a deterministic `simj_heap_v1`
// JSON record with four counters per stack — inuse_bytes/inuse_objects
// (live at capture end) and alloc_bytes/alloc_objects (cumulative while
// armed) — consumed by tools/flame.py (--metric inuse_bytes|alloc_bytes,
// and --diff to compare two captures).
//
// Sampling is a per-thread byte countdown (DESIGN.md §13): every armed
// allocation subtracts its size from the thread's countdown, and the
// allocation that drives it to or below zero is sampled and the countdown
// reset to `sample_bytes`. No RNG anywhere (the rng-only lint rule holds):
// given each thread's allocation sequence the sampled set is a pure
// function of sample_bytes. Counters report raw sampled sizes — each
// sampled object stands for roughly `sample_bytes` of allocation; nothing
// is up-scaled, so the end-of-run leak report reads "live sampled bytes".
//
// Sample -> symbolize split (the sampled-stack core shared with the CPU
// profiler, util/stack_profile.h and DESIGN.md §12): the allocation hook
// stores raw backtrace() addresses and byte counts; dladdr + demangling
// run only when a capture is drained. The hook guards itself with a
// thread-local re-entrancy flag, so its own internal allocations
// (stack-table nodes, backtrace's lazy libgcc init) pass through
// unrecorded instead of recursing. Frees are attributed by an
// open-addressed address table probed lock-free, so the common
// never-sampled free costs a few relaxed loads and no lock.
//
// Cluster captures: the coordinator stamps the armed sample_bytes into
// every shard dispatch (SpanContext::heap_sample_bytes). Thread-transport
// workers drain their own thread's entries per shard result
// (DrainThisThreadBatch) and forked children arm their own profiler and
// drain everything per response (DrainAllThreadsBatch); shipped batches
// carry symbolized frames and *delta* counters since the previous drain
// (inuse deltas may be negative mid-stream — they sum to the live level),
// so the coordinator merges them under worker-N labels by plain addition,
// exactly like /profilez. Every shard completes exactly once, so each
// batch is folded once.
//
// The profiler is observational: unarmed, every allocation costs one
// relaxed atomic load; armed captures never touch join state — results
// are byte-identical either way (asserted by statusz_test and ci.sh).
// Sanitizer builds (ASan/TSan own the allocator) refuse to arm;
// --heap_sample_bytes logs the refusal and everything else proceeds.

#ifndef SIMJ_UTIL_HEAP_PROFILER_H_
#define SIMJ_UTIL_HEAP_PROFILER_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "util/stack_profile.h"
#include "util/status.h"

namespace simj::heapprof {

// Deepest stack recorded per sampled allocation; deeper stacks are
// truncated (counted).
inline constexpr int kMaxFrames = 32;
// Distinct (thread, stack) aggregation entries per capture; further new
// stacks are dropped (counted).
inline constexpr int kMaxStacks = 2048;
// Concurrently tracked live sampled objects; beyond this a sample still
// lands in the cumulative counters but its liveness is dropped (counted).
inline constexpr int kMaxLiveObjects = 8192;
// Default sampling rate: one sampled allocation per 512 KiB allocated.
inline constexpr int64_t kDefaultSampleBytes = 512 * 1024;

struct HeapProfileOptions {
  // One sample per this many bytes allocated, per thread. Allocations of
  // at least sample_bytes are always sampled.
  int64_t sample_bytes = kDefaultSampleBytes;
};

// One aggregated allocation stack: `frames` is root-first, already
// symbolized; `thread` is the allocating thread's registered name (or
// "tid-N" for unregistered threads). In a shipped worker batch the
// counters are deltas since the worker's previous drain.
struct HeapFoldedStack {
  std::string thread;
  std::vector<std::string> frames;
  int64_t inuse_bytes = 0;
  int64_t inuse_objects = 0;
  int64_t alloc_bytes = 0;
  int64_t alloc_objects = 0;
};

// A drained set of heap stacks plus loss accounting. dropped counts
// samples lost to table capacity (stack or live-object); truncated counts
// stacks cut at kMaxFrames (still stored).
struct HeapBatch {
  int64_t dropped = 0;
  int64_t truncated = 0;
  std::vector<HeapFoldedStack> stacks;

  bool empty() const {
    return dropped == 0 && truncated == 0 && stacks.empty();
  }
  // Folds `other` in, merging identical (thread, frames) stacks by adding
  // all four counters (delta batches sum to levels by construction).
  void MergeFrom(const HeapBatch& other);
  // Deterministic order: by (thread, frames) ascending, duplicates merged.
  // MergeFrom leaves the batch normalized; call this after building one by
  // hand.
  void Normalize();
};

// One process's (or one worker's) share of a capture.
struct HeapSection {
  std::string label;  // "coordinator" locally, "worker-N" when shipped
  HeapBatch batch;
};

struct HeapProfile {
  int64_t sample_bytes = 0;
  double duration_seconds = 0.0;  // armed wall time
  std::vector<HeapSection> sections;  // sorted by label

  int64_t TotalInuseBytes() const;
  int64_t TotalAllocBytes() const;
  int64_t TotalAllocObjects() const;
  int64_t TotalDropped() const;
  int64_t TotalTruncated() const;
};

// The record layout the shared core merges, ships and emits: four
// counters per stack; section and record totals lead with their sums.
struct HeapSchema {
  using Section = HeapSection;
  static constexpr const char* kName = "simj_heap_v1";
  static constexpr std::array<stackprof::Field<HeapFoldedStack>, 4>
      kStackFields{{{"inuse_bytes", &HeapFoldedStack::inuse_bytes},
                    {"inuse_objects", &HeapFoldedStack::inuse_objects},
                    {"alloc_bytes", &HeapFoldedStack::alloc_bytes},
                    {"alloc_objects", &HeapFoldedStack::alloc_objects}}};
  static constexpr std::array<stackprof::Field<HeapBatch>, 2> kBatchFields{
      {{"dropped", &HeapBatch::dropped},
       {"truncated", &HeapBatch::truncated}}};
  static constexpr bool kTotalsSumStacks = true;
};

// Arms the heap profiler process-wide: resets the per-capture tables and
// enables sampling in the operator new/delete hooks. Fails if already
// armed in this process or when a sanitizer owns the allocator. In a
// fork()ed child the inherited armed state is stale (the child handler
// disarms and retires the parent's tables); Start arms fresh there.
[[nodiscard]] Status StartHeapProfiling(const HeapProfileOptions& options = {});

// Disarms, snapshots and clears the live-object table, symbolizes, and
// returns the capture: the local "coordinator" section plus any
// accumulated remote sections.
[[nodiscard]] StatusOr<HeapProfile> StopHeapProfiling();

// True while armed in THIS process (a fork child of an armed parent
// reports false until it arms itself).
bool HeapProfilingActive();

// The armed sampling rate in bytes, or 0 when not armed in this process.
int64_t ActiveSampleBytes();

// Registers the calling thread's name for sample attribution (the
// registry shared with the CPU profiler). Called by
// trace::SetThisThreadName, so named threads are covered transparently;
// safe any time. Unregistered threads appear as "tid-N".
using stackprof::NoteThisThread;

// Drains the calling thread's entries as deltas since its last drain.
// Used by thread-transport shard workers to ship per-shard heap batches
// (drained deltas will not reappear in StopHeapProfiling's section).
HeapBatch DrainThisThreadBatch();

// Drains every thread's entries as deltas — the fork child's per-response
// shipping path.
HeapBatch DrainAllThreadsBatch();

// Folds a worker-shipped batch into the section named `label`; merged
// batches are returned (and cleared) by the next StopHeapProfiling().
void AccumulateRemoteSection(const std::string& label,
                             const HeapBatch& batch);

// Deterministic single-line JSON record (schema "simj_heap_v1"),
// newline-terminated. Sections sorted by label, stacks by (thread,
// frames); fixed float formatting — golden-testable.
std::string HeapProfileJson(const HeapProfile& profile);

}  // namespace simj::heapprof

#endif  // SIMJ_UTIL_HEAP_PROFILER_H_
