#include "util/heap_profiler.h"

#include <execinfo.h>
#include <pthread.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <map>
#include <new>
#include <utility>

#include "util/strings.h"
#include "util/sync.h"

// ASan, TSan and MSan interpose the allocator themselves (poisoning,
// happens-before modeling, shadow bookkeeping); stacking our operator
// new/delete replacements on top would defeat their checks and backtrace()
// from inside an interposed allocation path is not sanitizer-safe. The
// hooks compile out entirely and StartHeapProfiling refuses, mirroring the
// CPU profiler's TSan refusal — harnesses run unprofiled, tests skip.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define SIMJ_HEAP_PROFILER_UNDER_SANITIZER 1
#endif
#if !defined(SIMJ_HEAP_PROFILER_UNDER_SANITIZER) && defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define SIMJ_HEAP_PROFILER_UNDER_SANITIZER 1
#endif
#endif

namespace simj::heapprof {

namespace {

// Leading backtrace() frames that belong to the profiler itself:
// [RecordSample, operator new variant] — both are real calls (RecordSample
// is noinline; replaceable operator new is never inlined without LTO), so
// the strip is positional, like the CPU profiler's handler-frame strip.
inline constexpr int kSkipFrames = 2;
// Open-addressed live-object table. Power of two; at kMaxLiveObjects the
// load factor stays 12.5%, so probe chains stay short.
inline constexpr size_t kAddrSlots = 1u << 16;
inline constexpr size_t kAddrMask = kAddrSlots - 1;
// Probe bound for both insertion and lookup (they must match: an entry is
// only ever stored within kMaxProbes of its home slot).
inline constexpr int kMaxProbes = 64;
// Slot meta packs (stack index << 40) | size; sizes cap at 1 TiB - 1.
inline constexpr uint64_t kSizeMask = (uint64_t{1} << 40) - 1;
inline constexpr uintptr_t kTombstone = 1;

// One aggregated (thread, stack) entry. The inuse counters are atomics
// because operator delete decrements them lock-free; everything else is
// touched only under Tables::mu (sample and drain paths).
struct StackEntry {
  std::atomic<int64_t> inuse_bytes{0};
  std::atomic<int64_t> inuse_objects{0};
  int64_t alloc_bytes = 0;
  int64_t alloc_objects = 0;
  // Drain baseline, in HeapSchema::kStackFields order: drains ship deltas
  // against it (inuse deltas may be negative — they sum to the live
  // level), and StartHeapProfiling re-baselines so each capture reports
  // only its own activity.
  std::array<int64_t, 4> shipped{};
  int tid = 0;
  int depth = 0;           // stored frames (leaf-first, profiler-stripped)
  void* frames[kMaxFrames];

  // The counters now, in HeapSchema::kStackFields order.
  std::array<int64_t, 4> Levels() const {
    return {inuse_bytes.load(std::memory_order_relaxed),
            inuse_objects.load(std::memory_order_relaxed), alloc_bytes,
            alloc_objects};
  }
};

// addr transitions: 0 (empty) -> ptr (insert, under mu) -> kTombstone
// (free or stop-clear, by CAS — exactly one owner decrements) -> 0 or ptr
// (stop-clear / insert reuse, under mu). meta is published before addr
// with release order, so a matching acquire load of addr sees it.
struct AddrSlot {
  std::atomic<uintptr_t> addr{0};
  std::atomic<uint64_t> meta{0};
};

// The per-capture state, heap-allocated once and leaked (lookups from
// operator delete must never race a destructor). A fork()ed child's copy
// may be mid-mutation (another parent thread inside the mutex at fork), so
// the atfork child handler abandons the whole block and the child's first
// StartHeapProfiling allocates a fresh one.
struct Tables {
  Mutex mu;
  std::map<std::pair<int, std::vector<void*>>, int> dedupe
      SIMJ_GUARDED_BY(mu);  // (tid, leaf-first frames) -> index
  int stack_count SIMJ_GUARDED_BY(mu) = 0;
  StackEntry stacks[kMaxStacks];
  AddrSlot slots[kAddrSlots];
  std::atomic<int64_t> live_objects{0};
  std::atomic<int64_t> dropped{0};  // cumulative; drains ship deltas
  std::atomic<int64_t> truncated{0};
  stackprof::LossDelta dropped_delta SIMJ_GUARDED_BY(mu);
  stackprof::LossDelta truncated_delta SIMJ_GUARDED_BY(mu);
  stackprof::RemoteSections<HeapSection> remote SIMJ_GUARDED_BY(mu);
  stackprof::Symbolizer symbols SIMJ_GUARDED_BY(mu);
  int64_t sample_bytes SIMJ_GUARDED_BY(mu) = 0;
  std::chrono::steady_clock::time_point start SIMJ_GUARDED_BY(mu);
};

// Hook-visible arming state. All constant-initialized: the operator
// new/delete replacements run before main and during static destruction,
// where no dynamic initializer may be relied on.
std::atomic<bool> g_enabled{false};
std::atomic<int> g_armed_pid{0};
std::atomic<int64_t> g_active_sample_bytes{0};
std::atomic<Tables*> g_tables{nullptr};
std::atomic<uint64_t> g_capture_gen{0};
std::atomic<bool> g_atfork_registered{false};

// Per-thread sampling state. t_in_hook is the re-entrancy guard: while
// set, the hooks pass allocations straight through, so the profiler's own
// internal allocations (stack-table nodes, symbol strings, backtrace's
// lazy libgcc init) never recurse into the sampled path. POD thread-locals
// only — they stay readable during thread teardown.
thread_local bool t_in_hook = false;
thread_local int64_t t_countdown = 0;
thread_local uint64_t t_gen = 0;

// Scoped re-entrancy guard for every path that allocates while the
// profiler is (or may be) enabled — including drains and Stop, whose
// internal allocations would otherwise deadlock on Tables::mu.
class HookGuard {
 public:
  HookGuard() : active_(!t_in_hook) { t_in_hook = true; }
  ~HookGuard() {
    if (active_) t_in_hook = false;
  }
  HookGuard(const HookGuard&) = delete;
  HookGuard& operator=(const HookGuard&) = delete;

 private:
  bool active_;
};

[[maybe_unused]] size_t HomeSlot(uintptr_t p) {
  // Fibonacci hash of the address sans allocator-alignment bits.
  return static_cast<size_t>(((p >> 4) * 0x9E3779B97F4A7C15ull) >> 40) &
         kAddrMask;
}

// A fork()ed child inherits the arming flags and a possibly mid-mutation
// copy of the tables. Abandon both (the block is leaked — a few MiB once
// per child); async-signal-safe: atomic stores only.
[[maybe_unused]] void AtForkInChild() {
  g_enabled.store(false, std::memory_order_relaxed);
  g_active_sample_bytes.store(0, std::memory_order_relaxed);
  g_armed_pid.store(0, std::memory_order_relaxed);
  g_tables.store(nullptr, std::memory_order_relaxed);
}

// Records one sampled allocation: captures the raw stack, folds it into
// the (thread, frames) entry, and publishes the address in the live table.
// noinline so it is always frame [0] of its own backtrace (kSkipFrames).
[[maybe_unused]] __attribute__((noinline)) void RecordSample(
    void* ptr, std::size_t size) {
  HookGuard guard;
  t_countdown = g_active_sample_bytes.load(std::memory_order_relaxed);
  if (t_countdown <= 0) t_countdown = kDefaultSampleBytes;
  Tables* tables = g_tables.load(std::memory_order_acquire);
  if (tables == nullptr) return;
  void* raw[kMaxFrames + kSkipFrames];
  const int raw_depth = ::backtrace(raw, kMaxFrames + kSkipFrames);
  const int tid = stackprof::ThisTid();

  MutexLock lock(tables->mu);
  if (!g_enabled.load(std::memory_order_acquire)) return;  // Stop raced us
  const int begin = std::min(kSkipFrames, raw_depth);
  const int depth = raw_depth - begin;
  if (raw_depth >= kMaxFrames + kSkipFrames) {
    tables->truncated.fetch_add(1, std::memory_order_relaxed);
  }
  std::vector<void*> frames(raw + begin, raw + raw_depth);
  auto [it, inserted] =
      tables->dedupe.try_emplace({tid, std::move(frames)}, tables->stack_count);
  if (inserted) {
    if (tables->stack_count >= kMaxStacks) {
      tables->dedupe.erase(it);
      tables->dropped.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    StackEntry& fresh = tables->stacks[tables->stack_count++];
    fresh.tid = tid;
    fresh.depth = depth;
    std::memcpy(fresh.frames, raw + begin,
                sizeof(void*) * static_cast<size_t>(depth));
  }
  StackEntry& entry = tables->stacks[it->second];
  entry.alloc_bytes += static_cast<int64_t>(size);
  entry.alloc_objects += 1;

  // Liveness tracking: publish addr -> (entry, size) so operator delete
  // can decrement. Beyond capacity the allocation stays in the cumulative
  // counters but its liveness is dropped (counted).
  if (tables->live_objects.load(std::memory_order_relaxed) >=
      kMaxLiveObjects) {
    tables->dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  const uintptr_t p = reinterpret_cast<uintptr_t>(ptr);
  size_t slot_index = HomeSlot(p);
  for (int probe = 0; probe < kMaxProbes;
       ++probe, slot_index = (slot_index + 1) & kAddrMask) {
    AddrSlot& slot = tables->slots[slot_index];
    const uintptr_t current = slot.addr.load(std::memory_order_relaxed);
    if (current != 0 && current != kTombstone) continue;
    const uint64_t meta =
        (static_cast<uint64_t>(it->second) << 40) |
        (static_cast<uint64_t>(size) & kSizeMask);
    slot.meta.store(meta, std::memory_order_relaxed);
    slot.addr.store(p, std::memory_order_release);
    entry.inuse_bytes.fetch_add(static_cast<int64_t>(size),
                                std::memory_order_relaxed);
    entry.inuse_objects.fetch_add(1, std::memory_order_relaxed);
    tables->live_objects.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  tables->dropped.fetch_add(1, std::memory_order_relaxed);  // chain full
}

// The operator delete side: probe for the address and, if this free owns a
// sampled object, take it out of the live table. Lock-free — the common
// never-sampled free costs a handful of relaxed loads.
[[maybe_unused]] inline void RecordFree(void* ptr) {
  Tables* tables = g_tables.load(std::memory_order_acquire);
  if (tables == nullptr) return;
  const uintptr_t p = reinterpret_cast<uintptr_t>(ptr);
  size_t slot_index = HomeSlot(p);
  for (int probe = 0; probe < kMaxProbes;
       ++probe, slot_index = (slot_index + 1) & kAddrMask) {
    AddrSlot& slot = tables->slots[slot_index];
    uintptr_t current = slot.addr.load(std::memory_order_acquire);
    if (current == 0) return;  // end of chain: never sampled
    if (current != p) continue;
    const uint64_t meta = slot.meta.load(std::memory_order_relaxed);
    if (!slot.addr.compare_exchange_strong(current, kTombstone,
                                           std::memory_order_acq_rel)) {
      return;  // stop-clear won the slot and did the decrement
    }
    StackEntry& entry = tables->stacks[meta >> 40];
    entry.inuse_bytes.fetch_sub(static_cast<int64_t>(meta & kSizeMask),
                                std::memory_order_relaxed);
    entry.inuse_objects.fetch_sub(1, std::memory_order_relaxed);
    tables->live_objects.fetch_sub(1, std::memory_order_relaxed);
    return;
  }
}

// Allocation-side fast path, inlined into every operator new variant.
// Unarmed cost: one relaxed load. Armed cost: two relaxed loads and a
// countdown subtract; the sampled slow path runs once per sample_bytes.
[[maybe_unused]] inline void RecordAlloc(void* ptr, std::size_t size) {
  if (!g_enabled.load(std::memory_order_relaxed)) return;
  if (t_in_hook) return;
  const uint64_t gen = g_capture_gen.load(std::memory_order_relaxed);
  if (t_gen != gen) {
    // First armed allocation on this thread this capture: a full, fresh
    // countdown (deterministic — no RNG anywhere in the sampling path).
    t_gen = gen;
    t_countdown = g_active_sample_bytes.load(std::memory_order_relaxed);
  }
  t_countdown -= static_cast<int64_t>(size);
  if (t_countdown > 0) return;
  RecordSample(ptr, size);
}

[[maybe_unused]] inline void RecordDealloc(void* ptr) {
  if (ptr == nullptr) return;
  if (!g_enabled.load(std::memory_order_relaxed)) return;
  RecordFree(ptr);
}

Tables* GetOrCreateTablesSlow() {
  // Single-threaded by construction in practice (first StartHeapProfiling
  // or a fork child's re-arm); CAS settles any race, losers leak one block
  // — same never-freed discipline as the rest of the tables.
  HookGuard guard;
  Tables* fresh = new Tables();  // simj-lint: allow(new) leaky per-capture tables
  Tables* expected = nullptr;
  if (!g_tables.compare_exchange_strong(expected, fresh,
                                        std::memory_order_acq_rel)) {
    delete fresh;
    return expected;
  }
  return fresh;
}

Tables* GetOrCreateTables() {
  Tables* tables = g_tables.load(std::memory_order_acquire);
  return tables != nullptr ? tables : GetOrCreateTablesSlow();
}

// Drains every entry's counters as deltas against its shipped baselines
// (all entries when only_tid is 0, else that thread's). All-zero entries
// are skipped, so repeat drains of quiet stacks ship nothing. `names` is a
// registry snapshot taken before tables.mu: registering a thread may
// allocate, and a sampled allocation takes tables.mu.
HeapBatch DrainLocked(Tables& tables, const std::map<int, std::string>& names,
                      int only_tid) SIMJ_REQUIRES(tables.mu) {
  HeapBatch batch;
  for (int i = 0; i < tables.stack_count; ++i) {
    StackEntry& entry = tables.stacks[i];
    if (only_tid != 0 && entry.tid != only_tid) continue;
    const std::array<int64_t, 4> levels = entry.Levels();
    if (levels == entry.shipped) continue;
    HeapFoldedStack stack;
    for (size_t c = 0; c < levels.size(); ++c) {
      stack.*HeapSchema::kStackFields[c].member = levels[c] - entry.shipped[c];
    }
    entry.shipped = levels;
    stack.thread = stackprof::ThreadLabel(names, entry.tid);
    stack.frames = tables.symbols.RootFirst(entry.frames, entry.depth);
    batch.stacks.push_back(std::move(stack));
  }
  batch.dropped =
      tables.dropped_delta.Take(tables.dropped.load(std::memory_order_relaxed));
  batch.truncated = tables.truncated_delta.Take(
      tables.truncated.load(std::memory_order_relaxed));
  batch.Normalize();
  return batch;
}

// The armed drain path: `only_tid`'s entries, or every entry for 0.
HeapBatch Drain(int only_tid) {
  if (!HeapProfilingActive()) return HeapBatch();
  HookGuard guard;
  Tables* tables = g_tables.load(std::memory_order_acquire);
  if (tables == nullptr) return HeapBatch();
  const std::map<int, std::string> names = stackprof::ThreadNames();
  MutexLock lock(tables->mu);
  return DrainLocked(*tables, names, only_tid);
}

// Empties the live table, decrementing through the same CAS protocol as
// operator delete so an in-flight concurrent free and the clear can never
// both decrement one object.
void ClearLiveTableLocked(Tables& tables) SIMJ_REQUIRES(tables.mu) {
  for (AddrSlot& slot : tables.slots) {
    uintptr_t current = slot.addr.load(std::memory_order_acquire);
    if (current != 0 && current != kTombstone) {
      const uint64_t meta = slot.meta.load(std::memory_order_relaxed);
      if (slot.addr.compare_exchange_strong(current, kTombstone,
                                            std::memory_order_acq_rel)) {
        StackEntry& entry = tables.stacks[meta >> 40];
        entry.inuse_bytes.fetch_sub(
            static_cast<int64_t>(meta & kSizeMask),
            std::memory_order_relaxed);
        entry.inuse_objects.fetch_sub(1, std::memory_order_relaxed);
      }
    }
    slot.addr.store(0, std::memory_order_relaxed);
    slot.meta.store(0, std::memory_order_relaxed);
  }
  tables.live_objects.store(0, std::memory_order_relaxed);
}

}  // namespace

void HeapBatch::Normalize() {
  stackprof::NormalizeStacks<HeapSchema>(&stacks);
}

void HeapBatch::MergeFrom(const HeapBatch& other) {
  stackprof::MergeBatch<HeapSchema>(other, this);
}

int64_t HeapProfile::TotalInuseBytes() const {
  return stackprof::Total(sections, &HeapFoldedStack::inuse_bytes);
}

int64_t HeapProfile::TotalAllocBytes() const {
  return stackprof::Total(sections, &HeapFoldedStack::alloc_bytes);
}

int64_t HeapProfile::TotalAllocObjects() const {
  return stackprof::Total(sections, &HeapFoldedStack::alloc_objects);
}

int64_t HeapProfile::TotalDropped() const {
  return stackprof::Total(sections, &HeapBatch::dropped);
}

int64_t HeapProfile::TotalTruncated() const {
  return stackprof::Total(sections, &HeapBatch::truncated);
}

Status StartHeapProfiling(const HeapProfileOptions& options) {
  if (options.sample_bytes < 1024 ||
      options.sample_bytes > (int64_t{1} << 40)) {
    return InvalidArgumentError(
        "heap profiler sample_bytes out of range [1024, 2^40]: " +
        std::to_string(options.sample_bytes));
  }
#ifdef SIMJ_HEAP_PROFILER_UNDER_SANITIZER
  return FailedPreconditionError(
      "heap profiler disabled under sanitizers (ASan/TSan own the "
      "allocator; stacked interposition defeats their checks)");
#else
  HookGuard guard;
  Tables* tables = GetOrCreateTables();
  {
    MutexLock lock(tables->mu);
    const int pid = static_cast<int>(::getpid());
    if (g_enabled.load(std::memory_order_acquire)) {
      // The atfork handler clears stale fork-inherited state, so an enabled
      // flag here always means armed in this process.
      return FailedPreconditionError("heap profiler already armed");
    }
    if (!g_atfork_registered.exchange(true, std::memory_order_acq_rel)) {
      ::pthread_atfork(nullptr, nullptr, &AtForkInChild);
    }
    // Force the unwinder's lazy initialization (it may allocate on first
    // use) before the first in-hook backtrace.
    void* warmup[4];
    (void)::backtrace(warmup, 4);
    // Fresh capture: re-baseline every persistent entry and the loss
    // counters so this capture reports only its own activity.
    for (int i = 0; i < tables->stack_count; ++i) {
      tables->stacks[i].shipped = tables->stacks[i].Levels();
    }
    tables->dropped_delta.Rebase(
        tables->dropped.load(std::memory_order_relaxed));
    tables->truncated_delta.Rebase(
        tables->truncated.load(std::memory_order_relaxed));
    tables->remote.Discard();
    tables->sample_bytes = options.sample_bytes;
    tables->start = std::chrono::steady_clock::now();
    g_capture_gen.fetch_add(1, std::memory_order_relaxed);
    g_armed_pid.store(pid, std::memory_order_relaxed);
    g_active_sample_bytes.store(options.sample_bytes,
                                std::memory_order_relaxed);
    g_enabled.store(true, std::memory_order_release);
  }
  stackprof::BeginCapture();
  return Status::Ok();
#endif
}

StatusOr<HeapProfile> StopHeapProfiling() {
  HookGuard guard;
  Tables* tables = g_tables.load(std::memory_order_acquire);
  if (tables == nullptr || !HeapProfilingActive()) {
    return FailedPreconditionError("heap profiler not armed in this process");
  }
  const std::map<int, std::string> names = stackprof::ThreadNames();
  HeapProfile profile;
  {
    MutexLock lock(tables->mu);
    if (!g_enabled.load(std::memory_order_acquire)) {
      return FailedPreconditionError("heap profiler not armed in this process");
    }
    // Gate first: samplers already inside the mutex finished before us; ones
    // blocked on it re-check the gate and bail. Lock-free frees past the
    // gate race the table clear below through the CAS protocol.
    g_enabled.store(false, std::memory_order_release);
    g_active_sample_bytes.store(0, std::memory_order_relaxed);
    g_armed_pid.store(0, std::memory_order_relaxed);

    profile.sample_bytes = tables->sample_bytes;
    profile.duration_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      tables->start)
            .count();
    HeapBatch local = DrainLocked(*tables, names, 0);
    ClearLiveTableLocked(*tables);
    profile.sections = tables->remote.Take(local);
  }
  stackprof::EndCapture();
  return profile;
}

bool HeapProfilingActive() {
  return g_enabled.load(std::memory_order_acquire) &&
         g_armed_pid.load(std::memory_order_relaxed) ==
             static_cast<int>(::getpid());
}

int64_t ActiveSampleBytes() {
  return HeapProfilingActive()
             ? g_active_sample_bytes.load(std::memory_order_relaxed)
             : 0;
}

HeapBatch DrainThisThreadBatch() { return Drain(stackprof::ThisTid()); }

HeapBatch DrainAllThreadsBatch() { return Drain(0); }

void AccumulateRemoteSection(const std::string& label,
                             const HeapBatch& batch) {
  if (batch.empty()) return;
  HookGuard guard;
  Tables* tables = GetOrCreateTables();
  MutexLock lock(tables->mu);
  tables->remote.Accumulate(label, batch);
}

std::string HeapProfileJson(const HeapProfile& profile) {
  return stackprof::ProfileJson<HeapSchema>(
      "\"sample_bytes\":" + std::to_string(profile.sample_bytes) +
          ",\"duration_seconds\":" +
          FormatFixed3(profile.duration_seconds),
      profile.sections);
}

}  // namespace simj::heapprof

#ifndef SIMJ_HEAP_PROFILER_UNDER_SANITIZER

// ---------------------------------------------------------------------------
// Global allocator interposition. These replace the C++ runtime's operator
// new/new[]/delete/delete[] for every binary that links this object file.
// Confined to this file by tools/simj_lint.py's
// no-raw-allocator-interposition rule. malloc is the single backing
// allocator for every variant (posix_memalign memory is free()-compatible),
// so any new/delete pairing — sized, nothrow, aligned — funnels into the
// same record/free pair.
// ---------------------------------------------------------------------------

namespace {

// Unnamed-namespace members of simj::heapprof are reachable here by
// qualified name (implicit using-directive) — same TU only, by design.

inline void* SimjAlloc(std::size_t size) {
  void* ptr = std::malloc(size != 0 ? size : 1);
  if (ptr != nullptr) simj::heapprof::RecordAlloc(ptr, size);
  return ptr;
}

inline void* SimjAllocAligned(std::size_t size, std::size_t align) {
  // align_val_t is always a power of two; posix_memalign additionally
  // requires a multiple of sizeof(void*).
  if (align < sizeof(void*)) align = sizeof(void*);
  void* ptr = nullptr;
  if (::posix_memalign(&ptr, align, size != 0 ? size : 1) != 0) {
    return nullptr;
  }
  simj::heapprof::RecordAlloc(ptr, size);
  return ptr;
}

// Out of line on purpose: inlined, this file's operator delete lets GCC
// pair the std::free below with the builtin operator new behind
// std::allocator in this file's container code and warn
// (-Wmismatched-new-delete). Every variant here is malloc-backed, so that
// pairing is correct; out of line, each operator delete is a tail call.
[[gnu::noinline]] void SimjFree(void* ptr) {
  if (ptr == nullptr) return;
  // Record before free(): the allocator cannot reuse the address until
  // free() returns, so a live-table entry can never alias a new object.
  simj::heapprof::RecordDealloc(ptr);
  std::free(ptr);
}

}  // namespace

void* operator new(std::size_t size) {
  void* ptr = SimjAlloc(size);
  if (ptr == nullptr) throw std::bad_alloc();  // simj-lint: allow(exceptions)
  return ptr;
}

void* operator new[](std::size_t size) {
  void* ptr = SimjAlloc(size);
  if (ptr == nullptr) throw std::bad_alloc();  // simj-lint: allow(exceptions)
  return ptr;
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return SimjAlloc(size);
}

void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return SimjAlloc(size);
}

void* operator new(std::size_t size, std::align_val_t align) {
  void* ptr = SimjAllocAligned(size, static_cast<std::size_t>(align));
  if (ptr == nullptr) throw std::bad_alloc();  // simj-lint: allow(exceptions)
  return ptr;
}

void* operator new[](std::size_t size, std::align_val_t align) {
  void* ptr = SimjAllocAligned(size, static_cast<std::size_t>(align));
  if (ptr == nullptr) throw std::bad_alloc();  // simj-lint: allow(exceptions)
  return ptr;
}

void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return SimjAllocAligned(size, static_cast<std::size_t>(align));
}

void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return SimjAllocAligned(size, static_cast<std::size_t>(align));
}

void operator delete(void* ptr) noexcept { SimjFree(ptr); }
void operator delete[](void* ptr) noexcept { SimjFree(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { SimjFree(ptr); }
void operator delete[](void* ptr, std::size_t) noexcept { SimjFree(ptr); }
void operator delete(void* ptr, const std::nothrow_t&) noexcept {
  SimjFree(ptr);
}
void operator delete[](void* ptr, const std::nothrow_t&) noexcept {
  SimjFree(ptr);
}
void operator delete(void* ptr, std::align_val_t) noexcept { SimjFree(ptr); }
void operator delete[](void* ptr, std::align_val_t) noexcept {
  SimjFree(ptr);
}
void operator delete(void* ptr, std::size_t, std::align_val_t) noexcept {
  SimjFree(ptr);
}
void operator delete[](void* ptr, std::size_t, std::align_val_t) noexcept {
  SimjFree(ptr);
}
void operator delete(void* ptr, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  SimjFree(ptr);
}
void operator delete[](void* ptr, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  SimjFree(ptr);
}

#endif  // SIMJ_HEAP_PROFILER_UNDER_SANITIZER
