#include "util/profiler.h"

#include <execinfo.h>
#include <pthread.h>
#include <signal.h>
#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <map>
#include <thread>

#include "util/log.h"
#include "util/strings.h"
#include "util/sync.h"

// Linux delivers SIGEV_THREAD_ID timer expirations to one specific thread;
// glibc only started exposing the sigevent spellings recently, so provide
// the (stable, kernel-ABI) fallbacks for older headers.
#ifndef SIGEV_THREAD_ID
#define SIGEV_THREAD_ID 4
#endif
#ifndef sigev_notify_thread_id
#define sigev_notify_thread_id _sigev_un._tid
#endif

// The profiler's SIGPROF handler calls backtrace(), whose unwinder TSan
// does not consider signal-safe; cluster_sim_test's process transport
// self-disables under TSan for the same class of reason. The rest of the
// profiler (schema emission, batch merging) stays live.
#if defined(__SANITIZE_THREAD__)
#define SIMJ_PROFILER_UNDER_TSAN 1
#endif
#if !defined(SIMJ_PROFILER_UNDER_TSAN) && defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define SIMJ_PROFILER_UNDER_TSAN 1
#endif
#endif

namespace simj::prof {

namespace {

using stackprof::ThisTid;

// Linux encodes "the scheduling CPU-time clock of thread `tid`" as
// ((~tid) << 3) | 6 (CPUCLOCK_SCHED with the per-thread bit) — the same
// value pthread_getcpuclockid computes. Built from the raw tid because
// StartProfiling arms timers for *other* threads, where no pthread_t is at
// hand. timer_create fails cleanly for a tid that no longer exists, which
// is how stale registrations are pruned.
clockid_t ThreadCpuClockId(int tid) {
  return static_cast<clockid_t>(
      ((~static_cast<unsigned int>(tid)) << 3) | 6u);
}

// One raw stack sample. `depth` counts valid leading entries of `frames`
// (leaf-first, as backtrace() returns them).
struct RawSample {
  int32_t depth = 0;
  void* frames[kMaxFrames];
};

// Per-thread sample ring, shared lock-free between the SIGPROF handler
// (producer, on the sampled thread) and a draining thread (consumer, under
// the registry mutex). write_pos advances with release order only after
// the sample is fully written; drains read it with acquire, so a drain
// never observes a half-written sample. Overflow is counted, not wrapped:
// a capture keeps its oldest samples and reports exactly what it lost.
struct ThreadSlot {
  std::atomic<int> tid{0};  // 0 = free; claimed by CAS (handler or drainer)
  std::atomic<uint32_t> write_pos{0};
  std::atomic<uint32_t> read_pos{0};
  std::atomic<int64_t> dropped{0};
  std::atomic<int64_t> truncated{0};
  RawSample* ring = nullptr;  // [kRingCapacity]; allocated before arming

  // Normal-context bookkeeping (registry mutex): the thread's timer and
  // the per-drain deltas of the cumulative loss atomics.
  timer_t timer{};
  bool timer_armed = false;
  stackprof::LossDelta dropped_delta;
  stackprof::LossDelta truncated_delta;
};

ThreadSlot g_slots[kMaxThreads];

// Handler-visible arming state. g_armed is the handler's gate: stored with
// release order after the rings and handler are set up, so an acquire load
// in the handler sees complete state. g_armed_pid distinguishes a fork()ed
// child inheriting the parent's flags from a genuinely armed process
// (POSIX timers do not survive fork, so the child's state is stale).
std::atomic<bool> g_armed{false};
std::atomic<int> g_armed_pid{0};
std::atomic<int> g_active_hz{0};
// Samples that arrived on a thread no slot could be claimed for (all
// kMaxThreads slots taken); folded into the local section's drop count.
std::atomic<int64_t> g_unattributed{0};

[[maybe_unused]] void SigProfHandler(int /*signo*/) {
  // Async-signal-safe only (tools/simj_lint.py signal-handler-safety):
  // raw syscalls, atomics with explicit orders, backtrace(). No
  // allocation, no locks, no symbolization — that all happens at drain
  // time (DESIGN.md §12).
  const int saved_errno = errno;
  if (g_armed.load(std::memory_order_acquire)) {
    const int tid = static_cast<int>(::syscall(SYS_gettid));
    ThreadSlot* slot = nullptr;
    for (int i = 0; i < kMaxThreads; ++i) {
      int claimed = g_slots[i].tid.load(std::memory_order_acquire);
      if (claimed == tid) {
        slot = &g_slots[i];
        break;
      }
      if (claimed == 0 &&
          g_slots[i].tid.compare_exchange_strong(
              claimed, tid, std::memory_order_acq_rel)) {
        slot = &g_slots[i];
        break;
      }
    }
    if (slot == nullptr || slot->ring == nullptr) {
      g_unattributed.fetch_add(1, std::memory_order_relaxed);
    } else {
      const uint32_t w = slot->write_pos.load(std::memory_order_relaxed);
      const uint32_t r = slot->read_pos.load(std::memory_order_acquire);
      if (w - r >= static_cast<uint32_t>(kRingCapacity)) {
        slot->dropped.fetch_add(1, std::memory_order_relaxed);
      } else {
        RawSample& sample =
            slot->ring[w % static_cast<uint32_t>(kRingCapacity)];
        sample.depth = ::backtrace(sample.frames, kMaxFrames);
        if (sample.depth >= kMaxFrames) {
          slot->truncated.fetch_add(1, std::memory_order_relaxed);
        }
        slot->write_pos.store(w + 1, std::memory_order_release);
      }
    }
  }
  errno = saved_errno;
}

struct Registry {
  Mutex mu;
  stackprof::RemoteSections<ProfileSection> remote SIMJ_GUARDED_BY(mu);
  stackprof::Symbolizer symbols SIMJ_GUARDED_BY(mu);
  bool rings_allocated SIMJ_GUARDED_BY(mu) = false;
  bool handler_installed SIMJ_GUARDED_BY(mu) = false;
  int hz SIMJ_GUARDED_BY(mu) = 0;
  std::chrono::steady_clock::time_point start SIMJ_GUARDED_BY(mu);
};

Registry& GlobalRegistry() {
  static Registry* registry = new Registry();  // simj-lint: allow(new) leaky singleton
  return *registry;
}

// Finds (or CAS-claims) the slot for `tid`. nullptr when all slots are
// taken — that thread simply goes unsampled (no timer is armed for it).
ThreadSlot* ClaimSlot(int tid) {
  for (int i = 0; i < kMaxThreads; ++i) {
    int claimed = g_slots[i].tid.load(std::memory_order_acquire);
    if (claimed == tid) return &g_slots[i];
    if (claimed == 0 &&
        g_slots[i].tid.compare_exchange_strong(claimed, tid,
                                               std::memory_order_acq_rel)) {
      return &g_slots[i];
    }
  }
  return nullptr;
}

bool ArmTimerLocked(Registry& reg, ThreadSlot* slot, int tid)
    SIMJ_REQUIRES(reg.mu) {
  if (slot->timer_armed) return true;
  struct sigevent sev {};
  sev.sigev_notify = SIGEV_THREAD_ID;
  sev.sigev_signo = SIGPROF;
  sev.sigev_notify_thread_id = tid;
  timer_t timer{};
  if (::timer_create(ThreadCpuClockId(tid), &sev, &timer) != 0) {
    return false;  // typically a thread that has already exited
  }
  const long period_ns =
      std::max<long>(1000000000L / std::max(reg.hz, 1), 100000L);
  itimerspec spec{};
  spec.it_interval.tv_sec = period_ns / 1000000000L;
  spec.it_interval.tv_nsec = period_ns % 1000000000L;
  spec.it_value = spec.it_interval;
  if (::timer_settime(timer, 0, &spec, nullptr) != 0) {
    ::timer_delete(timer);
    return false;
  }
  slot->timer = timer;
  slot->timer_armed = true;
  return true;
}

// A fork()ed child inherits the parent's flags, rings and slots, but none
// of its timers or threads: every slot tid is stale. Reset to a blank,
// disarmed profiler so the child can arm itself cleanly. (Inherited name
// registrations stay: their tids fail timer_create and are pruned.)
[[maybe_unused]] void ResetAfterForkLocked(Registry& reg)
    SIMJ_REQUIRES(reg.mu) {
  g_armed.store(false, std::memory_order_release);
  g_active_hz.store(0, std::memory_order_relaxed);
  g_armed_pid.store(0, std::memory_order_relaxed);
  g_unattributed.store(0, std::memory_order_relaxed);
  for (ThreadSlot& slot : g_slots) {
    slot.tid.store(0, std::memory_order_release);
    slot.write_pos.store(0, std::memory_order_relaxed);
    slot.read_pos.store(0, std::memory_order_relaxed);
    slot.dropped.store(0, std::memory_order_relaxed);
    slot.truncated.store(0, std::memory_order_relaxed);
    slot.timer_armed = false;  // the parent's timer ids mean nothing here
    slot.dropped_delta = slot.truncated_delta = stackprof::LossDelta();
  }
  reg.remote.Discard();
}

// Drains `only_tid`'s ring, or every ring for 0, into one normalized
// batch: the symbolized samples plus each slot's untold drop/truncation
// deltas.
SampleBatch DrainRingsLocked(Registry& reg, int only_tid)
    SIMJ_REQUIRES(reg.mu) {
  const std::map<int, std::string> names = stackprof::ThreadNames();
  SampleBatch batch;
  for (ThreadSlot& slot : g_slots) {
    const int tid = slot.tid.load(std::memory_order_acquire);
    if (tid == 0 || slot.ring == nullptr) continue;
    if (only_tid != 0 && tid != only_tid) continue;
    const uint32_t w = slot.write_pos.load(std::memory_order_acquire);
    const uint32_t r = slot.read_pos.load(std::memory_order_relaxed);
    const std::string thread_label = stackprof::ThreadLabel(names, tid);
    for (uint32_t i = r; i != w; ++i) {
      const RawSample& sample =
          slot.ring[i % static_cast<uint32_t>(kRingCapacity)];
      const int depth = std::min<int>(sample.depth, kMaxFrames);
      // Strip the profiler's own frames. backtrace() inside a signal
      // handler always yields [handler, kernel signal trampoline,
      // interrupted PC, ...] leaf-first on Linux, so drop the two leading
      // frames by position (the handler has internal linkage and rarely
      // symbolizes by name), plus a defensive check in case the
      // trampoline unwinds to two frames.
      int begin = std::min(2, depth);
      if (begin < depth &&
          reg.symbols.Name(sample.frames[begin]).find("__restore") !=
              std::string::npos) {
        ++begin;
      }
      batch.stacks.push_back(
          {thread_label,
           reg.symbols.RootFirst(sample.frames + begin, depth - begin), 1});
    }
    slot.read_pos.store(w, std::memory_order_release);
    batch.samples += static_cast<int64_t>(w - r);
    batch.dropped +=
        slot.dropped_delta.Take(slot.dropped.load(std::memory_order_relaxed));
    batch.truncated += slot.truncated_delta.Take(
        slot.truncated.load(std::memory_order_relaxed));
  }
  batch.Normalize();
  return batch;
}

// The armed drain path for DrainThisThreadBatch/DrainAllThreadsBatch.
SampleBatch DrainRings(int only_tid) {
  if (!ProfilingActive()) return SampleBatch();
  Registry& reg = GlobalRegistry();
  MutexLock lock(reg.mu);
  return DrainRingsLocked(reg, only_tid);
}

void DisarmTimersLocked(Registry& reg) SIMJ_REQUIRES(reg.mu) {
  (void)reg;
  for (ThreadSlot& slot : g_slots) {
    if (slot.timer_armed) {
      ::timer_delete(slot.timer);
      slot.timer_armed = false;
    }
  }
}

// Installed as the registry's noted-thread hook: a thread named while a
// capture runs is covered from then on.
[[maybe_unused]] void OnThreadNoted(int tid, const std::string& name) {
  Registry& reg = GlobalRegistry();
  MutexLock lock(reg.mu);
  if (!ProfilingActive()) return;
  ThreadSlot* slot = ClaimSlot(tid);
  if (slot != nullptr && !ArmTimerLocked(reg, slot, tid)) {
    SIMJ_LOG(WARN) << "profiler: cannot arm timer for thread '" << name
                   << "' (tid " << tid << ")";
  }
}

}  // namespace

void SampleBatch::Normalize() {
  stackprof::NormalizeStacks<ProfileSchema>(&stacks);
}

void SampleBatch::MergeFrom(const SampleBatch& other) {
  stackprof::MergeBatch<ProfileSchema>(other, this);
}

int64_t Profile::TotalSamples() const {
  return stackprof::Total(sections, &SampleBatch::samples);
}

int64_t Profile::TotalDropped() const {
  return stackprof::Total(sections, &SampleBatch::dropped);
}

int64_t Profile::TotalTruncated() const {
  return stackprof::Total(sections, &SampleBatch::truncated);
}

Status StartProfiling(const ProfileOptions& options) {
  if (options.hz < 1 || options.hz > 10000) {
    return InvalidArgumentError("profiler hz out of range [1, 10000]: " +
                                std::to_string(options.hz));
  }
#ifdef SIMJ_PROFILER_UNDER_TSAN
  return FailedPreconditionError(
      "profiler disabled under ThreadSanitizer (backtrace() in a signal "
      "handler is not TSan-safe)");
#else
  Registry& reg = GlobalRegistry();
  MutexLock lock(reg.mu);
  const int pid = static_cast<int>(::getpid());
  if (g_armed.load(std::memory_order_acquire)) {
    if (g_armed_pid.load(std::memory_order_relaxed) == pid) {
      return FailedPreconditionError("profiler already armed");
    }
    ResetAfterForkLocked(reg);  // stale state inherited across fork()
  }
  if (!reg.rings_allocated) {
    for (ThreadSlot& slot : g_slots) {
      slot.ring = new RawSample[kRingCapacity];  // simj-lint: allow(new) preallocated rings, never freed
    }
    reg.rings_allocated = true;
  }
  // Force the unwinder's lazy initialization (it may allocate on first
  // use) outside signal context, before any handler can run.
  void* warmup[4];
  (void)::backtrace(warmup, 4);
  if (!reg.handler_installed) {
    struct sigaction sa {};
    sa.sa_handler = &SigProfHandler;
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = SA_RESTART;
    if (::sigaction(SIGPROF, &sa, nullptr) != 0) {
      return InternalError(std::string("profiler: sigaction(SIGPROF): ") +
                           std::strerror(errno));
    }
    // A fork() while another thread holds reg.mu would leave the child —
    // which arms its own profiler (DESIGN.md §12) — a mutex no thread there
    // can release, so the forking thread holds it across fork().
    ::pthread_atfork(
        []() SIMJ_NO_THREAD_SAFETY_ANALYSIS { GlobalRegistry().mu.Lock(); },
        []() SIMJ_NO_THREAD_SAFETY_ANALYSIS { GlobalRegistry().mu.Unlock(); },
        []() SIMJ_NO_THREAD_SAFETY_ANALYSIS { GlobalRegistry().mu.Unlock(); });
    reg.handler_installed = true;
  }
  reg.hz = options.hz;
  stackprof::SetThreadNotedHook(&OnThreadNoted);
  // The arming thread is always covered, named or not.
  const int self = ThisTid();
  (void)ClaimSlot(self);
  // Fresh capture: discard inter-capture residue and re-baseline the
  // cumulative loss counters so this capture reports only its own.
  for (ThreadSlot& slot : g_slots) {
    if (slot.tid.load(std::memory_order_acquire) == 0) continue;
    slot.read_pos.store(slot.write_pos.load(std::memory_order_relaxed),
                        std::memory_order_release);
    slot.dropped_delta.Rebase(slot.dropped.load(std::memory_order_relaxed));
    slot.truncated_delta.Rebase(
        slot.truncated.load(std::memory_order_relaxed));
  }
  g_unattributed.store(0, std::memory_order_relaxed);
  reg.start = std::chrono::steady_clock::now();
  g_armed_pid.store(pid, std::memory_order_relaxed);
  g_active_hz.store(options.hz, std::memory_order_relaxed);
  g_armed.store(true, std::memory_order_release);
  // One CPU-time timer per registered live thread. Registered tids whose
  // thread has exited fail timer_create and are pruned.
  const std::map<int, std::string> names = stackprof::ThreadNames();
  int armed_timers = 0;
  for (const auto& [tid, name] : names) {
    ThreadSlot* slot = ClaimSlot(tid);
    if (slot != nullptr && ArmTimerLocked(reg, slot, tid)) {
      ++armed_timers;
    } else if (slot != nullptr && tid != self) {
      slot->tid.store(0, std::memory_order_release);  // dead thread: recycle
      stackprof::ForgetThread(tid);
    }
  }
  ThreadSlot* self_slot = ClaimSlot(self);
  if (self_slot != nullptr && ArmTimerLocked(reg, self_slot, self)) {
    // Counted above when `self` was registered by name; arming twice is a
    // no-op thanks to the timer_armed flag.
    if (names.find(self) == names.end()) ++armed_timers;
  }
  if (armed_timers == 0) {
    DisarmTimersLocked(reg);
    g_armed.store(false, std::memory_order_release);
    g_active_hz.store(0, std::memory_order_relaxed);
    return InternalError("profiler: could not arm any per-thread CPU timer");
  }
  stackprof::BeginCapture();
  return Status::Ok();
#endif
}

StatusOr<Profile> StopProfiling() {
  Registry& reg = GlobalRegistry();
  MutexLock lock(reg.mu);
  if (!ProfilingActive()) {
    return FailedPreconditionError("profiler not armed in this process");
  }
  // Gate first (a handler mid-flight past the gate finishes writing into
  // its ring via atomics; its sample is simply discarded by the next
  // Start), then delete the timers.
  g_armed.store(false, std::memory_order_release);
  g_active_hz.store(0, std::memory_order_relaxed);
  DisarmTimersLocked(reg);

  Profile profile;
  profile.hz = reg.hz;
  profile.period_us = reg.hz > 0 ? 1e6 / reg.hz : 0.0;
  profile.duration_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    reg.start)
          .count();
  SampleBatch local = DrainRingsLocked(reg, 0);
  stackprof::EndCapture();
  local.dropped += g_unattributed.exchange(0, std::memory_order_relaxed);
  profile.sections = reg.remote.Take(local);
  return profile;
}

bool ProfilingActive() {
  return g_armed.load(std::memory_order_acquire) &&
         g_armed_pid.load(std::memory_order_relaxed) ==
             static_cast<int>(::getpid());
}

int ActiveHz() {
  return ProfilingActive() ? g_active_hz.load(std::memory_order_relaxed) : 0;
}

StatusOr<Profile> CaptureProfile(double seconds, int hz) {
  Status started = StartProfiling(ProfileOptions{hz});
  if (!started.ok()) return started;
  std::this_thread::sleep_for(
      std::chrono::duration<double>(std::clamp(seconds, 0.01, 600.0)));
  return StopProfiling();
}

SampleBatch DrainThisThreadBatch() { return DrainRings(ThisTid()); }

SampleBatch DrainAllThreadsBatch() { return DrainRings(0); }

void AccumulateRemoteSection(const std::string& label,
                             const SampleBatch& batch) {
  if (batch.empty()) return;
  Registry& reg = GlobalRegistry();
  MutexLock lock(reg.mu);
  reg.remote.Accumulate(label, batch);
}

std::string ProfileJson(const Profile& profile) {
  return stackprof::ProfileJson<ProfileSchema>(
      "\"hz\":" + std::to_string(profile.hz) +
          ",\"period_us\":" + FormatFixed3(profile.period_us) +
          ",\"duration_seconds\":" +
          FormatFixed3(profile.duration_seconds),
      profile.sections);
}

std::string FoldedText(const Profile& profile) {
  return stackprof::FoldedText<ProfileSchema>(profile.sections);
}

}  // namespace simj::prof
