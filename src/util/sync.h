// Capability-annotated synchronization primitives: the project's only
// sanctioned mutex and condition variable (DESIGN.md §11).
//
// simj::Mutex wraps std::mutex and carries Clang's thread-safety
// capability attributes, so a Clang build with -Wthread-safety (wired up
// in CMakeLists.txt, errors under SIMJ_WERROR) statically checks that
//
//   * every field annotated SIMJ_GUARDED_BY(mu) is only touched while mu
//     is held,
//   * functions annotated SIMJ_REQUIRES(mu) are only called with mu held,
//     and SIMJ_EXCLUDES(mu) ones without it,
//   * a MutexLock actually releases what it acquired (scoped capability).
//
// On GCC (the default CI toolchain) every annotation macro expands to
// nothing and the wrappers are zero-cost forwarding shims around
// std::mutex / std::condition_variable — same codegen, no behavior
// change. The annotations are still load-bearing there: tools/lock_order.py
// parses Mutex declarations and MutexLock acquisition sites out of the
// source to build the static lock-order graph and fail CI on cycles.
//
// Conventions (enforced by review + DESIGN.md §11, checked by Clang when
// available):
//
//   * no naked std::mutex / std::condition_variable in src/ — always the
//     wrappers, so every lock is visible to the analyses;
//   * every field a Mutex protects carries SIMJ_GUARDED_BY(mu_) at the
//     declaration;
//   * dynamic lock edges the static extractor cannot see (virtual calls,
//     std::function callbacks) are declared next to the call site with a
//     `// simj-lock-order: A -> B` comment (see tools/lock_order.py).

#ifndef SIMJ_UTIL_SYNC_H_
#define SIMJ_UTIL_SYNC_H_

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <utility>

// ---------------------------------------------------------------------------
// Clang thread-safety annotation macros (no-ops on other compilers).
// Spellings follow the Clang documentation's canonical mutex.h.
// ---------------------------------------------------------------------------

#if defined(__clang__)
#define SIMJ_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define SIMJ_THREAD_ANNOTATION(x)  // no-op: GCC ignores the analysis
#endif

#define SIMJ_CAPABILITY(x) SIMJ_THREAD_ANNOTATION(capability(x))
#define SIMJ_SCOPED_CAPABILITY SIMJ_THREAD_ANNOTATION(scoped_lockable)
#define SIMJ_GUARDED_BY(x) SIMJ_THREAD_ANNOTATION(guarded_by(x))
#define SIMJ_PT_GUARDED_BY(x) SIMJ_THREAD_ANNOTATION(pt_guarded_by(x))
#define SIMJ_ACQUIRED_BEFORE(...) \
  SIMJ_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))
#define SIMJ_ACQUIRED_AFTER(...) \
  SIMJ_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))
#define SIMJ_REQUIRES(...) \
  SIMJ_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define SIMJ_ACQUIRE(...) \
  SIMJ_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define SIMJ_RELEASE(...) \
  SIMJ_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define SIMJ_TRY_ACQUIRE(...) \
  SIMJ_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))
#define SIMJ_EXCLUDES(...) SIMJ_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
#define SIMJ_ASSERT_CAPABILITY(x) \
  SIMJ_THREAD_ANNOTATION(assert_capability(x))
#define SIMJ_RETURN_CAPABILITY(x) SIMJ_THREAD_ANNOTATION(lock_returned(x))
#define SIMJ_NO_THREAD_SAFETY_ANALYSIS \
  SIMJ_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace simj {

// A std::mutex that Clang's analysis (and tools/lock_order.py) can see.
// Non-reentrant, non-timed — exactly the subset the codebase uses. Prefer
// MutexLock over manual Lock()/Unlock(); the scoped form is what both
// analyses understand best.
class SIMJ_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() SIMJ_ACQUIRE() { mu_.lock(); }
  void Unlock() SIMJ_RELEASE() { mu_.unlock(); }
  bool TryLock() SIMJ_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  friend class CondVar;
  std::mutex mu_;
};

// RAII lock — the project's replacement for std::lock_guard/unique_lock.
class SIMJ_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) SIMJ_ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~MutexLock() SIMJ_RELEASE() { mu_.Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

// Condition variable bound to simj::Mutex. Wait() takes the Mutex (not the
// MutexLock) so the REQUIRES annotation names the capability being
// released and reacquired — the caller must already hold it via a
// MutexLock in the same scope.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  // Atomically releases `mu`, blocks, and reacquires `mu` before
  // returning. Spurious wakeups happen; re-check the predicate.
  void Wait(Mutex& mu) SIMJ_REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    cv_.wait(lock);
    lock.release();  // ownership stays with the caller's MutexLock
  }

  // Waits until pred() is true. pred runs with `mu` held.
  template <typename Predicate>
  void Wait(Mutex& mu, Predicate pred) SIMJ_REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    cv_.wait(lock, std::move(pred));
    lock.release();
  }

  // Like Wait(mu), but returns once `timeout` has passed even if nobody
  // notified.
  template <typename Rep, typename Period>
  void WaitFor(Mutex& mu, const std::chrono::duration<Rep, Period>& timeout)
      SIMJ_REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    cv_.wait_for(lock, timeout);
    lock.release();
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace simj

#endif  // SIMJ_UTIL_SYNC_H_
