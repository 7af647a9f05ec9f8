// Scoped-span tracing with a Chrome-trace / Perfetto-compatible JSON dump.
//
// The tracer is a process-wide singleton, disabled by default. While
// disabled, ScopedSpan costs one relaxed atomic load and no clock reads —
// instrumentation can stay compiled into the hot path. When enabled
// (Tracer::Global().Start()), each span records a complete event
// ("ph":"X") with the thread's stable tid, a microsecond timestamp
// relative to Start(), and the span duration, into a per-thread buffer;
// WriteChromeTrace() merges the buffers into
//
//   {"displayTimeUnit":"ms","traceEvents":[{"name":...,"cat":...,
//    "ph":"X","pid":1,"tid":...,"ts":...,"dur":...}, ...]}
//
// which loads directly in chrome://tracing and https://ui.perfetto.dev.
// process_name/thread_name metadata events ("ph":"M") are emitted so
// Perfetto labels each worker lane; threads that called SetThisThreadName
// show their registered name ("join-worker-3", "statusz") instead of the
// bare tid.
//
// Cluster traces (DESIGN.md §10): the distributed join merges spans from
// every shard worker into this tracer so one --trace_out file shows the
// whole cluster timeline. Three pieces cooperate:
//
//   * pid lanes — TraceEvent carries a Chrome-trace pid (1 = this
//     process); RegisterProcessLane(pid, name) names additional process
//     lanes ("worker-3") and InjectEvents() files externally recorded
//     events under them;
//   * span context — events optionally carry Dapper-style trace/span ids
//     (trace_id / span_id / parent_span_id), serialized into the event's
//     "args" so a span shipped across the pipe keeps its parent link;
//   * thread capture — BeginThreadCapture()/EndThreadCapture() divert the
//     calling thread's spans into a private vector instead of the shared
//     buffers, which is how a shard worker collects the spans of one shard
//     execution for shipping (the coordinator re-injects them under the
//     worker's pid lane, so nothing is recorded twice).
//
// Independently of full tracing, SetRecentRing(true) arms a small
// per-thread ring buffer of the last kRecentRingCapacity completed spans,
// sampled by the /tracez endpoint of util/statusz — cheap enough to leave
// on for a whole production run (one mutex-guarded ring store per span).
// While both collectors are off, ScopedSpan still costs one relaxed load.

#ifndef SIMJ_UTIL_TRACE_H_
#define SIMJ_UTIL_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "util/sync.h"

namespace simj::trace {

// Stable, dense per-thread id (0 for the first thread that asks, 1 for the
// next, ...). Used as the Chrome-trace tid.
int ThisThreadTraceId();

// Capacity of the per-thread recent-span ring (see SetRecentRing).
inline constexpr int kRecentRingCapacity = 64;

struct TraceEvent {
  std::string name;
  std::string category;
  // Chrome-trace process lane. 1 is this process ("simj"); other lanes are
  // named via Tracer::RegisterProcessLane and populated by InjectEvents.
  int pid = 1;
  int tid = 0;
  double ts_us = 0.0;   // microseconds since the tracer epoch
  double dur_us = 0.0;  // span duration in microseconds
  // Cross-process span context (0 = unset, omitted from the JSON args).
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  uint64_t parent_span_id = 0;
};

// Registers a human-readable name for the calling thread ("main",
// "join-worker-3"). Shown in Chrome-trace thread_name metadata and in
// /tracez output. A no-op while both collectors are off, so idle
// processes never allocate trace buffers.
void SetThisThreadName(const std::string& name);

// The last completed spans of one thread, oldest first.
struct RecentThreadSpans {
  int tid = 0;
  std::string name;  // registered via SetThisThreadName, may be empty
  std::vector<TraceEvent> spans;
};

namespace internal {
// Non-null while the calling thread has an armed span capture (see
// Tracer::BeginThreadCapture). Lives here so ScopedSpan's disabled path
// can test it inline; treat as private to trace.cc.
extern thread_local std::vector<TraceEvent>* thread_capture;
}  // namespace internal

class Tracer {
 public:
  static Tracer& Global();

  // Discards previously collected events, re-arms the epoch and enables
  // collection.
  void Start();
  void Stop();
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  // Arms (or disarms) the per-thread recent-span rings. Independent of
  // Start/Stop: the ring keeps the last kRecentRingCapacity completed
  // spans per thread for live /tracez sampling.
  void SetRecentRing(bool enabled);
  bool recent_ring_enabled() const {
    return recent_enabled_.load(std::memory_order_relaxed);
  }

  // True when Record() would keep the span (full trace, recent ring, or an
  // armed thread capture on the calling thread).
  bool collecting() const {
    return enabled() || recent_ring_enabled() ||
           internal::thread_capture != nullptr;
  }

  using Clock = std::chrono::steady_clock;

  // Microseconds since the tracer epoch "now" — the timebase of every
  // recorded event. steady_clock is machine-wide and the epoch survives
  // fork(), so parent and forked-child timestamps share one timeline.
  double NowUs() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - epoch_)
        .count();
  }

  // Appends one complete event for the calling thread. Called by
  // ScopedSpan; safe from any thread while enabled.
  void Record(const char* name, const char* category, Clock::time_point begin,
              Clock::time_point end);

  // Diverts the calling thread's spans into a private vector until
  // EndThreadCapture(), which returns them (oldest first) and re-arms
  // normal recording. While a capture is armed, spans are recorded even if
  // the tracer is otherwise idle — a forked shard worker captures spans
  // regardless of its inherited enabled_ snapshot — and they do NOT land
  // in the shared buffers or the /tracez ring, so a later InjectEvents of
  // the same spans never double-records. Captures must not nest.
  void BeginThreadCapture();
  std::vector<TraceEvent> EndThreadCapture();

  // Names an additional Chrome-trace process lane ("worker-3"). Lane
  // registrations are cleared by Start(), like events.
  void RegisterProcessLane(int pid, const std::string& name);

  // Files externally recorded events (spans shipped back from a shard
  // worker, coordinator-synthesized attempt spans) under their events'
  // pid lanes. No-op while the tracer is disabled.
  void InjectEvents(std::vector<TraceEvent> events);

  // Number of events collected so far (across all threads + injected).
  int64_t event_count() const;

  // Point-in-time copy of every collected event (thread buffers and
  // injected), unsorted. For tests and post-run analysis.
  std::vector<TraceEvent> SnapshotEvents() const;

  // Serializes every collected event (sorted by timestamp, then pid/tid)
  // as Chrome trace JSON. Call after the traced work has quiesced.
  void WriteChromeTrace(std::ostream& os) const;

  // Point-in-time copy of every thread's recent-span ring (threads with no
  // spans omitted), sorted by tid, spans oldest first. Safe to call from
  // any thread while spans are still being recorded — each ring is copied
  // under its buffer mutex.
  std::vector<RecentThreadSpans> RecentSpans() const;

  // Registers `name` for the calling thread. Prefer the free function
  // SetThisThreadName, which skips the buffer allocation while idle.
  void SetThreadNameForThisThread(const std::string& name);

 private:
  Tracer() : epoch_(Clock::now()) {}

  struct ThreadBuffer {
    Mutex mu;  // recording thread vs. a concurrent dump
    // tid is deliberately NOT guarded: it is written once before the
    // buffer is published via buffers_ and read-only afterwards, so
    // Record() may read it without the lock.
    int tid = 0;
    std::string name SIMJ_GUARDED_BY(mu);  // registered name, may stay empty
    std::vector<TraceEvent> events SIMJ_GUARDED_BY(mu);
    // Ring of the last completed spans; ring_count grows monotonically and
    // (ring_count % kRecentRingCapacity) is the next write slot.
    std::vector<TraceEvent> ring SIMJ_GUARDED_BY(mu);
    int64_t ring_count SIMJ_GUARDED_BY(mu) = 0;
  };

  ThreadBuffer* BufferForThisThread();

  std::atomic<bool> enabled_{false};
  std::atomic<bool> recent_enabled_{false};
  Clock::time_point epoch_;

  // Lock order: mu_ before ThreadBuffer::mu (dumps iterate buffers_ under
  // mu_ and lock each buffer in turn).
  mutable Mutex mu_;  // guards buffers_ registration and iteration
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_ SIMJ_GUARDED_BY(mu_);
  // Merged remote events and named process lanes, both guarded by mu_.
  std::vector<TraceEvent> injected_ SIMJ_GUARDED_BY(mu_);
  std::vector<std::pair<int, std::string>> process_lanes_
      SIMJ_GUARDED_BY(mu_);
};

// Records the lifetime of a scope as a trace span. `name` and `category`
// must outlive the span (string literals in practice; dynamic names are
// copied at destruction time).
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, const char* category = "join")
      : name_(name), category_(category),
        active_(Tracer::Global().collecting()) {
    if (active_) begin_ = Tracer::Clock::now();
  }
  ~ScopedSpan() {
    if (active_) {
      Tracer::Global().Record(name_, category_, begin_,
                              Tracer::Clock::now());
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* name_;
  const char* category_;
  bool active_;
  Tracer::Clock::time_point begin_{};
};

}  // namespace simj::trace

#endif  // SIMJ_UTIL_TRACE_H_
