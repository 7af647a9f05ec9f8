#include "util/trace.h"

#include <algorithm>

#include "util/stack_profile.h"
#include "util/strings.h"

namespace simj::trace {

namespace internal {
thread_local std::vector<TraceEvent>* thread_capture = nullptr;
}  // namespace internal

int ThisThreadTraceId() {
  static std::atomic<int> next_id{0};
  thread_local int id = next_id.fetch_add(1, std::memory_order_relaxed);
  return id;
}

Tracer& Tracer::Global() {
  static Tracer* tracer = new Tracer();  // simj-lint: allow(new) leaky singleton
  return *tracer;
}

void Tracer::Start() {
  MutexLock lock(mu_);
  for (auto& buffer : buffers_) {
    MutexLock buffer_lock(buffer->mu);
    buffer->events.clear();
  }
  injected_.clear();
  process_lanes_.clear();
  epoch_ = Clock::now();
  enabled_.store(true, std::memory_order_relaxed);
}

void Tracer::Stop() { enabled_.store(false, std::memory_order_relaxed); }

void Tracer::SetRecentRing(bool enabled) {
  if (enabled) {
    // Arming discards stale rings so /tracez never mixes runs.
    MutexLock lock(mu_);
    for (auto& buffer : buffers_) {
      MutexLock buffer_lock(buffer->mu);
      buffer->ring_count = 0;
    }
  }
  recent_enabled_.store(enabled, std::memory_order_relaxed);
}

void Tracer::SetThreadNameForThisThread(const std::string& name) {
  ThreadBuffer* buffer = BufferForThisThread();
  MutexLock lock(buffer->mu);
  buffer->name = name;
}

void SetThisThreadName(const std::string& name) {
  // The profilers key sample attribution on thread names; register
  // unconditionally (bounded map entry, no buffer) so threads named before
  // a capture starts are covered by it.
  stackprof::NoteThisThread(name);
  Tracer& tracer = Tracer::Global();
  // Skipping the registration while idle keeps short-lived pools from
  // accumulating dead ThreadBuffers in processes that never introspect.
  if (!tracer.collecting()) return;
  tracer.SetThreadNameForThisThread(name);
}

Tracer::ThreadBuffer* Tracer::BufferForThisThread() {
  // One buffer per (tracer, thread); the pointer is cached thread-locally
  // after the first registration. Buffers outlive their threads, so events
  // recorded by short-lived workers survive the workers' exit.
  thread_local ThreadBuffer* cached = nullptr;
  if (cached == nullptr) {
    auto buffer = std::make_unique<ThreadBuffer>();
    buffer->tid = ThisThreadTraceId();
    cached = buffer.get();
    MutexLock lock(mu_);
    buffers_.push_back(std::move(buffer));
  }
  return cached;
}

void Tracer::Record(const char* name, const char* category,
                    Clock::time_point begin, Clock::time_point end) {
  // An armed thread capture owns this thread's spans outright: they are
  // destined for shipping + re-injection, so the shared buffers and the
  // /tracez ring must not see them now (that would double-record).
  if (internal::thread_capture != nullptr) {
    TraceEvent captured;
    captured.name = name;
    captured.category = category;
    captured.tid = ThisThreadTraceId();
    captured.ts_us =
        std::chrono::duration<double, std::micro>(begin - epoch_).count();
    captured.dur_us =
        std::chrono::duration<double, std::micro>(end - begin).count();
    internal::thread_capture->push_back(std::move(captured));
    return;
  }
  const bool to_events = enabled();
  const bool to_ring = recent_ring_enabled();
  if (!to_events && !to_ring) return;
  ThreadBuffer* buffer = BufferForThisThread();
  TraceEvent event;
  event.name = name;
  event.category = category;
  event.tid = buffer->tid;
  event.ts_us =
      std::chrono::duration<double, std::micro>(begin - epoch_).count();
  event.dur_us = std::chrono::duration<double, std::micro>(end - begin).count();
  MutexLock lock(buffer->mu);
  if (to_ring) {
    if (buffer->ring.size() < static_cast<size_t>(kRecentRingCapacity)) {
      buffer->ring.resize(kRecentRingCapacity);
    }
    buffer->ring[buffer->ring_count % kRecentRingCapacity] = event;
    ++buffer->ring_count;
  }
  if (to_events) buffer->events.push_back(std::move(event));
}

void Tracer::BeginThreadCapture() {
  // Captures must not nest; a leftover pointer here would mean a worker
  // leaked a capture across shard executions.
  if (internal::thread_capture != nullptr) return;
  internal::thread_capture =
      new std::vector<TraceEvent>();  // simj-lint: allow(new) owned by EndThreadCapture
}

std::vector<TraceEvent> Tracer::EndThreadCapture() {
  std::vector<TraceEvent>* capture = internal::thread_capture;
  internal::thread_capture = nullptr;
  if (capture == nullptr) return {};
  std::vector<TraceEvent> out = std::move(*capture);
  delete capture;
  return out;
}

void Tracer::RegisterProcessLane(int pid, const std::string& name) {
  MutexLock lock(mu_);
  for (auto& [lane_pid, lane_name] : process_lanes_) {
    if (lane_pid == pid) {
      lane_name = name;
      return;
    }
  }
  process_lanes_.emplace_back(pid, name);
}

void Tracer::InjectEvents(std::vector<TraceEvent> events) {
  if (!enabled() || events.empty()) return;
  MutexLock lock(mu_);
  injected_.insert(injected_.end(), std::make_move_iterator(events.begin()),
                   std::make_move_iterator(events.end()));
}

std::vector<RecentThreadSpans> Tracer::RecentSpans() const {
  std::vector<RecentThreadSpans> out;
  {
    MutexLock lock(mu_);
    for (const auto& buffer : buffers_) {
      MutexLock buffer_lock(buffer->mu);
      if (buffer->ring_count == 0) continue;
      RecentThreadSpans thread;
      thread.tid = buffer->tid;
      thread.name = buffer->name;
      const int64_t kept = std::min<int64_t>(
          buffer->ring_count, kRecentRingCapacity);
      thread.spans.reserve(static_cast<size_t>(kept));
      for (int64_t i = buffer->ring_count - kept; i < buffer->ring_count;
           ++i) {
        thread.spans.push_back(buffer->ring[i % kRecentRingCapacity]);
      }
      out.push_back(std::move(thread));
    }
  }
  std::sort(out.begin(), out.end(),
            [](const RecentThreadSpans& a, const RecentThreadSpans& b) {
              return a.tid < b.tid;
            });
  return out;
}

int64_t Tracer::event_count() const {
  MutexLock lock(mu_);
  int64_t total = static_cast<int64_t>(injected_.size());
  for (const auto& buffer : buffers_) {
    MutexLock buffer_lock(buffer->mu);
    total += static_cast<int64_t>(buffer->events.size());
  }
  return total;
}

std::vector<TraceEvent> Tracer::SnapshotEvents() const {
  MutexLock lock(mu_);
  std::vector<TraceEvent> events = injected_;
  for (const auto& buffer : buffers_) {
    MutexLock buffer_lock(buffer->mu);
    events.insert(events.end(), buffer->events.begin(), buffer->events.end());
  }
  return events;
}

void Tracer::WriteChromeTrace(std::ostream& os) const {
  std::vector<TraceEvent> events;
  std::vector<std::pair<int, std::string>> lanes;  // (tid, registered name)
  std::vector<std::pair<int, std::string>> proc_lanes;  // (pid, name)
  {
    MutexLock lock(mu_);
    proc_lanes = process_lanes_;
    events = injected_;
    for (const auto& buffer : buffers_) {
      MutexLock buffer_lock(buffer->mu);
      if (buffer->events.empty()) continue;
      lanes.emplace_back(buffer->tid, buffer->name);
      events.insert(events.end(), buffer->events.begin(),
                    buffer->events.end());
    }
  }
  std::sort(events.begin(), events.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              if (a.ts_us != b.ts_us) return a.ts_us < b.ts_us;
              if (a.pid != b.pid) return a.pid < b.pid;
              return a.tid < b.tid;
            });
  std::sort(lanes.begin(), lanes.end());
  std::sort(proc_lanes.begin(), proc_lanes.end());

  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  auto comma = [&] {
    if (!first) os << ",";
    first = false;
  };
  comma();
  os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
        "\"args\":{\"name\":\"simj\"}}";
  for (const auto& [pid, name] : proc_lanes) {
    if (pid == 1) continue;  // pid 1 is always "simj"
    comma();
    os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << pid
       << ",\"tid\":0,\"args\":{\"name\":\"" << JsonEscape(name) << "\"}}";
  }
  for (const auto& [tid, name] : lanes) {
    std::string lane_name =
        name.empty() ? "thread-" + std::to_string(tid) : JsonEscape(name);
    comma();
    os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" << tid
       << ",\"args\":{\"name\":\"" << lane_name << "\"}}";
  }
  for (const TraceEvent& event : events) {
    comma();
    os << "{\"name\":\"" << JsonEscape(event.name) << "\",\"cat\":\""
       << JsonEscape(event.category) << "\",\"ph\":\"X\",\"pid\":" << event.pid
       << ",\"tid\":" << event.tid << ",\"ts\":" << FormatFixed3(event.ts_us)
       << ",\"dur\":" << FormatFixed3(event.dur_us);
    if (event.trace_id != 0 || event.span_id != 0 ||
        event.parent_span_id != 0) {
      os << ",\"args\":{\"trace_id\":\"" << event.trace_id
         << "\",\"span_id\":\"" << event.span_id << "\",\"parent_span_id\":\""
         << event.parent_span_id << "\"}";
    }
    os << "}";
  }
  os << "]}\n";
}

}  // namespace simj::trace
