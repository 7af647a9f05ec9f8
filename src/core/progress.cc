#include "core/progress.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <utility>

#include "core/join.h"
#include "util/health.h"
#include "util/log.h"
#include "util/trace.h"

namespace simj::core {

namespace {

int64_t SteadyNs(std::chrono::steady_clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t.time_since_epoch())
      .count();
}

int64_t SteadyNowNs() { return SteadyNs(std::chrono::steady_clock::now()); }

// Minimum spacing between --progress_every lines, across all workers.
constexpr int64_t kProgressLogMinIntervalNs = 100'000'000;  // 100 ms

}  // namespace

JoinProgress& JoinProgress::Global() {
  static JoinProgress* progress =
      new JoinProgress();  // simj-lint: allow(new) leaky singleton
  return *progress;
}

void JoinProgress::BeginJoin(int64_t total_pairs, int workers) {
  // A stall belongs to one join; a new join starting cleanly un-degrades
  // /healthz (the watchdog re-reports if this join stalls too).
  health::SetHealthy("stall_watchdog");
  const JoinStats base = ReadJoinCounters();  // outside mu_: a leaf lock
  {
    MutexLock lock(mu_);
    base_ = base;
  }
  total_pairs_.store(total_pairs, std::memory_order_relaxed);
  workers_.store(workers, std::memory_order_relaxed);
  join_start_ns_.store(SteadyNowNs(), std::memory_order_relaxed);
  progress_counter_.store(0, std::memory_order_relaxed);
  last_progress_log_ns_.store(0, std::memory_order_relaxed);
  const int tracked = std::min(workers, kMaxTrackedWorkers);
  for (int w = 0; w < tracked; ++w) {
    slots_[w].heartbeat_ns.store(0, std::memory_order_relaxed);
    slots_[w].q_index.store(-1, std::memory_order_relaxed);
    slots_[w].g_index.store(-1, std::memory_order_relaxed);
    slots_[w].last_stall_reported_ns = 0;
  }
  joins_started_.fetch_add(1, std::memory_order_relaxed);
  active_.store(true, std::memory_order_relaxed);
}

void JoinProgress::EndJoin() {
  active_.store(false, std::memory_order_relaxed);
}

void JoinProgress::Heartbeat(int worker, int q_index, int g_index,
                             std::chrono::steady_clock::time_point started) {
  WorkerSlot& slot = slots_[std::min(worker, kMaxTrackedWorkers - 1)];
  slot.q_index.store(q_index, std::memory_order_relaxed);
  slot.g_index.store(g_index, std::memory_order_relaxed);
  slot.heartbeat_ns.store(SteadyNs(started), std::memory_order_relaxed);
}

void JoinProgress::PairDone(int worker) {
  WorkerSlot& slot = slots_[std::min(worker, kMaxTrackedWorkers - 1)];
  slot.heartbeat_ns.store(0, std::memory_order_relaxed);
}

std::vector<StallEvent> JoinProgress::CheckStalls(double budget_ms) {
  std::vector<StallEvent> events;
  if (budget_ms <= 0.0) return events;
  const int tracked =
      std::min(workers_.load(std::memory_order_relaxed), kMaxTrackedWorkers);
  const int64_t now_ns = SteadyNowNs();
  for (int w = 0; w < tracked; ++w) {
    WorkerSlot& slot = slots_[w];
    const int64_t beat_ns = slot.heartbeat_ns.load(std::memory_order_relaxed);
    if (beat_ns == 0) continue;              // never beat this join
    if (beat_ns == slot.last_stall_reported_ns) continue;  // already reported
    const double age_ms = static_cast<double>(now_ns - beat_ns) * 1e-6;
    if (age_ms <= budget_ms) continue;
    slot.last_stall_reported_ns = beat_ns;
    StallEvent event;
    event.worker = w;
    event.q_index = slot.q_index.load(std::memory_order_relaxed);
    event.g_index = slot.g_index.load(std::memory_order_relaxed);
    event.stalled_ms = age_ms;
    events.push_back(event);
  }
  return events;
}

void JoinProgress::NotePairCompleted(int64_t progress_every) {
  if (progress_every <= 0) return;
  const int64_t done =
      progress_counter_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (done % progress_every != 0) return;
  // Rate limit across workers: one line per 100 ms, first writer wins.
  const int64_t now_ns = SteadyNowNs();
  int64_t last_ns = last_progress_log_ns_.load(std::memory_order_relaxed);
  if (now_ns - last_ns < kProgressLogMinIntervalNs) return;
  if (!last_progress_log_ns_.compare_exchange_strong(
          last_ns, now_ns, std::memory_order_relaxed)) {
    return;
  }
  const ProgressSnapshot snapshot = Snapshot();
  // This tracker's own count is exact at this pair; the registry behind
  // snapshot.completed_pairs lags by the unpublished batches. A requeued
  // shard counts its pairs again, hence the clamp.
  const int64_t total = snapshot.total_pairs;
  const int64_t completed = std::min(done, total);
  const double eta = EtaSeconds(total - completed, snapshot.pairs_per_second);
  char line[192];
  const int n = std::snprintf(line, sizeof(line),
                              "join progress: %lld/%lld pairs",
                              static_cast<long long>(completed),
                              static_cast<long long>(total));
  if (eta >= 0.0) {
    std::snprintf(line + n, sizeof(line) - static_cast<size_t>(n),
                  " (%.1f%%), %.1f pairs/s, eta %.1fs",
                  100.0 * static_cast<double>(completed) /
                      static_cast<double>(std::max<int64_t>(total, 1)),
                  snapshot.pairs_per_second, eta);
  }
  SIMJ_LOG(INFO) << line;
}

double JoinProgress::EtaSeconds(int64_t remaining, double rate) {
  if (remaining <= 0) return 0.0;
  if (!(rate > 0.0)) return -1.0;  // also catches NaN
  return static_cast<double>(remaining) / rate;
}

ProgressSnapshot JoinProgress::Snapshot() {
  const JoinStats counted = ReadJoinCounters();
  const int64_t now_ns = SteadyNowNs();
  MutexLock lock(mu_);
  ProgressSnapshot snapshot;
  snapshot.active = active();
  snapshot.joins_started = joins_started_.load(std::memory_order_relaxed);
  snapshot.total_pairs = total_pairs_.load(std::memory_order_relaxed);
  snapshot.completed_pairs = counted.total_pairs - base_.total_pairs;
  // The distributed join re-evaluates pairs from shards abandoned by dead
  // workers, so the registry delta can overshoot the planned total. Clamp:
  // completion must never read past 100% nor yield a negative ETA.
  if (snapshot.total_pairs > 0 &&
      snapshot.completed_pairs > snapshot.total_pairs) {
    snapshot.completed_pairs = snapshot.total_pairs;
  }
  snapshot.pruned_structural =
      counted.pruned_structural - base_.pruned_structural;
  snapshot.pruned_probabilistic =
      counted.pruned_probabilistic - base_.pruned_probabilistic;
  snapshot.candidates = counted.candidates - base_.candidates;
  snapshot.results = counted.results - base_.results;
  snapshot.workers = workers_.load(std::memory_order_relaxed);

  const int64_t start_ns = join_start_ns_.load(std::memory_order_relaxed);
  snapshot.elapsed_seconds =
      start_ns == 0 ? 0.0 : static_cast<double>(now_ns - start_ns) * 1e-9;

  // Throughput window.
  if (eta_window_join_ != snapshot.joins_started) {
    eta_window_.clear();
    eta_window_join_ = snapshot.joins_started;
  }
  eta_window_.emplace_back(now_ns, snapshot.completed_pairs);
  const int64_t horizon_ns =
      now_ns - static_cast<int64_t>(kEtaWindowSeconds * 1e9);
  while (eta_window_.size() > 2 && eta_window_.front().first < horizon_ns) {
    eta_window_.pop_front();
  }
  const auto& [first_ns, first_done] = eta_window_.front();
  const double window_seconds = static_cast<double>(now_ns - first_ns) * 1e-9;
  const int64_t window_done = snapshot.completed_pairs - first_done;
  double rate = 0.0;
  if (window_seconds > 0.0 && window_done > 0) {
    rate = static_cast<double>(window_done) / window_seconds;
  } else if (snapshot.elapsed_seconds > 0.0) {
    // Whole-join average until the window has seen progress.
    rate = static_cast<double>(snapshot.completed_pairs) /
           snapshot.elapsed_seconds;
  }
  snapshot.pairs_per_second = rate;
  snapshot.eta_seconds =
      EtaSeconds(snapshot.total_pairs - snapshot.completed_pairs, rate);

  if (snapshot.active) {
    const int tracked = std::min(snapshot.workers, kMaxTrackedWorkers);
    for (int w = 0; w < tracked; ++w) {
      const int64_t beat_ns =
          slots_[w].heartbeat_ns.load(std::memory_order_relaxed);
      if (beat_ns == 0) continue;
      ProgressSnapshot::WorkerHeartbeat heartbeat;
      heartbeat.worker = w;
      heartbeat.age_ms = static_cast<double>(now_ns - beat_ns) * 1e-6;
      heartbeat.q_index = slots_[w].q_index.load(std::memory_order_relaxed);
      heartbeat.g_index = slots_[w].g_index.load(std::memory_order_relaxed);
      snapshot.heartbeats.push_back(heartbeat);
    }
  }
  return snapshot;
}

std::string JoinProgress::StatusJson() {
  ProgressSnapshot s = Snapshot();
  std::string out;
  char buffer[512];
  std::snprintf(
      buffer, sizeof(buffer),
      "{\"active\":%s,\"joins_started\":%lld,\"total_pairs\":%lld,"
      "\"completed_pairs\":%lld,\"pruned_structural\":%lld,"
      "\"pruned_probabilistic\":%lld,\"candidates\":%lld,\"results\":%lld,"
      "\"workers\":%d,\"elapsed_seconds\":%.3f,\"pairs_per_second\":%.3f,"
      "\"eta_seconds\":%.3f,\"heartbeats\":[",
      s.active ? "true" : "false", static_cast<long long>(s.joins_started),
      static_cast<long long>(s.total_pairs),
      static_cast<long long>(s.completed_pairs),
      static_cast<long long>(s.pruned_structural),
      static_cast<long long>(s.pruned_probabilistic),
      static_cast<long long>(s.candidates),
      static_cast<long long>(s.results), s.workers, s.elapsed_seconds,
      s.pairs_per_second, s.eta_seconds);
  out += buffer;
  bool first = true;
  for (const ProgressSnapshot::WorkerHeartbeat& heartbeat : s.heartbeats) {
    std::snprintf(buffer, sizeof(buffer),
                  "%s{\"worker\":%d,\"age_ms\":%.3f,\"q\":%d,\"g\":%d}",
                  first ? "" : ",", heartbeat.worker, heartbeat.age_ms,
                  heartbeat.q_index, heartbeat.g_index);
    out += buffer;
    first = false;
  }
  out += "]}";
  return out;
}

StallMonitor::StallMonitor(double budget_ms, const std::string& thread_name,
                           OnStall on_stall)
    : budget_ms_(budget_ms), on_stall_(std::move(on_stall)) {
  if (budget_ms_ <= 0.0) return;
  thread_ = std::thread([this, thread_name] {
    trace::SetThisThreadName(thread_name);
    const auto poll = std::chrono::duration<double, std::milli>(
        std::clamp(budget_ms_ / 4.0, 1.0, 200.0));
    for (;;) {
      Sweep();
      MutexLock lock(mu_);
      // A spurious wakeup only sweeps early.
      if (!stop_) stop_cv_.WaitFor(mu_, poll);
      if (stop_) break;
    }
    Sweep();
  });
}

StallMonitor::~StallMonitor() {
  if (!thread_.joinable()) return;
  {
    MutexLock lock(mu_);
    stop_ = true;
  }
  stop_cv_.NotifyAll();
  thread_.join();
}

void StallMonitor::Sweep() const {
  for (const StallEvent& event :
       JoinProgress::Global().CheckStalls(budget_ms_)) {
    health::SetUnhealthy("stall_watchdog",
                         "worker " + std::to_string(event.worker) +
                             " stalled for " +
                             std::to_string(event.stalled_ms) + " ms");
    SIMJ_LOG(WARN) << "stalled worker " << event.worker << ": pair <q="
                   << event.q_index << ",g=" << event.g_index
                   << "> running for " << event.stalled_ms << " ms (budget "
                   << budget_ms_ << " ms)";
    if (on_stall_) on_stall_(event);
  }
}

}  // namespace simj::core
