// Live join progress for the introspection endpoint and the stall watchdog.
//
// JoinProgress is a process-wide singleton sampled by readers (the statusz
// server thread, the stall-watchdog monitor thread, the --progress_every
// logger) while a join runs. It is deliberately cheap on the worker side:
//
//   * completed / per-stage pair counts are NOT new atomics — they are
//     deltas of the join's registry counters (core::ReadJoinCounters)
//     against baselines captured at BeginJoin, so the join hot path pays
//     nothing for them;
//   * per-worker heartbeats (timestamp + current pair) are a handful of
//     relaxed stores per pair that reaches the CSS filter;
//   * the throughput window behind the ETA lives entirely on the reader
//     side — Snapshot() feeds it, workers never touch it.
//
// Everything here is observational: results, stats and explain output are
// byte-identical with the tracker armed or idle, at every thread count.

#ifndef SIMJ_CORE_PROGRESS_H_
#define SIMJ_CORE_PROGRESS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "core/join.h"
#include "util/sync.h"

namespace simj::core {

// Upper bound on tracked workers. Joins may run with more threads; extra
// workers simply share slot kMaxTrackedWorkers - 1 (heartbeats stay
// conservative: the slot always holds *a* live worker's beat).
inline constexpr int kMaxTrackedWorkers = 256;

// One stalled-worker observation from CheckStalls.
struct StallEvent {
  int worker = -1;
  int q_index = -1;
  int g_index = -1;
  double stalled_ms = 0.0;  // age of the worker's heartbeat when observed
};

// Reader-side view of the running (or last) join.
struct ProgressSnapshot {
  bool active = false;
  int64_t joins_started = 0;  // process-lifetime BeginJoin count
  int64_t total_pairs = 0;
  // Pairs whose batch PublishJoinCounters has published, so this lags the
  // finished pairs by at most one batch per worker; it equals total_pairs
  // when the join ends. Never below pruned_structural +
  // pruned_probabilistic: pairs are published first and read last.
  int64_t completed_pairs = 0;
  // Per-stage completion (deltas of the registry counters over this join).
  int64_t pruned_structural = 0;
  int64_t pruned_probabilistic = 0;
  int64_t candidates = 0;
  int64_t results = 0;
  int workers = 0;
  double elapsed_seconds = 0.0;
  // Throughput over the sliding sample window (whole-join average until the
  // window has two samples). 0 when nothing completed yet.
  double pairs_per_second = 0.0;
  // Remaining / pairs_per_second; -1 while unknown (no completed pairs).
  double eta_seconds = -1.0;

  struct WorkerHeartbeat {
    int worker = -1;
    double age_ms = 0.0;  // time since the worker started its current pair
    int q_index = -1;
    int g_index = -1;
  };
  // Only workers currently inside a pair of the running join; empty when
  // no join is active (or every worker is between pairs).
  std::vector<WorkerHeartbeat> heartbeats;
};

class JoinProgress {
 public:
  static JoinProgress& Global();

  // Marks the start of a join over `total_pairs` pairs on `workers`
  // workers. Captures registry-counter baselines so completed counts are
  // deltas, resets heartbeat slots, and clears the ETA window.
  void BeginJoin(int64_t total_pairs, int workers);
  void EndJoin();
  bool active() const { return active_.load(std::memory_order_relaxed); }

  // Worker-side, called once per pair before evaluation: relaxed stores of
  // the pair identity and `started`, the caller's clock read at the pair's
  // start (the tracker reads no clock here).
  void Heartbeat(int worker, int q_index, int g_index,
                 std::chrono::steady_clock::time_point started);

  // Worker-side, after the pair completes: clears the heartbeat so an idle
  // worker (out of work while others finish) is never reported as stalled.
  void PairDone(int worker);

  // Monitor-side: scans heartbeat slots and returns workers whose current
  // pair has been running longer than `budget_ms`. Each stalled heartbeat
  // is reported once (deduped on the heartbeat timestamp). Single-caller
  // (the StallMonitor thread, or a test driving the tracker directly).
  std::vector<StallEvent> CheckStalls(double budget_ms);

  // Worker-side, gated on params.progress_every > 0: counts a completed
  // pair and logs a rate-limited SIMJ_LOG(INFO) progress line (completed /
  // total, rate, ETA) every `progress_every` completions, at most one line
  // per 100 ms across all workers. The line's completed count is this
  // counter, exact at the logging pair, not the registry delta.
  void NotePairCompleted(int64_t progress_every);

  // Reader-side: point-in-time view. Feeds the ETA throughput window as a
  // side effect (the window is mutex-guarded and reader-only).
  ProgressSnapshot Snapshot();

  // Snapshot() rendered as a single JSON object, for the /statusz section.
  std::string StatusJson();

  // Pure ETA helper: seconds left for `remaining` pairs at `rate` pairs/s;
  // -1 when the rate is not positive. Exposed for tests.
  static double EtaSeconds(int64_t remaining, double rate);

 private:
  JoinProgress() = default;

  struct alignas(64) WorkerSlot {
    std::atomic<int64_t> heartbeat_ns{0};  // steady-clock ns; 0 = idle
    std::atomic<int32_t> q_index{-1};
    std::atomic<int32_t> g_index{-1};
    // Monitor-thread only (CheckStalls is single-caller): dedup key of the
    // last heartbeat already reported as stalled.
    int64_t last_stall_reported_ns = 0;
  };

  std::atomic<bool> active_{false};
  std::atomic<int64_t> joins_started_{0};
  std::atomic<int64_t> total_pairs_{0};
  std::atomic<int> workers_{0};
  std::atomic<int64_t> join_start_ns_{0};

  WorkerSlot slots_[kMaxTrackedWorkers];

  // --progress_every state (worker-shared, relaxed).
  std::atomic<int64_t> progress_counter_{0};
  std::atomic<int64_t> last_progress_log_ns_{0};

  Mutex mu_;  // leaf lock: nothing is acquired under it
  // Registry-counter baselines captured at BeginJoin.
  JoinStats base_ SIMJ_GUARDED_BY(mu_);
  // ETA throughput window: (steady ns, completed pairs) samples over the
  // last kEtaWindowSeconds, appended by Snapshot().
  static constexpr double kEtaWindowSeconds = 10.0;
  std::deque<std::pair<int64_t, int64_t>> eta_window_ SIMJ_GUARDED_BY(mu_);
  // joins_started_ the window belongs to
  int64_t eta_window_join_ SIMJ_GUARDED_BY(mu_) = -1;
};

// The live half of SimJParams::slow_pair_log_ms, the join's one pair-time
// budget, shared by the in-process join and the distributed coordinator.
// While alive, a monitor thread polls JoinProgress::CheckStalls every
// clamp(budget_ms / 4, 1, 200) ms. For each stalled worker it degrades
// /healthz ("stall_watchdog", cleared by the next BeginJoin), logs a WARN
// line, and runs `on_stall` when one is given. The destructor wakes the
// thread, which ends after a final sweep that catches a stall between the
// last poll and the stop. With budget_ms <= 0 no thread starts. The
// monitor only reads tracker state, never join state, so results are
// unaffected.
class StallMonitor {
 public:
  using OnStall = std::function<void(const StallEvent&)>;

  StallMonitor(double budget_ms, const std::string& thread_name,
               OnStall on_stall = nullptr);
  ~StallMonitor();

  StallMonitor(const StallMonitor&) = delete;
  StallMonitor& operator=(const StallMonitor&) = delete;

 private:
  void Sweep() const;

  const double budget_ms_;
  const OnStall on_stall_;
  Mutex mu_;  // leaf lock: only stop_ is read or written under it
  CondVar stop_cv_;
  bool stop_ SIMJ_GUARDED_BY(mu_) = false;
  std::thread thread_;
};

}  // namespace simj::core

#endif  // SIMJ_CORE_PROGRESS_H_
