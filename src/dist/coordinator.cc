#include "dist/coordinator.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <deque>
#include <thread>
#include <utility>

#include "core/progress.h"
#include "dist/clusterz.h"
#include "util/check.h"
#include "util/flight_recorder.h"
#include "util/health.h"
#include "util/log.h"
#include "util/heap_profiler.h"
#include "util/metrics.h"
#include "util/profiler.h"
#include "util/sync.h"
#include "util/timer.h"
#include "util/trace.h"

namespace simj::dist {

namespace {

// The Chrome-trace pid of worker `w`'s process lane (pid 1 is the
// coordinator's own "simj" lane; 2 is left unused for clarity).
int WorkerLanePid(int w) { return w + 2; }

class Coordinator : public ClusterzSource {
 public:
  Coordinator(const ShardPlan& plan,
              std::vector<ShardWorker>* workers,
              const WorkerContext& ctx, const DistJoinParams& dist_params,
              uint64_t trace_id)
      : plan_(plan),
        workers_(workers),
        ctx_(ctx),
        dist_params_(dist_params),
        num_workers_(static_cast<int>(workers->size())),
        num_shards_(static_cast<int>(plan.shards.size())),
        trace_id_(trace_id),
        state_(plan.shards.size(), ShardState::kQueued),
        attempts_(plan.shards.size(), 0),
        results_(plan.shards.size()) {
    stats_.shards_planned = num_shards_;
    stats_.workers.resize(workers->size());
    stats_.shard_completed_by.assign(plan.shards.size(), -1);
    // One FIFO in plan order: every pair is evaluated on its own, so any
    // dispatch order merges to the same join.
    for (int s = 0; s < num_shards_; ++s) queue_.push_back(s);
  }

  ~Coordinator() override = default;

  DistStats Run(core::JoinResult* result) {
    // Publish live state for /clusterz for the duration of the run (the
    // source registry holds its mutex across LiveJson, so tearing this
    // down before returning is safe even against an in-flight scrape).
    SetClusterzSource(this);
    {
      core::StallMonitor monitor(
          ctx_.params->slow_pair_log_ms, "dist-stall-monitor",
          [this](const core::StallEvent& event) {
            stall_events_.fetch_add(1, std::memory_order_relaxed);
            RecordEvent(kEventStall, event.worker, /*shard=*/-1,
                        /*attempt=*/-1,
                        std::to_string(event.stalled_ms) + " ms on pair <q=" +
                            std::to_string(event.q_index) + ",g=" +
                            std::to_string(event.g_index) + ">");
          });
      std::vector<std::thread> dispatchers;
      dispatchers.reserve(static_cast<size_t>(num_workers_));
      for (int w = 0; w < num_workers_; ++w) {
        dispatchers.emplace_back([this, w] {
          trace::SetThisThreadName("dist-dispatch-" + std::to_string(w));
          DispatchLoop(w);
        });
      }
      for (std::thread& t : dispatchers) t.join();

      // Convergence guarantee: whatever the fault schedule left unfinished
      // runs inline, fault-free, on this thread.
      RunFallback();
    }

    Merge(result);
    // Unpublish before the final stats move so no /clusterz scrape can
    // observe stats_ mid-move.
    SetClusterzSource(nullptr);
    DistStats out_stats;
    {
      MutexLock lock(mu_);
      stats_.stall_events =
          static_cast<int>(stall_events_.load(std::memory_order_relaxed));
      out_stats = std::move(stats_);
    }
    return out_stats;
  }

  // ClusterzSource: live queue/worker state, sampled under mu_ from the
  // statusz server thread. Heartbeat ages come from JoinProgress, like the
  // /statusz join section.
  std::string LiveJson() override {
    core::ProgressSnapshot progress = core::JoinProgress::Global().Snapshot();
    std::vector<double> heartbeat_age_ms(static_cast<size_t>(num_workers_),
                                         -1.0);
    for (const auto& beat : progress.heartbeats) {
      if (beat.worker >= 0 && beat.worker < num_workers_) {
        heartbeat_age_ms[static_cast<size_t>(beat.worker)] = beat.age_ms;
      }
    }
    MutexLock lock(mu_);
    std::string out = "{\"num_shards\":" + std::to_string(num_shards_) +
                      ",\"done\":" + std::to_string(done_count_) +
                      ",\"queued\":" + std::to_string(queue_.size()) +
                      ",\"requeued\":" + std::to_string(stats_.shards_requeued) +
                      ",\"fallback\":" + std::to_string(stats_.fallback_shards) +
                      ",\"workers\":[";
    for (int w = 0; w < num_workers_; ++w) {
      const WorkerReport& report = stats_.workers[static_cast<size_t>(w)];
      if (w > 0) out += ",";
      out += "{\"worker\":" + std::to_string(w) +
             ",\"completed\":" + std::to_string(report.shards_completed) +
             ",\"failed\":" + std::to_string(report.shards_failed) +
             ",\"restarts\":" + std::to_string(report.restarts) +
             ",\"restart_budget\":" +
             std::to_string(dist_params_.max_worker_restarts - report.restarts) +
             ",\"state\":\"" +
             (report.permanently_dead ? "dead" : "alive") +
             "\",\"heartbeat_age_ms\":";
      const double age = heartbeat_age_ms[static_cast<size_t>(w)];
      if (age < 0.0) {
        out += "null";
      } else {
        char buffer[32];
        std::snprintf(buffer, sizeof(buffer), "%.1f", age);
        out += buffer;
      }
      out += "}";
    }
    out += "]}";
    return out;
  }

 private:
  enum class ShardState { kQueued, kRunning, kDone };

  // Records one scheduling decision into the global flight ring. Queue
  // transitions (dispatch/requeue/complete/fallback) are recorded while
  // mu_ is held, so their ring order IS the queue-operation order — the
  // property ReplayFinalAssignment relies on.
  static void RecordEvent(const char* type, int worker, int shard,
                          int attempt, std::string detail = std::string()) {
    flight::Event event;
    event.type = type;
    event.worker = worker;
    event.shard = shard;
    event.attempt = attempt;
    event.detail = std::move(detail);
    flight::FlightRecorder::Global().Record(std::move(event));
  }

  void DispatchLoop(int w) {
    ShardWorker& worker = (*workers_)[static_cast<size_t>(w)];
    core::JoinProgress& progress = core::JoinProgress::Global();
    for (;;) {
      int attempt = 0;
      const int shard_id = NextShard(w, &attempt);
      if (shard_id < 0) return;
      const Shard& shard = plan_.shards[static_cast<size_t>(shard_id)];
      const FaultSpec fault =
          dist_params_.fault_hook
              ? dist_params_.fault_hook(w, shard_id, attempt,
                                        static_cast<int>(shard.pairs.size()))
              : FaultSpec{};
      if (!fault.none()) {
        RecordEvent(kEventFault, w, shard_id, attempt,
                    "delay_ms=" + std::to_string(fault.delay_ms) +
                        " die_after_pairs=" +
                        std::to_string(fault.die_after_pairs));
      }
      // Beat on the shard's first pair before handing it off: a worker
      // that stalls or dies inside the shard ages this heartbeat, which is
      // what the stall watchdog samples — transport-independent liveness.
      if (!shard.pairs.empty()) {
        progress.Heartbeat(w, shard.pairs.front().first,
                           shard.pairs.front().second,
                           std::chrono::steady_clock::now());
      }
      WallTimer timer;
      StatusOr<ShardResult> result = RunAttempt(
          worker, shard, fault, WorkerLanePid(w),
          "shard-" + std::to_string(shard_id) + "/attempt-" +
              std::to_string(attempt),
          /*ship_profiles=*/true);
      progress.PairDone(w);
      if (result.ok()) {
        CompleteShard(w, shard_id, worker, std::move(result).value(),
                      timer.ElapsedSeconds());
      } else if (!HandleFailure(w, shard_id, attempt, result.status())) {
        return;  // worker is permanently dead; its shard went back on the queue
      }
    }
  }

  // One shard attempt on `worker`. The coordinator owns the attempt span:
  // when tracing, it is filed under lane `lane_pid` even when the worker
  // dies and ships nothing (failed attempts must appear in the trace), and
  // the worker's own spans parent to it through span_ctx.parent_span_id
  // and are re-filed under the same lane (tid collapses to 0: one
  // execution row per lane). With `ship_profiles`, the worker ships its
  // pending profiler samples while a capture is armed (a bench flag or a
  // mid-join /profilez; one pid-checked atomic load each when none is).
  StatusOr<ShardResult> RunAttempt(ShardWorker& worker, const Shard& shard,
                                   const FaultSpec& fault, int lane_pid,
                                   std::string span_name, bool ship_profiles) {
    trace::Tracer& tracer = trace::Tracer::Global();
    SpanContext span_ctx;
    if (tracer.enabled()) {
      span_ctx.collect = true;
      span_ctx.trace_id = trace_id_;
      span_ctx.parent_span_id =
          next_span_id_.fetch_add(1, std::memory_order_relaxed);
    }
    if (ship_profiles) {
      span_ctx.profile_hz = prof::ActiveHz();
      span_ctx.heap_sample_bytes = heapprof::ActiveSampleBytes();
    }
    const double begin_us = tracer.NowUs();
    StatusOr<ShardResult> result = worker.RunShard(shard, fault, span_ctx);
    if (span_ctx.collect) {
      std::vector<trace::TraceEvent> batch;
      trace::TraceEvent attempt_span;
      attempt_span.name = std::move(span_name);
      attempt_span.category = fault.none() ? "shard" : "shard_fault";
      attempt_span.pid = lane_pid;
      attempt_span.ts_us = begin_us;
      attempt_span.dur_us = tracer.NowUs() - begin_us;
      attempt_span.trace_id = trace_id_;
      attempt_span.span_id = span_ctx.parent_span_id;
      batch.push_back(std::move(attempt_span));
      if (result.ok()) {
        for (trace::TraceEvent& span : result.value().spans) {
          span.pid = lane_pid;
          span.tid = 0;
          batch.push_back(std::move(span));
        }
        result.value().spans.clear();
      }
      tracer.InjectEvents(std::move(batch));
    }
    return result;
  }

  // Blocks until the queue has a shard, and pops its front, or until the
  // join is complete (-1).
  int NextShard(int w, int* attempt) {
    MutexLock lock(mu_);
    for (;;) {
      if (done_count_ == num_shards_) return -1;
      if (!queue_.empty()) {
        const int shard_id = queue_.front();
        queue_.pop_front();
        SIMJ_DCHECK(state_[static_cast<size_t>(shard_id)] ==
                    ShardState::kQueued);
        state_[static_cast<size_t>(shard_id)] = ShardState::kRunning;
        *attempt = attempts_[static_cast<size_t>(shard_id)]++;
        RecordEvent(kEventDispatch, w, shard_id, *attempt);
        return shard_id;
      }
      // Nothing queued, join unfinished: shards running elsewhere may yet
      // fail and be requeued. Woken by requeue or completion.
      cv_.Wait(mu_);
    }
  }

  // Marks a shard done and stores its result. A shard is requeued only
  // when its attempt fails, so each shard completes exactly once: a worker
  // or the fallback completes a shard it popped and is still running.
  void StoreResult(int shard_id, ShardResult* result) SIMJ_REQUIRES(mu_) {
    const auto id = static_cast<size_t>(shard_id);
    SIMJ_CHECK(state_[id] == ShardState::kRunning);
    state_[id] = ShardState::kDone;
    core::JoinResult& stored = results_[id];
    stored.pairs = std::move(result->pairs);
    stored.stats = result->stats;
    stored.explains = std::move(result->explains);
    ++done_count_;
    cv_.NotifyAll();
  }

  void CompleteShard(int w, int shard_id, const ShardWorker& worker,
                     ShardResult result, double elapsed_seconds) {
    const core::JoinStats shard_stats = result.stats;
    {
      MutexLock lock(mu_);
      StoreResult(shard_id, &result);
      stats_.shard_completed_by[static_cast<size_t>(shard_id)] = w;
      WorkerReport& report = stats_.workers[static_cast<size_t>(w)];
      ++report.shards_completed;
      report.busy_seconds += elapsed_seconds;
      RecordEvent(kEventComplete, w, shard_id, /*attempt=*/-1);
    }
    // Outside mu_ (lock order: never hold mu_ into another module's lock).
    // Each completed shard is folded once, so the per-label sums equal an
    // unsharded run's totals. A forked child's unlabeled counts died with
    // it: they are replayed here.
    const std::string label = std::to_string(w);
    core::PublishJoinCounters(shard_stats, label);
    if (!worker.counts_in_process()) core::PublishJoinCounters(shard_stats);
    LogSlowPairs(result);
    prof::AccumulateRemoteSection("worker-" + label, result.profile);
    heapprof::AccumulateRemoteSection("worker-" + label, result.heap);
  }

  // The completion log of a shard's pairs over the budget, which no worker
  // logs itself: a forked child must not.
  void LogSlowPairs(const ShardResult& result) const {
    for (const core::SlowPair& slow : result.slow_pairs) {
      core::LogSlowPair(slow, *ctx_.params);
    }
  }

  // Puts the failed shard at the front of the queue, so the next idle
  // worker retries it before any fresh shard, and restarts the worker.
  // Returns false when the worker is permanently dead and its dispatch
  // loop must exit.
  bool HandleFailure(int w, int shard_id, int attempt, const Status& status) {
    const std::string component = "dist_worker_" + std::to_string(w);
    bool exhausted = false;
    {
      MutexLock lock(mu_);
      SIMJ_DCHECK(state_[static_cast<size_t>(shard_id)] ==
                  ShardState::kRunning);
      state_[static_cast<size_t>(shard_id)] = ShardState::kQueued;
      queue_.push_front(shard_id);
      ++stats_.shards_requeued;
      ++stats_.workers[static_cast<size_t>(w)].shards_failed;
      exhausted = stats_.workers[static_cast<size_t>(w)].restarts >=
                  dist_params_.max_worker_restarts;
      RecordEvent(kEventRequeue, w, shard_id, attempt, status.message());
      cv_.NotifyAll();
    }
    // Degraded until the worker is back (cleared below on a successful
    // restart; a permanently dead worker stays degraded until run end).
    health::SetUnhealthy(component, "died on shard " +
                                        std::to_string(shard_id) +
                                        "; not yet restarted");
    SIMJ_LOG(WARN) << "dist: worker " << w << " failed shard " << shard_id
                   << " (" << status.ToString() << "); shard requeued";
    if (!exhausted) {
      // Restart outside the lock: the process transport forks here.
      Status restarted = (*workers_)[static_cast<size_t>(w)].Restart();
      MutexLock lock(mu_);
      ++stats_.workers[static_cast<size_t>(w)].restarts;
      if (restarted.ok()) {
        RecordEvent(kEventRestart, w, /*shard=*/-1, /*attempt=*/-1);
        health::SetHealthy(component);
        return true;
      }
      SIMJ_LOG(ERROR) << "dist: worker " << w
                      << " restart failed: " << restarted.ToString();
    }
    {
      MutexLock lock(mu_);
      stats_.workers[static_cast<size_t>(w)].permanently_dead = true;
      RecordEvent(kEventWorkerDead, w, /*shard=*/-1, /*attempt=*/-1,
                  "restart budget " +
                      std::to_string(dist_params_.max_worker_restarts) +
                      " exhausted");
    }
    health::SetUnhealthy(component, "permanently dead (restart budget " +
                                        std::to_string(
                                            dist_params_.max_worker_restarts) +
                                        " exhausted)");
    SIMJ_LOG(WARN) << "dist: worker " << w << " is permanently dead after "
                   << dist_params_.max_worker_restarts << " restarts";
    return false;
  }

  void RunFallback() {
    // Dispatch threads have all exited, so every unfinished shard is on the
    // queue. The statusz thread may still scrape LiveJson concurrently —
    // every queue_/state_/results_/stats_ touch stays under mu_, with only
    // RunShard itself outside the lock so a scrape never blocks on an
    // inline shard execution.
    size_t unfinished = 0;
    {
      MutexLock lock(mu_);
      unfinished = queue_.size();
    }
    if (unfinished == 0) return;
    SIMJ_LOG(WARN) << "dist: all workers dead with " << unfinished
                   << " shard(s) unfinished; running them inline";
    // A fault-free thread-transport shard cannot fail. Its attempt span
    // goes to the coordinator's own lane (pid 1), and it ships no profile
    // batch: its samples stay in the "coordinator" section.
    ShardWorker inline_worker(ctx_, /*worker_index=*/0, Transport::kThread);
    for (;;) {
      int shard_id = -1;
      {
        MutexLock lock(mu_);
        if (queue_.empty()) return;
        shard_id = queue_.front();
        queue_.pop_front();
        state_[static_cast<size_t>(shard_id)] = ShardState::kRunning;
        RecordEvent(kEventFallback, /*worker=*/-1, shard_id, /*attempt=*/-1);
      }
      StatusOr<ShardResult> result = RunAttempt(
          inline_worker, plan_.shards[static_cast<size_t>(shard_id)],
          FaultSpec{}, /*lane_pid=*/1,
          "shard-" + std::to_string(shard_id) + "/fallback",
          /*ship_profiles=*/false);
      SIMJ_CHECK_OK(result.status());
      const core::JoinStats shard_stats = result.value().stats;
      {
        MutexLock lock(mu_);
        StoreResult(shard_id, &result.value());
        ++stats_.fallback_shards;
      }
      core::PublishJoinCounters(shard_stats, "inline");
      LogSlowPairs(result.value());
    }
  }

  // Deterministic merge: stats fold in ascending shard_id order, then the
  // global (q_index, g_index) sort erases scheduling order entirely.
  void Merge(core::JoinResult* result) {
    MutexLock lock(mu_);
    for (int s = 0; s < num_shards_; ++s) {
      SIMJ_CHECK(state_[static_cast<size_t>(s)] == ShardState::kDone);
      core::AppendJoinResult(std::move(results_[static_cast<size_t>(s)]),
                             result);
    }
    core::SortByPairIdentity(result);
  }

  const ShardPlan& plan_;
  std::vector<ShardWorker>* workers_;
  const WorkerContext ctx_;
  const DistJoinParams& dist_params_;
  const int num_workers_;
  const int num_shards_;
  const uint64_t trace_id_;
  std::atomic<uint64_t> next_span_id_{1};

  // Lock order: mu_ before FlightRecorder::mu_ (queue transitions record
  // flight events under mu_ so ring order is queue-operation order) and
  // before metrics Registry::mu_.
  Mutex mu_;
  CondVar cv_;
  std::vector<ShardState> state_ SIMJ_GUARDED_BY(mu_);
  std::vector<int> attempts_ SIMJ_GUARDED_BY(mu_);
  std::vector<core::JoinResult> results_ SIMJ_GUARDED_BY(mu_);
  // Shard ids waiting for a worker: plan order, failed attempts at the front.
  std::deque<int> queue_ SIMJ_GUARDED_BY(mu_);
  int done_count_ SIMJ_GUARDED_BY(mu_) = 0;
  DistStats stats_ SIMJ_GUARDED_BY(mu_);
  std::atomic<int64_t> stall_events_{0};
};

}  // namespace

DistJoinResult ShardedSimJoin(const std::vector<graph::LabeledGraph>& d,
                              const std::vector<graph::UncertainGraph>& u,
                              const core::SimJParams& params,
                              const graph::LabelDictionary& dict,
                              const DistJoinParams& dist_params) {
  SIMJ_CHECK(dist_params.num_workers >= 1);
  metrics::Registry& registry = metrics::Registry::Global();
  static metrics::Counter& shards_planned_total =
      registry.GetCounter("simj_dist_shards_planned_total");
  static metrics::Counter& shards_requeued_total =
      registry.GetCounter("simj_dist_shards_requeued_total");
  static metrics::Counter& worker_restarts_total =
      registry.GetCounter("simj_dist_worker_restarts_total");
  static metrics::Gauge& workers_gauge = registry.GetGauge("simj_dist_workers");

  WallTimer wall;
  trace::ScopedSpan span("sharded_simjoin", "dist");

  // Observability setup: /clusterz goes live (no-op if no statusz server
  // runs), the flight ring starts fresh so its contents are exactly this
  // run, and each worker gets a named Chrome-trace process lane. The
  // trace id is per-run so spans of consecutive runs never alias.
  RegisterClusterzEndpoint();
  flight::FlightRecorder::Global().Clear();
  static std::atomic<uint64_t> next_trace_id{1};
  const uint64_t trace_id =
      next_trace_id.fetch_add(1, std::memory_order_relaxed);
  for (int w = 0; w < dist_params.num_workers; ++w) {
    trace::Tracer::Global().RegisterProcessLane(WorkerLanePid(w),
                                                "worker-" + std::to_string(w));
  }

  ShardPlanOptions plan_options;
  plan_options.max_pairs_per_shard = dist_params.max_pairs_per_shard;
  plan_options.use_index = dist_params.use_index;
  ShardPlan plan = PlanShards(d, u, params, plan_options);

  DistJoinResult out;
  out.join.stats = plan.pre_stats;
  // Pairs skipped at plan time are count-bound prunes no shard sees: they
  // are published here, unlabeled and as worker="coordinator", before
  // BeginJoin so progress counts only the planned pairs.
  for (const char* worker : {"", "coordinator"}) {
    core::PublishJoinCounters(plan.pre_stats, worker);
  }

  // Workers share the dictionary concurrently (and process workers fork a
  // snapshot of it); freeze for the duration, like the parallel SimJoin
  // path does.
  const graph::ScopedFreeze freeze(dict);
  const core::JoinSummaries summaries = core::SummarizeJoinInputs(d, u, dict);
  WorkerContext ctx;
  ctx.d = &d;
  ctx.u = &u;
  ctx.summaries = &summaries;
  ctx.params = &params;
  ctx.dict = &dict;

  // Spawn workers before any dispatch thread exists: the first fork of
  // each process worker happens while this process is single-threaded.
  std::vector<ShardWorker> workers;
  workers.reserve(static_cast<size_t>(dist_params.num_workers));
  for (int w = 0; w < dist_params.num_workers; ++w) {
    workers.emplace_back(ctx, w, dist_params.transport);
  }

  core::JoinProgress& progress = core::JoinProgress::Global();
  progress.BeginJoin(plan.planned_pairs, dist_params.num_workers);
  workers_gauge.Set(static_cast<double>(dist_params.num_workers));

  Coordinator coordinator(plan, &workers, ctx, dist_params, trace_id);
  out.dist = coordinator.Run(&out.join);

  progress.EndJoin();

  shards_planned_total.Add(out.dist.shards_planned);
  shards_requeued_total.Add(out.dist.shards_requeued);
  for (size_t w = 0; w < out.dist.workers.size(); ++w) {
    const WorkerReport& report = out.dist.workers[w];
    worker_restarts_total.Add(report.restarts);
    // The run is over: a worker that was mid-death (or permanently dead)
    // no longer degrades the process — its shards all converged.
    health::SetHealthy("dist_worker_" + std::to_string(w));
  }

  // The same join postcondition SimJoin enforces, across the merge.
  SIMJ_DCHECK_EQ(out.join.stats.total_pairs,
                 out.join.stats.pruned_structural +
                     out.join.stats.pruned_probabilistic +
                     out.join.stats.candidates);
  SIMJ_DCHECK_LE(out.join.stats.results, out.join.stats.candidates);
  out.join.stats.wall_seconds = wall.ElapsedSeconds();
  return out;
}

}  // namespace simj::dist
