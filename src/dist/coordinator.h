// Shard coordinator for the distributed join (DESIGN.md §9).
//
// The coordinator queues the planned shards on one FIFO in plan order,
// runs one dispatch loop per worker, and merges the per-shard results into
// a JoinResult that is byte-identical (pairs, mappings, counters, explain
// lines — never wall/CPU timing) to SimJoin, with or without use_index, at
// any worker count, either transport, and under any fault schedule:
//
//   * one queue — each dispatch loop pops the front when its worker is
//     idle, so a straggler simply takes fewer shards;
//   * requeue — a shard whose execution fails (dead child, injected fault)
//     goes to the front of the queue, so the next idle worker retries it
//     before any fresh shard, and the worker is restarted, up to
//     max_worker_restarts times before it is declared permanently dead.
//     Only a failed attempt is requeued, so every shard completes exactly
//     once (checked): there is no duplicate-completion path;
//   * inline fallback — shards still queued after every worker died
//     run on the coordinator thread itself, through a thread-transport
//     ShardWorker, so the join always converges;
//   * deterministic merge — per-shard stats fold in ascending shard_id
//     order and matched pairs / explain records are globally sorted by
//     (q_index, g_index), erasing scheduling nondeterminism.
//
// The pair-time budget (params.slow_pair_log_ms) and heartbeats work
// unchanged: the dispatch thread heartbeats the shard's first pair before
// handing it to the worker, so a stuck or slow worker ages a heartbeat the
// StallMonitor thread can flag — regardless of transport. A shard ships its
// pairs over the budget (ShardResult::slow_pairs), and the coordinator logs
// them when it completes the shard, on either transport and in the inline
// fallback.
//
// Cluster observability (DESIGN.md §10): while it runs, the coordinator
//   * records every scheduling decision (dispatch, requeue, restart,
//     complete, fault, stall, fallback) into the global
//     util/flight_recorder ring, from which dist/clusterz.h's
//     ReplayFinalAssignment reconstructs the final shard-to-worker
//     assignment;
//   * when tracing is enabled, synthesizes one attempt span per shard
//     execution (including failed/requeued attempts) under the worker's
//     Chrome-trace process lane — fallback attempts under the coordinator's
//     own lane — and merges the worker-captured spans shipped back in
//     ShardResult::spans, so one --trace_out file shows the whole cluster
//     timeline. Dispatch and fallback share one attempt routine;
//   * folds each completed shard's counters into `worker="N"`-labeled
//     registry metrics through core::PublishJoinCounters (both transports;
//     fallback shards get worker="inline", plan-time skips
//     worker="coordinator"), so per-label sums always equal the unsharded
//     run's totals — partial work by dying workers is deliberately
//     excluded. Plan-time skips and process-transport shards also reach
//     the unlabeled counters, so a fault-free run's unlabeled deltas equal
//     its JoinStats;
//   * serves the live queue length / worker states through GET /clusterz and
//     reports dead-worker and stall degradation to util/health (/healthz).
// All of it is observational: join results stay byte-identical with every
// sink on or off.

#ifndef SIMJ_DIST_COORDINATOR_H_
#define SIMJ_DIST_COORDINATOR_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "core/join.h"
#include "dist/shard.h"
#include "dist/worker.h"
#include "graph/label.h"
#include "graph/labeled_graph.h"
#include "graph/uncertain_graph.h"

namespace simj::dist {

struct DistJoinParams {
  int num_workers = 2;
  Transport transport = Transport::kThread;
  // Shard planning (see ShardPlanOptions).
  int max_pairs_per_shard = 64;
  bool use_index = true;
  // Restarts allowed per worker before it is declared permanently dead.
  int max_worker_restarts = 4;
  // Simulator hook (tests only): decides the fault injected into one shard
  // execution. Called from dispatch threads; `attempt` counts executions of
  // that shard (0 = first) and `shard_pairs` is the shard's size (bounds
  // the injected death point). Null/empty = no faults.
  std::function<FaultSpec(int worker, int shard_id, int attempt,
                          int shard_pairs)>
      fault_hook;
};

// Per-worker accounting for the run, for the balance tests and statusz.
struct WorkerReport {
  int shards_completed = 0;
  int shards_failed = 0;  // executions that returned an error
  // Always 0: the coordinator has one shared queue and nothing to steal.
  // Kept only because perfbench/er.cc reads it.
  int steals = 0;
  int restarts = 0;
  bool permanently_dead = false;
  // Wall time spent inside RunShard for shards this worker COMPLETED
  // (failed executions excluded — an abandoned shard's time is attributed
  // to nobody, like a crashed machine's).
  double busy_seconds = 0.0;
};

struct DistStats {
  int shards_planned = 0;
  int shards_requeued = 0;
  // Shards the coordinator ran inline after every worker died.
  int fallback_shards = 0;
  // Stall observations the watchdog reported during the run.
  int stall_events = 0;
  std::vector<WorkerReport> workers;
  // Final assignment: the worker index that produced each shard's merged
  // result (-1 = the coordinator's inline fallback).
  std::vector<int> shard_completed_by;
};

struct DistJoinResult {
  core::JoinResult join;
  DistStats dist;
};

// Plans, executes, and merges the full distributed join. Freezes `dict`
// for the duration of the call (workers share it concurrently; process
// workers fork a frozen snapshot). params.num_threads is ignored —
// parallelism is dist_params.num_workers, each worker evaluating serially.
[[nodiscard]] DistJoinResult ShardedSimJoin(
    const std::vector<graph::LabeledGraph>& d,
    const std::vector<graph::UncertainGraph>& u,
    const core::SimJParams& params, const graph::LabelDictionary& dict,
    const DistJoinParams& dist_params);

}  // namespace simj::dist

#endif  // SIMJ_DIST_COORDINATOR_H_
