// Shard workers for the distributed join: one executor, one worker class,
// two transports.
//
// One in-place executor (worker.cc) runs every shard: it honors the
// FaultSpec, evaluates the pairs via core::EvaluatePairList, tags the
// captured spans and drains the profiler batches. A ShardWorker runs it
//   * kThread  — on the calling dispatch thread; zero copies, counters land
//     in the process registry directly;
//   * kProcess — in a fork()ed child (util/subprocess) that inherits the
//     workload memory and serves shards over a length-prefixed pipe
//     protocol; the request carries only pair indices, the response only
//     stats, matched pairs, explain records, spans and profiler batches.
//     Child-side counter increments die with the child, so the coordinator
//     replays the returned JoinStats into the registry (see
//     counts_in_process()).
// Each frame type's fields are listed once, in a field visitor shared by
// the encoder and the decoder.
//
// RunShard takes a FaultSpec so the deterministic cluster simulator
// (dist/simulator.h) can inject stragglers and mid-shard deaths through the
// exact production code path; production callers pass FaultSpec{}.
//
// RunShard also takes a SpanContext (DESIGN.md §10): when collect is set,
// the executor records the spans of this one shard execution via
// trace::BeginThreadCapture/EndThreadCapture, tags them with the given
// trace/parent-span ids, and returns them in ShardResult::spans — shipped
// inside the response frame for the process transport — so the coordinator
// can merge every worker's spans into one cluster-wide Chrome trace.

#ifndef SIMJ_DIST_WORKER_H_
#define SIMJ_DIST_WORKER_H_

#include <optional>
#include <string>
#include <vector>

#include "core/join.h"
#include "dist/shard.h"
#include "graph/label.h"
#include "graph/labeled_graph.h"
#include "graph/uncertain_graph.h"
#include "util/heap_profiler.h"
#include "util/profiler.h"
#include "util/status.h"
#include "util/subprocess.h"
#include "util/trace.h"

namespace simj::dist {

enum class Transport {
  kThread = 0,  // in-process: shard runs on the dispatch thread
  kProcess,     // fork()ed child behind a frame pipe
};

const char* TransportName(Transport transport);

// Fault injected into a single shard execution (simulator only).
struct FaultSpec {
  // Sleep this long before evaluating (straggler). The coordinator
  // heartbeats the shard's first pair before RunShard, so the sleep ages
  // that heartbeat and the stall watchdog can see it.
  double delay_ms = 0.0;
  // >= 0: evaluate exactly min(die_after_pairs, |shard|) pairs, then die
  // mid-shard — the thread transport discards the partial result and
  // returns an error; the process transport _exit()s without responding,
  // so the parent sees EOF. Either way the shard is abandoned and the
  // coordinator requeues it. -1 disables.
  int die_after_pairs = -1;

  bool none() const { return delay_ms <= 0.0 && die_after_pairs < 0; }
};

// Cross-process trace context for one shard attempt (Dapper-style: the
// coordinator owns the attempt span; worker spans point at it through
// parent_span_id). Travels the request frame for the process transport.
struct SpanContext {
  bool collect = false;        // capture + ship this execution's spans
  uint64_t trace_id = 0;       // one id per sharded run
  uint64_t parent_span_id = 0; // the coordinator's attempt span
  // > 0 while the coordinator has a CPU (util/profiler) or heap
  // (util/heap_profiler) capture armed: the worker ships its pending
  // entries with the response. A dispatch thread drains its own; a forked
  // child arms its own profiler at these settings on first sight and
  // drains every thread's. Heap counters are deltas since the worker's
  // previous drain. 0 (the default and the fallback's value) ships
  // nothing. heap_sample_bytes is the request frame's last field.
  int profile_hz = 0;
  int64_t heap_sample_bytes = 0;
};

// Immutable view of the join workload shared by every worker. The caller
// owns the pointees and keeps them alive for the workers' lifetime. The
// summaries are built once by the coordinator before any worker starts, so
// forked workers inherit them rather than rebuilding them per shard.
struct WorkerContext {
  const std::vector<graph::LabeledGraph>* d = nullptr;
  const std::vector<graph::UncertainGraph>* u = nullptr;
  const core::JoinSummaries* summaries = nullptr;
  const core::SimJParams* params = nullptr;
  const graph::LabelDictionary* dict = nullptr;
};

// Everything a completed shard contributes to the merge. pairs/explains
// are in shard-local evaluation order; the coordinator's merge sorts
// globally by (q_index, g_index).
struct ShardResult {
  int shard_id = -1;
  core::JoinStats stats;
  std::vector<core::MatchedPair> pairs;
  std::vector<core::PairExplain> explains;
  // The shard's pairs over the pair-time budget, for the coordinator to log
  // (core::EvaluatePairList collects them; neither transport's worker logs).
  std::vector<core::SlowPair> slow_pairs;
  // Spans recorded during this execution (empty unless SpanContext.collect).
  // trace_id/parent_span_id are tagged from the request's SpanContext; the
  // coordinator re-files them under the worker's process lane.
  std::vector<trace::TraceEvent> spans;
  // CPU samples and heap stack deltas drained since this worker's previous
  // response (empty unless the SpanContext asked for them); the
  // coordinator folds them into the captures' "worker-N" sections. The
  // heap batch is the result frame's last section.
  prof::SampleBatch profile;
  heapprof::HeapBatch heap;
};

// The process transport's response frame (DESIGN.md §9): fixed-width
// little-endian fields, encoded by the child and decoded by the parent.
// DecodeResult rejects a torn, truncated or trailing-garbage frame, any
// element count the frame's remaining bytes cannot hold, and any enum or
// bool byte the encoder never writes, with an InternalError
// "shard response corrupt (...)".
std::string EncodeResult(const ShardResult& result);
[[nodiscard]] StatusOr<ShardResult> DecodeResult(const std::string& frame);

class ShardWorker {
 public:
  // `worker_index` is the logical worker slot used for heartbeats and stall
  // attribution. kProcess forks the serving child here: construct every
  // worker before starting dispatch threads, so the first fork happens
  // while the process is single-threaded. If the fork fails, the worker
  // logs an error and runs on the thread transport instead.
  ShardWorker(const WorkerContext& ctx, int worker_index, Transport transport);

  // Blocking: evaluates `shard` and returns its result. A non-OK status
  // means the worker is broken (dead child, torn pipe, injected death) and
  // produced nothing usable — the coordinator requeues the shard and
  // decides whether to Restart() the worker.
  [[nodiscard]] StatusOr<ShardResult> RunShard(const Shard& shard,
                                               const FaultSpec& fault,
                                               const SpanContext& ctx);

  // Brings a dead worker back (respawns the child for the process
  // transport; a no-op for the thread transport). Non-OK when the worker
  // cannot be revived.
  [[nodiscard]] Status Restart();

  // True when this worker's pair counts reach THIS process's metrics
  // registry (thread transport). False when the work happens in a child
  // whose counters die with it — the coordinator then replays the
  // returned JoinStats into the registry so progress/statusz stay live.
  bool counts_in_process() const { return !child_.has_value(); }

 private:
  WorkerContext ctx_;
  int worker_index_;
  std::optional<subprocess::ChildProcess> child_;  // set for kProcess
};

}  // namespace simj::dist

#endif  // SIMJ_DIST_WORKER_H_
