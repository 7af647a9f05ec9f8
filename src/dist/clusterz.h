// /clusterz: live cluster introspection + the flight-recorder event
// vocabulary and its replay checker (DESIGN.md §10).
//
// The coordinator records every scheduling decision into the global
// util/flight_recorder ring using the event-type constants below, and
// while a sharded join runs it registers itself as the ClusterzSource so
// GET /clusterz renders the live shard queue length, per-worker heartbeat
// age/state/restart budget, requeue totals, and the recent flight-recorder
// tail. The endpoint plugs into util/statusz through the process-global
// endpoint registry (util never links dist).
//
// ReplayFinalAssignment is the post-mortem contract: the recorded
// dispatch/requeue/complete/fallback events alone reconstruct the exact
// final shard-to-worker assignment by simulating the one queue, which
// starts as shard ids 0..n-1. The simulation cross-checks every transition
// (a dispatch or fallback must pop the queue front, a requeue pushes the
// front, and a shard completes exactly once — the coordinator requeues
// failed attempts only, so there is no duplicate-completion event). Tests
// replay a faulted run's dump against DistStats::shard_completed_by.

#ifndef SIMJ_DIST_CLUSTERZ_H_
#define SIMJ_DIST_CLUSTERZ_H_

#include <string>
#include <vector>

#include "util/flight_recorder.h"
#include "util/status.h"

namespace simj::dist {

// Flight-recorder event types recorded by the coordinator.
inline constexpr const char* kEventDispatch = "dispatch";  // queue front pop
inline constexpr const char* kEventComplete = "complete";  // shard finished on worker
inline constexpr const char* kEventRequeue = "requeue";    // failed execution, shard to queue front
inline constexpr const char* kEventRestart = "restart";    // worker restarted
inline constexpr const char* kEventWorkerDead = "worker_dead";  // restart budget exhausted
inline constexpr const char* kEventFault = "fault";        // injected fault observed
inline constexpr const char* kEventStall = "stall";        // watchdog flagged a worker
inline constexpr const char* kEventFallback = "fallback";  // queue front pop, run inline

// Live-state provider registered by the running coordinator. LiveJson()
// must return a complete JSON value and only read snapshot state (it is
// called from the statusz server thread).
class ClusterzSource {
 public:
  virtual ~ClusterzSource() = default;
  virtual std::string LiveJson() = 0;
};

// Installs (or, with nullptr, removes) the live source. The registry holds
// its internal mutex across the LiveJson() call, so the coordinator can
// safely unregister in its destructor.
void SetClusterzSource(ClusterzSource* source);

// The /clusterz response body:
//   {"active":bool,"coordinator":<LiveJson or null>,
//    "events_dropped":N,"recent_events":[...last 32 flight events...]}
[[nodiscard]] std::string ClusterzBody();

// Registers GET /clusterz with the statusz endpoint registry. Idempotent.
void RegisterClusterzEndpoint();

// Replays dispatch/requeue/complete/fallback events through a queue
// simulation and returns the final shard-to-worker assignment (worker
// index per shard; -1 = inline fallback). Fails with FailedPrecondition
// when the dump does not start at seq 0 (the ring dropped the run's first
// events), and otherwise on any transition the real coordinator could not
// have produced: popping a shard that is not the queue front, completing a
// shard on a worker that was not running it, a shard left unfinished.
[[nodiscard]] StatusOr<std::vector<int>> ReplayFinalAssignment(
    const std::vector<flight::Event>& events, int num_shards);

}  // namespace simj::dist

#endif  // SIMJ_DIST_CLUSTERZ_H_
