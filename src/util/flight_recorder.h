// Coordinator flight recorder: a bounded in-memory ring of timestamped
// scheduling decisions, dumped as deterministic JSON for post-mortem
// analysis (--events_out=).
//
// The distributed-join coordinator records one Event per decision —
// dispatch, complete, requeue, restart, fault observed, worker death,
// stall, fallback (string constants live in src/dist/clusterz.h so util
// stays ignorant of dist semantics). Events carry a process-wide monotone
// sequence number assigned at Record() time, so the dump's order IS the
// decision order even when timestamps collide; DESIGN.md §10 shows how
// replaying dispatch/requeue/complete/fallback events reconstructs the
// exact final shard-to-worker assignment.
//
// The ring is bounded (default 4096 events): when full, the oldest events
// are dropped and dropped() counts them — a post-mortem is best-effort by
// design, never a memory hazard. Recording is a mutex-guarded push; the
// coordinator only records on scheduling transitions (two per shard
// without faults: dispatch and complete), never per pair.
//
// This lives in util (not dist) so bench_util can dump --events_out
// without linking the dist layer.

#ifndef SIMJ_UTIL_FLIGHT_RECORDER_H_
#define SIMJ_UTIL_FLIGHT_RECORDER_H_

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "util/sync.h"

namespace simj::flight {

struct Event {
  int64_t seq = 0;     // assigned by Record(); process-wide decision order
  double ts_us = 0.0;  // microseconds since the recorder epoch
  std::string type;    // "dispatch", "requeue", ... (see dist/clusterz.h)
  int worker = -1;     // -1 = not worker-specific
  int shard = -1;      // -1 = not shard-specific
  int attempt = -1;    // -1 = not attempt-specific
  std::string detail;  // free-form context ("exit status 3")
};

class FlightRecorder {
 public:
  explicit FlightRecorder(int capacity = 4096) : capacity_(capacity) {}

  static FlightRecorder& Global();

  // Stamps seq/ts and appends; drops the oldest event when full.
  void Record(Event event);

  // Point-in-time copy, oldest first.
  [[nodiscard]] std::vector<Event> Events() const;

  // Events discarded because the ring was full.
  [[nodiscard]] int64_t dropped() const;

  // Deterministic JSON dump of the current ring (see EventsJson).
  [[nodiscard]] std::string ToJson() const;

  // Discards all events and resets seq/dropped. The coordinator clears the
  // global recorder at the start of each sharded run.
  void Clear();

 private:
  const int capacity_;
  // Leaf lock in practice today, except that the dist coordinator records
  // events while holding its own mutex — so the documented order is
  // Coordinator::mu_ before FlightRecorder::mu_ (see tools/lock_order.py).
  mutable Mutex mu_;
  std::deque<Event> ring_ SIMJ_GUARDED_BY(mu_);
  int64_t next_seq_ SIMJ_GUARDED_BY(mu_) = 0;
  int64_t dropped_ SIMJ_GUARDED_BY(mu_) = 0;
};

// Renders `{"schema":"simj_flight_v1","dropped":N,"events":[...]}` with one
// object per event ({"seq","ts_us","type","worker","shard","attempt",
// "detail"}), byte-deterministic for a given event list. Exposed so tests
// can golden-check rendering without going through the global ring.
[[nodiscard]] std::string EventsJson(const std::vector<Event>& events,
                                     int64_t dropped);

}  // namespace simj::flight

#endif  // SIMJ_UTIL_FLIGHT_RECORDER_H_
