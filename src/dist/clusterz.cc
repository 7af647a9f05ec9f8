#include "dist/clusterz.h"

#include <deque>
#include <map>
#include <string>

#include "util/statusz.h"
#include "util/sync.h"

namespace simj::dist {

namespace {

struct SourceSlot {
  Mutex mu;
  ClusterzSource* source SIMJ_GUARDED_BY(mu) = nullptr;
};

SourceSlot& GlobalSource() {
  static SourceSlot* slot =
      new SourceSlot();  // simj-lint: allow(new) leaky singleton
  return *slot;
}

constexpr int kRecentEventTail = 32;

}  // namespace

void SetClusterzSource(ClusterzSource* source) {
  SourceSlot& slot = GlobalSource();
  MutexLock lock(slot.mu);
  slot.source = source;
}

std::string ClusterzBody() {
  std::string out = "{\"active\":";
  {
    // The mutex is held across LiveJson() so the coordinator can never be
    // destroyed mid-render (it unregisters under the same mutex first).
    SourceSlot& slot = GlobalSource();
    MutexLock lock(slot.mu);
    if (slot.source != nullptr) {
      out += "true,\"coordinator\":";
      out += slot.source->LiveJson();
    } else {
      out += "false,\"coordinator\":null";
    }
  }
  flight::FlightRecorder& recorder = flight::FlightRecorder::Global();
  std::vector<flight::Event> events = recorder.Events();
  if (static_cast<int>(events.size()) > kRecentEventTail) {
    events.erase(events.begin(),
                 events.end() - static_cast<long>(kRecentEventTail));
  }
  out += ",\"events_dropped\":";
  out += std::to_string(recorder.dropped());
  // Reuse the dump renderer for the tail, splicing out its object wrapper.
  std::string tail = flight::EventsJson(events, /*dropped=*/0);
  const size_t begin = tail.find("\"events\":");
  out += ",\"recent_events\":";
  out += tail.substr(begin + 9, tail.size() - (begin + 9) - 2);  // strip "}\n"
  out += "}\n";
  return out;
}

void RegisterClusterzEndpoint() {
  // The statusz server invokes this body through a std::function while
  // holding the endpoint registry mutex — an indirection the static
  // lock-order extractor cannot follow, so the edges are declared here:
  // simj-lock-order: EndpointRegistry::mu -> SourceSlot::mu
  // simj-lock-order: EndpointRegistry::mu -> FlightRecorder::mu_
  statusz::RegisterEndpoint(
      {"/clusterz", "application/json", [] { return ClusterzBody(); }});
}

StatusOr<std::vector<int>> ReplayFinalAssignment(
    const std::vector<flight::Event>& events, int num_shards) {
  if (num_shards < 0) return InvalidArgumentError("negative shard count");
  // The recorder restarts seq at 0 for each run, so a first seq of N means
  // the ring dropped the run's first N events: the queue cannot be rebuilt.
  if (!events.empty() && events.front().seq != 0) {
    const std::string dropped = std::to_string(events.front().seq);
    return FailedPreconditionError(
        "flight replay: the dump starts at seq " + dropped +
        ", not 0: the ring dropped the run's first " + dropped + " event(s)");
  }
  std::deque<int> queue;       // shard ids waiting, front first
  for (int s = 0; s < num_shards; ++s) queue.push_back(s);
  std::map<int, int> running;  // shard -> worker executing it
  std::vector<int> assignment(static_cast<size_t>(num_shards), -2);  // -2 = unfinished

  auto bad = [](const flight::Event& e, const std::string& why) {
    return InternalError("flight replay: event seq " + std::to_string(e.seq) +
                         " (" + e.type + ", worker " +
                         std::to_string(e.worker) + ", shard " +
                         std::to_string(e.shard) + "): " + why);
  };

  for (const flight::Event& e : events) {
    if (e.type == kEventDispatch || e.type == kEventFallback) {
      // A queued shard is neither running nor done, so popping the front
      // is the whole check.
      if (queue.empty() || queue.front() != e.shard) {
        return bad(e, "pop of a shard that is not the queue front");
      }
      queue.pop_front();
      if (e.type == kEventDispatch) {
        running[e.shard] = e.worker;
      } else {
        assignment[static_cast<size_t>(e.shard)] = -1;
      }
    } else if (e.type == kEventRequeue) {
      auto it = running.find(e.shard);
      if (it == running.end() || it->second != e.worker) {
        return bad(e, "requeue of a shard this worker was not running");
      }
      running.erase(it);
      queue.push_front(e.shard);
    } else if (e.type == kEventComplete) {
      auto it = running.find(e.shard);
      if (it == running.end() || it->second != e.worker) {
        return bad(e, "completion by a worker that was not running the shard");
      }
      running.erase(it);
      assignment[static_cast<size_t>(e.shard)] = e.worker;
    }
    // restart / worker_dead / fault / stall carry no queue transitions.
  }
  for (int s = 0; s < num_shards; ++s) {
    if (assignment[static_cast<size_t>(s)] == -2) {
      return InternalError("flight replay: shard " + std::to_string(s) +
                           " never completed");
    }
  }
  return assignment;
}

}  // namespace simj::dist
