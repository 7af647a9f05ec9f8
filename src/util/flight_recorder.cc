#include "util/flight_recorder.h"

#include <cstdio>

#include "util/strings.h"
#include "util/trace.h"  // Tracer::NowUs

namespace simj::flight {

FlightRecorder& FlightRecorder::Global() {
  static FlightRecorder* recorder =
      new FlightRecorder();  // simj-lint: allow(new) leaky singleton
  return *recorder;
}

void FlightRecorder::Record(Event event) {
  MutexLock lock(mu_);
  // The tracer epoch is the process timebase every other sink already uses,
  // so flight-recorder timestamps line up with trace spans.
  event.seq = next_seq_++;
  event.ts_us = trace::Tracer::Global().NowUs();
  if (static_cast<int>(ring_.size()) >= capacity_) {
    ring_.pop_front();
    ++dropped_;
  }
  ring_.push_back(std::move(event));
}

std::vector<Event> FlightRecorder::Events() const {
  MutexLock lock(mu_);
  return std::vector<Event>(ring_.begin(), ring_.end());
}

int64_t FlightRecorder::dropped() const {
  MutexLock lock(mu_);
  return dropped_;
}

std::string FlightRecorder::ToJson() const {
  std::vector<Event> events;
  int64_t dropped;
  {
    MutexLock lock(mu_);
    events.assign(ring_.begin(), ring_.end());
    dropped = dropped_;
  }
  return EventsJson(events, dropped);
}

void FlightRecorder::Clear() {
  MutexLock lock(mu_);
  ring_.clear();
  next_seq_ = 0;
  dropped_ = 0;
}

std::string EventsJson(const std::vector<Event>& events, int64_t dropped) {
  std::string out = "{\"schema\":\"simj_flight_v1\",\"dropped\":";
  out += std::to_string(dropped);
  out += ",\"events\":[";
  char buffer[64];
  bool first = true;
  for (const Event& event : events) {
    if (!first) out += ",";
    first = false;
    out += "{\"seq\":";
    out += std::to_string(event.seq);
    std::snprintf(buffer, sizeof(buffer), ",\"ts_us\":%.3f", event.ts_us);
    out += buffer;
    out += ",\"type\":\"";
    out += JsonEscape(event.type);
    out += "\",\"worker\":";
    out += std::to_string(event.worker);
    out += ",\"shard\":";
    out += std::to_string(event.shard);
    out += ",\"attempt\":";
    out += std::to_string(event.attempt);
    out += ",\"detail\":\"";
    out += JsonEscape(event.detail);
    out += "\"}";
  }
  out += "]}\n";
  return out;
}

}  // namespace simj::flight
