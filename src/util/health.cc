#include "util/health.h"

#include <map>

#include "util/strings.h"
#include "util/sync.h"

namespace simj::health {

namespace {

struct State {
  Mutex mu;  // leaf lock: nothing else is acquired under it
  std::map<std::string, std::string> degraded
      SIMJ_GUARDED_BY(mu);  // component -> reason
};

State& GlobalState() {
  static State* state = new State();  // simj-lint: allow(new) leaky singleton
  return *state;
}

}  // namespace

void SetUnhealthy(const std::string& component, const std::string& reason) {
  State& state = GlobalState();
  MutexLock lock(state.mu);
  state.degraded[component] = reason;
}

void SetHealthy(const std::string& component) {
  State& state = GlobalState();
  MutexLock lock(state.mu);
  state.degraded.erase(component);
}

std::string HealthzBody() {
  State& state = GlobalState();
  MutexLock lock(state.mu);
  if (state.degraded.empty()) return "{\"status\":\"ok\"}\n";
  std::string reason;
  for (const auto& [component, why] : state.degraded) {
    if (!reason.empty()) reason += "; ";
    reason += component + ": " + why;
  }
  return "{\"status\":\"degraded\",\"reason\":\"" + JsonEscape(reason) +
         "\"}\n";
}

void ResetForTesting() {
  State& state = GlobalState();
  MutexLock lock(state.mu);
  state.degraded.clear();
}

}  // namespace simj::health
