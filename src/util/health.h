// Process-wide health registry backing the /healthz endpoint.
//
// Components that can detect their own degradation (the stall watchdog, the
// distributed-join coordinator observing a dead worker) report it here with
// a short reason string; they clear it when the condition resolves (a
// worker restart, the next join starting cleanly). /healthz renders
//
//   {"status":"ok"}                                  — no component degraded
//   {"status":"degraded","reason":"<c1>: <r1>; ..."} — reasons sorted by
//                                                      component name
//
// so a liveness probe stays a trivial string compare while an operator
// still sees *why* the process is unhealthy. The registry is intentionally
// tiny: a mutex-guarded map touched only on state transitions — never on
// the join hot path.

#ifndef SIMJ_UTIL_HEALTH_H_
#define SIMJ_UTIL_HEALTH_H_

#include <string>

namespace simj::health {

// Marks `component` degraded with a human-readable reason. Overwrites any
// previous reason for the same component.
void SetUnhealthy(const std::string& component, const std::string& reason);

// Clears `component`'s degradation (no-op if it was healthy).
void SetHealthy(const std::string& component);

// The /healthz response body (JSON, newline-terminated).
std::string HealthzBody();

// Clears all components. Tests only.
void ResetForTesting();

}  // namespace simj::health

#endif  // SIMJ_UTIL_HEALTH_H_
