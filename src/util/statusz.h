// Embedded live-introspection endpoint: a tiny HTTP/1.0 server on one
// background thread, answering operator GETs while a join runs.
//
//   GET /healthz   JSON liveness probe: {"status":"ok"} or
//                  {"status":"degraded","reason":...} from util/health
//                  (the stall watchdog and the dist coordinator report
//                  degradation there)
//   GET /metricsz  Prometheus text exposition of the metrics registry
//   GET /profilez  on-demand CPU capture (?seconds=N&hz=M&format=json|folded)
//   GET /statusz   JSON: build provenance (git SHA, build type, sanitizers),
//                  uptime, RSS, plus every registered section (the bench
//                  harnesses register the live join-progress section here)
//   GET /tracez    JSON: last-N completed spans per thread, from the
//                  recent-span ring armed in util/trace by Start()
//
// Design constraints (see DESIGN.md "Live introspection"):
//   * handlers only ever READ shared state through the existing
//     merge-on-snapshot paths (Registry::Snapshot, Tracer::RecentSpans,
//     JoinProgress::Snapshot behind a section callback) — the server can
//     never perturb join results, and the join hot path pays at most one
//     relaxed atomic for its existence;
//   * one blocking accept loop on one background thread, HTTP/1.0 with
//     Connection: close — no keep-alive bookkeeping, no thread pool, no
//     third-party dependency;
//   * binds 127.0.0.1 only, and harnesses default the port to "off": this
//     is an operator loopback port, not a service API.
//
// This file is the only place in src/ allowed to touch raw sockets
// (enforced by tools/simj_lint.py, rule no-raw-sockets).

#ifndef SIMJ_UTIL_STATUSZ_H_
#define SIMJ_UTIL_STATUSZ_H_

#include <atomic>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "util/status.h"

namespace simj::statusz {

// One named JSON block spliced into the /statusz document. The provider is
// called on the server thread per request and must return a complete JSON
// value; it must only read snapshots (never block on join-side locks).
struct Section {
  std::string name;
  std::function<std::string()> json;
};

// A process-global extra endpoint ("/clusterz"). Layers above util register
// endpoints here (callback inversion: util never links against them); every
// running Server consults the registry after its built-in routes. The body
// provider runs on the server thread and must only read snapshots.
// Registering a path twice replaces the previous handler.
struct Endpoint {
  std::string path;          // must start with '/'
  std::string content_type;  // e.g. "application/json"
  std::function<std::string()> body;
};

void RegisterEndpoint(Endpoint endpoint);

class Server {
 public:
  struct Options {
    // TCP port on 127.0.0.1. 0 asks the kernel for an ephemeral port
    // (tests); the "0 means disabled" convention lives in the harness flag
    // handling, not here.
    int port = 0;
    std::vector<Section> sections;
  };

  Server() = default;
  ~Server() { Stop(); }
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Binds, listens, arms the trace recent-span ring, and spawns the accept
  // thread. Fails (without crashing) when the port is taken.
  Status Start(const Options& options);

  // Wakes the accept loop and joins the thread. Idempotent; called by the
  // destructor.
  void Stop();

  bool running() const { return running_.load(std::memory_order_relaxed); }
  // The actually-bound port (resolves port 0). 0 while not running.
  int bound_port() const { return bound_port_; }

 private:
  void AcceptLoop();
  // Routes one parsed request to a handler; returns the full HTTP response.
  std::string HandleRequest(const std::string& method,
                            const std::string& path) const;

  Options options_;
  int listen_fd_ = -1;
  int bound_port_ = 0;
  double start_unix_seconds_ = 0.0;
  std::atomic<bool> running_{false};
  std::thread thread_;
};

// /statusz body for the given sections; exposed for tests.
std::string StatusBody(const std::vector<Section>& sections,
                       double uptime_seconds);

// /tracez body from the global tracer's recent-span rings; exposed for
// tests.
std::string TracezBody();

}  // namespace simj::statusz

#endif  // SIMJ_UTIL_STATUSZ_H_
