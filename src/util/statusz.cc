#include "util/statusz.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include <utility>

#include "util/health.h"
#include "util/log.h"
#include "util/mem.h"
#include "util/metrics.h"
#include "util/profiler.h"
#include "util/run_record.h"
#include "util/strings.h"
#include "util/sync.h"
#include "util/trace.h"

namespace simj::statusz {

namespace {

// Per-connection read budget: a request line plus headers; anything longer
// is not a request we answer.
constexpr size_t kMaxRequestBytes = 4096;

std::string HttpResponse(int code, const char* reason,
                         const char* content_type, const std::string& body) {
  char header[256];
  std::snprintf(header, sizeof(header),
                "HTTP/1.0 %d %s\r\n"
                "Content-Type: %s\r\n"
                "Content-Length: %zu\r\n"
                "Connection: close\r\n"
                "\r\n",
                code, reason, content_type, body.size());
  return std::string(header) + body;
}

std::string NotFound() {
  return HttpResponse(404, "Not Found", "text/plain", "not found\n");
}

std::string MethodNotAllowed() {
  return HttpResponse(405, "Method Not Allowed", "text/plain",
                      "only GET is supported\n");
}

// /profilez?seconds=N&hz=M&format=json|folded — on-demand CPU capture.
// Parses the query, then captures synchronously: the single serving thread
// blocks for the window, which also serializes concurrent capture requests
// (a second caller while armed gets 409 instead of corrupting the first).
std::string ProfilezResponse(const std::string& query) {
  double seconds = 1.0;
  int64_t hz = 99;
  std::string format = "json";
  for (const std::string& pair : SplitAndTrim(query, '&')) {
    const size_t eq = pair.find('=');
    if (eq == std::string::npos) continue;
    const std::string key = pair.substr(0, eq);
    const std::string value = pair.substr(eq + 1);
    char* end = nullptr;
    if (key == "seconds") {
      seconds = std::strtod(value.c_str(), &end);
    } else if (key == "hz") {
      hz = std::strtoll(value.c_str(), &end, 10);
    } else {
      if (key == "format") format = value;
      continue;
    }
    // strtod accepts "nan", which no clamp below can bound ("inf" clamps).
    if (end == value.c_str() || *end != '\0' || std::isnan(seconds)) {
      return HttpResponse(400, "Bad Request", "text/plain",
                          "unparseable " + key + ": " + value + "\n");
    }
  }
  if (format != "json" && format != "folded") {
    return HttpResponse(400, "Bad Request", "text/plain",
                        "format must be json or folded\n");
  }
  // Well-formed but extreme values are clamped, not rejected: the window
  // bounds protect the serving thread, not the caller's intent.
  seconds = std::min(std::max(seconds, 0.05), 60.0);
  hz = std::min(std::max(hz, int64_t{1}), int64_t{1000});
  if (prof::ProfilingActive()) {
    return HttpResponse(409, "Conflict", "text/plain",
                        "profiler already armed\n");
  }
  StatusOr<prof::Profile> profile =
      prof::CaptureProfile(seconds, static_cast<int>(hz));
  if (!profile.ok()) {
    // E.g. disabled under a sanitizer, or no per-thread timer could be
    // armed, or a capture raced us to arm.
    return HttpResponse(503, "Service Unavailable", "text/plain",
                        profile.status().ToString() + "\n");
  }
  if (format == "folded") {
    return HttpResponse(200, "OK", "text/plain", prof::FoldedText(*profile));
  }
  return HttpResponse(200, "OK", "application/json",
                      prof::ProfileJson(*profile));
}

struct EndpointRegistry {
  Mutex mu;
  std::vector<Endpoint> endpoints SIMJ_GUARDED_BY(mu);
};

EndpointRegistry& GlobalEndpoints() {
  static EndpointRegistry* registry =
      new EndpointRegistry();  // simj-lint: allow(new) leaky singleton
  return *registry;
}

}  // namespace

void RegisterEndpoint(Endpoint endpoint) {
  EndpointRegistry& registry = GlobalEndpoints();
  MutexLock lock(registry.mu);
  for (Endpoint& existing : registry.endpoints) {
    if (existing.path == endpoint.path) {
      existing = std::move(endpoint);
      return;
    }
  }
  registry.endpoints.push_back(std::move(endpoint));
}

std::string StatusBody(const std::vector<Section>& sections,
                       double uptime_seconds) {
  run_record::GitInfo git = run_record::QueryGitInfo();
  run_record::BuildInfo build = run_record::CurrentBuildInfo();
  std::string out = "{";
  char buffer[512];
  std::snprintf(buffer, sizeof(buffer),
                "\"git_sha\":\"%s\",\"git_dirty\":%s,\"compiler\":\"%s\","
                "\"build_type\":\"%s\",\"sanitizers\":\"%s\","
                "\"debug_checks\":%s,\"uptime_seconds\":%.3f,"
                "\"rss_bytes\":%lld,\"peak_rss_bytes\":%lld",
                JsonEscape(git.sha).c_str(),
                git.dirty ? "true" : "false",
                JsonEscape(build.compiler).c_str(),
                JsonEscape(build.build_type).c_str(),
                JsonEscape(build.sanitizers).c_str(),
                build.debug_checks ? "true" : "false", uptime_seconds,
                static_cast<long long>(mem::CurrentRssBytes()),
                static_cast<long long>(mem::PeakRssBytes()));
  out += buffer;
  for (const Section& section : sections) {
    out += ",\"";
    out += JsonEscape(section.name);
    out += "\":";
    out += section.json ? section.json() : "null";
  }
  out += "}\n";
  return out;
}

std::string TracezBody() {
  std::string out = "{\"threads\":[";
  char buffer[512];
  bool first_thread = true;
  for (const trace::RecentThreadSpans& thread :
       trace::Tracer::Global().RecentSpans()) {
    if (!first_thread) out += ",";
    first_thread = false;
    std::snprintf(buffer, sizeof(buffer), "{\"tid\":%d,\"name\":\"%s\",\"spans\":[",
                  thread.tid, JsonEscape(thread.name).c_str());
    out += buffer;
    bool first_span = true;
    for (const trace::TraceEvent& span : thread.spans) {
      if (!first_span) out += ",";
      first_span = false;
      std::snprintf(buffer, sizeof(buffer),
                    "{\"name\":\"%s\",\"cat\":\"%s\",\"ts_us\":%.3f,"
                    "\"dur_us\":%.3f}",
                    JsonEscape(span.name).c_str(),
                    JsonEscape(span.category).c_str(), span.ts_us,
                    span.dur_us);
      out += buffer;
    }
    out += "]}";
  }
  out += "]}\n";
  return out;
}

Status Server::Start(const Options& options) {
  if (running()) {
    return FailedPreconditionError("statusz server already running");
  }
  options_ = options;

  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return InternalError(std::string("statusz: socket() failed: ") +
                         std::strerror(errno));
  }
  int reuse = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &reuse, sizeof(reuse));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);  // operator loopback only
  addr.sin_port = htons(static_cast<uint16_t>(options.port));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    Status status = InternalError(
        std::string("statusz: bind(127.0.0.1:") +
        std::to_string(options.port) + ") failed: " + std::strerror(errno));
    ::close(fd);
    return status;
  }
  if (::listen(fd, 16) < 0) {
    Status status = InternalError(std::string("statusz: listen() failed: ") +
                                  std::strerror(errno));
    ::close(fd);
    return status;
  }
  socklen_t addr_len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &addr_len) < 0) {
    Status status = InternalError(
        std::string("statusz: getsockname() failed: ") + std::strerror(errno));
    ::close(fd);
    return status;
  }
  listen_fd_ = fd;
  bound_port_ = ntohs(addr.sin_port);
  start_unix_seconds_ = run_record::NowUnixSeconds();

  // Arm the live-trace ring so /tracez has spans to show. (Full tracing
  // stays under its own --trace_out switch.)
  trace::Tracer::Global().SetRecentRing(true);

  running_.store(true, std::memory_order_relaxed);
  thread_ = std::thread([this] { AcceptLoop(); });
  SIMJ_LOG(INFO) << "statusz listening on http://127.0.0.1:" << bound_port_;
  return Status::Ok();
}

void Server::Stop() {
  if (!running_.exchange(false, std::memory_order_relaxed)) return;
  // Wake the blocking accept(): shutdown makes it return with an error even
  // on platforms where close() alone does not.
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (thread_.joinable()) thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
  bound_port_ = 0;
  trace::Tracer::Global().SetRecentRing(false);
}

std::string Server::HandleRequest(const std::string& method,
                                  const std::string& request_path) const {
  if (method != "GET") return MethodNotAllowed();
  // Split off the query string: /profilez takes parameters; every other
  // route matches on the bare path and ignores any query.
  const size_t query_start = request_path.find('?');
  const std::string path = request_path.substr(0, query_start);
  const std::string query = query_start == std::string::npos
                                ? std::string()
                                : request_path.substr(query_start + 1);
  if (path == "/profilez") return ProfilezResponse(query);
  if (path == "/healthz") {
    return HttpResponse(200, "OK", "application/json", health::HealthzBody());
  }
  if (path == "/metricsz") {
    return HttpResponse(200, "OK", "text/plain; version=0.0.4",
                        metrics::Registry::Global().ExpositionText());
  }
  if (path == "/statusz") {
    double uptime = run_record::NowUnixSeconds() - start_unix_seconds_;
    return HttpResponse(200, "OK", "application/json",
                        StatusBody(options_.sections, uptime));
  }
  if (path == "/tracez") {
    return HttpResponse(200, "OK", "application/json", TracezBody());
  }
  {
    EndpointRegistry& registry = GlobalEndpoints();
    MutexLock lock(registry.mu);
    for (const Endpoint& endpoint : registry.endpoints) {
      if (endpoint.path == path && endpoint.body) {
        // endpoint.body() is a std::function the static extractor cannot
        // follow; registrants declare what their bodies lock (see the
        // simj-lock-order comments in src/dist/clusterz.cc).
        return HttpResponse(200, "OK", endpoint.content_type.c_str(),
                            endpoint.body());
      }
    }
  }
  return NotFound();
}

void Server::AcceptLoop() {
  trace::SetThisThreadName("statusz");
  while (running()) {
    int conn = ::accept(listen_fd_, nullptr, nullptr);
    if (conn < 0) {
      if (!running()) break;  // woken by Stop()
      if (errno == EINTR) continue;
      SIMJ_LOG(WARN) << "statusz: accept() failed: " << std::strerror(errno);
      break;
    }
    // A stuck client must not wedge the single server thread.
    timeval timeout{};
    timeout.tv_sec = 2;
    ::setsockopt(conn, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    ::setsockopt(conn, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));

    // Read until the end of the headers (we never accept request bodies).
    std::string request;
    char chunk[1024];
    while (request.size() < kMaxRequestBytes &&
           request.find("\r\n\r\n") == std::string::npos) {
      ssize_t n = ::recv(conn, chunk, sizeof(chunk), 0);
      if (n <= 0) break;
      request.append(chunk, static_cast<size_t>(n));
    }

    std::string response;
    size_t method_end = request.find(' ');
    size_t path_end = method_end == std::string::npos
                          ? std::string::npos
                          : request.find(' ', method_end + 1);
    if (path_end == std::string::npos) {
      response = HttpResponse(400, "Bad Request", "text/plain",
                              "malformed request line\n");
    } else {
      response = HandleRequest(
          request.substr(0, method_end),
          request.substr(method_end + 1, path_end - method_end - 1));
    }
    size_t sent = 0;
    while (sent < response.size()) {
      ssize_t n = ::send(conn, response.data() + sent, response.size() - sent,
                         MSG_NOSIGNAL);
      if (n <= 0) break;
      sent += static_cast<size_t>(n);
    }
    ::close(conn);
  }
}

}  // namespace simj::statusz
