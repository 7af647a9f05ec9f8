#include "util/run_record.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <thread>

#include "util/mem.h"
#include "util/strings.h"

#ifndef SIMJ_SOURCE_DIR
#define SIMJ_SOURCE_DIR "."
#endif
#ifndef SIMJ_BUILD_TYPE_NAME
#define SIMJ_BUILD_TYPE_NAME ""
#endif
#ifndef SIMJ_SANITIZERS_NAME
#define SIMJ_SANITIZERS_NAME ""
#endif

namespace simj::run_record {

namespace {

// ---------------------------------------------------------------------------
// Deterministic JSON emission. Numbers use %.9g (shortest round-half digits
// that keep bench timings comparable); keys are emitted in a fixed order.
// ---------------------------------------------------------------------------

std::string FormatDouble(double value) {
  char buffer[48];
  std::snprintf(buffer, sizeof(buffer), "%.9g", value);
  return buffer;
}

std::string FormatInt(int64_t value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%lld",
                static_cast<long long>(value));
  return buffer;
}

std::string Quoted(const std::string& text) {
  std::string out;
  std::string escaped = JsonEscape(text);
  out.reserve(escaped.size() + 2);
  out.push_back('"');
  out.append(escaped);
  out.push_back('"');
  return out;
}

// Minimal structural JSON builder: tracks indentation and comma placement
// so the emitted text is always well-formed.
class JsonWriter {
 public:
  void BeginObject(const std::string& key = "") { Open(key, '{'); }
  void EndObject() { Close('}'); }
  void BeginArray(const std::string& key = "") { Open(key, '['); }
  void EndArray() { Close(']'); }

  void Field(const std::string& key, const std::string& raw_value) {
    Prefix(key);
    out_ += raw_value;
  }
  void String(const std::string& key, const std::string& value) {
    Field(key, Quoted(value));
  }
  void Double(const std::string& key, double value) {
    Field(key, FormatDouble(value));
  }
  void Int(const std::string& key, int64_t value) {
    Field(key, FormatInt(value));
  }
  void Bool(const std::string& key, bool value) {
    Field(key, value ? "true" : "false");
  }

  std::string Take() {
    out_ += '\n';
    return std::move(out_);
  }

 private:
  void Open(const std::string& key, char bracket) {
    Prefix(key);
    out_ += bracket;
    ++depth_;
    first_in_scope_ = true;
  }

  void Close(char bracket) {
    --depth_;
    if (!first_in_scope_) {
      out_ += '\n';
      Indent();
    }
    out_ += bracket;
    first_in_scope_ = false;
  }

  void Prefix(const std::string& key) {
    if (depth_ > 0) {
      if (!first_in_scope_) out_ += ',';
      out_ += '\n';
      Indent();
    }
    first_in_scope_ = false;
    if (!key.empty()) {
      out_ += Quoted(key);
      out_ += ": ";
    }
  }

  void Indent() { out_.append(static_cast<size_t>(depth_) * 2, ' '); }

  std::string out_;
  int depth_ = 0;
  bool first_in_scope_ = true;
};

void WriteStats(JsonWriter* json, const std::string& key,
                const Stats& stats) {
  json->BeginObject(key);
  json->Int("trials", stats.trials);
  json->Double("min", stats.min);
  json->Double("median", stats.median);
  json->Double("mean", stats.mean);
  json->Double("stddev", stats.stddev);
  json->Double("max", stats.max);
  json->EndObject();
}

// Runs `command` through a shell and returns its whitespace-stripped
// stdout, or "" on any failure. Used only for provenance probes.
std::string RunCommandTrimmed(const std::string& command) {
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return "";
  std::string out;
  char buffer[256];
  size_t read = 0;
  while ((read = std::fread(buffer, 1, sizeof(buffer), pipe)) > 0) {
    out.append(buffer, read);
  }
  pclose(pipe);
  return std::string(StripWhitespace(out));
}

bool LooksLikeSha(const std::string& text) {
  if (text.size() != 40) return false;
  for (char c : text) {
    if (!((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'))) return false;
  }
  return true;
}

}  // namespace

Stats Stats::FromSamples(std::vector<double> samples) {
  Stats stats;
  if (samples.empty()) return stats;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  stats.trials = static_cast<int>(n);
  stats.min = samples.front();
  stats.max = samples.back();
  stats.median = n % 2 == 1 ? samples[n / 2]
                            : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
  double sum = 0.0;
  for (double s : samples) sum += s;
  stats.mean = sum / static_cast<double>(n);
  if (n > 1) {
    double sq = 0.0;
    for (double s : samples) sq += (s - stats.mean) * (s - stats.mean);
    stats.stddev = std::sqrt(sq / static_cast<double>(n - 1));
  }
  return stats;
}

GitInfo QueryGitInfo() {
  GitInfo info;
  const std::string base = "git -C \"" SIMJ_SOURCE_DIR "\" ";
  std::string sha = RunCommandTrimmed(base + "rev-parse HEAD 2>/dev/null");
  if (!LooksLikeSha(sha)) return info;
  info.sha = sha;
  info.dirty =
      !RunCommandTrimmed(base + "status --porcelain 2>/dev/null").empty();
  return info;
}

BuildInfo CurrentBuildInfo() {
  BuildInfo info;
#if defined(__clang__)
  info.compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  info.compiler = std::string("gcc ") + __VERSION__;
#else
  info.compiler = "unknown";
#endif
  info.build_type = SIMJ_BUILD_TYPE_NAME;
  info.sanitizers = SIMJ_SANITIZERS_NAME;
#ifdef SIMJ_DEBUG_CHECKS
  info.debug_checks = true;
#endif
  return info;
}

HardwareInfo CurrentHardwareInfo() {
  HardwareInfo info;
  info.hardware_concurrency =
      static_cast<int>(std::thread::hardware_concurrency());
  info.page_size_bytes = mem::PageSizeBytes();
  return info;
}

double NowUnixSeconds() {
  return std::chrono::duration<double>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

void PublishBuildInfoMetric() {
  GitInfo git = QueryGitInfo();
  BuildInfo build = CurrentBuildInfo();
  metrics::Registry::Global().SetHelp(
      "simj_build_info",
      "Build provenance as labels (git_sha, build_type, sanitizers); "
      "value is always 1.");
  metrics::Registry::Global()
      .GetGauge(metrics::LabeledName(
          "simj_build_info", {{"git_sha", git.sha},
                              {"build_type", build.build_type},
                              {"sanitizers", build.sanitizers}}))
      .Set(1.0);
}

std::string ToJson(const BenchResult& result) {
  JsonWriter json;
  json.BeginObject();
  json.Int("schema_version", result.schema_version);
  json.String("harness", result.harness);
  json.Double("unix_time_seconds", result.unix_time_seconds);

  json.BeginObject("git");
  json.String("sha", result.git.sha);
  json.Bool("dirty", result.git.dirty);
  json.EndObject();

  json.BeginObject("build");
  json.String("compiler", result.build.compiler);
  json.String("build_type", result.build.build_type);
  json.String("sanitizers", result.build.sanitizers);
  json.Bool("debug_checks", result.build.debug_checks);
  json.EndObject();

  json.BeginObject("hardware");
  json.Int("hardware_concurrency", result.hardware.hardware_concurrency);
  json.Int("page_size_bytes", result.hardware.page_size_bytes);
  json.EndObject();

  json.BeginObject("params");
  for (const auto& [key, value] : result.params) json.String(key, value);
  json.EndObject();

  json.BeginArray("samples");
  for (const Sample& sample : result.samples) {
    json.BeginObject();
    json.String("name", sample.name);
    if (sample.skipped) json.Bool("skipped", true);
    WriteStats(&json, "wall_seconds", sample.wall_seconds);
    WriteStats(&json, "cpu_seconds", sample.cpu_seconds);
    json.BeginObject("values");
    for (const auto& [key, value] : sample.values) json.Double(key, value);
    json.EndObject();
    json.EndObject();
  }
  json.EndArray();

  json.Double("wall_seconds_total", result.wall_seconds_total);
  json.Int("peak_rss_bytes", result.peak_rss_bytes);

  json.BeginObject("metrics");
  json.BeginObject("counters");
  for (const auto& [name, value] : result.metrics.counters) {
    json.Int(name, value);
  }
  json.EndObject();
  json.BeginObject("gauges");
  for (const auto& [name, value] : result.metrics.gauges) {
    json.Double(name, value);
  }
  json.EndObject();
  json.BeginObject("histograms");
  for (const auto& [name, histogram] : result.metrics.histograms) {
    json.BeginObject(name);
    json.Int("count", histogram.count);
    json.Double("sum_seconds", histogram.sum_seconds);
    json.Double("p50", histogram.Quantile(0.5));
    json.Double("p99", histogram.Quantile(0.99));
    json.EndObject();
  }
  json.EndObject();
  json.EndObject();

  json.EndObject();
  return json.Take();
}

Status WriteJsonFile(const BenchResult& result, const std::string& path) {
  std::ofstream os(path);
  if (!os) {
    return InvalidArgumentError("cannot open run record path: " + path);
  }
  os << ToJson(result);
  os.flush();
  if (!os) {
    return InternalError("failed writing run record to: " + path);
  }
  return Status::Ok();
}

}  // namespace simj::run_record
