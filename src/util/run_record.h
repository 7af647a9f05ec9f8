// Durable, versioned run records for the bench harnesses: the BenchResult
// schema and its JSON writer.
//
// A BenchResult is the machine-readable counterpart of a harness's printed
// tables: one record per process run, carrying everything needed to compare
// that run against any other run of the same harness — schema version,
// harness name, git provenance (SHA + dirty flag), build configuration
// (compiler, build type, sanitizers, debug checks), hardware (cores, page
// size), the harness parameters, per-join repeated-trial wall/CPU stats
// (min/median/mean/stddev/max after a discarded warmup), peak RSS, and an
// embedded metrics-registry snapshot.
//
// Records deliberately live OUTSIDE the metrics registry (see DESIGN.md):
// the registry is live, monotonic, in-process state for scraping; a run
// record is a durable point-in-time artifact that must stay comparable
// across processes, builds and machines. The record embeds a registry
// snapshot rather than the registry exposing run semantics.
//
// ToJson() is deterministic for deterministic inputs (fixed key order,
// fixed float formatting), so records can be golden-tested and diffed.
// ci.sh's check_record validates their shape and reads their samples for
// its overhead gates; bump kSchemaVersion on any breaking field change.
// Before/after timing claims come from perfbench, and profiles and heap
// captures live in their own --profile_out/--heap_out files.

#ifndef SIMJ_UTIL_RUN_RECORD_H_
#define SIMJ_UTIL_RUN_RECORD_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/metrics.h"
#include "util/status.h"

namespace simj::run_record {

inline constexpr int kSchemaVersion = 1;

// Summary of one repeated-trial measurement series.
struct Stats {
  int trials = 0;
  double min = 0.0;
  double median = 0.0;
  double mean = 0.0;
  double stddev = 0.0;  // sample stddev (n-1); 0 for a single trial
  double max = 0.0;

  // Computes the summary from raw samples (order irrelevant). An empty
  // vector yields an all-zero Stats.
  static Stats FromSamples(std::vector<double> samples);
};

// One measured join (or other timed unit) within a harness run. `name` is
// the stable match key across runs: derived from the join parameters, with
// a " #k" suffix disambiguating repeats of identical parameters.
struct Sample {
  std::string name;
  Stats wall_seconds;
  Stats cpu_seconds;
  // Additional scalar facts about the sample (results, candidate_ratio,
  // precision, speedup, ...). Compared as point values.
  std::map<std::string, double> values;
  // True when the harness decided not to measure this configuration (e.g.
  // a 4-thread scaling row on a 2-core host). Serialized only when true,
  // so existing records and goldens are unchanged — absence means false.
  // Consumers exclude skipped samples from comparisons.
  bool skipped = false;
};

struct GitInfo {
  std::string sha;  // empty when git/repo is unavailable
  bool dirty = false;
};

struct BuildInfo {
  std::string compiler;    // e.g. "gcc 13.2.0"
  std::string build_type;  // CMAKE_BUILD_TYPE
  std::string sanitizers;  // SIMJ_SANITIZE list, empty when none
  bool debug_checks = false;  // SIMJ_DEBUG_CHECKS compiled in
};

struct HardwareInfo {
  int hardware_concurrency = 0;
  int64_t page_size_bytes = 0;
};

struct BenchResult {
  int schema_version = kSchemaVersion;
  std::string harness;            // binary basename
  double unix_time_seconds = 0.0; // record creation time (0 in golden tests)
  GitInfo git;
  BuildInfo build;
  HardwareInfo hardware;
  // The harness's effective command-line parameters (threads, repeat, and
  // every explicitly passed --key=value).
  std::map<std::string, std::string> params;
  std::vector<Sample> samples;
  double wall_seconds_total = 0.0;  // whole-process wall time
  int64_t peak_rss_bytes = 0;
  // Point-in-time registry snapshot at emission (counters accumulate over
  // every trial including warmups; histograms are summarized in the JSON).
  metrics::MetricsSnapshot metrics;
};

// Provenance probes, each tolerant of its source being absent.
GitInfo QueryGitInfo();
BuildInfo CurrentBuildInfo();
HardwareInfo CurrentHardwareInfo();

// Publishes the provenance above as a `simj_build_info` gauge (value 1,
// labels git_sha / build_type / sanitizers) so every Prometheus scrape of
// /metricsz carries build identity. Idempotent; call once at startup.
void PublishBuildInfoMetric();

// Seconds since the epoch (system clock).
double NowUnixSeconds();

// Deterministic pretty-printed JSON (2-space indent, trailing newline).
std::string ToJson(const BenchResult& result);

// Writes ToJson(result) to `path`, failing with a descriptive Status when
// the file cannot be written.
Status WriteJsonFile(const BenchResult& result, const std::string& path);

}  // namespace simj::run_record

#endif  // SIMJ_UTIL_RUN_RECORD_H_
