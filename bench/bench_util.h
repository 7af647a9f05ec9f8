// simj-lint: allow-file(io) -- benchmark/example harness prints results to stdout.
// Shared helpers for the experiment harnesses: standard dataset recipes
// (scaled-down versions of the paper's workloads — see DESIGN.md for the
// scaling rationale), join-configuration runners, quality accounting, and
// the shared telemetry path: every harness that calls ParseBenchFlags gains
// --threads/--repeat/--json_out/--metrics_out/--trace_out/--log_*/--explain*
// support plus live introspection (--statusz_port/--progress_every/
// --slow_pair_ms, see util/statusz.h) and emits a versioned BenchResult
// run record (util/run_record.h) at exit when --json_out= is given — no
// per-harness wiring.

#ifndef SIMJ_BENCH_BENCH_UTIL_H_
#define SIMJ_BENCH_BENCH_UTIL_H_

#include <time.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <initializer_list>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/join.h"
#include "core/progress.h"
#include "util/flags.h"
#include "util/flight_recorder.h"
#include "util/heap_profiler.h"
#include "util/log.h"
#include "util/mem.h"
#include "util/metrics.h"
#include "util/profiler.h"
#include "util/run_record.h"
#include "util/statusz.h"
#include "util/strings.h"
#include "util/timer.h"
#include "util/trace.h"
#include "workload/knowledge_base.h"
#include "workload/question_gen.h"
#include "workload/synthetic.h"

namespace simj::bench {

// ---------------------------------------------------------------------------
// Harness-wide options. Every bench calls ParseBenchFlags(argc, argv) at the
// top of main(); flags shared by all harnesses land here and are picked up
// by ParamsFor() / the atexit emitter, so each experiment gains threading,
// repeated trials, metrics, tracing, logging, run records, and explain
// support without touching its code.
// ---------------------------------------------------------------------------

struct BenchOptions {
  int threads = 1;            // --threads: 0 = hardware concurrency, 1 = serial
  int repeat = 3;             // --repeat: timed trials per measured join
  std::string json_out;       // --json_out: BenchResult JSON run record path
  std::string metrics_out;    // --metrics_out: exposition-text dump path
  std::string trace_out;      // --trace_out: Chrome-trace JSON dump path
  std::string events_out;     // --events_out: flight-recorder JSON dump path
  std::string log_level = "info";  // --log_level: debug|info|warn|error
  std::string log_json;       // --log_json: JSON-lines log sink path
  double slow_pair_ms = 1000.0;  // --slow_pair_ms: pair-time budget (0 = off)
  int64_t progress_every = 0;  // --progress_every: progress line cadence
  int statusz_port = 0;       // --statusz_port: introspection port (0 = off)
  bool explain = false;       // --explain: record per-pair prune explanations
  int explain_every = 1;      // --explain_every: sample every Nth pair
  std::string explain_out;    // --explain_out: explain dump path ("" = stdout)
  int profile_hz = 0;         // --profile_hz: CPU sampling rate (0 = off)
  std::string profile_out;    // --profile_out: simj_profile_v1 JSON dump path
  int64_t heap_sample_bytes = 0;  // --heap_sample_bytes: heap rate (0 = off)
  std::string heap_out;       // --heap_out: simj_heap_v1 JSON dump path
};

inline BenchOptions& GlobalBenchOptions() {
  static BenchOptions options;
  return options;
}

// Accumulates the run record while the harness executes; emitted at exit.
struct BenchRecorder {
  WallTimer process_timer;
  run_record::BenchResult result;
  std::map<std::string, int> name_counts;  // sample-name disambiguation
};

inline BenchRecorder& GlobalBenchRecorder() {
  static BenchRecorder recorder;
  return recorder;
}

// Appends one measured sample to the harness run record. `name` should be
// a pure function of the measured configuration so two runs' samples can
// be matched by name (ci.sh's overhead gates do); identical names gain a
// " #k" suffix in call order (also deterministic).
inline void RecordBenchSample(const std::string& name,
                              const run_record::Stats& wall,
                              const run_record::Stats& cpu,
                              std::map<std::string, double> values = {},
                              bool skipped = false) {
  BenchRecorder& recorder = GlobalBenchRecorder();
  int& count = recorder.name_counts[name];
  ++count;
  run_record::Sample sample;
  sample.name = count == 1 ? name : name + " #" + std::to_string(count);
  sample.wall_seconds = wall;
  sample.cpu_seconds = cpu;
  sample.values = std::move(values);
  sample.skipped = skipped;
  recorder.result.samples.push_back(std::move(sample));
}

// The flags every harness understands; harness-specific flags are passed to
// ParseBenchFlags as `extra_known`.
struct BenchFlagDoc {
  const char* name;
  const char* help;
};

inline const std::vector<BenchFlagDoc>& SharedBenchFlags() {
  static const std::vector<BenchFlagDoc> docs = {
      {"threads", "worker threads (0 = hardware concurrency, 1 = serial)"},
      {"repeat", "timed trials per measured join, after one discarded "
                 "warmup (default 3; 1 = single trial, no warmup)"},
      {"json_out", "write a BenchResult JSON run record here (see "
                   "util/run_record.h)"},
      {"metrics_out", "write Prometheus-style metrics exposition here"},
      {"trace_out", "write Chrome-trace JSON here (open in Perfetto)"},
      {"events_out", "write the coordinator flight-recorder JSON dump here "
                     "(sharded joins only; see DESIGN.md §10)"},
      {"log_level", "minimum log level: debug|info|warn|error (default info)"},
      {"log_json", "write JSON-lines structured logs here instead of stderr "
                   "text"},
      {"slow_pair_ms", "pair-time budget: warn while a worker sits inside "
                       "one pair longer than this many ms, and log the pair "
                       "when it completes (default 1000; 0 = off)"},
      {"progress_every", "log a join progress line every N completed pairs "
                         "(default 0 = off)"},
      {"statusz_port", "serve /statusz /metricsz /tracez /healthz on "
                       "127.0.0.1:PORT while running (default 0 = off)"},
      {"explain", "1 = record per-pair prune explanations"},
      {"explain_every", "sample every Nth pair in explain mode (default 1)"},
      {"explain_out", "write explain dump here instead of stdout"},
      {"profile_hz", "sampling CPU profiler frequency (default 0 = off; "
                     "implied 99 when only --profile_out is given)"},
      {"profile_out", "write the simj_profile_v1 JSON capture here at exit "
                      "(see tools/flame.py)"},
      {"heap_sample_bytes", "sampling heap profiler rate: one sampled "
                            "allocation per this many bytes (default 0 = "
                            "off; implied 524288 when only --heap_out is "
                            "given)"},
      {"heap_out", "write the simj_heap_v1 JSON capture here at exit (see "
                   "tools/flame.py --metric)"},
  };
  return docs;
}

inline void PrintBenchUsage(const char* argv0,
                            std::initializer_list<const char*> extra_known) {
  std::fprintf(stderr, "usage: %s [--flag=value ...]\n", argv0);
  std::fprintf(stderr, "shared flags:\n");
  for (const BenchFlagDoc& doc : SharedBenchFlags()) {
    std::fprintf(stderr, "  --%-14s %s\n", doc.name, doc.help);
  }
  if (extra_known.size() > 0) {
    std::fprintf(stderr, "flags specific to this harness:\n");
    for (const char* name : extra_known) {
      std::fprintf(stderr, "  --%s\n", name);
    }
  }
}

// The harness's statusz server, when --statusz_port was given. Leaky (the
// accept thread may outlive main's locals) but stopped by the atexit
// emitter so process teardown never races the accept loop.
inline statusz::Server*& GlobalStatuszServer() {
  static statusz::Server* server = nullptr;
  return server;
}

// Stops an armed profiler capture (CPU or heap) and writes its JSON to
// `path` when --<flag>= was given. Returns the capture, or nullopt when
// nothing was armed or the stop failed.
template <typename P>
std::optional<P> StopAndEmitCapture(const char* what, bool (*active)(),
                                    StatusOr<P> (*stop)(),
                                    std::string (*to_json)(const P&),
                                    const char* flag,
                                    const std::string& path) {
  if (!active()) return std::nullopt;
  StatusOr<P> profile = stop();
  if (!profile.ok()) {
    SIMJ_LOG(WARN) << what << " capture failed: "
                   << profile.status().ToString();
    return std::nullopt;
  }
  if (!path.empty()) {
    std::ofstream os(path);
    if (!os) {
      SIMJ_LOG(WARN) << "cannot open --" << flag << "=" << path;
    } else {
      os << to_json(*profile);
      SIMJ_LOG(INFO) << what << " (" << profile->sections.size()
                     << " sections) written to " << path
                     << " (render with tools/flame.py)";
    }
  }
  return std::move(profile).value();
}

// Dumps the sinks requested on the command line (metrics exposition, Chrome
// trace, BenchResult run record). Registered via atexit so every harness
// emits them on any successful exit path.
inline void EmitBenchArtifacts() {
  const BenchOptions& options = GlobalBenchOptions();
  if (statusz::Server* server = GlobalStatuszServer()) server->Stop();
  StopAndEmitCapture("cpu profile", &prof::ProfilingActive,
                     &prof::StopProfiling, &prof::ProfileJson, "profile_out",
                     options.profile_out);
  std::optional<heapprof::HeapProfile> heap = StopAndEmitCapture(
      "heap profile", &heapprof::HeapProfilingActive,
      &heapprof::StopHeapProfiling, &heapprof::HeapProfileJson, "heap_out",
      options.heap_out);
  if (heap) {
    // End-of-run leak report: stacks still holding sampled bytes now
    // that the measured work is done. Raw sampled bytes (each sampled
    // object stands for ~sample_bytes of allocation, nothing upscaled).
    std::vector<const heapprof::HeapFoldedStack*> live;
    for (const heapprof::HeapSection& section : heap->sections) {
      for (const heapprof::HeapFoldedStack& stack : section.batch.stacks) {
        if (stack.inuse_bytes > 0) live.push_back(&stack);
      }
    }
    std::sort(live.begin(), live.end(),
              [](const heapprof::HeapFoldedStack* a,
                 const heapprof::HeapFoldedStack* b) {
                return a->inuse_bytes > b->inuse_bytes;
              });
    SIMJ_LOG(INFO) << "heap leak report: " << heap->TotalInuseBytes()
                   << " sampled bytes live at exit across " << live.size()
                   << " stacks";
    for (size_t i = 0; i < live.size() && i < 3; ++i) {
      const heapprof::HeapFoldedStack& stack = *live[i];
      SIMJ_LOG(INFO) << "  leak #" << (i + 1) << ": " << stack.inuse_bytes
                     << " bytes / " << stack.inuse_objects << " objects at "
                     << (stack.frames.empty() ? "[unknown]"
                                              : stack.frames.back())
                     << " (thread " << stack.thread << ")";
    }
  }
  if (!options.metrics_out.empty()) {
    FILE* f = std::fopen(options.metrics_out.c_str(), "w");
    if (f == nullptr) {
      SIMJ_LOG(WARN) << "cannot open --metrics_out=" << options.metrics_out;
    } else {
      std::string text = metrics::Registry::Global().ExpositionText();
      std::fwrite(text.data(), 1, text.size(), f);
      std::fclose(f);
      SIMJ_LOG(INFO) << "metrics exposition written to "
                     << options.metrics_out;
    }
  }
  if (!options.trace_out.empty()) {
    trace::Tracer::Global().Stop();
    std::ofstream os(options.trace_out);
    if (!os) {
      SIMJ_LOG(WARN) << "cannot open --trace_out=" << options.trace_out;
    } else {
      trace::Tracer::Global().WriteChromeTrace(os);
      SIMJ_LOG(INFO) << "chrome trace written to " << options.trace_out
                     << " (open in Perfetto)";
    }
  }
  if (!options.events_out.empty()) {
    std::ofstream os(options.events_out);
    if (!os) {
      SIMJ_LOG(WARN) << "cannot open --events_out=" << options.events_out;
    } else {
      os << flight::FlightRecorder::Global().ToJson();
      SIMJ_LOG(INFO) << "flight-recorder events written to "
                     << options.events_out;
    }
  }
  if (!options.json_out.empty()) {
    BenchRecorder& recorder = GlobalBenchRecorder();
    run_record::BenchResult& result = recorder.result;
    result.unix_time_seconds = run_record::NowUnixSeconds();
    result.git = run_record::QueryGitInfo();
    result.build = run_record::CurrentBuildInfo();
    result.hardware = run_record::CurrentHardwareInfo();
    result.wall_seconds_total = recorder.process_timer.ElapsedSeconds();
    mem::SampleRssToMetrics();
    result.peak_rss_bytes = mem::PeakRssBytes();
    result.metrics = metrics::Registry::Global().Snapshot();
    Status status = run_record::WriteJsonFile(result, options.json_out);
    if (!status.ok()) {
      SIMJ_LOG(WARN) << "cannot write --json_out=" << options.json_out
                     << ": " << status.ToString();
    } else {
      SIMJ_LOG(INFO) << "bench result (" << result.samples.size()
                     << " samples) written to " << options.json_out;
    }
  }
}

// Applies parsed shared flags: fills BenchOptions, configures the log
// threshold and sink, starts tracing, seeds the run record, and registers
// the atexit emitter. Shared by ParseBenchFlags and ConsumeSharedFlags.
inline void ApplySharedFlags(const Flags& flags, const char* argv0) {
  BenchOptions& options = GlobalBenchOptions();
  options.threads = static_cast<int>(flags.GetInt("threads", options.threads));
  options.repeat = static_cast<int>(flags.GetInt("repeat", options.repeat));
  options.json_out = flags.GetString("json_out", options.json_out);
  options.metrics_out = flags.GetString("metrics_out", options.metrics_out);
  options.trace_out = flags.GetString("trace_out", options.trace_out);
  options.events_out = flags.GetString("events_out", options.events_out);
  options.log_level = flags.GetString("log_level", options.log_level);
  options.log_json = flags.GetString("log_json", options.log_json);
  options.slow_pair_ms =
      flags.GetDouble("slow_pair_ms", options.slow_pair_ms);
  options.progress_every =
      flags.GetInt("progress_every", options.progress_every);
  options.statusz_port =
      static_cast<int>(flags.GetInt("statusz_port", options.statusz_port));
  options.explain = flags.GetBool("explain", options.explain);
  options.explain_every =
      static_cast<int>(flags.GetInt("explain_every", options.explain_every));
  options.explain_out = flags.GetString("explain_out", options.explain_out);
  if (!options.explain_out.empty()) options.explain = true;
  options.profile_hz =
      static_cast<int>(flags.GetInt("profile_hz", options.profile_hz));
  options.profile_out = flags.GetString("profile_out", options.profile_out);
  if (!options.profile_out.empty() && options.profile_hz == 0) {
    options.profile_hz = 99;  // a sink without a rate means "default rate"
  }
  options.heap_sample_bytes =
      flags.GetInt("heap_sample_bytes", options.heap_sample_bytes);
  options.heap_out = flags.GetString("heap_out", options.heap_out);
  if (!options.heap_out.empty() && options.heap_sample_bytes == 0) {
    options.heap_sample_bytes = heapprof::kDefaultSampleBytes;
  }

  log::Level level = log::Level::kInfo;
  if (!log::ParseLevel(options.log_level, &level)) {
    std::fprintf(stderr, "error: unknown --log_level=%s\n",
                 options.log_level.c_str());
    std::exit(2);
  }
  log::SetMinLevel(level);
  if (!options.log_json.empty()) {
    auto sink = std::make_unique<log::JsonLinesSink>(options.log_json);
    if (!sink->ok()) {
      std::fprintf(stderr, "error: cannot open --log_json=%s\n",
                   options.log_json.c_str());
      std::exit(2);
    }
    log::SetSink(std::move(sink));
  }
  if (!options.trace_out.empty()) trace::Tracer::Global().Start();

  // Build provenance on every scrape and in every exposition dump.
  run_record::PublishBuildInfoMetric();

  if (options.statusz_port != 0 && GlobalStatuszServer() == nullptr) {
    statusz::Server::Options server_options;
    server_options.port = options.statusz_port;
    server_options.sections.push_back(
        {"join", [] { return core::JoinProgress::Global().StatusJson(); }});
    auto* server = new statusz::Server();  // simj-lint: allow(new) leaky, stopped at exit
    Status status = server->Start(server_options);
    if (!status.ok()) {
      std::fprintf(stderr, "error: --statusz_port=%d: %s\n",
                   options.statusz_port, status.ToString().c_str());
      std::exit(2);
    }
    GlobalStatuszServer() = server;
  }
  // A collector may be live now (trace ring or full trace); label the lane.
  // Also registers this thread with the profiler, so it must precede
  // StartProfiling below.
  trace::SetThisThreadName("main");

  // A profiler that refuses to arm (e.g. under a sanitizer) is not fatal:
  // the run proceeds unprofiled.
  auto warn_unarmed = [](const char* flag, int64_t rate, const Status& armed) {
    if (!armed.ok()) {
      SIMJ_LOG(WARN) << "--" << flag << "=" << rate << ": " << armed.ToString();
    }
  };
  if (options.profile_hz > 0) {
    warn_unarmed(
        "profile_hz", options.profile_hz,
        prof::StartProfiling(prof::ProfileOptions{options.profile_hz}));
  }
  if (options.heap_sample_bytes > 0) {
    warn_unarmed("heap_sample_bytes", options.heap_sample_bytes,
                 heapprof::StartHeapProfiling(
                     heapprof::HeapProfileOptions{options.heap_sample_bytes}));
  }

  BenchRecorder& recorder = GlobalBenchRecorder();
  std::string harness = argv0 == nullptr ? "" : argv0;
  size_t slash = harness.find_last_of('/');
  if (slash != std::string::npos) harness = harness.substr(slash + 1);
  recorder.result.harness = harness;
  recorder.result.params["threads"] = std::to_string(options.threads);
  recorder.result.params["repeat"] = std::to_string(options.repeat);
  for (const std::string& key : flags.Keys()) {
    recorder.result.params[key] = flags.GetString(key, "");
  }

  static bool atexit_registered = false;
  if (!atexit_registered) {
    atexit_registered = true;
    std::atexit(EmitBenchArtifacts);
  }
}

// Parses and validates the command line. Unknown --flags (and --flags
// missing an =value) abort with a usage listing, so a typo like --thread=4
// fails loudly instead of silently running with defaults.
inline Flags ParseBenchFlags(int argc, char** argv,
                             std::initializer_list<const char*> extra_known =
                                 {}) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (!StartsWith(arg, "--")) continue;
    const size_t eq = arg.find('=');
    const std::string key =
        eq == std::string::npos ? arg.substr(2) : arg.substr(2, eq - 2);
    bool known = false;
    for (const BenchFlagDoc& doc : SharedBenchFlags()) {
      if (key == doc.name) known = true;
    }
    for (const char* name : extra_known) {
      if (key == name) known = true;
    }
    if (!known) {
      std::fprintf(stderr, "error: unknown flag --%s\n", key.c_str());
      PrintBenchUsage(argv[0], extra_known);
      std::exit(2);
    }
    if (eq == std::string::npos) {
      std::fprintf(stderr, "error: flag --%s needs a value (--%s=...)\n",
                   key.c_str(), key.c_str());
      PrintBenchUsage(argv[0], extra_known);
      std::exit(2);
    }
  }
  Flags flags(argc, argv);
  ApplySharedFlags(flags, argv[0]);
  return flags;
}

// For harnesses that hand argv to their own parser (google-benchmark):
// consumes the shared flags above, removes them from argv in place, and
// leaves everything else (e.g. --benchmark_filter=...) untouched.
inline void ConsumeSharedFlags(int* argc, char** argv) {
  std::vector<char*> shared_args;
  shared_args.push_back(argv[0]);
  int kept = 1;
  for (int i = 1; i < *argc; ++i) {
    const std::string arg = argv[i];
    bool is_shared = false;
    if (StartsWith(arg, "--")) {
      const size_t eq = arg.find('=');
      const std::string key =
          eq == std::string::npos ? arg.substr(2) : arg.substr(2, eq - 2);
      for (const BenchFlagDoc& doc : SharedBenchFlags()) {
        if (key == doc.name) is_shared = true;
      }
    }
    if (is_shared) {
      shared_args.push_back(argv[i]);
    } else {
      argv[kept++] = argv[i];
    }
  }
  *argc = kept;
  Flags flags(static_cast<int>(shared_args.size()), shared_args.data());
  ApplySharedFlags(flags, argv[0]);
}

// ---------------------------------------------------------------------------
// Dataset recipes. Paper scales (Table 2) are quoted in comments; defaults
// here are sized so every harness finishes in at most a few minutes on one
// core while preserving the relative curves.
// ---------------------------------------------------------------------------

// A question/SPARQL workload bundle ready for joining.
struct QaDataset {
  std::unique_ptr<workload::KnowledgeBase> kb;
  workload::Workload workload;
  workload::JoinSides sides;
};

// QALD-3-like: 200 questions, |D| = 200 (paper: 200/200).
inline QaDataset MakeQald3Like(uint64_t seed = 42) {
  QaDataset data;
  data.kb = std::make_unique<workload::KnowledgeBase>(
      workload::KbConfig{.seed = seed});
  workload::WorkloadConfig config;
  config.seed = seed + 1;
  config.num_questions = 200;
  config.distractor_queries = 40;
  data.workload = workload::GenerateWorkload(*data.kb, config);
  data.sides = workload::BuildJoinSides(*data.kb, data.workload);
  return data;
}

// WebQ-like: paper 5,810 questions vs 73,057 queries; scaled ~20x down,
// keeping |D| >> |U|.
inline QaDataset MakeWebQLike(uint64_t seed = 43) {
  QaDataset data;
  workload::KbConfig kb_config;
  kb_config.seed = seed;
  kb_config.entities_per_class = 60;
  data.kb = std::make_unique<workload::KnowledgeBase>(kb_config);
  workload::WorkloadConfig config;
  config.seed = seed + 1;
  config.num_questions = 300;
  config.distractor_queries = 2200;
  data.workload = workload::GenerateWorkload(*data.kb, config);
  data.sides = workload::BuildJoinSides(*data.kb, data.workload);
  return data;
}

// MM-like: closed domain (music & movies), |U| > |D| (paper: 23,250/2,500).
inline QaDataset MakeMmLike(uint64_t seed = 44) {
  QaDataset data;
  workload::KbConfig kb_config;
  kb_config.seed = seed;
  kb_config.closed_domain = true;
  // A focused domain links more reliably (the paper credits MM's higher
  // precision to questions and queries sharing similar topics).
  kb_config.entity_phrase_ambiguity = 0.25;
  kb_config.relation_top1_accuracy = 0.85;
  data.kb = std::make_unique<workload::KnowledgeBase>(kb_config);
  workload::WorkloadConfig config;
  config.seed = seed + 1;
  config.num_questions = 400;
  config.distractor_queries = 0;
  data.workload = workload::GenerateWorkload(*data.kb, config);
  data.sides = workload::BuildJoinSides(*data.kb, data.workload);
  return data;
}

// ---------------------------------------------------------------------------
// Join configurations (the three curves of Figs. 11-14).
// ---------------------------------------------------------------------------

enum class JoinConfig { kCssOnly, kSimJ, kSimJOpt };

inline const char* ConfigName(JoinConfig config) {
  switch (config) {
    case JoinConfig::kCssOnly:
      return "CSS only";
    case JoinConfig::kSimJ:
      return "SimJ";
    case JoinConfig::kSimJOpt:
      return "SimJ+opt";
  }
  return "?";
}

inline core::SimJParams ParamsFor(JoinConfig config, int tau, double alpha,
                                  int group_count = 8) {
  core::SimJParams params;
  params.tau = tau;
  params.alpha = alpha;
  params.structural_pruning = true;
  params.probabilistic_pruning = config != JoinConfig::kCssOnly;
  params.group_count = config == JoinConfig::kSimJOpt ? group_count : 1;
  params.num_threads = GlobalBenchOptions().threads;
  params.slow_pair_log_ms = GlobalBenchOptions().slow_pair_ms;
  params.progress_every = GlobalBenchOptions().progress_every;
  params.explain.enabled = GlobalBenchOptions().explain;
  params.explain.sample_every = GlobalBenchOptions().explain_every;
  return params;
}

// Dumps per-pair explanations if --explain was requested, to --explain_out
// or stdout.
inline void MaybeDumpExplains(const core::JoinResult& result,
                              const core::SimJParams& params) {
  if (!params.explain.enabled) return;
  std::string text = core::FormatExplains(result, params);
  const std::string& path = GlobalBenchOptions().explain_out;
  if (path.empty()) {
    std::fputs(text.c_str(), stdout);
    return;
  }
  std::ofstream os(path, std::ios::app);
  if (!os) {
    SIMJ_LOG(WARN) << "cannot open --explain_out=" << path;
    return;
  }
  os << text;
  SIMJ_LOG(INFO) << "explain dump appended to " << path;
}

// ---------------------------------------------------------------------------
// Repeated-trial measurement. Every measured join runs (1 warmup +
// --repeat) times; the warmup trial is discarded, tables report the median,
// and the full min/median/mean/stddev/max series lands in the run record.
// ---------------------------------------------------------------------------

inline int BenchRepeat() { return std::max(1, GlobalBenchOptions().repeat); }

inline int BenchWarmup() { return BenchRepeat() > 1 ? 1 : 0; }

// CPU seconds this process has used so far, on every thread. Unlike a
// wall-clock interval it does not grow while the host runs something else.
inline double ProcessCpuSeconds() {
  timespec now{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &now);
  return static_cast<double>(now.tv_sec) +
         static_cast<double>(now.tv_nsec) * 1e-9;
}

inline double MedianOf(std::vector<double> samples) {
  return run_record::Stats::FromSamples(std::move(samples)).median;
}

// Stable sample-name key for a join configuration, so two runs' samples
// can be matched by name.
inline std::string JoinSampleName(const char* kind,
                                  const core::SimJParams& params) {
  char buffer[160];
  std::snprintf(buffer, sizeof(buffer),
                "%s tau=%d alpha=%g sp=%d pp=%d groups=%d threads=%d", kind,
                params.tau, params.alpha, params.structural_pruning ? 1 : 0,
                params.probabilistic_pruning ? 1 : 0, params.group_count,
                params.num_threads);
  return buffer;
}

// ---------------------------------------------------------------------------
// Quality accounting for workload joins.
// ---------------------------------------------------------------------------

struct QualityResult {
  int64_t returned = 0;
  int64_t correct = 0;
  double seconds = 0.0;  // median join wall time over the timed trials

  double Precision() const {
    return returned == 0 ? 0.0
                         : static_cast<double>(correct) /
                               static_cast<double>(returned);
  }
};

// Runs the join over a QA dataset (1 warmup + --repeat timed trials) and
// scores each returned pair against the paper's correctness criterion
// (typed query graphs match except entities). Records a run-record sample.
inline QualityResult RunQualityJoin(QaDataset& data,
                                    const core::SimJParams& params,
                                    core::JoinResult* out = nullptr) {
  QualityResult result;
  std::vector<double> wall, cpu;
  core::JoinResult joined;
  const int trials = BenchWarmup() + BenchRepeat();
  for (int trial = 0; trial < trials; ++trial) {
    joined = core::SimJoin(data.sides.d, data.sides.u, params,
                           data.kb->dict());
    if (trial < BenchWarmup()) continue;
    wall.push_back(joined.stats.wall_seconds);
    cpu.push_back(joined.stats.TotalCpuSeconds());
  }
  result.seconds = MedianOf(wall);
  result.returned = static_cast<int64_t>(joined.pairs.size());
  for (const core::MatchedPair& pair : joined.pairs) {
    int question_index = data.sides.u_question_index[pair.g_index];
    if (workload::SameIntent(
            *data.kb, data.workload.sparql_queries[pair.q_index],
            data.workload.questions[question_index].gold_query)) {
      ++result.correct;
    }
  }
  RecordBenchSample(JoinSampleName("quality", params),
                    run_record::Stats::FromSamples(wall),
                    run_record::Stats::FromSamples(cpu),
                    {{"returned", static_cast<double>(result.returned)},
                     {"correct", static_cast<double>(result.correct)},
                     {"precision", result.Precision()}});
  MaybeDumpExplains(joined, params);
  if (out != nullptr) *out = std::move(joined);
  return result;
}

// ---------------------------------------------------------------------------
// Efficiency accounting (Figs. 11-14).
// ---------------------------------------------------------------------------

struct EfficiencyRow {
  // Medians over the timed trials. CPU seconds are summed across worker
  // threads; wall seconds are measured once around the whole join. They
  // coincide on a serial run.
  double pruning_cpu_seconds = 0.0;
  double verification_cpu_seconds = 0.0;
  double cpu_seconds = 0.0;
  double wall_seconds = 0.0;
  double candidate_ratio = 0.0;  // candidates / (|D| * |U|)
  double real_ratio = 0.0;       // actual results / (|D| * |U|)
  int64_t results = 0;
  core::VerifyStats verify;  // of the last trial
  // Full trial series of the join wall time (min/median/stddev/...).
  run_record::Stats wall_stats;
};

inline EfficiencyRow RunEfficiency(
    const std::vector<graph::LabeledGraph>& d,
    const std::vector<graph::UncertainGraph>& u,
    const graph::LabelDictionary& dict, const core::SimJParams& params) {
  std::vector<double> wall, cpu, pruning_cpu, verification_cpu;
  double process_cpu_min = 0.0;
  core::JoinResult joined;
  const int trials = BenchWarmup() + BenchRepeat();
  for (int trial = 0; trial < trials; ++trial) {
    const double cpu_start = ProcessCpuSeconds();
    joined = core::SimJoin(d, u, params, dict);
    const double process_cpu = ProcessCpuSeconds() - cpu_start;
    if (trial < BenchWarmup()) continue;
    if (wall.empty() || process_cpu < process_cpu_min) {
      process_cpu_min = process_cpu;
    }
    wall.push_back(joined.stats.wall_seconds);
    cpu.push_back(joined.stats.TotalCpuSeconds());
    pruning_cpu.push_back(joined.stats.pruning_cpu_seconds);
    verification_cpu.push_back(joined.stats.verification_cpu_seconds);
  }
  EfficiencyRow row;
  row.wall_stats = run_record::Stats::FromSamples(wall);
  run_record::Stats cpu_stats = run_record::Stats::FromSamples(cpu);
  row.pruning_cpu_seconds = MedianOf(pruning_cpu);
  row.verification_cpu_seconds = MedianOf(verification_cpu);
  row.cpu_seconds = cpu_stats.median;
  row.wall_seconds = row.wall_stats.median;
  row.candidate_ratio = joined.stats.CandidateRatio();
  row.results = joined.stats.results;
  row.verify = joined.stats.verify;
  if (joined.stats.total_pairs > 0) {
    row.real_ratio = static_cast<double>(joined.stats.results) /
                     static_cast<double>(joined.stats.total_pairs);
  }
  RecordBenchSample(
      JoinSampleName("eff", params), row.wall_stats, cpu_stats,
      {{"results", static_cast<double>(row.results)},
       {"candidate_ratio", row.candidate_ratio},
       {"process_cpu_seconds_min", process_cpu_min}});
  MaybeDumpExplains(joined, params);
  return row;
}

// ---------------------------------------------------------------------------
// Output helpers.
// ---------------------------------------------------------------------------

inline void PrintHeader(const std::string& title) {
  std::printf("==============================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("==============================================================\n");
}

}  // namespace simj::bench

#endif  // SIMJ_BENCH_BENCH_UTIL_H_
