// End-to-end benchmark binary for the template-building join and online
// question answering. See perfbench/NOTES.md for the workloads, the
// metrics and why each was chosen; perfbench/run.py builds this binary and
// runs it.
//
//   perfbench --workload <er_filter|er_verify|er_sharded|qa> --seed <n>
//             --seconds <s> --trace <0|1> [--trace_out <path>]
//
// Human-readable report lines come first; the last line of stdout is one
// JSON object {"correct", "attempted", "failed", "metrics"}. With --trace 0
// the metrics are the end-to-end metrics, with --trace 1 the per-layer
// metrics of the traced run.
#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <numeric>
#include <string>
#include <thread>

#include "common.h"
#include "util/log.h"

namespace perfbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  double pos = q * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double Sum(const std::vector<double>& values) {
  return std::accumulate(values.begin(), values.end(), 0.0);
}

double Mean(const std::vector<double>& values) {
  return values.empty() ? 0.0 : Sum(values) / static_cast<double>(values.size());
}

int PoolThreads() {
  int hw = static_cast<int>(std::thread::hardware_concurrency());
  return std::clamp(hw, 1, 4);
}

std::string Format(const char* fmt, ...) {
  char buf[1024];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  return buf;
}

namespace {

int Usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<er_filter|er_verify|er_sharded|qa> --seed <n> --seconds <s> "
               "--trace <0|1> [--trace_out <path>]\n",
               message);
  return 2;
}

void PrintResultLine(const RunResult& result) {
  std::string line = Format("{\"correct\": %s, \"attempted\": %lld, "
                            "\"failed\": %lld, \"metrics\": {",
                            result.correct ? "true" : "false",
                            static_cast<long long>(result.attempted),
                            static_cast<long long>(result.failed));
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    double value = std::isfinite(m.value) ? m.value : 0.0;
    line += Format("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                   i == 0 ? "" : ", ", m.name.c_str(), value, m.unit.c_str());
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using perfbench::Usage;
  perfbench::Options options;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return Usage("bad --seed");
      have_seed = true;
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(options.seconds > 0)) return Usage("bad --seconds");
      have_seconds = true;
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return Usage("bad --trace");
      }
      options.trace = value[0] == '1';
      have_trace = true;
    } else if (flag == "--trace_out") {
      options.trace_out = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    return Usage("--workload, --seed, --seconds and --trace are required");
  }
  // Slow-pair warnings and progress lines would interleave with the report.
  simj::log::SetMinLevel(simj::log::Level::kError);

  perfbench::RunResult result;
  if (options.workload == "qa") {
    result = perfbench::RunQaWorkload(options);
  } else if (options.workload == "er_filter" ||
             options.workload == "er_verify" ||
             options.workload == "er_sharded") {
    result = perfbench::RunErWorkload(options);
  } else {
    return Usage(("unknown workload " + options.workload).c_str());
  }
  for (const std::string& line : result.report) {
    std::printf("%s\n", line.c_str());
  }
  perfbench::PrintResultLine(result);
  return 0;
}
