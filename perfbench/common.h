// Shared types and helpers of the end-to-end benchmark binary.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Where the traced run writes its spans (Chrome trace JSON); empty = keep
  // them in memory only.
  std::string trace_out;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// What one workload run reports. `metrics` holds the end-to-end metrics
// in an untraced run and the per-layer metrics in a traced run; `report`
// holds the human-readable lines printed above the result line.
struct RunResult {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> report;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void Note(const std::string& line) { report.push_back(line); }
};

// Linear-interpolated quantile (q in [0, 1]) of `values`; 0 when empty.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}
double Sum(const std::vector<double>& values);
double Mean(const std::vector<double>& values);

// min(4, hardware threads): the parallelism of the 4-thread workloads.
int PoolThreads();

// Ratio that reads 0 instead of dividing by zero.
inline double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

// printf-style std::string.
std::string Format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

RunResult RunErWorkload(const Options& options);
RunResult RunQaWorkload(const Options& options);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
