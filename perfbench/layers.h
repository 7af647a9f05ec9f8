// Per-layer measurement for the traced run: the fixed set of per-layer
// metrics every workload reports, and the probes that time the join's
// layers from outside by calling each module's public functions.
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common.h"
#include "core/join.h"
#include "graph/label.h"
#include "graph/labeled_graph.h"
#include "graph/uncertain_graph.h"
#include "spans.h"

namespace perfbench {

// The per-layer metrics, named `<src module>.<what>`. Every traced run
// reports all of them; a layer a workload does not exercise reads 0.
class LayerMetrics {
 public:
  LayerMetrics();
  // Aborts on a name outside the fixed set, so a typo cannot add a metric.
  void Set(const std::string& name, double value);
  // Leaves `name` out of the report (a value that could not be measured
  // exactly).
  void Omit(const std::string& name);
  void Emit(RunResult* result) const;

 private:
  std::vector<std::string> order_;
  std::map<std::string, std::pair<double, std::string>> values_;
  std::vector<std::string> omitted_;
};

// Wall time of one probe run without and with span recording.
struct ProbeTimes {
  double untraced_s = 0.0;
  double traced_s = 0.0;
};

// Sets trace.overhead_frac and trace.spans from the probes of one run.
void SetTraceMetrics(const std::vector<ProbeTimes>& probes,
                     const SpanRecorder& spans, LayerMetrics* layers);

// Times the pair pipeline of one join from outside, pair by pair:
// core::EvaluatePair (split by outcome), ged::CssLowerBoundUncertain,
// ged::MaxCommonVertexLabels, core::PartitionPossibleWorlds and, on the
// worlds of verified pairs, ged::BoundedGed. The probe runs twice over the
// same pairs, after a warm-up pass, once without spans and once with them;
// the difference is the tracing overhead. Sets the per-call times of those
// calls, core.slowest_pair_share and the share.* metrics of the pair
// pipeline. `join_wall_s` is the configured join's median wall time.
ProbeTimes ProbeJoinPairs(const std::vector<simj::graph::LabeledGraph>& d,
                          const std::vector<simj::graph::UncertainGraph>& u,
                          const simj::core::SimJParams& params,
                          const simj::graph::LabelDictionary& dict,
                          double join_wall_s, SpanRecorder* spans,
                          LayerMetrics* layers);

// Counters of the join's own JoinStats: candidate/result/world/GED ratios,
// the A* abort count and the GED call count.
void SetJoinStatsMetrics(const simj::core::JoinStats& stats,
                         LayerMetrics* layers);

// Samples the allocations of one call of `join`, which evaluates `pairs`
// pairs, with the heap profiler at its finest accepted rate (1 KiB; the
// API rejects finer rates, so small allocations are sampled, not all
// counted). Sets core.heap_samples_per_pair, omitted when the profiler
// dropped samples, and core.heap_dropped / core.heap_truncated beside it.
void CountAllocations(const std::function<void()>& join, int64_t pairs,
                      LayerMetrics* layers, RunResult* result);

// Pairs, mappings, probabilities, best-world GEDs and every non-timing
// JoinStats counter of `got` equal the oracle's.
bool MatchesOracle(const simj::core::JoinResult& got,
                   const simj::core::JoinResult& oracle);

// Seconds taken by `fn`.
double TimeSeconds(const std::function<void()>& fn);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
