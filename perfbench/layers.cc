#include "layers.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "core/groups.h"
#include "ged/edit_distance.h"
#include "ged/lower_bounds.h"
#include "util/heap_profiler.h"
#include "util/timer.h"

namespace perfbench {

using simj::core::JoinResult;
using simj::core::JoinStats;
using simj::graph::LabeledGraph;
using simj::graph::UncertainGraph;

namespace {

// {name, unit} of every per-layer metric, in report order.
const std::vector<std::pair<const char*, const char*>>& LayerMetricNames() {
  static const std::vector<std::pair<const char*, const char*>> names = {
      {"workload.generate_s", "s"},
      {"graph.worlds_per_uncertain", "count"},
      {"ged.css_uncertain.calls", "count"},
      {"ged.css_uncertain.ns_per_call", "ns"},
      {"ged.max_common_labels.ns_per_call", "ns"},
      {"ged.bounded_ged.calls", "count"},
      {"ged.bounded_ged.us_per_call", "us"},
      {"ged.astar_aborted", "count"},
      {"core.evaluate_pair.pruned_structural.us_p50", "us"},
      {"core.evaluate_pair.pruned_probabilistic.us_p50", "us"},
      {"core.evaluate_pair.verified.us_p50", "us"},
      {"core.evaluate_pair.verified.us_p99", "us"},
      {"core.partition_worlds.us_per_call", "us"},
      {"core.candidate_ratio", "ratio"},
      {"core.results_per_candidate", "ratio"},
      {"core.worlds_per_candidate", "ratio"},
      {"core.ged_calls_per_candidate", "ratio"},
      {"core.pruning_cpu_s", "s"},
      {"core.verification_cpu_s", "s"},
      {"core.slowest_pair_share", "ratio"},
      {"core.heap_samples_per_pair", "count"},
      {"core.heap_dropped", "count"},
      {"core.heap_truncated", "count"},
      {"util.pool.busy_frac", "ratio"},
      {"util.pool.scaling_eff", "ratio"},
      {"dist.plan_ms", "ms"},
      {"dist.shards", "count"},
      {"dist.steals", "count"},
      {"dist.requeues", "count"},
      {"dist.worker_busy_frac", "ratio"},
      {"dist.busy_imbalance", "ratio"},
      {"dist.frame_bytes_per_pair", "B"},
      {"nlp.align_tokens.calls_per_question", "count"},
      {"nlp.align_tokens.ns_per_call", "ns"},
      {"nlp.tree_edit_distance.calls_per_question", "count"},
      {"nlp.tree_edit_distance.us_per_call", "us"},
      {"nlp.parse_question.us_per_call", "us"},
      {"nlp.parse_fail_frac", "ratio"},
      {"templates.store_size", "count"},
      {"templates.candidates_per_question", "count"},
      {"templates.generate.us_per_call", "us"},
      {"templates.answer.ms_p50", "ms"},
      {"templates.answer.ms_p99", "ms"},
      {"templates.answered_frac", "ratio"},
      {"templates.f1", "ratio"},
      {"sparql.parse.us_per_call", "us"},
      {"rdf.evaluate.us_per_call", "us"},
      {"rdf.rows_per_query", "count"},
      {"share.ged.css_uncertain", "ratio"},
      {"share.matching.max_common_labels", "ratio"},
      {"share.core.partition_worlds", "ratio"},
      {"share.core.verification", "ratio"},
      {"share.nlp.align_tokens", "ratio"},
      {"share.nlp.tree_edit_distance", "ratio"},
      {"share.nlp.parse_question", "ratio"},
      {"share.rdf.evaluate", "ratio"},
      {"trace.overhead_frac", "ratio"},
      {"trace.spans", "count"},
  };
  return names;
}

// The finest rate StartHeapProfiling accepts: one sampled allocation per
// KiB allocated, and every allocation of at least 1 KiB.
constexpr int64_t kHeapSampleBytes = 1024;

// Worlds of one verified pair handed to BoundedGed by the probe; bounds the
// probe's cost on pairs with hundreds of possible worlds.
constexpr int kMaxProbedWorlds = 32;

enum class Outcome { kStructural, kProbabilistic, kVerified };

const char* EvaluateSpanName(Outcome outcome) {
  switch (outcome) {
    case Outcome::kStructural:
      return "core.evaluate_pair.pruned_structural";
    case Outcome::kProbabilistic:
      return "core.evaluate_pair.pruned_probabilistic";
    case Outcome::kVerified:
      return "core.evaluate_pair.verified";
  }
  return "";
}

// One pass of the pair probe.
void ProbePass(const std::vector<LabeledGraph>& d,
               const std::vector<UncertainGraph>& u,
               const simj::core::SimJParams& params,
               const simj::graph::LabelDictionary& dict,
               SpanRecorder& spans) {
  simj::core::GroupingOptions grouping;
  grouping.group_count = params.group_count;
  grouping.heuristic = params.split_heuristic;
  uint64_t id = 0;
  for (size_t gi = 0; gi < u.size(); ++gi) {
    const UncertainGraph& g = u[gi];
    for (size_t qi = 0; qi < d.size(); ++qi, ++id) {
      const LabeledGraph& q = d[qi];
      ScopedSpan pair(spans, "pair", id);
      JoinStats stats;
      simj::core::MatchedPair matched;
      int evaluate = spans.Begin("core.evaluate_pair", id, pair.index());
      bool accepted =
          simj::core::EvaluatePair(q, g, params, dict, &stats, &matched);
      spans.End(evaluate);
      Outcome outcome = stats.pruned_structural > 0 ? Outcome::kStructural
                        : stats.pruned_probabilistic > 0
                            ? Outcome::kProbabilistic
                            : Outcome::kVerified;
      spans.Rename(evaluate, EvaluateSpanName(outcome));
      (void)accepted;

      int lower_bound;
      {
        ScopedSpan span(spans, "ged.css_uncertain", id, pair.index());
        lower_bound = simj::ged::CssLowerBoundUncertain(q, g, dict);
      }
      {
        ScopedSpan span(spans, "ged.max_common_labels", id, pair.index());
        volatile int common = simj::ged::MaxCommonVertexLabels(q, g, dict);
        (void)common;
      }
      if (lower_bound <= params.tau) {
        ScopedSpan span(spans, "core.partition_worlds", id, pair.index());
        simj::core::GroupingResult groups = simj::core::PartitionPossibleWorlds(
            q, g, params.tau, dict, grouping);
        (void)groups;
      }
      if (outcome != Outcome::kVerified) continue;
      int probed = 0;
      for (simj::graph::PossibleWorldIterator it(g);
           !it.Done() && probed < kMaxProbedWorlds; it.Next()) {
        LabeledGraph world = g.Materialize(it.choice());
        if (simj::ged::CssLowerBound(q, world, dict) > params.tau) continue;
        ++probed;
        ScopedSpan span(spans, "ged.bounded_ged", id, pair.index());
        bool aborted = false;
        auto ged = simj::ged::BoundedGed(q, world, params.tau, dict,
                                         params.ged_options, &aborted);
        (void)ged;
      }
    }
  }
}

bool SameCounters(const JoinStats& a, const JoinStats& b) {
  return a.total_pairs == b.total_pairs &&
         a.pruned_structural == b.pruned_structural &&
         a.pruned_probabilistic == b.pruned_probabilistic &&
         a.candidates == b.candidates && a.results == b.results &&
         a.verify.worlds_enumerated == b.verify.worlds_enumerated &&
         a.verify.worlds_pruned_by_bound == b.verify.worlds_pruned_by_bound &&
         a.verify.worlds_accepted_by_upper_bound ==
             b.verify.worlds_accepted_by_upper_bound &&
         a.verify.ged_calls == b.verify.ged_calls &&
         a.verify.ged_aborted == b.verify.ged_aborted;
}

}  // namespace

bool MatchesOracle(const JoinResult& got, const JoinResult& oracle) {
  if (!SameCounters(got.stats, oracle.stats)) return false;
  if (got.pairs.size() != oracle.pairs.size()) return false;
  for (size_t i = 0; i < got.pairs.size(); ++i) {
    const auto& a = got.pairs[i];
    const auto& b = oracle.pairs[i];
    if (a.q_index != b.q_index || a.g_index != b.g_index ||
        a.mapping != b.mapping ||
        a.similarity_probability != b.similarity_probability ||
        a.best_world_ged != b.best_world_ged) {
      return false;
    }
  }
  return true;
}

LayerMetrics::LayerMetrics() {
  for (const auto& [name, unit] : LayerMetricNames()) {
    order_.push_back(name);
    values_[name] = {0.0, unit};
  }
}

void LayerMetrics::Set(const std::string& name, double value) {
  auto it = values_.find(name);
  if (it == values_.end()) {
    std::fprintf(stderr, "perfbench: unknown per-layer metric %s\n",
                 name.c_str());
    std::abort();
  }
  it->second.first = value;
}

void LayerMetrics::Omit(const std::string& name) {
  Set(name, 0.0);
  omitted_.push_back(name);
}

void LayerMetrics::Emit(RunResult* result) const {
  for (const std::string& name : order_) {
    if (std::find(omitted_.begin(), omitted_.end(), name) != omitted_.end()) {
      continue;
    }
    const auto& [value, unit] = values_.at(name);
    result->Add(name, value, unit);
  }
}

double TimeSeconds(const std::function<void()>& fn) {
  simj::WallTimer timer;
  fn();
  return timer.ElapsedSeconds();
}

ProbeTimes ProbeJoinPairs(const std::vector<LabeledGraph>& d,
                          const std::vector<UncertainGraph>& u,
                          const simj::core::SimJParams& params,
                          const simj::graph::LabelDictionary& dict,
                          double join_wall_s, SpanRecorder* spans,
                          LayerMetrics* layers) {
  simj::core::SimJParams serial = params;
  serial.num_threads = 1;
  SpanRecorder off(false);
  ProbePass(d, u, serial, dict, off);  // warm-up
  ProbeTimes times;
  times.untraced_s = TimeSeconds([&] { ProbePass(d, u, serial, dict, off); });
  times.traced_s = TimeSeconds([&] { ProbePass(d, u, serial, dict, *spans); });

  std::map<std::string, SpanRecorder::NameStats> stats = spans->Summarize();
  auto get = [&](const char* name) -> const SpanRecorder::NameStats& {
    static const SpanRecorder::NameStats kEmpty;
    auto it = stats.find(name);
    return it == stats.end() ? kEmpty : it->second;
  };
  auto mean = [](const SpanRecorder::NameStats& s) {
    return Ratio(s.total_s, static_cast<double>(s.count));
  };
  const auto& css = get("ged.css_uncertain");
  const auto& common = get("ged.max_common_labels");
  const auto& partition = get("core.partition_worlds");
  const auto& ged = get("ged.bounded_ged");
  const auto& structural = get("core.evaluate_pair.pruned_structural");
  const auto& probabilistic = get("core.evaluate_pair.pruned_probabilistic");
  const auto& verified = get("core.evaluate_pair.verified");
  double evaluate_s = structural.self_s + probabilistic.self_s + verified.self_s;
  double slowest_s = 0.0;
  for (const auto* s : {&structural, &probabilistic, &verified}) {
    for (double v : s->durations_s) slowest_s = std::max(slowest_s, v);
  }

  layers->Set("ged.css_uncertain.ns_per_call", 1e9 * mean(css));
  layers->Set("ged.max_common_labels.ns_per_call", 1e9 * mean(common));
  layers->Set("ged.bounded_ged.us_per_call", 1e6 * mean(ged));
  layers->Set("core.evaluate_pair.pruned_structural.us_p50",
              1e6 * Median(structural.durations_s));
  layers->Set("core.evaluate_pair.pruned_probabilistic.us_p50",
              1e6 * Median(probabilistic.durations_s));
  layers->Set("core.evaluate_pair.verified.us_p50",
              1e6 * Median(verified.durations_s));
  layers->Set("core.evaluate_pair.verified.us_p99",
              1e6 * Quantile(verified.durations_s, 0.99));
  layers->Set("core.partition_worlds.us_per_call", 1e6 * mean(partition));
  layers->Set("core.slowest_pair_share", Ratio(slowest_s, join_wall_s));
  // Shares of the pair pipeline's time: EvaluatePair runs the CSS bound on
  // every pair and the world partition on every pair that survives it. The
  // CSS bound calls MaxCommonVertexLabels itself, so its share leaves out
  // the label matching, which has a share of its own.
  layers->Set("share.ged.css_uncertain",
              Ratio(std::max(0.0, css.total_s - common.total_s), evaluate_s));
  layers->Set("share.matching.max_common_labels",
              Ratio(common.self_s, evaluate_s));
  layers->Set("share.core.partition_worlds",
              Ratio(partition.self_s, evaluate_s));
  return times;
}

void SetTraceMetrics(const std::vector<ProbeTimes>& probes,
                     const SpanRecorder& spans, LayerMetrics* layers) {
  double untraced = 0.0, traced = 0.0;
  for (const ProbeTimes& p : probes) {
    untraced += p.untraced_s;
    traced += p.traced_s;
  }
  layers->Set("trace.overhead_frac", Ratio(traced - untraced, untraced));
  layers->Set("trace.spans", static_cast<double>(spans.size()));
}

void SetJoinStatsMetrics(const JoinStats& stats, LayerMetrics* layers) {
  double candidates = static_cast<double>(stats.candidates);
  layers->Set("ged.bounded_ged.calls",
              static_cast<double>(stats.verify.ged_calls));
  layers->Set("ged.astar_aborted",
              static_cast<double>(stats.verify.ged_aborted));
  layers->Set("core.candidate_ratio", stats.CandidateRatio());
  layers->Set("core.results_per_candidate",
              Ratio(static_cast<double>(stats.results), candidates));
  layers->Set("core.worlds_per_candidate",
              Ratio(static_cast<double>(stats.verify.worlds_enumerated),
                    candidates));
  layers->Set("core.ged_calls_per_candidate",
              Ratio(static_cast<double>(stats.verify.ged_calls), candidates));
  layers->Set("share.core.verification",
              Ratio(stats.verification_cpu_seconds, stats.TotalCpuSeconds()));
}

void CountAllocations(const std::function<void()>& join, int64_t pairs,
                      LayerMetrics* layers, RunResult* result) {
  simj::heapprof::HeapProfileOptions options;
  options.sample_bytes = kHeapSampleBytes;
  simj::Status started = simj::heapprof::StartHeapProfiling(options);
  if (!started.ok()) {
    result->Note("heap profiler unavailable: " + started.ToString());
    layers->Omit("core.heap_samples_per_pair");
    return;
  }
  join();
  simj::StatusOr<simj::heapprof::HeapProfile> profile =
      simj::heapprof::StopHeapProfiling();
  if (!profile.ok()) {
    result->Note("heap profiler failed: " + profile.status().ToString());
    layers->Omit("core.heap_samples_per_pair");
    return;
  }
  int64_t dropped = profile->TotalDropped();
  layers->Set("core.heap_dropped", static_cast<double>(dropped));
  layers->Set("core.heap_truncated",
              static_cast<double>(profile->TotalTruncated()));
  if (dropped != 0) {
    result->Note(Format("core.heap_samples_per_pair omitted: the heap "
                        "profiler dropped %lld samples",
                        static_cast<long long>(dropped)));
    layers->Omit("core.heap_samples_per_pair");
    return;
  }
  layers->Set("core.heap_samples_per_pair",
              Ratio(static_cast<double>(profile->TotalAllocObjects()),
                    static_cast<double>(pairs)));
}

}  // namespace perfbench
