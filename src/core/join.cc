#include "core/join.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <iterator>
#include <string>
#include <thread>
#include <tuple>

#include "core/progress.h"
#include "ged/lower_bounds.h"
#include "util/log.h"
#include "util/mem.h"
#include "util/metrics.h"
#include "util/timer.h"
#include "util/trace.h"

namespace simj::core {

namespace {

using graph::LabeledGraph;
using graph::UncertainGraph;
using Clock = std::chrono::steady_clock;

double SecondsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

// The per-pair and per-join instruments. The counts are not here:
// PublishJoinCounters adds them once per batch. Each stage histogram is fed
// from the pair's own clock reads.
struct JoinMetrics {
  metrics::Counter& slow_pairs;
  metrics::Histogram& structural_seconds;
  metrics::Histogram& probabilistic_seconds;
  metrics::Histogram& verify_seconds;
  metrics::Gauge& workers;
  // Pipeline high-water marks (process lifetime, monotonic via UpdateMax).
  metrics::Gauge& candidate_set_peak;
  metrics::Gauge& group_fanout_peak;

  static const JoinMetrics& Get() {
    static JoinMetrics* m = [] {
      metrics::Registry& r = metrics::Registry::Global();
      return new JoinMetrics{  // simj-lint: allow(new) leaky singleton
          r.GetCounter("simj_join_slow_pairs_total"),
          r.GetHistogram("simj_filter_structural_seconds"),
          r.GetHistogram("simj_filter_probabilistic_seconds"),
          r.GetHistogram("simj_verify_pair_seconds"),
          r.GetGauge("simj_join_workers"),
          r.GetGauge("simj_join_candidate_set_peak"),
          r.GetGauge("simj_join_group_fanout_peak"),
      };
    }();
    return *m;
  }
};

// The one list of the join's registry counters, in publishing order.
enum JoinCount {
  kPairs,
  kPrunedStructural,
  kPrunedCountBound,
  kPrunedProbabilistic,
  kCandidates,
  kResults,
  kCssFiltered,
  kWorldsEnumerated,
  kWorldsPrunedByBound,
  kNumJoinCounts,
};
constexpr const char* kJoinCountFamilies[kNumJoinCounts] = {
    "simj_join_pairs_total",
    "simj_join_pruned_structural_total",
    kPrunedCountBoundMetric,
    "simj_join_pruned_probabilistic_total",
    "simj_join_candidates_total",
    "simj_join_results_total",
    ged::kCssBoundCallsMetric,
    "simj_verify_worlds_total",
    "simj_verify_worlds_pruned_total",
};

// Series `count` of the list: unlabeled (looked up once) or, looked up per
// call, worker="<worker>".
metrics::Counter& JoinCounter(JoinCount count, const std::string& worker) {
  static const auto unlabeled = [] {
    std::array<metrics::Counter*, kNumJoinCounts> out;
    for (int i = 0; i < kNumJoinCounts; ++i) {
      out[i] = &metrics::Registry::Global().GetCounter(kJoinCountFamilies[i]);
    }
    return out;
  }();
  if (worker.empty()) return *unlabeled[count];
  return metrics::Registry::Global().GetCounter(
      metrics::LabeledName(kJoinCountFamilies[count], {{"worker", worker}}));
}

}  // namespace

void PublishJoinCounters(const JoinStats& batch, const std::string& worker) {
  const int64_t counts[kNumJoinCounts] = {
      batch.total_pairs,          batch.pruned_structural,
      batch.pruned_count_bound,   batch.pruned_probabilistic,
      batch.candidates,           batch.results,
      batch.css_bound_calls,      batch.verify.worlds_enumerated,
      batch.verify.worlds_pruned_by_bound};
  for (int i = 0; i < kNumJoinCounts; ++i) {
    if (counts[i] != 0) {
      JoinCounter(static_cast<JoinCount>(i), worker).Add(counts[i]);
    }
  }
}

JoinStats ReadJoinCounters() {
  JoinStats stats;
  stats.pruned_structural = JoinCounter(kPrunedStructural, "").Value();
  stats.pruned_probabilistic = JoinCounter(kPrunedProbabilistic, "").Value();
  stats.candidates = JoinCounter(kCandidates, "").Value();
  stats.results = JoinCounter(kResults, "").Value();
  stats.total_pairs = JoinCounter(kPairs, "").Value();
  return stats;
}

bool ExplainOptions::ShouldExplain(int q_index, int g_index) const {
  if (!enabled) return false;
  if (!pairs.empty()) {
    for (const auto& [qi, gi] : pairs) {
      if (qi == q_index && gi == g_index) return true;
    }
    return false;
  }
  if (sample_every <= 1) return true;
  int64_t key = static_cast<int64_t>(q_index) * 1000003 + g_index;
  return key % sample_every == 0;
}

void MergeJoinStats(const JoinStats& from, JoinStats* into) {
  into->total_pairs += from.total_pairs;
  into->pruned_structural += from.pruned_structural;
  into->pruned_count_bound += from.pruned_count_bound;
  into->pruned_probabilistic += from.pruned_probabilistic;
  into->candidates += from.candidates;
  into->results += from.results;
  into->css_bound_calls += from.css_bound_calls;
  into->verify.worlds_enumerated += from.verify.worlds_enumerated;
  into->verify.worlds_pruned_by_bound += from.verify.worlds_pruned_by_bound;
  into->verify.worlds_accepted_by_upper_bound +=
      from.verify.worlds_accepted_by_upper_bound;
  into->verify.ged_calls += from.verify.ged_calls;
  into->verify.ged_aborted += from.verify.ged_aborted;
  into->pruning_cpu_seconds += from.pruning_cpu_seconds;
  into->verification_cpu_seconds += from.verification_cpu_seconds;
  // wall_seconds deliberately not merged: it is elapsed time measured once
  // around the whole join, not a per-worker quantity.
}

void AppendJoinResult(JoinResult part, JoinResult* into) {
  MergeJoinStats(part.stats, &into->stats);
  into->pairs.insert(into->pairs.end(),
                     std::make_move_iterator(part.pairs.begin()),
                     std::make_move_iterator(part.pairs.end()));
  into->explains.insert(into->explains.end(),
                        std::make_move_iterator(part.explains.begin()),
                        std::make_move_iterator(part.explains.end()));
}

JoinSummaries SummarizeJoinInputs(const std::vector<LabeledGraph>& d,
                                  const std::vector<UncertainGraph>& u,
                                  const graph::LabelDictionary& dict) {
  trace::ScopedSpan span("summarize_inputs", "join");
  JoinSummaries summaries;
  summaries.d.reserve(d.size());
  for (const LabeledGraph& q : d) {
    summaries.d.push_back(ged::Summarize(q, dict));
  }
  summaries.u.reserve(u.size());
  for (const UncertainGraph& g : u) {
    summaries.u.push_back(ged::Summarize(g, dict));
  }
  return summaries;
}

namespace {

// Ends one batch of pair evaluations: publishes it and folds it into *into.
void EndBatch(const JoinStats& batch, JoinStats* into) {
  PublishJoinCounters(batch);
  MergeJoinStats(batch, into);
}

// EvaluatePair on summaries of q and g, for a pair whose evaluation began
// at `start`, the caller's clock read (the join's pair loops pass the
// previous pair's *finished). Each stage ends with one clock read, which
// also starts the next, and *finished receives the last, so the caller's
// watchdog and the next pair need none: a pair costs one read when the CSS
// filter prunes it, two when the Markov filter does, and three when
// verified.
// With `exact_css` the CSS filter computes the exact bound for the explain
// record; otherwise a pair the cascade prunes early records a bound that
// exceeds tau but may be below the exact one.
bool EvaluateSummarizedPair(const LabeledGraph& q,
                            const ged::GraphSummary& q_summary,
                            const UncertainGraph& g,
                            const ged::GraphSummary& g_summary,
                            const SimJParams& params,
                            const graph::LabelDictionary& dict,
                            bool exact_css, Clock::time_point start,
                            Clock::time_point* finished, JoinStats* stats,
                            MatchedPair* pair, PairExplain* explain) {
  const JoinMetrics& jm = JoinMetrics::Get();
  ++stats->total_pairs;

  // --- Pruning phase ---
  Clock::time_point filtered = start;
  int structural_constant = 0;
  if (params.structural_pruning) {
    trace::ScopedSpan span("css_filter", "prune");
    ++stats->css_bound_calls;
    const ged::CssPrune css = ged::CssPruneBound(
        q_summary, g_summary, exact_css ? ged::kExactCss : params.tau);
    filtered = Clock::now();
    const double seconds = SecondsBetween(start, filtered);
    jm.structural_seconds.Observe(seconds);
    structural_constant = css.structural_constant;
    if (explain != nullptr) explain->css_lower_bound = css.lower_bound;
    if (css.lower_bound > params.tau) {
      ++stats->pruned_structural;
      stats->pruning_cpu_seconds += seconds;
      if (explain != nullptr) explain->pruned_by = PruneStage::kStructural;
      *finished = filtered;
      return false;
    }
  }

  GroupingResult grouping;
  bool grouped = false;
  if (params.probabilistic_pruning) {
    trace::ScopedSpan span("markov_filter", "prune");
    GroupingOptions group_options;
    group_options.group_count = params.group_count;
    group_options.heuristic = params.split_heuristic;
    grouping = PartitionPossibleWorlds(q, q_summary, g, g_summary, params.tau,
                                       dict, group_options);
    grouped = true;
    const Clock::time_point partitioned = Clock::now();
    jm.probabilistic_seconds.Observe(SecondsBetween(filtered, partitioned));
    filtered = partitioned;
    if (explain != nullptr) {
      explain->simp_upper_bound = grouping.simp_upper_bound;
      explain->live_groups = static_cast<int>(grouping.live_groups.size());
      explain->live_mass = grouping.live_mass;
    }
    if (grouping.simp_upper_bound < params.alpha - kSimPEpsilon) {
      ++stats->pruned_probabilistic;
      stats->pruning_cpu_seconds += SecondsBetween(start, filtered);
      if (explain != nullptr) explain->pruned_by = PruneStage::kProbabilistic;
      *finished = filtered;
      return false;
    }
  }
  stats->pruning_cpu_seconds += SecondsBetween(start, filtered);

  // --- Refinement phase: timed from the last filter's end read ---
  trace::ScopedSpan verify_span("verify", "verify");
  ++stats->candidates;
  const VerifyStats verify_before = stats->verify;

  std::vector<UncertainGraph> groups;
  double live_mass = 0.0;
  if (grouped) {
    // Heavier groups first: they decide more of the mass, so the
    // verification early-exits trigger sooner.
    std::sort(grouping.live_groups.begin(), grouping.live_groups.end(),
              [](const ScoredGroup& a, const ScoredGroup& b) {
                return a.mass > b.mass;
              });
    groups.reserve(grouping.live_groups.size());
    for (ScoredGroup& group : grouping.live_groups) {
      groups.push_back(std::move(group.graph));
    }
    live_mass = grouping.live_mass;
  } else {
    groups.push_back(g);
    live_mass = g.TotalMass();
  }
  jm.group_fanout_peak.UpdateMax(static_cast<double>(groups.size()));

  // C(q, g) once per pair, taken from the CSS filter when it ran: every
  // group shares g's structure.
  ged::WorldBound world_bound(
      q_summary, params.structural_pruning
                     ? structural_constant
                     : ged::CssStructuralConstant(q_summary, g_summary));
  const SimPResult simp = VerifySimP(
      q, world_bound, groups, live_mass, params.tau, params.alpha,
      params.early_exit_verification, dict, params.ged_options,
      &stats->verify, params.witness_accept);
  *finished = Clock::now();
  const double verify_seconds = SecondsBetween(filtered, *finished);
  stats->verification_cpu_seconds += verify_seconds;
  jm.verify_seconds.Observe(verify_seconds);

  // Debug-mode postcondition (Def. 6): SimP is a probability — nonnegative,
  // bounded by the mass still in play after pruning, and by 1.
  SIMJ_DCHECK_GE(simp.probability, 0.0);
  SIMJ_DCHECK_LE(simp.probability, live_mass + kSimPEpsilon);
  SIMJ_DCHECK_LE(simp.probability, 1.0 + kSimPEpsilon);

  bool accepted =
      simp.early_accept || simp.probability >= params.alpha - kSimPEpsilon;
  if (explain != nullptr) {
    explain->simp_probability = simp.probability;
    explain->early_accept = simp.early_accept;
    explain->early_reject = simp.early_reject;
    explain->worlds_enumerated =
        stats->verify.worlds_enumerated - verify_before.worlds_enumerated;
    explain->ged_calls = stats->verify.ged_calls - verify_before.ged_calls;
    explain->best_world_ged = simp.best_world_ged;
    explain->accepted = accepted;
  }
  if (!accepted) return false;
  ++stats->results;
  if (pair != nullptr) {
    pair->similarity_probability = simp.probability;
    pair->mapping = simp.best_mapping;
    pair->best_world_ged = simp.best_world_ged;
  }
  return true;
}

}  // namespace

bool EvaluatePair(const LabeledGraph& q, const UncertainGraph& g,
                  const SimJParams& params,
                  const graph::LabelDictionary& dict, JoinStats* stats,
                  MatchedPair* pair, PairExplain* explain) {
  Clock::time_point finished;
  JoinStats batch;
  const bool matched = EvaluateSummarizedPair(
      q, ged::Summarize(q, dict), g, ged::Summarize(g, dict), params, dict,
      /*exact_css=*/explain != nullptr, Clock::now(), &finished, &batch, pair,
      explain);
  EndBatch(batch, stats);
  return matched;
}

std::string FormatExplain(const PairExplain& explain,
                          const SimJParams& params) {
  char buffer[320];
  std::string out;
  std::snprintf(buffer, sizeof(buffer), "<q=%d,g=%d> ", explain.q_index,
                explain.g_index);
  out += buffer;
  switch (explain.pruned_by) {
    case PruneStage::kStructural:
      std::snprintf(buffer, sizeof(buffer),
                    "PRUNED structural: css_lb=%d > tau=%d",
                    explain.css_lower_bound, params.tau);
      out += buffer;
      return out;
    case PruneStage::kProbabilistic:
      std::snprintf(buffer, sizeof(buffer),
                    "PRUNED probabilistic: ub_simp=%.6g < alpha=%.6g "
                    "(css_lb=%d, live_groups=%d, live_mass=%.6g)",
                    explain.simp_upper_bound, params.alpha,
                    explain.css_lower_bound, explain.live_groups,
                    explain.live_mass);
      out += buffer;
      return out;
    case PruneStage::kNone:
      break;
  }
  std::snprintf(
      buffer, sizeof(buffer),
      "%s simp=%.6g %s alpha=%.6g (css_lb=%d, ub_simp=%.6g, worlds=%lld, "
      "ged_calls=%lld, best_ged=%d%s%s)",
      explain.accepted ? "ACCEPT" : "REJECT", explain.simp_probability,
      explain.accepted ? ">=" : "<", params.alpha, explain.css_lower_bound,
      explain.simp_upper_bound,
      static_cast<long long>(explain.worlds_enumerated),
      static_cast<long long>(explain.ged_calls), explain.best_world_ged,
      explain.early_accept ? ", early-accept" : "",
      explain.early_reject ? ", early-reject" : "");
  out += buffer;
  return out;
}

std::string FormatExplains(const JoinResult& result,
                           const SimJParams& params) {
  std::string out;
  for (const PairExplain& explain : result.explains) {
    out += FormatExplain(explain, params);
    out += '\n';
  }
  return out;
}

void LogSlowPair(const SlowPair& slow, const SimJParams& params) {
  JoinMetrics::Get().slow_pairs.Increment();
  SIMJ_LOG(WARN) << "slow pair: " << slow.elapsed_ms << " ms (budget "
                 << params.slow_pair_log_ms << " ms) "
                 << FormatExplain(slow.explain, params);
}

namespace {

// Log lines print the exact css_lb. A pair the cascade pruned early carries
// a smaller bound that already exceeds tau; the exact one is recomputed
// here, for the few pairs that are logged, rather than on every pair.
void SetExactCssBound(const ged::GraphSummary& q, const ged::GraphSummary& g,
                      PairExplain* explain) {
  if (explain->pruned_by != PruneStage::kStructural) return;
  explain->css_lower_bound =
      ged::CssPruneBound(q, g, ged::kExactCss).lower_bound;
}

// Per-pair execution shared by the join's chunk loop and the shard-list
// entry point (EvaluatePairList): count-bound check, heartbeat, evaluate,
// pair-time budget, explain capture. Gates are captured once at
// construction. While the budget is on, every pair's explain record is
// captured opportunistically for the slow-pair line (recording is
// write-only, so results stay byte-identical).
struct PairEvaluator {
  const std::vector<LabeledGraph>& d;
  const std::vector<UncertainGraph>& u;
  const JoinSummaries& summaries;
  const SimJParams& params;
  const graph::LabelDictionary& dict;
  JoinProgress& progress;
  bool explain_on;
  bool watchdog_on;
  int64_t progress_every;

  PairEvaluator(const std::vector<LabeledGraph>& d_in,
                const std::vector<UncertainGraph>& u_in,
                const JoinSummaries& summaries_in,
                const SimJParams& params_in,
                const graph::LabelDictionary& dict_in)
      : d(d_in),
        u(u_in),
        summaries(summaries_in),
        params(params_in),
        dict(dict_in),
        progress(JoinProgress::Global()),
        explain_on(params_in.explain.enabled),
        watchdog_on(params_in.slow_pair_log_ms > 0.0),
        progress_every(params_in.progress_every) {}

  // Counts the pair into *batch; a qualifying pair and a sampled explain
  // record go to *out. A pair over the budget goes to *slow_pairs, or to
  // the log when slow_pairs is null. *clock is the batch's last clock read:
  // a pair that reaches the CSS filter starts there and leaves its end read
  // in it.
  void Evaluate(int worker, int qi, int gi, Clock::time_point* clock,
                JoinResult* out, JoinStats* batch,
                std::vector<SlowPair>* slow_pairs) const {
    const bool sampled = explain_on && params.explain.ShouldExplain(qi, gi);
    // Thm. 2: the count bound never exceeds the CSS bound, so a pair it
    // decides is a CSS prune and is counted as one, without the CSS
    // kernel. A sampled pair takes the full filter instead, so that its
    // explain line carries the exact css_lb.
    if (params.structural_pruning && !sampled &&
        ged::CountLowerBound(summaries.d[qi], summaries.u[gi]) > params.tau) {
      ++batch->total_pairs;
      ++batch->pruned_structural;
      ++batch->pruned_count_bound;
      if (progress_every > 0) progress.NotePairCompleted(progress_every);
      return;
    }
    MatchedPair pair;
    PairExplain explain{qi, gi};
    PairExplain* explain_slot = sampled || watchdog_on ? &explain : nullptr;
    const Clock::time_point start = *clock;
    progress.Heartbeat(worker, qi, gi, start);
    if (EvaluateSummarizedPair(d[qi], summaries.d[qi], u[gi],
                               summaries.u[gi], params, dict, sampled, start,
                               clock, batch, &pair, explain_slot)) {
      pair.q_index = qi;
      pair.g_index = gi;
      out->pairs.push_back(std::move(pair));
    }
    // Epilogue: logging only — results, stats and explain output are
    // byte-identical whether any of it fires.
    if (watchdog_on) {
      const double elapsed_ms = SecondsBetween(start, *clock) * 1e3;
      if (elapsed_ms > params.slow_pair_log_ms) {
        SetExactCssBound(summaries.d[qi], summaries.u[gi], &explain);
        SlowPair slow{elapsed_ms, explain};
        if (slow_pairs != nullptr) {
          slow_pairs->push_back(std::move(slow));
        } else {
          LogSlowPair(slow, params);
        }
        // The next pair starts after this rare epilogue, not before it.
        *clock = Clock::now();
      }
    }
    progress.PairDone(worker);
    if (progress_every > 0) progress.NotePairCompleted(progress_every);
    if (sampled) out->explains.push_back(std::move(explain));
  }
};

// 0 means one worker per hardware thread; anything else is taken
// literally (minimum 1).
int ResolveThreadCount(int num_threads) {
  if (num_threads > 0) return num_threads;
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

// Chunks per worker: enough for fast workers to even out skewed pair costs
// (evaluation time varies by orders of magnitude with pruning), few enough
// that the shared cursor is rarely contended.
constexpr int64_t kChunksPerWorker = 64;

// The join's one pair loop: workers claim [begin, end) chunks of pair ids
// from a shared cursor, each chunk one batch that reads the clock once
// before its first pair (see PairEvaluator::Evaluate). With `on_caller` the
// one worker is the calling thread; otherwise `workers` threads evaluate
// into partial results, merged into *result once every thread has joined.
void RunChunks(const PairEvaluator& evaluator, int workers, bool on_caller,
               int64_t num_pairs, int64_t num_u, JoinResult* result) {
  const int64_t chunk = std::max<int64_t>(
      1, num_pairs / (static_cast<int64_t>(workers) * kChunksPerWorker));
  std::atomic<int64_t> cursor{0};
  const auto run = [&](int w, JoinResult* out) {
    while (true) {
      // Relaxed: the cursor only hands out disjoint id ranges; the
      // partial results reach the merge through join().
      const int64_t begin = cursor.fetch_add(chunk, std::memory_order_relaxed);
      if (begin >= num_pairs) return;
      const int64_t end = std::min(num_pairs, begin + chunk);
      JoinStats batch;
      Clock::time_point clock = Clock::now();
      int qi = static_cast<int>(begin / num_u);
      int gi = static_cast<int>(begin % num_u);
      for (int64_t p = begin; p < end; ++p) {
        evaluator.Evaluate(w, qi, gi, &clock, out, &batch,
                           /*slow_pairs=*/nullptr);
        if (++gi == num_u) {
          gi = 0;
          ++qi;
        }
      }
      EndBatch(batch, &out->stats);
    }
  };
  if (on_caller) {
    run(0, result);
    return;
  }
  // Workers may only read the dictionary (EvaluatePair never interns, but
  // the freeze makes that a hard guarantee rather than a convention). The
  // freeze ends with the join, so the caller may intern again afterwards.
  const graph::ScopedFreeze freeze(evaluator.dict);
  std::vector<JoinResult> partial(static_cast<size_t>(workers));
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(workers));
  for (int w = 0; w < workers; ++w) {
    threads.emplace_back([&, w] {
      trace::SetThisThreadName("join-worker-" + std::to_string(w));
      run(w, &partial[static_cast<size_t>(w)]);
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (JoinResult& part : partial) AppendJoinResult(std::move(part), result);
}

}  // namespace

void SortByPairIdentity(JoinResult* result) {
  const auto by_pair = [](const auto& a, const auto& b) {
    return std::tie(a.q_index, a.g_index) < std::tie(b.q_index, b.g_index);
  };
  std::sort(result->pairs.begin(), result->pairs.end(), by_pair);
  std::sort(result->explains.begin(), result->explains.end(), by_pair);
}

void EvaluatePairList(const std::vector<LabeledGraph>& d,
                      const std::vector<UncertainGraph>& u,
                      const JoinSummaries& summaries,
                      const SimJParams& params,
                      const graph::LabelDictionary& dict,
                      const std::vector<std::pair<int, int>>& pairs,
                      int worker, JoinResult* result,
                      std::vector<SlowPair>* slow_pairs) {
  const PairEvaluator evaluator(d, u, summaries, params, dict);
  JoinStats batch;
  Clock::time_point clock = Clock::now();
  for (const auto& [qi, gi] : pairs) {
    evaluator.Evaluate(worker, qi, gi, &clock, result, &batch, slow_pairs);
  }
  EndBatch(batch, &result->stats);
}

JoinResult SimJoin(const std::vector<LabeledGraph>& d,
                   const std::vector<UncertainGraph>& u,
                   const SimJParams& params,
                   const graph::LabelDictionary& dict) {
  JoinResult result;
  WallTimer wall;
  trace::ScopedSpan span("simjoin", "join");
#ifdef SIMJ_DEBUG_CHECKS
  // Debug-mode boundary validation: every input graph satisfies its model
  // invariants (Def. 2/4) before any filter sees it.
  for (const LabeledGraph& q : d) SIMJ_CHECK_OK(q.Validate(dict));
  for (const UncertainGraph& g : u) SIMJ_CHECK_OK(g.Validate(dict));
#endif
  const int64_t num_u = static_cast<int64_t>(u.size());
  const int64_t num_pairs = static_cast<int64_t>(d.size()) * num_u;
  JoinProgress& progress = JoinProgress::Global();
  const int workers =
      params.num_threads == 1 ? 1 : ResolveThreadCount(params.num_threads);
  const JoinMetrics& jm = JoinMetrics::Get();
  jm.workers.Set(static_cast<double>(workers));
  const JoinSummaries summaries = SummarizeJoinInputs(d, u, dict);
  progress.BeginJoin(num_pairs, workers);
  const PairEvaluator evaluator(d, u, summaries, params, dict);
  {
    StallMonitor monitor(params.slow_pair_log_ms, "stall-monitor");
    RunChunks(evaluator, workers, /*on_caller=*/params.num_threads == 1,
              num_pairs, num_u, &result);
  }
  progress.EndJoin();
  // Debug-mode join postcondition: every pair was either pruned by exactly
  // one stage or verified, never both — a pair that was pruned and then
  // re-verified (or double-counted by a worker) breaks this identity.
  SIMJ_DCHECK_EQ(result.stats.total_pairs,
                 result.stats.pruned_structural +
                     result.stats.pruned_probabilistic +
                     result.stats.candidates);
  SIMJ_DCHECK_LE(result.stats.results, result.stats.candidates);
  // Memory observability: one high-water update and one /proc read per
  // join (never per pair).
  jm.candidate_set_peak.UpdateMax(
      static_cast<double>(result.stats.candidates));
  mem::SampleRssToMetrics();
  // Pair evaluation is deterministic per pair, so after this sort the
  // result is identical at every thread count.
  SortByPairIdentity(&result);
  result.stats.wall_seconds = wall.ElapsedSeconds();
  return result;
}

}  // namespace simj::core
