// The SimJ similarity join (paper Def. 7, Algorithm 1).
//
// Given certain graphs D (SPARQL query graphs) and uncertain graphs U
// (natural-language question graphs), returns every pair <q, g> with
// SimP_tau(q, g) >= alpha using filter-and-refine:
//
//   1. structural pruning   : CSS lower bound (Thm. 3) > tau  => prune,
//      first trying the vertex/edge-count bound of [29], which Thm. 2
//      puts below CSS
//   2. probabilistic pruning: Markov upper bound (Thm. 4) < alpha => prune
//      (optionally over possible-world groups, Section 6.2)
//   3. verification         : possible-world enumeration with per-world
//      CSS bound, bounded A* GED, and alpha early accept/reject.
//
// Three configurations reproduce the paper's curves: CSS only
// (probabilistic pruning off), SimJ (both prunings, one group), SimJ+opt
// (group optimization on).

#ifndef SIMJ_CORE_JOIN_H_
#define SIMJ_CORE_JOIN_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/groups.h"
#include "core/similarity.h"
#include "ged/edit_distance.h"
#include "ged/lower_bounds.h"
#include "graph/label.h"
#include "graph/labeled_graph.h"
#include "graph/uncertain_graph.h"

namespace simj::core {

// Which pipeline stage eliminated a pair (or kNone when it reached a final
// verification decision). Stages are listed in pipeline order.
enum class PruneStage {
  kNone = 0,       // survived every filter; verification decided the pair
  kStructural,     // CSS uncertain bound > tau (Thm. 3)
  kProbabilistic,  // Markov / group upper bound < alpha (Thm. 4)
};

// Per-pair audit trail for explain mode: which stage pruned the pair, or
// the bound values that let it through to verification and the
// verification outcome. Fields are -1 / false when their stage never ran.
struct PairExplain {
  int q_index = -1;
  int g_index = -1;
  PruneStage pruned_by = PruneStage::kNone;
  bool accepted = false;  // final decision (only meaningful when not pruned)
  // Filter evidence.
  int css_lower_bound = -1;       // CSS uncertain bound (structural filter)
  double simp_upper_bound = -1.0; // summed group Markov bound (prob. filter)
  int live_groups = -1;           // groups surviving lb <= tau
  double live_mass = -1.0;        // probability mass still in play
  // Verification evidence.
  double simp_probability = -1.0; // accumulated SimP (lower bound on early accept)
  bool early_accept = false;
  bool early_reject = false;
  int64_t worlds_enumerated = 0;
  int64_t ged_calls = 0;
  int best_world_ged = -1;
};

// Selects which pairs get a PairExplain recorded. Recording never changes
// the join's results or counters; the selection is a pure function of
// (q_index, g_index), so explain output is identical at every thread count.
struct ExplainOptions {
  bool enabled = false;
  // With `pairs` empty: record every pair whose deterministic sample key
  // (q_index * 1000003 + g_index) is divisible by `sample_every`.
  // 1 records everything.
  int64_t sample_every = 1;
  // When non-empty, record exactly these <q_index, g_index> pairs.
  std::vector<std::pair<int, int>> pairs;

  bool ShouldExplain(int q_index, int g_index) const;
};

struct SimJParams {
  // GED threshold tau (Def. 7).
  int tau = 1;
  // Similarity probability threshold alpha in (0, 1].
  double alpha = 0.5;
  // Enable the CSS structural pruning.
  bool structural_pruning = true;
  // Enable the probabilistic pruning.
  bool probabilistic_pruning = true;
  // Number of possible-world groups (1 = no group optimization).
  int group_count = 1;
  // Vertex-selection principle for group splits (Section 6.2).
  SplitHeuristic split_heuristic = SplitHeuristic::kCostModel;
  // Stop verification as soon as alpha is provably reached/unreachable.
  bool early_exit_verification = true;
  // Accept a world that cannot become the pair's best when a mapping the A*
  // found for an earlier world of the pair costs <= tau on it. false = the
  // ablation: try the greedy bipartite GED bound instead. Pairs, mappings
  // and SimP are the same either way; the counters split differently
  // between worlds_accepted_by_upper_bound and ged_calls.
  bool witness_accept = true;
  // Workers claiming chunks of pair ids from a shared cursor. 1 = the
  // calling thread alone (no worker thread and no freeze; the budget's
  // monitor thread still runs); 0 = one thread per hardware thread; >1 =
  // that many threads, with the label dictionary frozen for the join (see
  // graph::ScopedFreeze). Results are sorted by (q_index, g_index), so
  // output is byte-identical at every thread count.
  int num_threads = 1;
  // Explain mode: record per-pair prune/bound audit trails into
  // JoinResult::explains (off by default; costs nothing when disabled).
  ExplainOptions explain;
  // The join's one pair-time budget, in milliseconds; 0 disables both of
  // its uses. A pair whose filter+verify evaluation exceeds it is logged
  // once when it completes, or by ShardedSimJoin's coordinator when its
  // shard completes (SIMJ_LOG(WARN) "slow pair:", with the pair's explain
  // record, and simj_join_slow_pairs_total). A pair is timed from the end
  // of the batch's previous pair that reached the CSS filter, or from the
  // batch's start, so one clock read ends one pair and starts the next
  // (count-bound prunes between the two are charged to the later). While
  // the join runs, a StallMonitor thread (core/progress.h) samples the
  // per-worker heartbeats and warns as soon as a worker has been inside one
  // pair longer than the budget, for a pair that may never finish. Logging
  // only: results, stats and explain output are byte-identical whether
  // either fires, at every thread count.
  double slow_pair_log_ms = 1000.0;
  // When > 0, log a SIMJ_LOG(INFO) progress line (completed/total, rate,
  // ETA) every N completed pairs, rate-limited to one line per 100 ms
  // across workers. 0 (the default) disables progress lines.
  int64_t progress_every = 0;
  ged::GedOptions ged_options;
};

// Registry counter of the pairs decided by the count bound alone: in
// SimJoin's structural filter, and in a shard plan that skips them (they are
// part of simj_join_pruned_structural_total / JoinStats::pruned_structural).
inline constexpr char kPrunedCountBoundMetric[] =
    "simj_join_pruned_count_bound_total";

struct JoinStats {
  int64_t total_pairs = 0;
  int64_t pruned_structural = 0;
  // The part of pruned_structural that the count bound decided alone
  // (kPrunedCountBoundMetric).
  int64_t pruned_count_bound = 0;
  int64_t pruned_probabilistic = 0;
  int64_t candidates = 0;  // pairs that reached verification
  int64_t results = 0;
  // Pairs that took the CSS kernel (ged::kCssBoundCallsMetric).
  int64_t css_bound_calls = 0;
  VerifyStats verify;
  // Per-phase time attributed inside EvaluatePair. On a parallel join these
  // are CPU-seconds summed across workers, NOT elapsed time — a join on 8
  // busy workers reports ~8x the wall clock here. In a join, a pair's
  // pruning time (and its simj_filter_structural_seconds observation)
  // includes the count-bound prunes evaluated since the previous pair that
  // reached the CSS filter (see SimJParams::slow_pair_log_ms).
  double pruning_cpu_seconds = 0.0;
  double verification_cpu_seconds = 0.0;
  // Elapsed time of the whole join, measured once around it by SimJoin
  // (never summed across workers; MergeJoinStats leaves it alone). This is
  // the number to report as response time.
  double wall_seconds = 0.0;

  double TotalCpuSeconds() const {
    return pruning_cpu_seconds + verification_cpu_seconds;
  }
  // Fraction of the |D| x |U| cross product that survived pruning.
  double CandidateRatio() const {
    return total_pairs == 0
               ? 0.0
               : static_cast<double>(candidates) / static_cast<double>(total_pairs);
  }
};

struct MatchedPair {
  int q_index = -1;  // index into D
  int g_index = -1;  // index into U
  // SimP_tau (exact, or a lower bound >= alpha under early accept).
  double similarity_probability = 0.0;
  // q-vertex -> g-vertex mapping of the most probable qualifying world;
  // feeds template generation.
  std::vector<int> mapping;
  int best_world_ged = -1;
};

// A pair whose own evaluation exceeded SimJParams::slow_pair_log_ms: its
// elapsed time and its explain record, with the exact css_lower_bound.
struct SlowPair {
  double elapsed_ms = 0.0;
  PairExplain explain;
};

struct JoinResult {
  std::vector<MatchedPair> pairs;
  JoinStats stats;
  // Audit trails for the pairs selected by SimJParams::explain, sorted by
  // (q_index, g_index). Empty when explain mode is off.
  std::vector<PairExplain> explains;
};

// The completion half of the pair-time budget (the StallMonitor is the live
// half): one SIMJ_LOG(WARN) "slow pair:" line with the pair's explain
// record, and one simj_join_slow_pairs_total. Logging only. Safe from any
// thread; the log sink serializes concurrent writers.
void LogSlowPair(const SlowPair& slow, const SimJParams& params);

// Accumulates per-thread counters into *into: all counters (including the
// nested VerifyStats) add, and the per-phase *_cpu_seconds add (they are
// CPU attribution). wall_seconds is NOT merged — it is measured once
// around the whole join.
void MergeJoinStats(const JoinStats& from, JoinStats* into);

// Appends a partial result (one join worker's or one shard's) to *into:
// merges its stats and moves its pairs, explain records and slow pairs to
// the end, unsorted — the caller ends with SortByPairIdentity.
void AppendJoinResult(JoinResult part, JoinResult* into);

// The one publisher of the join's registry counters; JoinStats is the
// join's only per-pair tally. Adds a batch's seven JoinStats pair counts
// (pruned_count_bound as kPrunedCountBoundMetric, css_bound_calls as
// ged::kCssBoundCallsMetric) and its two world counts
// (simj_verify_worlds_total, simj_verify_worlds_pruned_total) to the
// unlabeled series, or to the worker="<worker>" ones. A batch is a chunk
// of SimJoin's pair-id cursor, an EvaluatePairList or EvaluatePair call, a
// shard the distributed coordinator folds, or a plan's skipped pairs.
// Pairs are added first; a zero count adds nothing.
void PublishJoinCounters(const JoinStats& batch,
                         const std::string& worker = std::string());

// The unlabeled series of the five JoinStats pair counts, read into a
// JoinStats (every other field zero). Pairs are read last, so a reader
// running beside publishers never sees more stage counts than pairs.
[[nodiscard]] JoinStats ReadJoinCounters();

// The ged::GraphSummary of every input graph of a join, indexed like D and
// U. Every join entry point builds them once, before any pair is evaluated,
// in O(|D| + |U|); the pair evaluations only read them.
struct JoinSummaries {
  std::vector<ged::GraphSummary> d;
  std::vector<ged::GraphSummary> u;
};

[[nodiscard]] JoinSummaries SummarizeJoinInputs(
    const std::vector<graph::LabeledGraph>& d,
    const std::vector<graph::UncertainGraph>& u,
    const graph::LabelDictionary& dict);

// Evaluates a single pair through the full filter-and-refine pipeline.
// Returns true (and fills *pair) when SimP_tau(q, g) >= alpha. When
// `explain` is non-null, the pair's audit trail is recorded into it
// (q_index / g_index are left for the caller to fill). Summarizes both
// graphs; the join evaluates its pairs on summaries built once per join.
[[nodiscard]] bool EvaluatePair(const graph::LabeledGraph& q,
                  const graph::UncertainGraph& g, const SimJParams& params,
                  const graph::LabelDictionary& dict, JoinStats* stats,
                  MatchedPair* pair, PairExplain* explain = nullptr);

// One human-readable line per explain record, e.g.
//   <q=3,g=7> PRUNED structural: css_lb=4 > tau=2
//   <q=1,g=2> ACCEPT simp=0.8125 >= alpha=0.5 ...
std::string FormatExplain(const PairExplain& explain,
                          const SimJParams& params);

// Every explain record of `result`, one line each.
std::string FormatExplains(const JoinResult& result,
                           const SimJParams& params);

// The canonical output order: sorts result->pairs and result->explains by
// (q_index, g_index). Every join entry point ends with it, so a result is
// byte-comparable whatever thread count, shard plan or transport made it.
void SortByPairIdentity(JoinResult* result);

// Algorithm 1: nested-loop join of D with U under the configured prunings,
// the one join entry point. Pair ids p in [0, |D| x |U|) map to
// <p / |U|, p % |U|>; workers claim chunks of ids from a shared cursor
// (see SimJParams::num_threads), and each chunk is one batch for
// PublishJoinCounters. Sets the simj_join_workers gauge. A pair whose
// count bound exceeds tau is counted as a structural prune without
// computing CSS, unless explain samples it: results, every JoinStats
// counter and every explain line are those of the full CSS filter.
[[nodiscard]] JoinResult SimJoin(const std::vector<graph::LabeledGraph>& d,
                   const std::vector<graph::UncertainGraph>& u,
                   const SimJParams& params,
                   const graph::LabelDictionary& dict);

// Shard-aware entry point for the distributed join (src/dist): evaluates an
// explicit candidate list in order on the calling thread as logical worker
// `worker`, reading the summaries the caller built once for the whole join.
// Per-pair behavior — the count-bound check, explain sampling, the
// pair-time budget and the heartbeats — is bit-for-bit the same work
// SimJoin does for those pairs, except that a pair over the budget is
// appended to *slow_pairs, in evaluation order, instead of logged: a forked
// shard worker must not log, so the coordinator logs what a shard ships. The list is one
// batch: its counts reach this process's registry, unlabeled, when it ends.
// Stats accumulate into result->stats; qualifying pairs and explain records
// are appended UNSORTED: the caller owns BeginJoin/EndJoin, the
// StallMonitor, and the final SortByPairIdentity.
void EvaluatePairList(const std::vector<graph::LabeledGraph>& d,
                      const std::vector<graph::UncertainGraph>& u,
                      const JoinSummaries& summaries,
                      const SimJParams& params,
                      const graph::LabelDictionary& dict,
                      const std::vector<std::pair<int, int>>& pairs,
                      int worker, JoinResult* result,
                      std::vector<SlowPair>* slow_pairs);

}  // namespace simj::core

#endif  // SIMJ_CORE_JOIN_H_
