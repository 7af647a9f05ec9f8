// Shard planning for the distributed join (DESIGN.md §9).
//
// The candidate space |D| x |U| is partitioned along size-signature
// buckets: every shard holds pairs whose certain graphs share one
// (|V|, |E|) signature, so its cost profile is homogeneous. Buckets larger
// than `max_pairs_per_shard` are split into consecutive chunks so the
// coordinator has enough shards to steal.
//
// With `use_index` and structural pruning on, the pairs of a bucket whose
// count lower bound against an uncertain graph exceeds tau are counted as
// structural prunes at plan time instead of being shipped, except the
// pairs that explain samples. SimJoin prunes exactly those pairs with the
// same count check, so the merged distributed result is byte-identical to
// SimJoin under either setting; the skip only keeps frames small.

#ifndef SIMJ_DIST_SHARD_H_
#define SIMJ_DIST_SHARD_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "core/join.h"
#include "graph/labeled_graph.h"
#include "graph/uncertain_graph.h"

namespace simj::dist {

struct ShardPlanOptions {
  // Upper bound on pairs per shard; buckets above it are split. Must be
  // >= 1 (checked).
  int max_pairs_per_shard = 64;
  // Count-bound skips at plan time (see above). Off = plan the full cross
  // product. Either way the result equals SimJoin's.
  bool use_index = true;
};

struct Shard {
  int shard_id = -1;
  // The (|V|, |E|) signature bucket this shard was cut from.
  int vertices = 0;
  int edges = 0;
  // (q_index, g_index) candidate pairs, in deterministic plan order.
  std::vector<std::pair<int, int>> pairs;
};

struct ShardPlan {
  std::vector<Shard> shards;
  // Sum of shard sizes (pairs that will reach EvaluatePair).
  int64_t planned_pairs = 0;
  // The pairs skipped at plan time, counted as SimJoin counts them
  // (total_pairs, pruned_structural and pruned_count_bound), to fold into
  // the merged JoinStats.
  // Zero when nothing is skipped; ShardedSimJoin publishes them.
  core::JoinStats pre_stats;
};

// Deterministic: shard ids, shard contents, and plan order depend only on
// (d, u, params.tau, params.structural_pruning, params.explain, options) —
// never on thread timing.
[[nodiscard]] ShardPlan PlanShards(const std::vector<graph::LabeledGraph>& d,
                                   const std::vector<graph::UncertainGraph>& u,
                                   const core::SimJParams& params,
                                   const ShardPlanOptions& options);

}  // namespace simj::dist

#endif  // SIMJ_DIST_SHARD_H_
