// Shard planning for the distributed join (DESIGN.md §9).
//
// The candidate space |D| x |U| is partitioned along the size-signature
// buckets of CertainGraphIndex: every shard holds pairs whose certain
// graphs share one (|V|, |E|) signature, so a shard probes a contiguous
// slice of the index and its cost profile is homogeneous. Buckets larger
// than `max_pairs_per_shard` are split into consecutive chunks so the
// coordinator has enough shards to steal.
//
// With `use_index` on, bucket/graph combinations failing the count lower
// bound are dropped at plan time and accounted by the same
// core::AccountIndexSkips that IndexedSimJoin uses — the merged
// distributed result is byte-identical to IndexedSimJoin. With `use_index`
// off every pair is planned and the merged result is byte-identical to
// SimJoin.

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
  // Apply the signature-index count bound at plan time (IndexedSimJoin
  // semantics). Off = plan the full cross product (SimJoin semantics).
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
  // Plan-time accounting for pairs the index skipped (AccountIndexSkips):
  // counters to fold into the merged JoinStats and the sampled explain
  // records for skipped pairs. Both empty when `use_index` is off.
  core::JoinStats pre_stats;
  std::vector<core::PairExplain> pre_explains;
};

// Deterministic: shard ids, shard contents, and plan order depend only on
// (d, u, params.tau, params.explain, options) — never on thread timing.
[[nodiscard]] ShardPlan PlanShards(const std::vector<graph::LabeledGraph>& d,
                                   const std::vector<graph::UncertainGraph>& u,
                                   const core::SimJParams& params,
                                   const ShardPlanOptions& options);

}  // namespace simj::dist

#endif  // SIMJ_DIST_SHARD_H_
