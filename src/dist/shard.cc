#include "dist/shard.h"

#include <algorithm>
#include <map>
#include <utility>

#include "ged/lower_bounds.h"
#include "util/check.h"
#include "util/trace.h"

namespace simj::dist {

ShardPlan PlanShards(const std::vector<graph::LabeledGraph>& d,
                     const std::vector<graph::UncertainGraph>& u,
                     const core::SimJParams& params,
                     const ShardPlanOptions& options) {
  SIMJ_CHECK_GE(options.max_pairs_per_shard, 1);
  trace::ScopedSpan span("shard_planning", "dist");

  // (|V|, |E|) -> indices into D, ascending.
  std::map<std::pair<int, int>, std::vector<int>> buckets;
  for (int qi = 0; qi < static_cast<int>(d.size()); ++qi) {
    buckets[{d[qi].num_vertices(), d[qi].num_edges()}].push_back(qi);
  }
  const bool skip = options.use_index && params.structural_pruning;
  ShardPlan plan;
  int64_t skipped = 0;
  // Walk buckets in ascending (|V|, |E|) order so the plan is a pure
  // function of the workload. Within a bucket, pairs are ordered by
  // (g_index, q_index); the final merge re-sorts results anyway.
  std::vector<std::pair<int, int>> bucket_pairs;
  for (const auto& [signature, members] : buckets) {
    bucket_pairs.clear();
    for (int gi = 0; gi < static_cast<int>(u.size()); ++gi) {
      // Every member shares the bucket's counts.
      const bool count_pruned =
          skip && ged::CountLowerBound(d[members.front()],
                                       u[gi].structure()) > params.tau;
      for (int qi : members) {
        // A sampled pair is planned, so its explain line shows the CSS
        // bound that SimJoin computes for it.
        if (count_pruned && !params.explain.ShouldExplain(qi, gi)) {
          ++skipped;
          continue;
        }
        bucket_pairs.emplace_back(qi, gi);
      }
    }
    // Cut the bucket into shards of at most max_pairs_per_shard pairs.
    for (size_t begin = 0; begin < bucket_pairs.size();
         begin += static_cast<size_t>(options.max_pairs_per_shard)) {
      const size_t end =
          std::min(bucket_pairs.size(),
                   begin + static_cast<size_t>(options.max_pairs_per_shard));
      Shard shard;
      shard.shard_id = static_cast<int>(plan.shards.size());
      shard.vertices = signature.first;
      shard.edges = signature.second;
      shard.pairs.assign(bucket_pairs.begin() + static_cast<long>(begin),
                         bucket_pairs.begin() + static_cast<long>(end));
      plan.planned_pairs += static_cast<int64_t>(shard.pairs.size());
      plan.shards.push_back(std::move(shard));
    }
  }
  plan.pre_stats.total_pairs = skipped;
  plan.pre_stats.pruned_structural = skipped;
  plan.pre_stats.pruned_count_bound = skipped;
  return plan;
}

}  // namespace simj::dist
