#include "dist/shard.h"

#include <algorithm>
#include <utility>

#include "core/index.h"
#include "util/check.h"
#include "util/trace.h"

namespace simj::dist {

ShardPlan PlanShards(const std::vector<graph::LabeledGraph>& d,
                     const std::vector<graph::UncertainGraph>& u,
                     const core::SimJParams& params,
                     const ShardPlanOptions& options) {
  SIMJ_CHECK_GE(options.max_pairs_per_shard, 1);
  trace::ScopedSpan span("shard_planning", "dist");

  core::CertainGraphIndex index(&d);
  ShardPlan plan;
  const int num_u = static_cast<int>(u.size());
  // Walk buckets in ascending (|V|, |E|) order so the plan is a pure
  // function of the workload. Within a bucket, pairs are ordered by
  // (g_index, q_index); the final merge re-sorts results anyway.
  std::vector<std::pair<int, int>> bucket_pairs;
  for (const auto& [signature, members] : index.buckets()) {
    bucket_pairs.clear();
    for (int gi = 0; gi < num_u; ++gi) {
      if (options.use_index &&
          !core::CertainGraphIndex::SignatureSurvives(
              signature.first, signature.second, u[gi], params.tau)) {
        core::AccountIndexSkips(gi, members, params, &plan.pre_stats,
                                &plan.pre_explains);
        continue;
      }
      for (int qi : members) bucket_pairs.emplace_back(qi, gi);
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
  return plan;
}

}  // namespace simj::dist
