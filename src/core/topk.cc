#include "core/topk.h"

#include <algorithm>

#include "core/groups.h"
#include "core/similarity.h"
#include "ged/lower_bounds.h"

namespace simj::core {

namespace {

using graph::LabeledGraph;
using graph::UncertainGraph;

bool BetterMatch(const MatchedPair& a, const MatchedPair& b) {
  if (a.similarity_probability != b.similarity_probability) {
    return a.similarity_probability > b.similarity_probability;
  }
  return a.q_index < b.q_index;
}

}  // namespace

TopKResult TopKJoin(const std::vector<LabeledGraph>& d,
                    const std::vector<UncertainGraph>& u,
                    const TopKParams& params,
                    const graph::LabelDictionary& dict) {
  TopKResult result;
  result.matches.resize(u.size());
  const JoinSummaries summaries = SummarizeJoinInputs(d, u, dict);

  for (int gi = 0; gi < static_cast<int>(u.size()); ++gi) {
    const UncertainGraph& g = u[gi];
    std::vector<MatchedPair>& heap = result.matches[gi];

    // Running k-th best SimP; candidates whose upper bound cannot beat it
    // are skipped. Starts at 0: everything with SimP > 0 is admissible.
    double threshold = 0.0;

    for (int qi = 0; qi < static_cast<int>(d.size()); ++qi) {
      ++result.stats.total_pairs;
      const LabeledGraph& q = d[qi];
      const ged::GraphSummary& q_summary = summaries.d[qi];
      const ged::GraphSummary& g_summary = summaries.u[gi];
      const ged::CssPrune css =
          ged::CssPruneBound(q_summary, g_summary, params.tau);
      if (css.lower_bound > params.tau) {
        ++result.stats.pruned_structural;
        continue;
      }
      if (threshold > 0.0) {
        GroupingOptions options;
        options.group_count = params.group_count;
        GroupingResult grouping = PartitionPossibleWorlds(
            q, q_summary, g, g_summary, params.tau, dict, options);
        if (grouping.simp_upper_bound <= threshold + kSimPEpsilon) {
          ++result.stats.pruned_by_threshold;
          continue;
        }
      }
      ++result.stats.evaluated;
      SimPResult simp = ComputeSimP(q, g, params.tau, dict, params.ged_options,
                                    &result.stats.verify);
      if (simp.probability <= kSimPEpsilon) continue;

      MatchedPair pair;
      pair.q_index = qi;
      pair.g_index = gi;
      pair.similarity_probability = simp.probability;
      pair.mapping = simp.best_mapping;
      pair.best_world_ged = simp.best_world_ged;
      heap.push_back(std::move(pair));
      std::sort(heap.begin(), heap.end(), BetterMatch);
      if (static_cast<int>(heap.size()) > params.k) heap.pop_back();
      if (static_cast<int>(heap.size()) == params.k) {
        threshold = heap.back().similarity_probability;
      }
    }
  }
  return result;
}

}  // namespace simj::core
