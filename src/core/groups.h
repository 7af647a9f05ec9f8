// Cost-based possible-world grouping (paper Section 6.2, Algorithm 2).
//
// An uncertain graph's possible worlds are divided into disjoint groups by
// restricting the label alternatives of selected vertices. Each group gets
// its own CSS lower bound (fewer labels => smaller bipartite matching =>
// tighter bound) and its own Markov upper bound; groups whose lower bound
// exceeds tau are discarded entirely, and the remaining upper bounds are
// summed for probabilistic pruning.
//
// The partitioner starts from one group and repeatedly splits the group
// with the weakest bound. Vertex selection follows the paper's two
// principles (highest uncertain-label mass; most labels); the candidate
// splits are scored with the cost model
//     min sum { ub_SimP(q, PWG_i) : lb_gedCSS(q, PWG_i) <= tau }
// and the cheapest split wins.

#ifndef SIMJ_CORE_GROUPS_H_
#define SIMJ_CORE_GROUPS_H_

#include <vector>

#include "ged/lower_bounds.h"
#include "graph/label.h"
#include "graph/labeled_graph.h"
#include "graph/uncertain_graph.h"

namespace simj::core {

// Which of the Section 6.2 vertex-selection principles drives a split.
enum class SplitHeuristic {
  kCostModel,  // propose both candidates, keep the cost-model winner
  kMassOnly,   // always split the vertex with the largest uncertain mass
  kCountOnly,  // always split the vertex with the most candidate labels
};

struct GroupingOptions {
  // Target number of groups (GN in the paper's Fig. 13). 1 disables the
  // optimization.
  int group_count = 1;
  SplitHeuristic heuristic = SplitHeuristic::kCostModel;
};

// One possible-world group plus its cached bounds against a query.
struct ScoredGroup {
  graph::UncertainGraph graph;
  ged::GraphSummary summary;  // of `graph`
  int lower_bound = 0;      // CSS bound, valid for all worlds in the group
  double upper_bound = 0.0; // Markov bound on the group's SimP contribution
  double mass = 0.0;
};

struct GroupingResult {
  // Groups that survived lb <= tau, ready for verification.
  std::vector<ScoredGroup> live_groups;
  // Sum of upper bounds over live groups: a valid upper bound on
  // SimP_tau(q, g) used for probabilistic pruning.
  double simp_upper_bound = 0.0;
  // Mass still in play (sum of live group masses).
  double live_mass = 0.0;
};

// Partitions g into at most options.group_count groups against query q and
// scores them. With group_count == 1 this reduces to the plain Thm. 3 +
// Thm. 4 bounds.
GroupingResult PartitionPossibleWorlds(const graph::LabeledGraph& q,
                                       const graph::UncertainGraph& g,
                                       int tau,
                                       const graph::LabelDictionary& dict,
                                       const GroupingOptions& options);

// Same, reading the CSS quantities from summaries of q and g built by the
// caller (ged::Summarize, once per join); a group's summary is derived from
// its parent's with ged::SummarizeGroup.
GroupingResult PartitionPossibleWorlds(const graph::LabeledGraph& q,
                                       const ged::GraphSummary& q_summary,
                                       const graph::UncertainGraph& g,
                                       const ged::GraphSummary& g_summary,
                                       int tau,
                                       const graph::LabelDictionary& dict,
                                       const GroupingOptions& options);

}  // namespace simj::core

#endif  // SIMJ_CORE_GROUPS_H_
