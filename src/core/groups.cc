#include "core/groups.h"

#include <algorithm>
#include <limits>
#include <numeric>

#include "core/similarity.h"
#include "ged/lower_bounds.h"
#include "util/check.h"
#include "util/trace.h"

namespace simj::core {

namespace {

using graph::LabeledGraph;
using graph::LabelDictionary;
using graph::UncertainGraph;

ScoredGroup Score(const LabeledGraph& q, const ged::GraphSummary& q_summary,
                  UncertainGraph group, ged::GraphSummary summary, int tau,
                  int structural_constant, const LabelDictionary& dict) {
  ScoredGroup scored;
  scored.mass = group.TotalMass();
  scored.lower_bound =
      std::max(0, structural_constant -
                      ged::MaxCommonVertexLabels(q_summary, summary));
  scored.upper_bound =
      scored.lower_bound > tau
          ? 0.0
          : UpperBoundSimPWithConstant(q, group, tau, structural_constant,
                                       dict);
  scored.graph = std::move(group);
  scored.summary = std::move(summary);
  return scored;
}

// One child of a split: `parent` with `vertex` restricted to `keep`.
ScoredGroup ScoreChild(const LabeledGraph& q,
                       const ged::GraphSummary& q_summary,
                       const ScoredGroup& parent, int vertex,
                       const std::vector<int>& keep, int tau,
                       int structural_constant, const LabelDictionary& dict) {
  UncertainGraph child = parent.graph.RestrictVertex(vertex, keep);
  ged::GraphSummary summary = ged::SummarizeGroup(parent.summary, child, dict);
  return Score(q, q_summary, std::move(child), std::move(summary), tau,
               structural_constant, dict);
}

// Candidate vertex-split: restrict vertex v to `first` in one child and to
// the complementary indices in the other.
struct SplitCandidate {
  int vertex = -1;
  std::vector<int> first;
  std::vector<int> second;
};

// The paper's two selection principles produce up to two candidate
// vertices; each is split by separating the highest-probability label from
// the rest (driving one child toward certainty).
std::vector<SplitCandidate> ProposeSplits(const UncertainGraph& g,
                                          SplitHeuristic heuristic) {
  int by_mass = -1;
  double best_mass = -1.0;
  int by_count = -1;
  int best_count = 1;
  for (int v = 0; v < g.num_vertices(); ++v) {
    const auto& alts = g.alternatives(v);
    if (alts.size() < 2) continue;
    double mass = 0.0;
    for (const auto& alt : alts) mass += alt.prob;
    if (mass > best_mass) {
      best_mass = mass;
      by_mass = v;
    }
    if (static_cast<int>(alts.size()) > best_count) {
      best_count = static_cast<int>(alts.size());
      by_count = v;
    }
  }
  std::vector<int> picks;
  switch (heuristic) {
    case SplitHeuristic::kCostModel:
      picks = {by_mass, by_count};
      break;
    case SplitHeuristic::kMassOnly:
      picks = {by_mass};
      break;
    case SplitHeuristic::kCountOnly:
      picks = {by_count};
      break;
  }
  std::vector<SplitCandidate> candidates;
  for (int v : picks) {
    if (v < 0) continue;
    if (!candidates.empty() && candidates.front().vertex == v) continue;
    const auto& alts = g.alternatives(v);
    int top = 0;
    for (int i = 1; i < static_cast<int>(alts.size()); ++i) {
      if (alts[i].prob > alts[top].prob) top = i;
    }
    SplitCandidate candidate;
    candidate.vertex = v;
    candidate.first = {top};
    for (int i = 0; i < static_cast<int>(alts.size()); ++i) {
      if (i != top) candidate.second.push_back(i);
    }
    candidates.push_back(std::move(candidate));
  }
  return candidates;
}

double CostOf(const std::vector<ScoredGroup>& groups, int tau) {
  double total = 0.0;
  for (const ScoredGroup& group : groups) {
    if (group.lower_bound <= tau) total += group.upper_bound;
  }
  return total;
}

}  // namespace

GroupingResult PartitionPossibleWorlds(const LabeledGraph& q,
                                       const UncertainGraph& g, int tau,
                                       const LabelDictionary& dict,
                                       const GroupingOptions& options) {
  return PartitionPossibleWorlds(q, ged::Summarize(q, dict), g,
                                 ged::Summarize(g, dict), tau, dict, options);
}

GroupingResult PartitionPossibleWorlds(const LabeledGraph& q,
                                       const ged::GraphSummary& q_summary,
                                       const UncertainGraph& g,
                                       const ged::GraphSummary& g_summary,
                                       int tau, const LabelDictionary& dict,
                                       const GroupingOptions& options) {
  SIMJ_CHECK_GE(options.group_count, 1);
  trace::ScopedSpan span("group_partition", "prune");
  const int structural_constant =
      ged::CssStructuralConstant(q_summary, g_summary);

  std::vector<ScoredGroup> groups;
  groups.push_back(
      Score(q, q_summary, g, g_summary, tau, structural_constant, dict));

  while (static_cast<int>(groups.size()) < options.group_count) {
    // Split the live group with the weakest pruning power: smallest lower
    // bound, ties broken by largest upper bound (Section 6.2).
    int target = -1;
    for (int i = 0; i < static_cast<int>(groups.size()); ++i) {
      const ScoredGroup& group = groups[i];
      if (group.lower_bound > tau) continue;  // already pruned; no benefit
      if (ProposeSplits(group.graph, options.heuristic).empty()) {
        continue;  // fully certain
      }
      if (target == -1 ||
          group.lower_bound < groups[target].lower_bound ||
          (group.lower_bound == groups[target].lower_bound &&
           group.upper_bound > groups[target].upper_bound)) {
        target = i;
      }
    }
    if (target == -1) break;  // nothing splittable

    std::vector<SplitCandidate> candidates =
        ProposeSplits(groups[target].graph, options.heuristic);
    double best_cost = std::numeric_limits<double>::infinity();
    std::pair<ScoredGroup, ScoredGroup> best_children;
    bool have_best = false;
    for (const SplitCandidate& candidate : candidates) {
      ScoredGroup first =
          ScoreChild(q, q_summary, groups[target], candidate.vertex,
                     candidate.first, tau, structural_constant, dict);
      ScoredGroup second =
          ScoreChild(q, q_summary, groups[target], candidate.vertex,
                     candidate.second, tau, structural_constant, dict);
      double cost = 0.0;
      if (first.lower_bound <= tau) cost += first.upper_bound;
      if (second.lower_bound <= tau) cost += second.upper_bound;
      if (!have_best || cost < best_cost) {
        best_cost = cost;
        best_children = {std::move(first), std::move(second)};
        have_best = true;
      }
    }
    SIMJ_CHECK(have_best);
    groups[target] = std::move(best_children.first);
    groups.push_back(std::move(best_children.second));
  }

  GroupingResult result;
  result.simp_upper_bound = CostOf(groups, tau);
  for (ScoredGroup& group : groups) {
    if (group.lower_bound > tau) continue;
    result.live_mass += group.mass;
    result.live_groups.push_back(std::move(group));
  }
  return result;
}

}  // namespace simj::core
