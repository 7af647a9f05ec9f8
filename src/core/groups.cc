#include "core/groups.h"

#include <algorithm>
#include <limits>

#include "core/similarity.h"
#include "ged/lower_bounds.h"
#include "util/check.h"
#include "util/trace.h"

namespace simj::core {

namespace {

using graph::LabelAlternative;
using graph::LabeledGraph;
using graph::LabelDictionary;
using graph::UncertainGraph;

// A group of the partition: its score, and the per-vertex terms its mass
// and Markov bound were summed from, so that scoring a split recomputes
// only the vertex it restricts.
struct Node {
  ScoredGroup scored;
  std::vector<MarkovVertexTerms> terms;  // of each vertex of scored.graph
};

// Sets the mass, CSS bound and Markov bound of *scored from per-vertex
// terms, each summed in vertex order as UncertainGraph::TotalMass and
// UpperBoundSimPWithConstant sum them, so the doubles are bit-identical to
// theirs. `terms[split]` is replaced by `split_terms` (split = -1 replaces
// nothing); `summary` is the group's summary, of which only the vertex
// part is read.
void ScoreTerms(const ged::GraphSummary& q_summary,
                const ged::GraphSummary& summary,
                const std::vector<MarkovVertexTerms>& terms, int split,
                const MarkovVertexTerms& split_terms, int tau,
                int structural_constant, ScoredGroup* scored) {
  scored->mass = 1.0;
  double match_ratio_sum = 0.0;
  for (int v = 0; v < static_cast<int>(terms.size()); ++v) {
    const MarkovVertexTerms& t = v == split ? split_terms : terms[v];
    SIMJ_DCHECK_GT(t.mass, 0.0);
    scored->mass *= t.mass;
    match_ratio_sum += t.match_ratio;
  }
  scored->lower_bound =
      std::max(0, structural_constant -
                      ged::MaxCommonVertexLabels(q_summary, summary));
  scored->upper_bound =
      scored->lower_bound > tau
          ? 0.0
          : MarkovBound(scored->mass, match_ratio_sum, tau,
                        structural_constant);
}

// The vertex part of the summary of `parent`'s group with vertex v
// restricted to `kept`, written into *out (whose buffers are reused):
// parent's (label, vertex) index with v's dropped labels filtered out, in
// the order it already has. Equals ged::SummarizeGroup's vertex part.
void RestrictSummary(const ged::GraphSummary& parent, int v,
                     const std::vector<LabelAlternative>& kept,
                     const LabelDictionary& dict,
                     std::vector<graph::LabelId>* kept_labels,
                     ged::GraphSummary* out) {
  char wildcard = 0;
  kept_labels->clear();
  for (const LabelAlternative& alt : kept) {
    if (dict.IsWildcard(alt.label)) {
      wildcard = 1;
    } else {
      kept_labels->push_back(alt.label);
    }
  }
  out->num_vertices = parent.num_vertices;
  out->vertex_wildcard = parent.vertex_wildcard;
  out->vertex_wildcard[v] = wildcard;
  out->wildcard_vertices =
      parent.wildcard_vertices - parent.vertex_wildcard[v] + wildcard;
  out->labeled_vertices.clear();
  for (const auto& entry : parent.labeled_vertices) {
    if (entry.second == v) {
      // One kept alternative accounts for one entry, so a label that a
      // vertex repeats keeps as many entries as it has kept copies.
      auto it = std::find(kept_labels->begin(), kept_labels->end(),
                          entry.first);
      if (it == kept_labels->end()) continue;
      *it = kept_labels->back();
      kept_labels->pop_back();
    }
    out->labeled_vertices.push_back(entry);
  }
}

// Candidate vertex-split: one child keeps only alternative `top` of
// `vertex`, the other every other alternative, in order.
struct SplitCandidate {
  int vertex = -1;
  int top = -1;
};

// At most two candidates, no allocation.
struct SplitCandidates {
  SplitCandidate items[2];
  int size = 0;
};

// True when some vertex of g has two or more alternatives, which is when
// ProposeSplits has a candidate under every heuristic.
bool Splittable(const UncertainGraph& g) {
  for (int v = 0; v < g.num_vertices(); ++v) {
    if (g.alternatives(v).size() >= 2) return true;
  }
  return false;
}

// The paper's two selection principles produce up to two candidate
// vertices; each is split by separating the highest-probability label from
// the rest (driving one child toward certainty).
SplitCandidates ProposeSplits(const UncertainGraph& g,
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
  int picks[2] = {-1, -1};
  switch (heuristic) {
    case SplitHeuristic::kCostModel:
      picks[0] = by_mass;
      picks[1] = by_count;
      break;
    case SplitHeuristic::kMassOnly:
      picks[0] = by_mass;
      break;
    case SplitHeuristic::kCountOnly:
      picks[0] = by_count;
      break;
  }
  SplitCandidates candidates;
  for (int v : picks) {
    if (v < 0) continue;
    if (candidates.size > 0 && candidates.items[0].vertex == v) continue;
    const auto& alts = g.alternatives(v);
    int top = 0;
    for (int i = 1; i < static_cast<int>(alts.size()); ++i) {
      if (alts[i].prob > alts[top].prob) top = i;
    }
    candidates.items[candidates.size++] = SplitCandidate{v, top};
  }
  return candidates;
}

// Scores the children of candidate splits without building them, and
// builds the winner's. The buffers are reused from split to split.
class Splitter {
 public:
  Splitter(const LabeledGraph& q, const ged::GraphSummary& q_summary, int tau,
           int structural_constant, const LabelDictionary& dict)
      : q_(q),
        q_summary_(q_summary),
        tau_(tau),
        structural_constant_(structural_constant),
        dict_(dict) {}

  // One child of `candidate` on `parent`: its mass and bounds (no graph
  // and no summary), and the terms of the split vertex.
  struct Child {
    ScoredGroup scored;
    MarkovVertexTerms terms;
  };

  Child ScoreChild(const Node& parent, const SplitCandidate& candidate,
                   bool first) {
    Keep(parent.scored.graph, candidate, first);
    Child child;
    child.terms = MarkovTermsOf(q_, kept_, dict_);
    RestrictSummary(parent.scored.summary, candidate.vertex, kept_, dict_,
                    &kept_labels_, &summary_);
    ScoreTerms(q_summary_, summary_, parent.terms, candidate.vertex,
               child.terms, tau_, structural_constant_, &child.scored);
    return child;
  }

  // Builds the scored child as a group: `parent` restricted, with its
  // summary and per-vertex terms.
  Node Materialize(const Node& parent, const SplitCandidate& candidate,
                   bool first, Child child) {
    const UncertainGraph& g = parent.scored.graph;
    Keep(g, candidate, first);
    Node node;
    node.scored = std::move(child.scored);
    node.scored.graph = g.RestrictVertex(candidate.vertex, keep_);
    const ged::GraphSummary& whole = parent.scored.summary;
    ged::GraphSummary& summary = node.scored.summary;
    summary.num_edges = whole.num_edges;
    summary.sorted_degrees = whole.sorted_degrees;
    summary.edge_labels = whole.edge_labels;
    summary.wildcard_edges = whole.wildcard_edges;
    RestrictSummary(whole, candidate.vertex, kept_, dict_, &kept_labels_,
                    &summary);
    node.terms = parent.terms;
    node.terms[candidate.vertex] = child.terms;
    return node;
  }

 private:
  // The alternatives of the split vertex that a child keeps, as indexes
  // (keep_) and values (kept_): the first child keeps {top}.
  void Keep(const UncertainGraph& g, const SplitCandidate& candidate,
            bool first) {
    const std::vector<LabelAlternative>& alts =
        g.alternatives(candidate.vertex);
    keep_.clear();
    kept_.clear();
    for (int i = 0; i < static_cast<int>(alts.size()); ++i) {
      if ((i == candidate.top) != first) continue;
      keep_.push_back(i);
      kept_.push_back(alts[i]);
    }
  }

  const LabeledGraph& q_;
  const ged::GraphSummary& q_summary_;
  const int tau_;
  const int structural_constant_;
  const LabelDictionary& dict_;
  std::vector<LabelAlternative> kept_;
  std::vector<int> keep_;
  std::vector<graph::LabelId> kept_labels_;
  ged::GraphSummary summary_;  // vertex part of the child being scored
};

double CostOf(const std::vector<Node>& groups, int tau) {
  double total = 0.0;
  for (const Node& group : groups) {
    if (group.scored.lower_bound <= tau) total += group.scored.upper_bound;
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

  std::vector<Node> groups;
  {
    Node root;
    root.scored.graph = g;
    root.scored.summary = g_summary;
    root.terms.reserve(static_cast<size_t>(g.num_vertices()));
    for (int v = 0; v < g.num_vertices(); ++v) {
      root.terms.push_back(MarkovTermsOf(q, g.alternatives(v), dict));
    }
    ScoreTerms(q_summary, g_summary, root.terms, /*split=*/-1,
               MarkovVertexTerms(), tau, structural_constant, &root.scored);
    groups.push_back(std::move(root));
  }

  Splitter splitter(q, q_summary, tau, structural_constant, dict);
  while (static_cast<int>(groups.size()) < options.group_count) {
    // Split the live group with the weakest pruning power: smallest lower
    // bound, ties broken by largest upper bound (Section 6.2).
    int target = -1;
    for (int i = 0; i < static_cast<int>(groups.size()); ++i) {
      const ScoredGroup& group = groups[i].scored;
      if (group.lower_bound > tau) continue;  // already pruned; no benefit
      if (!Splittable(group.graph)) continue;  // fully certain
      const ScoredGroup* best = target == -1 ? nullptr : &groups[target].scored;
      if (best == nullptr || group.lower_bound < best->lower_bound ||
          (group.lower_bound == best->lower_bound &&
           group.upper_bound > best->upper_bound)) {
        target = i;
      }
    }
    if (target == -1) break;  // nothing splittable

    // Score every candidate's children from the parent's cached terms;
    // only the cheapest split is built.
    const Node& parent = groups[target];
    const SplitCandidates candidates =
        ProposeSplits(parent.scored.graph, options.heuristic);
    SIMJ_CHECK_GT(candidates.size, 0);
    double best_cost = std::numeric_limits<double>::infinity();
    int best = -1;
    Splitter::Child best_first;
    Splitter::Child best_second;
    for (int c = 0; c < candidates.size; ++c) {
      Splitter::Child first =
          splitter.ScoreChild(parent, candidates.items[c], /*first=*/true);
      Splitter::Child second =
          splitter.ScoreChild(parent, candidates.items[c], /*first=*/false);
      double cost = 0.0;
      if (first.scored.lower_bound <= tau) cost += first.scored.upper_bound;
      if (second.scored.lower_bound <= tau) cost += second.scored.upper_bound;
      if (best == -1 || cost < best_cost) {
        best_cost = cost;
        best = c;
        best_first = std::move(first);
        best_second = std::move(second);
      }
    }
    const SplitCandidate& winner = candidates.items[best];
    Node first = splitter.Materialize(parent, winner, /*first=*/true,
                                      std::move(best_first));
    Node second = splitter.Materialize(parent, winner, /*first=*/false,
                                       std::move(best_second));
    groups[target] = std::move(first);
    groups.push_back(std::move(second));
  }

  GroupingResult result;
  result.simp_upper_bound = CostOf(groups, tau);
  for (Node& group : groups) {
    if (group.scored.lower_bound > tau) continue;
    result.live_mass += group.scored.mass;
    result.live_groups.push_back(std::move(group.scored));
  }
  return result;
}

}  // namespace simj::core
