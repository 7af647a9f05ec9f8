// Lower bounds on graph edit distance.
//
// For certain graphs:
//   - CountLowerBound: vertex/edge count difference (Zeng et al. [29]).
//   - LabelMultisetLowerBound: label multiset difference (Zhao et al. [31]).
//   - CssLowerBound: the paper's common-structural-subgraph bound (Thm. 1),
//     provably at least as tight as the other two global filters (Thm. 2).
//
// For uncertain graphs:
//   - CssLowerBoundUncertain (Thm. 3): one bound valid for *every* possible
//     world, built from the maximum matching in the vertex-label bipartite
//     graph (Def. 10). This is the structural pruning rule of the join: if
//     the bound exceeds tau, SimP_tau(q, g) = 0 and the pair is pruned.

#ifndef SIMJ_GED_LOWER_BOUNDS_H_
#define SIMJ_GED_LOWER_BOUNDS_H_

#include <limits>
#include <utility>
#include <vector>

#include "graph/label.h"
#include "graph/labeled_graph.h"
#include "graph/uncertain_graph.h"

namespace simj::ged {

// | |V(a)| - |V(b)| | + | |E(a)| - |E(b)| |.
[[nodiscard]] int CountLowerBound(const graph::LabeledGraph& a,
                    const graph::LabeledGraph& b);

// max(|V(a)|,|V(b)|) - lambda_V + max(|E(a)|,|E(b)|) - lambda_E, where
// lambda are the wildcard-aware common label counts.
[[nodiscard]] int LabelMultisetLowerBound(const graph::LabeledGraph& a,
                            const graph::LabeledGraph& b,
                            const graph::LabelDictionary& dict);

// The c-star bound of Zeng et al. [29] for certain graphs: minimum-cost
// assignment between the graphs' stars (a vertex with its incident edge
// labels and neighbor labels), normalized by max(4, max_degree + 1). An
// n-gram-style filter, provided for the related-work ablations.
[[nodiscard]] int CStarLowerBound(const graph::LabeledGraph& a,
                    const graph::LabeledGraph& b,
                    const graph::LabelDictionary& dict);

// The CSS bound for certain graphs (Thm. 1):
//   |V(big)| + |E(big)| - lambda_E + ceil(dif/2) - lambda_V
// where `big` is the graph with more vertices (when the vertex counts tie,
// both orientations are valid and the larger bound is returned).
[[nodiscard]] int CssLowerBound(const graph::LabeledGraph& a, const graph::LabeledGraph& b,
                  const graph::LabelDictionary& dict);

// What the CSS filter needs to know about one graph, built once per graph
// by Summarize so that no pair evaluation re-derives it (DESIGN.md §5):
// the counts, the sorted degrees, the edge-label multiset as sorted runs,
// and every vertex's label alternatives in one flat array sorted by label.
// Graphs are mutable and shared read-only across join workers, so summaries
// are explicit values built at join setup, not caches inside the graph.
// The arrays are reserved to their final size up front, since a join keeps
// one summary per input graph.
struct GraphSummary {
  int num_vertices = 0;
  int num_edges = 0;
  // Total degrees, non-increasing.
  std::vector<int> sorted_degrees;
  // Non-wildcard edge labels, ascending by label, one run per label.
  std::vector<graph::LabelRun> edge_labels;
  int wildcard_edges = 0;
  // The number of vertices set in vertex_wildcard.
  int wildcard_vertices = 0;
  // Whether some alternative of vertex v is a wildcard (v then matches
  // every label).
  std::vector<char> vertex_wildcard;
  // Every non-wildcard alternative as a (label, vertex) pair, sorted: the
  // index that pairs up equal labels of two graphs in one merge. A certain
  // graph has one entry per vertex whose label is not a wildcard.
  std::vector<std::pair<graph::LabelId, int>> labeled_vertices;
};

[[nodiscard]] GraphSummary Summarize(const graph::LabeledGraph& g,
                                     const graph::LabelDictionary& dict);
[[nodiscard]] GraphSummary Summarize(const graph::UncertainGraph& g,
                                     const graph::LabelDictionary& dict);

// The summary of `group`, a possible-world group (a restriction, Section
// 6.2) of the graph that `whole` summarizes: the structure part is copied
// from `whole`, only the vertex labels are read from `group`.
[[nodiscard]] GraphSummary SummarizeGroup(const GraphSummary& whole,
                                          const graph::UncertainGraph& group,
                                          const graph::LabelDictionary& dict);

// CountLowerBound on summaries. Every possible world of an uncertain graph
// has its counts, and Thm. 2 puts the bound at or below CssLowerBound and
// CssLowerBoundUncertain, so the join uses it as a free first structural
// filter.
[[nodiscard]] int CountLowerBound(const GraphSummary& a, const GraphSummary& b);

// The filter kernels below read only summaries. Each overload taking graphs
// is a thin wrapper that summarizes both graphs and calls the kernel.

// Number of common vertex labels lambda_V(q, g) maximized over all possible
// worlds of g: maximum matching of the vertex-label bipartite graph
// (Def. 10), on a per-thread BipartiteGraph that is reused across calls.
// Exposed for tests and for the probabilistic bound.
[[nodiscard]] int MaxCommonVertexLabels(const GraphSummary& q,
                                        const GraphSummary& g);
[[nodiscard]] int MaxCommonVertexLabels(const graph::LabeledGraph& q,
                          const graph::UncertainGraph& g,
                          const graph::LabelDictionary& dict);

// The label-independent part of the uncertain CSS bound:
//   C(q, g) = |V| + |E| - lambda_E + ceil(dif/2)
// with |V| = max vertex count and |E| the edge count of the graph with more
// vertices (Thm. 3/4). The uncertain CSS bound is C(q, g) - lambda_V(q, g).
// C is the same in every possible world of g.
[[nodiscard]] int CssStructuralConstant(const GraphSummary& q,
                                        const GraphSummary& g);
[[nodiscard]] int CssStructuralConstant(const graph::LabeledGraph& q,
                          const graph::UncertainGraph& g,
                          const graph::LabelDictionary& dict);

// The CSS bound for an uncertain graph (Thm. 3): valid lower bound on
// ged(q, pw(g)) for every possible world pw(g).
[[nodiscard]] int CssLowerBoundUncertain(const GraphSummary& q,
                                         const GraphSummary& g);
[[nodiscard]] int CssLowerBoundUncertain(const graph::LabeledGraph& q,
                           const graph::UncertainGraph& g,
                           const graph::LabelDictionary& dict);

// Registry counter of the join's pairs that took the CSS filter
// (core::JoinStats::css_bound_calls, published by core::PublishJoinCounters
// alone).
inline constexpr char kCssBoundCallsMetric[] =
    "simj_bound_css_uncertain_total";

// The uncertain CSS bound as the structural filter's decision for
// threshold `tau`. lambda_V <= the number of q vertices that can link to
// any g vertex <= min(|V(q)|, |V(g)|), so the cascade tries, in order:
//   1. C(q, g) - min(|V(q)|, |V(g)|);
//   2. C(q, g) - the q vertices that can link: all of them when g has a
//      wildcard vertex (then no tighter than step 1, so skipped), else q's
//      wildcard vertices plus its labeled vertices whose label occurs in g;
//   3. the exact C(q, g) - MaxCommonVertexLabels(q, g).
// `lower_bound` never exceeds CssLowerBoundUncertain(q, g), exceeds tau
// exactly when it does, and equals it whenever it is at most tau; with
// tau = kExactCss it always equals it.
struct CssPrune {
  int lower_bound = 0;
  int structural_constant = 0;  // C(q, g), for a WorldBound.
};
inline constexpr int kExactCss = std::numeric_limits<int>::max();
[[nodiscard]] CssPrune CssPruneBound(const GraphSummary& q,
                                     const GraphSummary& g, int tau);

// The certain CSS bound (Thm. 1) of a certain graph q against possible
// worlds of one uncertain graph g. The worlds share g's structure, so the
// bound of a world is max(0, C(q, g) - lambda_V(q, world)): C is fixed at
// construction and a world only recounts its vertex labels, in scratch
// buffers reused from world to world.
class WorldBound {
 public:
  // `q` is the certain graph's summary; `structural_constant` is C(q, g).
  WorldBound(const GraphSummary& q, int structural_constant);

  // Equals CssLowerBound(q, g.Materialize(choice), dict) for any g with the
  // structure C was computed for, in particular every group of it.
  [[nodiscard]] int Bound(const graph::UncertainGraph& g,
                          const std::vector<int>& choice,
                          const graph::LabelDictionary& dict);

 private:
  int structural_constant_;
  std::vector<graph::LabelRun> q_runs_;
  int q_wildcards_ = 0;
  std::vector<graph::LabelId> world_labels_;
  std::vector<graph::LabelRun> world_runs_;
};

}  // namespace simj::ged

#endif  // SIMJ_GED_LOWER_BOUNDS_H_
