#include "ged/lower_bounds.h"

#include <algorithm>
#include <cstdlib>

#include <vector>

#include "matching/bipartite.h"
#include "matching/hungarian.h"
#include "util/check.h"

namespace simj::ged {

namespace {

using graph::LabelCounts;
using graph::LabeledGraph;
using graph::LabelDictionary;
using graph::UncertainGraph;

// ceil(dif / 2): DelEdge is an integer and DelEdge >= dif/2 (Lemma 4), so
// rounding up keeps the bound valid and slightly tightens it.
int HalfRoundedUp(int dif) { return (dif + 1) / 2; }

// One orientation of Thm. 1 with `small` having at most as many vertices
// as `big`.
int CssOriented(const LabeledGraph& small, const LabeledGraph& big,
                const LabelDictionary& dict) {
  int lambda_v = MatchableLabelCount(small.VertexLabelCounts(),
                                     big.VertexLabelCounts(), dict);
  int lambda_e = MatchableLabelCount(small.EdgeLabelCounts(),
                                     big.EdgeLabelCounts(), dict);
  int dif = graph::DegreeDistanceFromSorted(small.SortedDegrees(),
                                            big.SortedDegrees());
  return std::max(0, big.num_vertices() + big.num_edges() - lambda_e +
                         HalfRoundedUp(dif) - lambda_v);
}

}  // namespace

int CountLowerBound(const LabeledGraph& a, const LabeledGraph& b) {
  return std::abs(a.num_vertices() - b.num_vertices()) +
         std::abs(a.num_edges() - b.num_edges());
}

int CountLowerBound(const GraphSummary& a, const GraphSummary& b) {
  return std::abs(a.num_vertices - b.num_vertices) +
         std::abs(a.num_edges - b.num_edges);
}

int LabelMultisetLowerBound(const LabeledGraph& a, const LabeledGraph& b,
                            const LabelDictionary& dict) {
  int lambda_v =
      MatchableLabelCount(a.VertexLabelCounts(), b.VertexLabelCounts(), dict);
  int lambda_e =
      MatchableLabelCount(a.EdgeLabelCounts(), b.EdgeLabelCounts(), dict);
  return std::max(a.num_vertices(), b.num_vertices()) - lambda_v +
         std::max(a.num_edges(), b.num_edges()) - lambda_e;
}

namespace {

// Labeled star of a vertex: its label plus the multisets of incident edge
// labels and neighbor labels.
struct Star {
  graph::LabelId center = graph::kInvalidLabel;
  LabelCounts edge_labels;
  LabelCounts leaf_labels;
  int degree = 0;
};

std::vector<Star> BuildStars(const LabeledGraph& g,
                             const LabelDictionary& /*dict*/) {
  std::vector<Star> stars(g.num_vertices());
  for (int v = 0; v < g.num_vertices(); ++v) {
    stars[v].center = g.vertex_label(v);
    stars[v].degree = g.degree(v);
  }
  for (const graph::Edge& e : g.edges()) {
    ++stars[e.src].edge_labels[e.label];
    ++stars[e.src].leaf_labels[g.vertex_label(e.dst)];
    ++stars[e.dst].edge_labels[e.label];
    ++stars[e.dst].leaf_labels[g.vertex_label(e.src)];
  }
  return stars;
}

// Star edit distance lambda(s1, s2) in the spirit of [29]: center
// substitution + edge label multiset difference + leaf label multiset
// difference. (Our wildcard-aware matchable count can only lower the
// distance relative to the original definition, which keeps the normalized
// bound valid.)
int StarEditDistance(const Star& s1, const Star& s2,
                     const LabelDictionary& dict) {
  int cost = dict.Matches(s1.center, s2.center) ? 0 : 1;
  cost += std::max(s1.degree, s2.degree) -
          MatchableLabelCount(s1.edge_labels, s2.edge_labels, dict);
  cost += std::max(s1.degree, s2.degree) -
          MatchableLabelCount(s1.leaf_labels, s2.leaf_labels, dict);
  return cost;
}

}  // namespace

int CStarLowerBound(const LabeledGraph& a, const LabeledGraph& b,
                    const LabelDictionary& dict) {
  std::vector<Star> stars_a = BuildStars(a, dict);
  std::vector<Star> stars_b = BuildStars(b, dict);
  size_t n = std::max(stars_a.size(), stars_b.size());
  if (n == 0) return 0;
  std::vector<double> cost(n * n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      if (i < stars_a.size() && j < stars_b.size()) {
        cost[i * n + j] = StarEditDistance(stars_a[i], stars_b[j], dict);
      } else if (i < stars_a.size()) {
        cost[i * n + j] = 1.0 + 2.0 * stars_a[i].degree;
      } else if (j < stars_b.size()) {
        cost[i * n + j] = 1.0 + 2.0 * stars_b[j].degree;
      }
    }
  }
  double mu = matching::MinCostAssignment(cost, static_cast<int>(n),
                                          static_cast<int>(n));
  int max_degree = 0;
  for (const Star& s : stars_a) max_degree = std::max(max_degree, s.degree);
  for (const Star& s : stars_b) max_degree = std::max(max_degree, s.degree);
  int delta = std::max(4, max_degree + 1);
  return static_cast<int>(mu) / delta;
}

int CssLowerBound(const LabeledGraph& a, const LabeledGraph& b,
                  const LabelDictionary& dict) {
  if (a.num_vertices() < b.num_vertices()) return CssOriented(a, b, dict);
  if (b.num_vertices() < a.num_vertices()) return CssOriented(b, a, dict);
  // Tie: both orientations are valid; keep the tighter one.
  return std::max(CssOriented(a, b, dict), CssOriented(b, a, dict));
}

namespace {

// Sorts `labels` and folds equal labels into runs, sized exactly.
void FoldIntoRuns(std::vector<graph::LabelId>* labels,
                  std::vector<graph::LabelRun>* runs) {
  std::sort(labels->begin(), labels->end());
  size_t distinct = 0;
  for (size_t i = 0; i < labels->size(); ++i) {
    if (i == 0 || (*labels)[i] != (*labels)[i - 1]) ++distinct;
  }
  runs->clear();
  runs->reserve(distinct);
  for (graph::LabelId label : *labels) {
    if (!runs->empty() && runs->back().label == label) {
      ++runs->back().count;
    } else {
      runs->push_back(graph::LabelRun{label, 1});
    }
  }
}

// Counts, degrees and edge labels: everything but the vertex labels.
void SummarizeStructure(const LabeledGraph& structure,
                        const LabelDictionary& dict, GraphSummary* s) {
  s->num_vertices = structure.num_vertices();
  s->num_edges = structure.num_edges();
  s->sorted_degrees = structure.SortedDegrees();
  std::vector<graph::LabelId> labels;
  labels.reserve(structure.edges().size());
  for (const graph::Edge& e : structure.edges()) {
    if (dict.IsWildcard(e.label)) {
      ++s->wildcard_edges;
    } else {
      labels.push_back(e.label);
    }
  }
  FoldIntoRuns(&labels, &s->edge_labels);
}

// The vertex part of an uncertain graph's summary.
void SummarizeVertices(const UncertainGraph& g, const LabelDictionary& dict,
                       GraphSummary* s) {
  size_t alternatives = 0;
  for (int v = 0; v < g.num_vertices(); ++v) {
    alternatives += g.alternatives(v).size();
  }
  s->vertex_wildcard.assign(static_cast<size_t>(g.num_vertices()), 0);
  s->labeled_vertices.reserve(alternatives);
  for (int v = 0; v < g.num_vertices(); ++v) {
    for (const graph::LabelAlternative& alt : g.alternatives(v)) {
      if (dict.IsWildcard(alt.label)) {
        s->vertex_wildcard[v] = 1;
      } else {
        s->labeled_vertices.emplace_back(alt.label, v);
      }
    }
    s->wildcard_vertices += s->vertex_wildcard[v];
  }
  std::sort(s->labeled_vertices.begin(), s->labeled_vertices.end());
}

}  // namespace

GraphSummary Summarize(const LabeledGraph& g, const LabelDictionary& dict) {
  GraphSummary s;
  SummarizeStructure(g, dict, &s);
  s.vertex_wildcard.assign(static_cast<size_t>(g.num_vertices()), 0);
  s.labeled_vertices.reserve(static_cast<size_t>(g.num_vertices()));
  for (int v = 0; v < g.num_vertices(); ++v) {
    if (dict.IsWildcard(g.vertex_label(v))) {
      s.vertex_wildcard[v] = 1;
      ++s.wildcard_vertices;
    } else {
      s.labeled_vertices.emplace_back(g.vertex_label(v), v);
    }
  }
  std::sort(s.labeled_vertices.begin(), s.labeled_vertices.end());
  return s;
}

GraphSummary Summarize(const UncertainGraph& g, const LabelDictionary& dict) {
  GraphSummary s;
  SummarizeStructure(g.structure(), dict, &s);
  SummarizeVertices(g, dict, &s);
  return s;
}

GraphSummary SummarizeGroup(const GraphSummary& whole,
                            const UncertainGraph& group,
                            const LabelDictionary& dict) {
  SIMJ_CHECK_EQ(whole.num_vertices, group.num_vertices());
  GraphSummary s;
  s.num_vertices = whole.num_vertices;
  s.num_edges = whole.num_edges;
  s.sorted_degrees = whole.sorted_degrees;
  s.edge_labels = whole.edge_labels;
  s.wildcard_edges = whole.wildcard_edges;
  SummarizeVertices(group, dict, &s);
  return s;
}

int MaxCommonVertexLabels(const GraphSummary& q, const GraphSummary& g) {
  // One graph per thread, reused: a warm call allocates nothing.
  thread_local matching::BipartiteGraph bipartite;
  bipartite.Reset(g.num_vertices, q.num_vertices);
  // g-vertex v and q-vertex u link when some label of one matches some
  // label of the other. A wildcard vertex matches everything.
  for (int v = 0; v < g.num_vertices; ++v) {
    if (g.vertex_wildcard[v] == 0) continue;
    for (int u = 0; u < q.num_vertices; ++u) bipartite.AddEdge(v, u);
  }
  for (int u = 0; u < q.num_vertices; ++u) {
    if (q.vertex_wildcard[u] == 0) continue;
    for (int v = 0; v < g.num_vertices; ++v) {
      if (g.vertex_wildcard[v] == 0) bipartite.AddEdge(v, u);
    }
  }
  // The remaining links share a label: one merge of the two sorted
  // (label, vertex) indexes.
  const auto& gl = g.labeled_vertices;
  const auto& ql = q.labeled_vertices;
  size_t i = 0;
  size_t j = 0;
  while (i < gl.size() && j < ql.size()) {
    if (gl[i].first < ql[j].first) {
      ++i;
    } else if (ql[j].first < gl[i].first) {
      ++j;
    } else {
      const graph::LabelId label = gl[i].first;
      size_t j_end = j;
      while (j_end < ql.size() && ql[j_end].first == label) ++j_end;
      for (; i < gl.size() && gl[i].first == label; ++i) {
        const int v = gl[i].second;
        if (g.vertex_wildcard[v] != 0) continue;
        for (size_t k = j; k < j_end; ++k) {
          const int u = ql[k].second;
          if (q.vertex_wildcard[u] == 0) bipartite.AddEdge(v, u);
        }
      }
      j = j_end;
    }
  }
  return bipartite.MaxMatching();
}

int MaxCommonVertexLabels(const LabeledGraph& q, const UncertainGraph& g,
                          const LabelDictionary& dict) {
  return MaxCommonVertexLabels(Summarize(q, dict), Summarize(g, dict));
}

int CssStructuralConstant(const GraphSummary& q, const GraphSummary& g) {
  const int lambda_e = graph::MatchableLabelCount(
      q.edge_labels, q.wildcard_edges, g.edge_labels, g.wildcard_edges);
  auto oriented = [lambda_e](const GraphSummary& small,
                             const GraphSummary& big) {
    int dif = graph::DegreeDistanceFromSorted(small.sorted_degrees,
                                              big.sorted_degrees);
    return big.num_vertices + big.num_edges - lambda_e + HalfRoundedUp(dif);
  };
  if (q.num_vertices < g.num_vertices) return oriented(q, g);
  if (g.num_vertices < q.num_vertices) return oriented(g, q);
  return std::max(oriented(q, g), oriented(g, q));
}

int CssStructuralConstant(const LabeledGraph& q, const UncertainGraph& g,
                          const LabelDictionary& dict) {
  return CssStructuralConstant(Summarize(q, dict), Summarize(g, dict));
}

int CssLowerBoundUncertain(const GraphSummary& q, const GraphSummary& g) {
  return std::max(0, CssStructuralConstant(q, g) - MaxCommonVertexLabels(q, g));
}

int CssLowerBoundUncertain(const LabeledGraph& q, const UncertainGraph& g,
                           const LabelDictionary& dict) {
  return CssLowerBoundUncertain(Summarize(q, dict), Summarize(g, dict));
}

CssPrune CssPruneBound(const GraphSummary& q, const GraphSummary& g,
                       int tau) {
  CssPrune out;
  const int c = CssStructuralConstant(q, g);
  out.structural_constant = c;
  out.lower_bound = c - std::min(q.num_vertices, g.num_vertices);
  if (out.lower_bound > tau) return out;
  if (g.wildcard_vertices == 0) {
    // Step 2 prunes exactly when fewer than c - tau q vertices can link
    // (step 1 failing puts min(|V|) at or above c - tau, so the cap never
    // binds): count them by one merge, stopping once there are enough.
    // With tau = kExactCss, c - tau < 0 and the merge never starts.
    const int enough = c - tau;
    int linkable = q.wildcard_vertices;
    const auto& ql = q.labeled_vertices;
    const auto& gl = g.labeled_vertices;
    size_t i = 0;
    size_t j = 0;
    while (linkable < enough && i < ql.size() && j < gl.size()) {
      if (gl[j].first < ql[i].first) {
        ++j;
      } else {
        if (gl[j].first == ql[i].first) ++linkable;
        ++i;
      }
    }
    if (linkable < enough) {
      out.lower_bound = c - linkable;
      return out;
    }
  }
  out.lower_bound = std::max(0, c - MaxCommonVertexLabels(q, g));
  return out;
}

WorldBound::WorldBound(const GraphSummary& q, int structural_constant)
    : structural_constant_(structural_constant),
      q_wildcards_(q.wildcard_vertices) {
  // q is certain: each vertex is a wildcard or has one labeled entry.
  SIMJ_DCHECK_EQ(q_wildcards_ + static_cast<int>(q.labeled_vertices.size()),
                 q.num_vertices);
  // world_labels_ doubles as the scratch for q's labels here.
  for (const auto& [label, vertex] : q.labeled_vertices) {
    world_labels_.push_back(label);
  }
  FoldIntoRuns(&world_labels_, &q_runs_);
}

int WorldBound::Bound(const UncertainGraph& g, const std::vector<int>& choice,
                      const LabelDictionary& dict) {
  world_labels_.clear();
  int wildcards = 0;
  for (int v = 0; v < g.num_vertices(); ++v) {
    const graph::LabelId label = g.alternatives(v)[choice[v]].label;
    if (dict.IsWildcard(label)) {
      ++wildcards;
    } else {
      world_labels_.push_back(label);
    }
  }
  FoldIntoRuns(&world_labels_, &world_runs_);
  const int lambda_v = graph::MatchableLabelCount(q_runs_, q_wildcards_,
                                                  world_runs_, wildcards);
  return std::max(0, structural_constant_ - lambda_v);
}

}  // namespace simj::ged
