// Certain (deterministic) labeled directed graph.
//
// This is the representation of a SPARQL query graph and of a materialized
// possible world of an uncertain graph. Vertices carry exactly one label;
// edges are directed and labeled; parallel edges with distinct labels are
// allowed (two predicates between the same subject/object); self loops are
// not (RDF query graphs never need them and excluding them keeps the degree
// arithmetic of the CSS bound simple).

#ifndef SIMJ_GRAPH_LABELED_GRAPH_H_
#define SIMJ_GRAPH_LABELED_GRAPH_H_

#include <string>
#include <vector>

#include "graph/label.h"
#include "util/status.h"

namespace simj::graph {

struct Edge {
  int src = 0;
  int dst = 0;
  LabelId label = kInvalidLabel;

  friend bool operator==(const Edge&, const Edge&) = default;
};

class LabeledGraph {
 public:
  LabeledGraph() = default;

  // Adds a vertex and returns its index.
  int AddVertex(LabelId label);

  // Adds a directed edge src -> dst. Requires valid vertex indices and
  // src != dst.
  void AddEdge(int src, int dst, LabelId label);

  int num_vertices() const { return static_cast<int>(vertex_labels_.size()); }
  int num_edges() const { return static_cast<int>(edges_.size()); }

  LabelId vertex_label(int v) const {
    SIMJ_CHECK(v >= 0 && v < num_vertices());
    return vertex_labels_[v];
  }
  void set_vertex_label(int v, LabelId label) {
    SIMJ_CHECK(v >= 0 && v < num_vertices());
    vertex_labels_[v] = label;
  }

  const std::vector<Edge>& edges() const { return edges_; }
  const Edge& edge(int e) const { return edges_[e]; }

  // Indices into edges() of edges leaving / entering v.
  const std::vector<int>& out_edges(int v) const { return out_[v]; }
  const std::vector<int>& in_edges(int v) const { return in_[v]; }

  // Total degree (in + out) of v.
  int degree(int v) const {
    return static_cast<int>(out_[v].size() + in_[v].size());
  }

  // Labels of all parallel edges src -> dst (usually 0 or 1 entries).
  std::vector<LabelId> EdgeLabelsBetween(int src, int dst) const;

  // Total degrees sorted non-increasingly (used by the degree distance).
  std::vector<int> SortedDegrees() const;

  // Multiset of vertex labels / edge labels.
  LabelCounts VertexLabelCounts() const;
  LabelCounts EdgeLabelCounts() const;

  // Full-graph invariant validation for API boundaries: every edge
  // references in-range endpoints, has no self loop and carries a label id
  // that is valid in `dict`; the adjacency lists agree with edges(); and
  // every vertex label is a valid id. Returns the first violation as an
  // InvalidArgument status with the offending vertex/edge spelled out.
  // O(V + E) — call it when graphs cross a trust boundary (parsers,
  // RPC-style entry points); the join's debug build calls it per input.
  Status Validate(const LabelDictionary& dict) const;

  // Same, but skips vertex-label validity: the topology check used for
  // UncertainGraph::structure(), whose vertex labels are kInvalidLabel by
  // design.
  Status ValidateTopology(const LabelDictionary& dict) const;

  // Unchecked assembly from raw parts — the deserialization escape hatch.
  // Unlike AddVertex/AddEdge, this enforces nothing: the result may violate
  // every invariant, and callers MUST run Validate() before using the graph.
  // Construction itself stays memory-safe: edges with out-of-range
  // endpoints are kept in edges() but left out of the adjacency lists
  // (Validate reports them).
  static LabeledGraph FromParts(std::vector<LabelId> vertex_labels,
                                std::vector<Edge> edges);

  // Human-readable dump, e.g. for test failures.
  std::string DebugString(const LabelDictionary& dict) const;

 private:
  std::vector<LabelId> vertex_labels_;
  std::vector<Edge> edges_;
  std::vector<std::vector<int>> out_;
  std::vector<std::vector<int>> in_;
};

// Degree distance dif(a, b) (paper Def. 9) from the non-increasing degree
// sequences of the smaller graph (m vertices) and the larger graph: the sum
// of positive-truncated differences d_i(small) - d_i(big) over i < m.
[[nodiscard]] int DegreeDistanceFromSorted(const std::vector<int>& small_sorted,
                             const std::vector<int>& big_sorted);

}  // namespace simj::graph

#endif  // SIMJ_GRAPH_LABELED_GRAPH_H_
