// Uncertain graph model (paper Def. 2) and possible-world machinery
// (Def. 3).
//
// An uncertain graph has the same directed labeled structure as a
// LabeledGraph, but each vertex carries one or more mutually exclusive
// (label, probability) alternatives with probabilities summing to at most 1.
// A possible world picks one alternative per vertex; its appearance
// probability is the product of the picked probabilities. Edge labels are
// certain (the paper's fictitious-vertex reduction for uncertain edges is
// provided by LiftUncertainEdges).
//
// Possible-world *groups* (paper Section 6.2) are represented as
// UncertainGraphs whose vertices carry a subset of the original label
// alternatives, keeping the original (unnormalized) probabilities; the
// group's probability mass is then the product of per-vertex sums.
//
// Sharing contract. The structure (vertices, edges, adjacency) is held
// behind a reference-counted pointer and copied on write. A copy or a
// RestrictVertex of a graph shares its structure (structure() returns the
// same object) and copies only the per-vertex alternative lists.
// AddVertex/AddEdge on a graph whose structure is shared first give it a
// private copy, so a mutation never shows through another graph. A shared
// structure is only ever read, so graphs that share one may be read,
// copied and restricted from any number of threads at once; mutating one
// graph object still needs the usual exclusive access to that object.

#ifndef SIMJ_GRAPH_UNCERTAIN_GRAPH_H_
#define SIMJ_GRAPH_UNCERTAIN_GRAPH_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "graph/label.h"
#include "graph/labeled_graph.h"
#include "util/status.h"

namespace simj::graph {

struct LabelAlternative {
  LabelId label = kInvalidLabel;
  double prob = 0.0;

  friend bool operator==(const LabelAlternative&,
                         const LabelAlternative&) = default;
};

class UncertainGraph {
 public:
  UncertainGraph() = default;

  // Adds a vertex with the given mutually exclusive alternatives.
  // Requires: non-empty, every prob in (0, 1], sum <= 1 (+epsilon).
  int AddVertex(std::vector<LabelAlternative> alternatives);

  // Adds a certain vertex (single label with probability 1).
  int AddCertainVertex(LabelId label) {
    return AddVertex({LabelAlternative{label, 1.0}});
  }

  void AddEdge(int src, int dst, LabelId label);

  int num_vertices() const { return static_cast<int>(alternatives_.size()); }
  int num_edges() const { return structure().num_edges(); }

  const std::vector<LabelAlternative>& alternatives(int v) const {
    SIMJ_CHECK(v >= 0 && v < num_vertices());
    return alternatives_[v];
  }

  // True when vertex v has a single alternative with probability 1.
  bool IsVertexCertain(int v) const;

  const std::vector<Edge>& edges() const { return structure().edges(); }
  int degree(int v) const { return structure().degree(v); }
  LabelCounts EdgeLabelCounts() const { return structure().EdgeLabelCounts(); }

  // The label structure with vertex labels left invalid; used where only
  // the topology matters. Shared with copies and restrictions of this
  // graph (see the sharing contract above).
  const LabeledGraph& structure() const {
    return structure_ != nullptr ? *structure_ : EmptyStructure();
  }

  // Number of possible worlds (product of alternative counts), saturating
  // at INT64_MAX.
  int64_t NumPossibleWorlds() const;

  // Total probability mass: product over vertices of the per-vertex sums.
  // Equals 1 for a full graph whose alternatives sum to 1 everywhere, and
  // the group mass for a restricted graph.
  double TotalMass() const;

  // Materializes the possible world selected by `choice` (choice[v] indexes
  // alternatives(v)).
  LabeledGraph Materialize(const std::vector<int>& choice) const;

  // Probability of that world: product of chosen alternative probabilities.
  double WorldProbability(const std::vector<int>& choice) const;

  // Returns a copy where vertex v keeps only the alternatives whose indices
  // are listed in `keep` (order preserved). Probabilities are not
  // renormalized, so masses of complementary restrictions add up. The copy
  // shares this graph's structure; only the alternative lists are copied.
  UncertainGraph RestrictVertex(int v, const std::vector<int>& keep) const;

  // Full-graph invariant validation for API boundaries (paper Def. 2/4):
  // the topology is valid (see LabeledGraph::ValidateTopology), every
  // vertex has a non-empty alternative set whose labels are valid in
  // `dict` and mutually exclusive (no duplicates), every probability lies
  // in (0, 1], and the per-vertex mass is <= 1 + epsilon. Returns the
  // first violation as a descriptive InvalidArgument status. AddVertex
  // aborts on these conditions for programmatic construction; Validate is
  // the recoverable form for data that crosses a trust boundary.
  Status Validate(const LabelDictionary& dict) const;

  // Lifts a certain graph into the uncertain model.
  static UncertainGraph FromCertain(const LabeledGraph& g);

  // Unchecked assembly from raw parts — the deserialization escape hatch.
  // Unlike AddVertex, this enforces nothing (empty alternative sets,
  // probabilities outside (0, 1], mass above 1, a structure whose vertex
  // count disagrees with `alternatives` all pass through); callers MUST
  // run Validate() before using the graph.
  static UncertainGraph FromParts(
      std::vector<std::vector<LabelAlternative>> alternatives,
      LabeledGraph structure);

  std::string DebugString(const LabelDictionary& dict) const;

 private:
  static const LabeledGraph& EmptyStructure();
  // The structure to mutate: this graph's own, copied first when shared.
  LabeledGraph& MutableStructure();

  std::vector<std::vector<LabelAlternative>> alternatives_;
  // Vertex labels unused (kInvalidLabel); null until the first vertex.
  std::shared_ptr<LabeledGraph> structure_;
};

// Enumerates the possible worlds of an uncertain graph in odometer order.
//
//   for (PossibleWorldIterator it(g); !it.Done(); it.Next()) {
//     use(it.choice(), it.probability());
//   }
class PossibleWorldIterator {
 public:
  explicit PossibleWorldIterator(const UncertainGraph& g);

  bool Done() const { return done_; }
  void Next();

  const std::vector<int>& choice() const { return choice_; }
  double probability() const;

 private:
  const UncertainGraph& g_;
  std::vector<int> choice_;
  bool done_;
};

// Input to LiftUncertainEdges: a directed edge whose label is uncertain.
struct UncertainEdge {
  int src = 0;
  int dst = 0;
  std::vector<LabelAlternative> alternatives;
};

// Paper Section 3.1.1 remark: edge-label uncertainty reduces to vertex-label
// uncertainty by replacing each uncertain edge (u, v) with a fictitious
// vertex w carrying the edge's label alternatives plus edges u->w and w->v
// labeled with `link_label` (a reserved label interned by the caller).
// Certain vertices and edges are copied through unchanged.
UncertainGraph LiftUncertainEdges(
    const std::vector<std::vector<LabelAlternative>>& vertex_alternatives,
    const std::vector<Edge>& certain_edges,
    const std::vector<UncertainEdge>& uncertain_edges, LabelId link_label);

}  // namespace simj::graph

#endif  // SIMJ_GRAPH_UNCERTAIN_GRAPH_H_
