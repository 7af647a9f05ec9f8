// Exact minimum graph edit distance (GED) between certain graphs.
//
// Edit operations and unit costs (paper Section 3.1.2):
//   - insert/delete an isolated labeled vertex          cost 1
//   - insert/delete a labeled edge                      cost 1
//   - substitute a vertex or edge label                 cost 1
// Wildcard labels ("?x") substitute against anything at cost 0.
//
// The solver is the standard A* search over prefix vertex mappings with an
// admissible label-multiset heuristic (a relaxation of the bipartite
// heuristic of Riesen & Bunke). BoundedGed stops as soon as the optimum
// provably exceeds the threshold, which is what the join's verification
// phase needs. The optimal vertex mapping is returned because template
// generation (paper Section 2.1 Step 3) is built from it.
//
// Flat kernels. BoundedGed and GreedyGedUpperBound first lay the two graphs
// out flat: labels get dense local ids (one id for every wildcard, which
// all match alike), vertex and edge label multisets become count arrays,
// and the parallel edges of every ordered vertex pair become one row-major
// table of sorted label runs. The A*'s pending a-side counts are one count
// array per depth; the b-side counts are rebuilt from the `used` mask once
// per expanded state and adjusted per child. A search state is plain data
// (f, g, depth, used mask, arena index): each pushed child appends one
// (parent, image) entry to an arena, and an expanded state's prefix is read
// back from the arena once for all its children. The greedy bound's
// Hungarian runs on one flat (n+m)^2 matrix.
//
// One layout per pair. The one-shot BoundedGed lays its two graphs out on
// every call. Verification instead searches q against many possible worlds
// of one uncertain graph g, which all share g's structure and differ only
// in vertex labels, so a WorldGed lays q out against g once per pair, with
// label ids for q's labels and every alternative of g; a world then only
// rewrites b's vertex-label ids before the same search loop runs. Extra
// label ids only add zero counts to the heuristic's arrays, so the search
// is the one-shot search step for step.
//
// Storage. The one-shot layout and the greedy bound's buffers are
// per-thread scratches, reused by the next call on the thread. A WorldGed
// owns its layout, taken from a per-thread spare list and given back when
// it ends, so a one-shot call between two world searches cannot overwrite
// it. The A*'s search buffers (open list, arena, b-side counts) live for
// one search only and are shared per thread by both entry points. A warm
// A* call allocates only its result, unless it needs more room than any
// earlier call on the thread; a call that grew the open list or arena past
// 2^18 states frees them on exit. The greedy bound's Hungarian still
// allocates its few O(n+m) vectors. Calls on different threads share
// nothing but the registry counters.
//
// Exactness contract: the flat A* visits the same vertex order, computes
// the same heuristic and step costs and pushes the same children in the
// same sequence into a std::priority_queue with the same ordering as the
// hash-map search it replaced, so distance, mapping, the abort flag, the
// expansion count and the open-list peak are identical; the greedy bound
// returns the same value and mapping. tests/ged_diff_test.cc checks both
// against a copy of the replaced kernels (tests/ged_reference.h), and
// WorldGed against the one-shot BoundedGed on every world.

#ifndef SIMJ_GED_EDIT_DISTANCE_H_
#define SIMJ_GED_EDIT_DISTANCE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "graph/label.h"
#include "graph/labeled_graph.h"
#include "graph/uncertain_graph.h"
#include "util/status.h"

namespace simj::ged {

struct GedResult {
  // The minimum edit distance.
  int distance = 0;
  // mapping[u] = vertex of `b` that vertex u of `a` maps to, or -1 when u
  // is deleted. Unmapped vertices of `b` are insertions.
  std::vector<int> mapping;
};

struct GedOptions {
  // Safety valve for pathological searches. When the A* search expands more
  // states than this, BoundedGed gives up and reports "above threshold"
  // while setting *aborted (callers track this in their statistics; the
  // join treats it as a non-match, which the benchmarks document).
  int64_t max_expansions = 5'000'000;
};

// Computes ged(a, b) if it is <= tau, returning std::nullopt otherwise.
// Requires tau >= 0 and |V(b)| <= 64.
[[nodiscard]] std::optional<GedResult> BoundedGed(const graph::LabeledGraph& a,
                                    const graph::LabeledGraph& b, int tau,
                                    const graph::LabelDictionary& dict,
                                    const GedOptions& options = GedOptions(),
                                    bool* aborted = nullptr);

struct GedLayout;  // edit_distance.cc

// BoundedGed of one certain graph `a` against possible worlds of one
// uncertain graph, laid out once (see "One layout per pair" above).
class WorldGed {
 public:
  WorldGed();
  ~WorldGed();
  WorldGed(WorldGed&&) noexcept;
  WorldGed& operator=(WorldGed&&) noexcept;

  // Lays `a` out against `groups`: restrictions of one uncertain graph
  // (possible-world groups, or the graph itself), which share its
  // structure. `a` and `dict` must outlive the searches.
  void Build(const graph::LabeledGraph& a,
             std::span<const graph::UncertainGraph> groups,
             const graph::LabelDictionary& dict);
  bool built() const { return layout_ != nullptr; }

  // Equals BoundedGed(a, group.Materialize(choice), tau, dict, options,
  // aborted), registry counters included, for `group` one of the groups
  // given to Build.
  [[nodiscard]] std::optional<GedResult> BoundedGed(
      const graph::UncertainGraph& group, const std::vector<int>& choice,
      int tau, const GedOptions& options = GedOptions(),
      bool* aborted = nullptr);

 private:
  std::unique_ptr<GedLayout> layout_;
  const graph::LabeledGraph* a_ = nullptr;
  const graph::LabelDictionary* dict_ = nullptr;
};

// Computes the exact ged(a, b) with no threshold.
[[nodiscard]] GedResult ExactGed(const graph::LabeledGraph& a, const graph::LabeledGraph& b,
                   const graph::LabelDictionary& dict,
                   const GedOptions& options = GedOptions());

// Cost of substituting label `from` by label `to`: 0 when they match
// (equal or wildcard), else 1.
[[nodiscard]] inline int SubstitutionCost(const graph::LabelDictionary& dict,
                            graph::LabelId from, graph::LabelId to) {
  return dict.Matches(from, to) ? 0 : 1;
}

// Edit cost of transforming the multiset of parallel edge labels `from`
// into `to`: max(|from|, |to|) minus the zero-cost matchable pairs.
[[nodiscard]] int EdgeSetCost(const std::vector<graph::LabelId>& from,
                const std::vector<graph::LabelId>& to,
                const graph::LabelDictionary& dict);

// A trivially valid upper bound on ged(a, b): delete everything in `a`,
// insert everything in `b`. Used as the open threshold for ExactGed.
[[nodiscard]] int TrivialUpperBound(const graph::LabeledGraph& a,
                      const graph::LabeledGraph& b);

// Exact edit cost induced by a *given* vertex mapping (mapping[u] = vertex
// of `b`, or -1 to delete u; b-vertices not covered are insertions). Every
// mapping's cost upper-bounds the true GED; the optimal mapping attains it.
[[nodiscard]] int MappingCost(const graph::LabeledGraph& a, const graph::LabeledGraph& b,
                const std::vector<int>& mapping,
                const graph::LabelDictionary& dict);

// Postcondition validator for a GED solver result (the debug build runs it
// after every successful BoundedGed/ExactGed call; tests call it directly).
// Checks, in order:
//   - the mapping is shaped like a function V(a) -> V(b) u {delete}: right
//     size, in-range targets, no two a-vertices sharing an image;
//   - the returned distance equals MappingCost(a, b, mapping) — the mapping
//     must *witness* the distance, not just accompany it;
//   - the sandwich CssLowerBound <= distance <= GreedyGedUpperBound, i.e.
//     the Lemma 1/2-style bounds bracket the claimed optimum.
// Returns the first violation as a descriptive non-OK status.
Status ValidateGedResult(const graph::LabeledGraph& a,
                         const graph::LabeledGraph& b, const GedResult& result,
                         const graph::LabelDictionary& dict);

// Fast upper bound on ged(a, b): the cost of the assignment that minimizes
// per-vertex substitution + local edge-degree costs (the bipartite
// approximation of Riesen & Bunke), evaluated exactly via MappingCost.
// ValidateGedResult brackets a solver's distance with it, and the join's
// world-acceptance ablation (core::SimJParams::witness_accept = false)
// accepts a world without A* when it is <= tau; by default verification
// accepts from earlier worlds' A* mappings instead.
// When `mapping` is non-null it receives the witnessing vertex map.
[[nodiscard]] int GreedyGedUpperBound(const graph::LabeledGraph& a,
                        const graph::LabeledGraph& b,
                        const graph::LabelDictionary& dict,
                        std::vector<int>* mapping = nullptr);

}  // namespace simj::ged

#endif  // SIMJ_GED_EDIT_DISTANCE_H_
