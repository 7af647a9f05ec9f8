// Similarity probability between a certain graph and an uncertain graph
// (paper Def. 6) and its probabilistic upper bound (Thm. 4).
//
//   SimP_tau(q, g) = sum of Pr{pw(g)} over possible worlds pw(g)
//                    with ged(q, pw(g)) <= tau.
//
// VerifySimP is the one walk over a pair's worlds: every world of every
// possible-world group (the groups partition g's worlds), group by group and
// each group's worlds most probable first (a lazy WorldWalk; a group of
// more than 4,096 worlds in odometer order instead), skipping worlds whose
// certain CSS bound already exceeds tau. All worlds share the uncertain
// graph's structure, so a world is never materialized as a graph of its own:
// its CSS bound is C(q, g) - lambda_V(q, world) (ged::WorldBound), and only a
// world within the bound has its labels written into the pair's one GED
// layout (ged::WorldGed, which lays q out against g's structure at the
// pair's first A* search). A world that cannot become the most probable qualifying one
// needs only ged <= tau, not a mapping: it is accepted without a search when
// a mapping that the A* returned for an earlier world of the pair, in any
// group, costs <= tau on it (witness_accept; false takes the greedy
// bipartite bound instead, the ablation). Neither changes which worlds
// qualify, nor the best world's mapping. With `early_exit` the walk stops as
// soon as the accumulated probability reaches alpha, or as soon as the
// remaining mass cannot reach alpha (the join's refinement phase); without,
// it sums every world.
//
// ComputeSimP is exact SimP by a plain odometer walk over g's worlds,
// independent of VerifySimP's order: the brute-force oracle that the join
// is tested against.

#ifndef SIMJ_CORE_SIMILARITY_H_
#define SIMJ_CORE_SIMILARITY_H_

#include <cstdint>
#include <span>
#include <vector>

#include "ged/edit_distance.h"
#include "ged/lower_bounds.h"
#include "graph/label.h"
#include "graph/labeled_graph.h"
#include "graph/uncertain_graph.h"

namespace simj::core {

// Comparison slack for probability thresholds: SimP values are products and
// sums of doubles, so "SimP >= alpha" is evaluated as
// "SimP >= alpha - kSimPEpsilon" everywhere (early exits and final
// decisions must agree, or results would not be monotone in alpha).
inline constexpr double kSimPEpsilon = 1e-9;

// Counters shared by similarity evaluation; the join aggregates them.
struct VerifyStats {
  int64_t worlds_enumerated = 0;
  int64_t worlds_pruned_by_bound = 0;  // per-world certain CSS bound > tau
  // Worlds that could not become the pair's best, accepted without A*
  // because a mapping costs <= tau on them: an earlier world's A* mapping
  // (witness accept), or the greedy bipartite bound's (the ablation).
  int64_t worlds_accepted_by_upper_bound = 0;
  int64_t ged_calls = 0;  // A* searches
  int64_t ged_aborted = 0;  // A* expansion cap hit (counted as non-match)
};

struct SimPResult {
  // Accumulated probability of qualifying worlds. Exact unless
  // `early_accept` is set, in which case it is a lower bound that already
  // reaches alpha.
  double probability = 0.0;
  bool early_accept = false;
  bool early_reject = false;
  // Vertex mapping q -> g of the most probable qualifying world (-1 for
  // deleted q-vertices); empty when no world qualified. This is the
  // matching that template generation consumes.
  std::vector<int> best_mapping;
  // GED and probability of that world.
  int best_world_ged = -1;
  double best_world_prob = 0.0;
};

// Exact SimP_tau(q, g). Enumerates every possible world of g in odometer
// order.
[[nodiscard]] SimPResult ComputeSimP(const graph::LabeledGraph& q,
                       const graph::UncertainGraph& g, int tau,
                       const graph::LabelDictionary& dict,
                       const ged::GedOptions& options = ged::GedOptions(),
                       VerifyStats* stats = nullptr);

// The worlds of one possible-world group, most probable first, generated
// lazily: a walk that stops after k worlds computes O(k x uncertain
// vertices) world probabilities, not one per world of the group.
//
// Each vertex's alternatives are ranked by descending probability (ties in
// alternative order). A world is its vector of ranks; its rank index is the
// mixed-radix number over those ranks with vertex 0 the fastest digit. The
// walk pops worlds from a heap in the total order (probability descending,
// then rank index ascending), starting at the all-rank-0 world. A popped
// world pushes its children: the worlds that raise the rank of one vertex
// at or after the last vertex its own parent raised, so every world has one
// parent and is pushed once. A child's probability never exceeds its
// parent's (rounded multiplication is monotone) and on a tie its rank index
// is larger, so the pops follow the total order exactly. Probabilities are
// computed in vertex order, bit-equal to UncertainGraph::WorldProbability.
// The buffers are reused from one Start to the next.
class WorldWalk {
 public:
  // Starts a walk over the worlds of `g`, which must outlive it.
  void Start(const graph::UncertainGraph& g);

  // The next world: its alternative index per vertex and its probability.
  // False once every world was visited.
  bool Next(std::vector<int>* choice, double* probability);

  // Worlds pushed onto the heap since Start (popped ones included).
  int64_t pushed() const { return pushed_; }

 private:
  struct Entry {
    double probability;
    int64_t rank_index;
    int last_raised;  // the vertex whose rank the parent raised
  };
  // Entry a pops before b.
  static bool Before(const Entry& a, const Entry& b) {
    return a.probability > b.probability ||
           (a.probability == b.probability && a.rank_index < b.rank_index);
  }

  const graph::UncertainGraph* g_ = nullptr;
  // Vertex v's alternative of rank r is ranked_index_[begin_[v] + r], of
  // probability ranked_prob_[begin_[v] + r]; stride_[v] is v's digit weight
  // in the rank index.
  std::vector<int> begin_;
  std::vector<int> ranked_index_;
  std::vector<double> ranked_prob_;
  std::vector<int64_t> stride_;
  std::vector<Entry> heap_;
  std::vector<int> ranks_;       // of the world being popped
  std::vector<double> prefix_;   // its probability over vertices [0, v)
  int64_t pushed_ = 0;
  int64_t visited_ = 0;
  Entry previous_{};  // the last popped world (debug-build order check)
};

// SimP evaluation with early accept/reject against `alpha`, over a list of
// possible-world groups (pass {g} for the ungrouped case). Groups must be
// disjoint restrictions of one uncertain graph; `total_mass` is the sum of
// their masses (the probability not yet ruled out by group-level pruning).
[[nodiscard]] SimPResult VerifySimP(const graph::LabeledGraph& q,
                      const std::vector<graph::UncertainGraph>& groups,
                      double total_mass, int tau, double alpha,
                      const graph::LabelDictionary& dict,
                      const ged::GedOptions& options = ged::GedOptions(),
                      VerifyStats* stats = nullptr,
                      bool witness_accept = true);

// Same, with the pair's per-world CSS bound already set up (the join builds
// it once per pair from its summaries). Without `early_exit` every world of
// every group is evaluated, and the probability is exact.
[[nodiscard]] SimPResult VerifySimP(const graph::LabeledGraph& q,
                      ged::WorldBound& world_bound,
                      std::span<const graph::UncertainGraph> groups,
                      double total_mass, int tau, double alpha,
                      bool early_exit, const graph::LabelDictionary& dict,
                      const ged::GedOptions& options, VerifyStats* stats,
                      bool witness_accept);

// Probabilistic upper bound on the contribution of (a restriction of) g to
// SimP_tau(q, g) (Thm. 4, generalized to possible-world groups):
//
//   ub = min(mass(g), E[Y * 1_group] / (C(q, g) - tau))
//
// where E(y_v) is the probability mass of v's label alternatives that match
// some vertex label of q. When C - tau <= 0 the Markov bound is vacuous and
// mass(g) is returned.
[[nodiscard]] double UpperBoundSimP(const graph::LabeledGraph& q,
                      const graph::UncertainGraph& g, int tau,
                      const graph::LabelDictionary& dict);

// Same, reusing a precomputed structural constant C(q, g) (identical for
// every group of one uncertain graph).
[[nodiscard]] double UpperBoundSimPWithConstant(const graph::LabeledGraph& q,
                                  const graph::UncertainGraph& g, int tau,
                                  int structural_constant,
                                  const graph::LabelDictionary& dict);

// The per-vertex terms that UpperBoundSimPWithConstant sums, for one
// vertex with `alternatives`: their probability mass, and the share of it
// whose labels match some vertex label of q (wildcard-aware). A group's
// mass is the product of its vertices' masses in vertex order.
struct MarkovVertexTerms {
  double mass = 0.0;
  double match_ratio = 0.0;
};
[[nodiscard]] MarkovVertexTerms MarkovTermsOf(
    const graph::LabeledGraph& q,
    const std::vector<graph::LabelAlternative>& alternatives,
    const graph::LabelDictionary& dict);

// UpperBoundSimPWithConstant from a group's mass and the sum of its
// vertices' match ratios taken in vertex order: min(mass, mass *
// match_ratio_sum / (C - tau)), or mass when C - tau <= 0. Summed that way,
// the result is bit-identical to UpperBoundSimPWithConstant on the group.
[[nodiscard]] double MarkovBound(double mass, double match_ratio_sum, int tau,
                                 int structural_constant);

// Tighter upper bound via the law of total probability (the extension the
// paper sketches at the end of Section 5): condition on the label of the
// `depth` most uncertain vertices and sum the per-restriction bounds
//   SimP(q, g) = sum_l Pr{l(v) = l} SimP(q, g | l(v) = l)
//             <= sum_l ub_SimP(q, g restricted to l(v) = l).
// Each restriction also gets its own CSS lower bound (restrictions whose
// bound exceeds tau contribute zero). depth = 0 degenerates to Thm. 4.
[[nodiscard]] double UpperBoundSimPTotalProbability(const graph::LabeledGraph& q,
                                      const graph::UncertainGraph& g,
                                      int tau,
                                      const graph::LabelDictionary& dict,
                                      int depth = 1);

}  // namespace simj::core

#endif  // SIMJ_CORE_SIMILARITY_H_
