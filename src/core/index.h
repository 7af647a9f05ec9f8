// Size-signature index over the certain graph set D.
//
// The vertex/edge-count lower bound [29] depends only on graph sizes, and
// every possible world of an uncertain graph shares its structure. Bucketing
// D by (|V|, |E|) therefore lets the join skip whole buckets per uncertain
// graph: only buckets with |dV| + |dE| <= tau can contain candidates. The
// paper evaluates a plain nested-loop join; this is the obvious indexing
// layer on top (ablated in bench_ablation_index).

#ifndef SIMJ_CORE_INDEX_H_
#define SIMJ_CORE_INDEX_H_

#include <map>
#include <utility>
#include <vector>

#include "core/join.h"
#include "graph/labeled_graph.h"
#include "graph/uncertain_graph.h"

namespace simj::core {

class CertainGraphIndex {
 public:
  // Keeps a pointer to `d`; the caller owns the vector and must keep it
  // alive and unmodified for the index's lifetime.
  explicit CertainGraphIndex(const std::vector<graph::LabeledGraph>* d);

  // Indices into D whose count lower bound against `g` is <= tau, in
  // ascending order. Everything excluded is provably dissimilar in every
  // possible world.
  std::vector<int> Candidates(const graph::UncertainGraph& g, int tau) const;

  int64_t num_graphs() const { return num_graphs_; }

  // The signature buckets, keyed by (|V|, |E|) ascending, each holding the
  // indices into D with that signature (ascending). The shard planner
  // (src/dist) partitions the candidate space along these buckets.
  const std::map<std::pair<int, int>, std::vector<int>>& buckets() const {
    return buckets_;
  }

  // The count lower bound test behind Candidates(): true when a graph with
  // signature (`vertices`, `edges`) can be within `tau` edits of `g` in
  // some possible world. Exposed so the shard planner prunes buckets with
  // exactly the semantics of IndexedSimJoin.
  static bool SignatureSurvives(int vertices, int edges,
                                const graph::UncertainGraph& g, int tau);

 private:
  const std::vector<graph::LabeledGraph>* d_;
  // (|V|, |E|) -> indices into D.
  std::map<std::pair<int, int>, std::vector<int>> buckets_;
  int64_t num_graphs_ = 0;
};

// Accounts the pairs <q, g_index>, q in `skipped_q` (ascending), that the
// size index skipped: they count in stats->total_pairs and
// stats->pruned_structural (the count bound is a structural filter), bump
// simj_index_skipped_pairs_total, and get a PruneStage::kIndexCount record
// appended to *explains when params.explain samples them. IndexedSimJoin
// and the shard planner (src/dist) both account skips through this.
void AccountIndexSkips(int g_index, const std::vector<int>& skipped_q,
                       const SimJParams& params, JoinStats* stats,
                       std::vector<PairExplain>* explains);

// SimJoin driven by the size index: identical result set to SimJoin, with
// index-skipped pairs accounted by AccountIndexSkips.
JoinResult IndexedSimJoin(const std::vector<graph::LabeledGraph>& d,
                          const std::vector<graph::UncertainGraph>& u,
                          const SimJParams& params,
                          const graph::LabelDictionary& dict);

}  // namespace simj::core

#endif  // SIMJ_CORE_INDEX_H_
