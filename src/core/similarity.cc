#include "core/similarity.h"

#include <algorithm>
#include <limits>
#include <span>

#include "ged/lower_bounds.h"
#include "util/check.h"
#include "util/trace.h"

namespace simj::core {

namespace {

using graph::LabeledGraph;
using graph::LabelDictionary;
using graph::PossibleWorldIterator;
using graph::UncertainGraph;

// The mappings that the A* returned for earlier worlds of one pair, kept as
// data so that a later world that cannot become the pair's best is decided
// without a search. Every world of a pair shares g's structure and edge
// labels (groups only restrict vertex label alternatives), so a mapping's
// cost on any world is its base (edge edits, insertions and deletions) plus
// one for each mapped g vertex whose world label misses the q label it
// needs. That sum is MappingCost of a real mapping: an exact upper bound on
// the world's GED, so an accept here is an accept of the A* as well.
class WitnessPool {
 public:
  // Keeps the mapping `result` found on the world whose vertex labels are
  // `world`, unless a witness with the same base and needs is already kept.
  void Add(const LabeledGraph& q, const std::vector<graph::LabelId>& world,
           const ged::GedResult& result, const LabelDictionary& dict) {
    const size_t begin = needs_.size();
    int base = result.distance;
    for (int u = 0; u < q.num_vertices(); ++u) {
      const int v = result.mapping[u];
      if (v < 0) continue;
      base -= ged::SubstitutionCost(dict, q.vertex_label(u), world[v]);
      needs_.push_back(Need{v, q.vertex_label(u), u});
    }
    const Witness added{base, begin, needs_.size()};
    for (const Witness& kept : witnesses_) {
      if (SameWitness(kept, added)) {
        needs_.resize(begin);
        return;
      }
    }
    witnesses_.push_back(added);
  }

  // The index of a witness whose cost on `world` is <= tau, most recent
  // first, or -1 when none is. `*cost` receives that witness's cost.
  int Find(const std::vector<graph::LabelId>& world, int tau,
           const LabelDictionary& dict, int* cost) const {
    for (size_t i = witnesses_.size(); i-- > 0;) {
      const Witness& w = witnesses_[i];
      int c = w.base;
      for (size_t k = w.begin; k < w.end && c <= tau; ++k) {
        const Need& need = needs_[k];
        if (!dict.Matches(need.label, world[need.g_vertex])) ++c;
      }
      if (c <= tau) {
        *cost = c;
        return static_cast<int>(i);
      }
    }
    return -1;
  }

  // The q -> g mapping of witness `index` (for the debug-build check).
  std::vector<int> Mapping(int index, int q_vertices) const {
    std::vector<int> mapping(static_cast<size_t>(q_vertices), -1);
    const Witness& w = witnesses_[static_cast<size_t>(index)];
    for (size_t k = w.begin; k < w.end; ++k) {
      mapping[needs_[k].q_vertex] = needs_[k].g_vertex;
    }
    return mapping;
  }

 private:
  // Mapped q vertex q_vertex -> g vertex g_vertex costs nothing on a world
  // whose label of g_vertex matches `label`, q_vertex's label.
  struct Need {
    int g_vertex;
    graph::LabelId label;
    int q_vertex;
  };
  // One mapping: its base cost and its needs_[begin, end).
  struct Witness {
    int base;
    size_t begin;
    size_t end;
  };

  bool SameWitness(const Witness& a, const Witness& b) const {
    if (a.base != b.base || a.end - a.begin != b.end - b.begin) return false;
    for (size_t k = 0; k < a.end - a.begin; ++k) {
      const Need& x = needs_[a.begin + k];
      const Need& y = needs_[b.begin + k];
      if (x.g_vertex != y.g_vertex || x.label != y.label) return false;
    }
    return true;
  }

  std::vector<Witness> witnesses_;
  std::vector<Need> needs_;  // every witness's needs, back to back
};

// Evaluates the possible worlds of one pair: bound check, then an upper-
// bound accept for a world that cannot become the pair's best, then bounded
// A*, accumulating into `result`. `groups` are the pair's possible-world
// groups (restrictions of one uncertain graph); the A* lays q out against
// them once, at the pair's first search.
class WorldEvaluator {
 public:
  WorldEvaluator(const LabeledGraph& q, ged::WorldBound& bound,
                 std::span<const UncertainGraph> groups, int tau,
                 const LabelDictionary& dict, const ged::GedOptions& options,
                 bool witness_accept, VerifyStats* stats, SimPResult* result)
      : q_(q),
        bound_(bound),
        groups_(groups),
        tau_(tau),
        dict_(dict),
        options_(options),
        witness_accept_(witness_accept),
        stats_(stats),
        result_(result) {
    // The ablation's greedy bound takes a world as a graph: g's structure,
    // shared by every group, with each world's labels written in.
    if (!witness_accept) world_ = groups.front().structure();
  }

  // Evaluates the world of `group` selected by `choice`.
  void Evaluate(const UncertainGraph& group, const std::vector<int>& choice,
                double world_prob) {
    ++stats_->worlds_enumerated;
    if (bound_.Bound(group, choice, dict_) > tau_) {
      ++stats_->worlds_pruned_by_bound;
      return;
    }
    world_labels_.resize(static_cast<size_t>(group.num_vertices()));
    for (int v = 0; v < group.num_vertices(); ++v) {
      world_labels_[v] = group.alternatives(v)[choice[v]].label;
    }
    // Cheap accept: a world that cannot improve the best mapping needs only
    // ged <= tau, which any mapping costing <= tau proves. The exact A*
    // still runs for would-be-best worlds so template generation sees an
    // optimal mapping.
    if (world_prob <= result_->best_world_prob &&
        AcceptedByUpperBound(group, choice)) {
      ++stats_->worlds_accepted_by_upper_bound;
      result_->probability += world_prob;
      return;
    }
    ++stats_->ged_calls;
    if (!ged_.built()) ged_.Build(q_, groups_, dict_);
    bool aborted = false;
    std::optional<ged::GedResult> ged_result;
    {
      trace::ScopedSpan span("ged_astar", "verify");
      ged_result = ged_.BoundedGed(group, choice, tau_, options_, &aborted);
    }
    if (aborted) ++stats_->ged_aborted;
    if (!ged_result.has_value()) return;
    result_->probability += world_prob;
    if (witness_accept_) witnesses_.Add(q_, world_labels_, *ged_result, dict_);
    if (world_prob > result_->best_world_prob) {
      result_->best_world_prob = world_prob;
      result_->best_world_ged = ged_result->distance;
      result_->best_mapping = ged_result->mapping;
    }
  }

 private:
  // An earlier world's mapping costs <= tau on this world, or (the
  // ablation) the greedy bipartite bound does.
  bool AcceptedByUpperBound(const UncertainGraph& group,
                            const std::vector<int>& choice) {
    if (!witness_accept_) {
      for (int v = 0; v < group.num_vertices(); ++v) {
        world_.set_vertex_label(v, world_labels_[v]);
      }
      return ged::GreedyGedUpperBound(q_, world_, dict_) <= tau_;
    }
    int cost = 0;
    const int witness = witnesses_.Find(world_labels_, tau_, dict_, &cost);
    if (witness < 0) return false;
    SIMJ_DCHECK_EQ(ged::MappingCost(q_, group.Materialize(choice),
                                    witnesses_.Mapping(witness,
                                                       q_.num_vertices()),
                                    dict_),
                   cost);
    return true;
  }

  const LabeledGraph& q_;
  ged::WorldBound& bound_;
  const std::span<const UncertainGraph> groups_;
  const int tau_;
  const LabelDictionary& dict_;
  const ged::GedOptions& options_;
  const bool witness_accept_;
  VerifyStats* stats_;
  SimPResult* result_;
  ged::WorldGed ged_;
  // The vertex labels of the world being evaluated.
  std::vector<graph::LabelId> world_labels_;
  // The ablation's world graph.
  LabeledGraph world_;
  WitnessPool witnesses_;
};

// The per-world bound of q against the worlds of g, for the graph-level
// entry points.
ged::WorldBound MakeWorldBound(const LabeledGraph& q, const UncertainGraph& g,
                               const LabelDictionary& dict) {
  const ged::GraphSummary q_summary = ged::Summarize(q, dict);
  return ged::WorldBound(
      q_summary,
      ged::CssStructuralConstant(q_summary, ged::Summarize(g, dict)));
}

}  // namespace

SimPResult ComputeSimP(const LabeledGraph& q, const UncertainGraph& g,
                       int tau, const LabelDictionary& dict,
                       const ged::GedOptions& options, VerifyStats* stats) {
  VerifyStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  ged::WorldBound world_bound = MakeWorldBound(q, g, dict);
  SimPResult result;
  WorldEvaluator evaluator(q, world_bound, std::span(&g, 1), tau, dict,
                           options, /*witness_accept=*/true, stats, &result);
  for (PossibleWorldIterator it(g); !it.Done(); it.Next()) {
    evaluator.Evaluate(g, it.choice(), it.probability());
  }
  return result;
}

void WorldWalk::Start(const UncertainGraph& g) {
  SIMJ_CHECK_LT(g.NumPossibleWorlds(), std::numeric_limits<int64_t>::max());
  g_ = &g;
  const int n = g.num_vertices();
  begin_.resize(static_cast<size_t>(n) + 1);
  stride_.resize(static_cast<size_t>(n));
  ranks_.resize(static_cast<size_t>(n));
  prefix_.resize(static_cast<size_t>(n));
  ranked_index_.clear();
  ranked_prob_.clear();
  int64_t stride = 1;
  double root = 1.0;
  for (int v = 0; v < n; ++v) {
    const std::vector<graph::LabelAlternative>& alternatives =
        g.alternatives(v);
    const int size = static_cast<int>(alternatives.size());
    const size_t begin = ranked_index_.size();
    begin_[v] = static_cast<int>(begin);
    // A stable insertion sort by descending probability: a vertex has a
    // handful of alternatives, and std::stable_sort would allocate.
    for (int a = 0; a < size; ++a) {
      const double prob = alternatives[a].prob;
      ranked_index_.push_back(a);
      ranked_prob_.push_back(prob);
      size_t k = ranked_index_.size() - 1;
      for (; k > begin && ranked_prob_[k - 1] < prob; --k) {
        ranked_index_[k] = ranked_index_[k - 1];
        ranked_prob_[k] = ranked_prob_[k - 1];
      }
      ranked_index_[k] = a;
      ranked_prob_[k] = prob;
    }
    stride_[v] = stride;
    stride *= size;
    root *= ranked_prob_[begin];
  }
  begin_[n] = static_cast<int>(ranked_index_.size());
  heap_.assign(1, Entry{root, 0, 0});
  pushed_ = 1;
  visited_ = 0;
}

bool WorldWalk::Next(std::vector<int>* choice, double* probability) {
  if (heap_.empty()) return false;
  const auto pops_later = [](const Entry& a, const Entry& b) {
    return Before(b, a);
  };
  std::pop_heap(heap_.begin(), heap_.end(), pops_later);
  const Entry top = heap_.back();
  heap_.pop_back();
  SIMJ_DCHECK(visited_ == 0 || !Before(top, previous_));
  previous_ = top;
  ++visited_;
  SIMJ_DCHECK_LE(visited_, g_->NumPossibleWorlds());

  // Decode the world from its rank index, with its probability over each
  // vertex prefix, multiplied in vertex order.
  const int n = g_->num_vertices();
  choice->resize(static_cast<size_t>(n));
  int64_t digits = top.rank_index;
  double prob = 1.0;
  for (int v = 0; v < n; ++v) {
    const int size = begin_[v + 1] - begin_[v];
    ranks_[v] = static_cast<int>(digits % size);
    digits /= size;
    (*choice)[v] = ranked_index_[begin_[v] + ranks_[v]];
    prefix_[v] = prob;
    prob *= ranked_prob_[begin_[v] + ranks_[v]];
  }
  SIMJ_DCHECK_EQ(prob, top.probability);
  *probability = top.probability;

  for (int v = top.last_raised; v < n; ++v) {
    if (begin_[v] + ranks_[v] + 1 == begin_[v + 1]) continue;
    double child = prefix_[v] * ranked_prob_[begin_[v] + ranks_[v] + 1];
    for (int u = v + 1; u < n; ++u) {
      child *= ranked_prob_[begin_[u] + ranks_[u]];
    }
    heap_.push_back(Entry{child, top.rank_index + stride_[v], v});
    std::push_heap(heap_.begin(), heap_.end(), pops_later);
    ++pushed_;
  }
  return true;
}

namespace {

// Groups beyond this many worlds are walked in odometer order, not most
// probable first. Enumeration order never changes the decision, only how
// early it is reached.
constexpr int64_t kMaxSortedWorlds = 4096;

}  // namespace

SimPResult VerifySimP(const LabeledGraph& q,
                      const std::vector<UncertainGraph>& groups,
                      double total_mass, int tau, double alpha,
                      const LabelDictionary& dict,
                      const ged::GedOptions& options, VerifyStats* stats,
                      bool witness_accept) {
  if (groups.empty()) return SimPResult();
  ged::WorldBound world_bound = MakeWorldBound(q, groups.front(), dict);
  return VerifySimP(q, world_bound, groups, total_mass, tau, alpha,
                    /*early_exit=*/true, dict, options, stats, witness_accept);
}

SimPResult VerifySimP(const LabeledGraph& q, ged::WorldBound& world_bound,
                      std::span<const UncertainGraph> groups,
                      double total_mass, int tau, double alpha,
                      bool early_exit, const LabelDictionary& dict,
                      const ged::GedOptions& options, VerifyStats* stats,
                      bool witness_accept) {
  VerifyStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  SimPResult result;
  if (groups.empty()) return result;
  WorldEvaluator evaluator(q, world_bound, groups, tau, dict, options,
                           witness_accept, stats, &result);
  double remaining = total_mass;

  auto process = [&](const UncertainGraph& group,
                     const std::vector<int>& choice,
                     double world_prob) -> bool {
    evaluator.Evaluate(group, choice, world_prob);
    if (!early_exit) return false;
    remaining -= world_prob;
    if (result.probability >= alpha - kSimPEpsilon) {
      result.early_accept = true;
      return true;
    }
    if (result.probability + remaining < alpha - kSimPEpsilon) {
      result.early_reject = true;
      return true;
    }
    return false;
  };

  // Most probable worlds first: they decide most of the mass, so both early
  // exits trigger sooner.
  // One walk per thread: its buffers outlive the call, so a candidate
  // allocates nothing to walk its worlds.
  thread_local WorldWalk walk;
  std::vector<int> choice;
  double world_prob = 0.0;
  for (const UncertainGraph& group : groups) {
    if (group.NumPossibleWorlds() <= kMaxSortedWorlds) {
      walk.Start(group);
      while (walk.Next(&choice, &world_prob)) {
        if (process(group, choice, world_prob)) return result;
      }
    } else {
      for (PossibleWorldIterator it(group); !it.Done(); it.Next()) {
        if (process(group, it.choice(), it.probability())) return result;
      }
    }
  }
  return result;
}

MarkovVertexTerms MarkovTermsOf(
    const LabeledGraph& q,
    const std::vector<graph::LabelAlternative>& alternatives,
    const LabelDictionary& dict) {
  MarkovVertexTerms terms;
  double match_mass = 0.0;
  for (const graph::LabelAlternative& alt : alternatives) {
    terms.mass += alt.prob;
    bool matches = false;
    for (int u = 0; u < q.num_vertices(); ++u) {
      if (dict.Matches(alt.label, q.vertex_label(u))) {
        matches = true;
        break;
      }
    }
    if (matches) match_mass += alt.prob;
  }
  terms.match_ratio = match_mass / terms.mass;
  return terms;
}

double MarkovBound(double mass, double match_ratio_sum, int tau,
                   int structural_constant) {
  const int need = structural_constant - tau;
  if (need <= 0) return mass;
  return std::min(mass, mass * match_ratio_sum / need);
}

double UpperBoundSimPWithConstant(const LabeledGraph& q,
                                  const UncertainGraph& g, int tau,
                                  int structural_constant,
                                  const LabelDictionary& dict) {
  const double mass = g.TotalMass();
  if (structural_constant - tau <= 0) return mass;

  // E[Y * 1_group] = mass * sum_v (match_v / mass_v), with match_v the
  // probability mass of v's alternatives whose label matches some vertex
  // label of q (wildcard-aware).
  double match_ratio_sum = 0.0;
  for (int v = 0; v < g.num_vertices(); ++v) {
    const MarkovVertexTerms terms = MarkovTermsOf(q, g.alternatives(v), dict);
    SIMJ_CHECK_GT(terms.mass, 0.0);
    match_ratio_sum += terms.match_ratio;
  }
  return MarkovBound(mass, match_ratio_sum, tau, structural_constant);
}

double UpperBoundSimP(const LabeledGraph& q, const UncertainGraph& g,
                      int tau, const LabelDictionary& dict) {
  return UpperBoundSimPWithConstant(
      q, g, tau, ged::CssStructuralConstant(q, g, dict), dict);
}

namespace {

double TotalProbabilityBound(const LabeledGraph& q, const UncertainGraph& g,
                             int tau, int structural_constant,
                             const LabelDictionary& dict, int depth) {
  // Condition on the vertex with the most alternatives.
  int pivot = -1;
  size_t most = 1;
  for (int v = 0; v < g.num_vertices(); ++v) {
    if (g.alternatives(v).size() > most) {
      most = g.alternatives(v).size();
      pivot = v;
    }
  }
  if (depth <= 0 || pivot < 0) {
    if (structural_constant -
            ged::MaxCommonVertexLabels(q, g, dict) > tau) {
      return 0.0;
    }
    return UpperBoundSimPWithConstant(q, g, tau, structural_constant, dict);
  }
  double total = 0.0;
  for (int alt = 0; alt < static_cast<int>(g.alternatives(pivot).size());
       ++alt) {
    UncertainGraph restricted = g.RestrictVertex(pivot, {alt});
    total += TotalProbabilityBound(q, restricted, tau, structural_constant,
                                   dict, depth - 1);
  }
  return total;
}

}  // namespace

double UpperBoundSimPTotalProbability(const LabeledGraph& q,
                                      const UncertainGraph& g, int tau,
                                      const LabelDictionary& dict,
                                      int depth) {
  return TotalProbabilityBound(
      q, g, tau, ged::CssStructuralConstant(q, g, dict), dict, depth);
}

}  // namespace simj::core
