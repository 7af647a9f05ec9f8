#include "core/similarity.h"

#include <algorithm>
#include <numeric>

#include "ged/lower_bounds.h"
#include "util/check.h"
#include "util/trace.h"

namespace simj::core {

namespace {

using graph::LabeledGraph;
using graph::LabelDictionary;
using graph::PossibleWorldIterator;
using graph::UncertainGraph;

// Evaluates the possible worlds of one pair: bound check, then bounded A*,
// accumulating into `result`.
class WorldEvaluator {
 public:
  WorldEvaluator(const LabeledGraph& q, ged::WorldBound& bound, int tau,
                 const LabelDictionary& dict, const ged::GedOptions& options,
                 VerifyStats* stats, SimPResult* result)
      : q_(q),
        bound_(bound),
        tau_(tau),
        dict_(dict),
        options_(options),
        stats_(stats),
        result_(result) {}

  // Called before the first world of each group.
  void StartGroup() { world_ready_ = false; }

  // Evaluates the world of `group` selected by `choice`.
  void Evaluate(const UncertainGraph& group, const std::vector<int>& choice,
                double world_prob) {
    ++stats_->worlds_enumerated;
    if (bound_.Bound(group, choice, dict_) > tau_) {
      ++stats_->worlds_pruned_by_bound;
      return;
    }
    // The world overlay: the group's structure, copied once, with this
    // world's labels written in. Equal to group.Materialize(choice).
    if (!world_ready_) {
      world_ = group.structure();
      world_ready_ = true;
    }
    for (int v = 0; v < group.num_vertices(); ++v) {
      world_.set_vertex_label(v, group.alternatives(v)[choice[v]].label);
    }
    // Cheap accept: when the greedy upper bound already fits within tau and
    // this world cannot improve the best mapping, skip the exact search.
    // The exact A* still runs for would-be-best worlds so template
    // generation sees an optimal mapping.
    if (world_prob <= result_->best_world_prob &&
        ged::GreedyGedUpperBound(q_, world_, dict_) <= tau_) {
      ++stats_->worlds_accepted_by_upper_bound;
      result_->probability += world_prob;
      return;
    }
    ++stats_->ged_calls;
    bool aborted = false;
    std::optional<ged::GedResult> ged_result;
    {
      trace::ScopedSpan span("ged_astar", "verify");
      ged_result = ged::BoundedGed(q_, world_, tau_, dict_, options_, &aborted);
    }
    if (aborted) ++stats_->ged_aborted;
    if (!ged_result.has_value()) return;
    result_->probability += world_prob;
    if (world_prob > result_->best_world_prob) {
      result_->best_world_prob = world_prob;
      result_->best_world_ged = ged_result->distance;
      result_->best_mapping = ged_result->mapping;
    }
  }

 private:
  const LabeledGraph& q_;
  ged::WorldBound& bound_;
  const int tau_;
  const LabelDictionary& dict_;
  const ged::GedOptions& options_;
  VerifyStats* stats_;
  SimPResult* result_;
  LabeledGraph world_;
  bool world_ready_ = false;
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
  ged::WorldBound world_bound = MakeWorldBound(q, g, dict);
  return ComputeSimP(q, world_bound, g, tau, dict, options, stats);
}

SimPResult ComputeSimP(const LabeledGraph& q, ged::WorldBound& world_bound,
                       const UncertainGraph& g, int tau,
                       const LabelDictionary& dict,
                       const ged::GedOptions& options, VerifyStats* stats) {
  VerifyStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  SimPResult result;
  WorldEvaluator evaluator(q, world_bound, tau, dict, options, stats, &result);
  for (PossibleWorldIterator it(g); !it.Done(); it.Next()) {
    evaluator.Evaluate(g, it.choice(), it.probability());
  }
  return result;
}

namespace {

// Worlds sorted by descending probability reach both early exits sooner
// (the most probable worlds decide most of the mass). Enumeration order
// never changes the decision, only how early it is reached. Groups beyond
// this many worlds are processed in odometer order to avoid materializing
// a huge list.
constexpr int64_t kMaxSortedWorlds = 4096;

// The worlds of one group, most probable first. A world is kept as its
// index w in PossibleWorldIterator order, from which Choice() decodes it:
// the iterator counts with vertex 0 as the fastest-moving digit. The
// buffers are reused from group to group.
struct SortedWorlds {
  std::vector<double> probability;  // of world w
  std::vector<int> order;           // world indexes by descending probability

  void List(const UncertainGraph& g) {
    probability.clear();
    probability.reserve(static_cast<size_t>(g.NumPossibleWorlds()));
    for (PossibleWorldIterator it(g); !it.Done(); it.Next()) {
      probability.push_back(it.probability());
    }
    order.resize(probability.size());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [this](int a, int b) {
      return probability[a] > probability[b];
    });
  }

  static void Choice(const UncertainGraph& g, int w, std::vector<int>* choice) {
    choice->resize(static_cast<size_t>(g.num_vertices()));
    for (int v = 0; v < g.num_vertices(); ++v) {
      const int alternatives = static_cast<int>(g.alternatives(v).size());
      (*choice)[v] = w % alternatives;
      w /= alternatives;
    }
  }
};

}  // namespace

SimPResult VerifySimP(const LabeledGraph& q,
                      const std::vector<UncertainGraph>& groups,
                      double total_mass, int tau, double alpha,
                      const LabelDictionary& dict,
                      const ged::GedOptions& options, VerifyStats* stats) {
  if (groups.empty()) return SimPResult();
  ged::WorldBound world_bound = MakeWorldBound(q, groups.front(), dict);
  return VerifySimP(q, world_bound, groups, total_mass, tau, alpha, dict,
                    options, stats);
}

SimPResult VerifySimP(const LabeledGraph& q, ged::WorldBound& world_bound,
                      const std::vector<UncertainGraph>& groups,
                      double total_mass, int tau, double alpha,
                      const LabelDictionary& dict,
                      const ged::GedOptions& options, VerifyStats* stats) {
  VerifyStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  SimPResult result;
  WorldEvaluator evaluator(q, world_bound, tau, dict, options, stats, &result);
  double remaining = total_mass;

  auto process = [&](const UncertainGraph& group,
                     const std::vector<int>& choice,
                     double world_prob) -> bool {
    evaluator.Evaluate(group, choice, world_prob);
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

  SortedWorlds worlds;
  std::vector<int> choice;
  for (const UncertainGraph& group : groups) {
    evaluator.StartGroup();
    if (group.NumPossibleWorlds() <= kMaxSortedWorlds) {
      worlds.List(group);
      for (int w : worlds.order) {
        SortedWorlds::Choice(group, w, &choice);
        if (process(group, choice, worlds.probability[w])) return result;
      }
    } else {
      for (PossibleWorldIterator it(group); !it.Done(); it.Next()) {
        if (process(group, it.choice(), it.probability())) return result;
      }
    }
  }
  return result;
}

double UpperBoundSimPWithConstant(const LabeledGraph& q,
                                  const UncertainGraph& g, int tau,
                                  int structural_constant,
                                  const LabelDictionary& dict) {
  double mass = g.TotalMass();
  int need = structural_constant - tau;
  if (need <= 0) return mass;

  // E[Y * 1_group] = mass * sum_v (match_v / mass_v), with match_v the
  // probability mass of v's alternatives whose label matches some vertex
  // label of q (wildcard-aware).
  double expectation_ratio = 0.0;
  for (int v = 0; v < g.num_vertices(); ++v) {
    double vertex_mass = 0.0;
    double match_mass = 0.0;
    for (const graph::LabelAlternative& alt : g.alternatives(v)) {
      vertex_mass += alt.prob;
      bool matches = false;
      for (int u = 0; u < q.num_vertices(); ++u) {
        if (dict.Matches(alt.label, q.vertex_label(u))) {
          matches = true;
          break;
        }
      }
      if (matches) match_mass += alt.prob;
    }
    SIMJ_CHECK_GT(vertex_mass, 0.0);
    expectation_ratio += match_mass / vertex_mass;
  }
  double markov = mass * expectation_ratio / need;
  return std::min(mass, markov);
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
