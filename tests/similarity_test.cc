#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/groups.h"
#include "core/similarity.h"
#include "ged/edit_distance.h"
#include "ged/lower_bounds.h"
#include "graph/uncertain_graph.h"
#include "test_util.h"
#include "util/rng.h"

namespace simj::core {
namespace {

using graph::LabelDictionary;
using graph::LabeledGraph;
using graph::UncertainGraph;

// Paper Example 3 flavor: SimP adds up exactly the qualifying worlds.
TEST(SimilarityTest, HandComputedSimP) {
  LabelDictionary dict;
  graph::LabelId a = dict.Intern("A");
  graph::LabelId b = dict.Intern("B");
  graph::LabelId c = dict.Intern("C");
  graph::LabelId r = dict.Intern("r");

  LabeledGraph q;
  q.AddVertex(a);
  q.AddVertex(b);
  q.AddEdge(0, 1, r);

  // Worlds: (A,B) p=0.42 ged 0; (C,B) p=0.18 ged 1; (A,C) p=0.28 ged 1;
  //         (C,C) p=0.12 ged 2.
  UncertainGraph g;
  g.AddVertex({{a, 0.7}, {c, 0.3}});
  g.AddVertex({{b, 0.6}, {c, 0.4}});
  g.AddEdge(0, 1, r);

  EXPECT_NEAR(ComputeSimP(q, g, /*tau=*/0, dict).probability, 0.42, 1e-9);
  EXPECT_NEAR(ComputeSimP(q, g, /*tau=*/1, dict).probability, 0.88, 1e-9);
  EXPECT_NEAR(ComputeSimP(q, g, /*tau=*/2, dict).probability, 1.0, 1e-9);
}

TEST(SimilarityTest, BestMappingComesFromMostProbableQualifyingWorld) {
  LabelDictionary dict;
  graph::LabelId a = dict.Intern("A");
  graph::LabelId b = dict.Intern("B");
  LabeledGraph q;
  q.AddVertex(a);

  UncertainGraph g;
  g.AddVertex({{a, 0.3}, {b, 0.7}});

  SimPResult result = ComputeSimP(q, g, /*tau=*/0, dict);
  EXPECT_NEAR(result.probability, 0.3, 1e-12);
  EXPECT_EQ(result.best_world_ged, 0);
  EXPECT_NEAR(result.best_world_prob, 0.3, 1e-12);
  ASSERT_EQ(result.best_mapping.size(), 1u);
  EXPECT_EQ(result.best_mapping[0], 0);
}

class SimPPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(SimPPropertyTest, UpperBoundDominatesExactSimP) {
  LabelDictionary dict;
  auto vlabels = simj::testing::TestLabels(dict, 5);
  std::vector<graph::LabelId> elabels = {dict.Intern("r1"),
                                         dict.Intern("r2")};
  Rng rng(600 + GetParam());
  LabeledGraph q = simj::testing::RandomCertainGraph(
      rng, vlabels, elabels, static_cast<int>(rng.Uniform(1, 5)),
      static_cast<int>(rng.Uniform(0, 6)));
  UncertainGraph g = simj::testing::RandomUncertainGraph(
      rng, vlabels, elabels, static_cast<int>(rng.Uniform(1, 4)),
      static_cast<int>(rng.Uniform(0, 5)), /*max_alts=*/3);
  int tau = static_cast<int>(rng.Uniform(0, 4));

  double exact = ComputeSimP(q, g, tau, dict).probability;
  double upper = UpperBoundSimP(q, g, tau, dict);
  EXPECT_GE(upper + 1e-9, exact);
  EXPECT_GE(exact, 0.0);
  EXPECT_LE(exact, g.TotalMass() + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sweep, SimPPropertyTest, ::testing::Range(0, 60));

class TotalProbabilityBoundTest : public ::testing::TestWithParam<int> {};

TEST_P(TotalProbabilityBoundTest, ConditionedBoundIsValid) {
  LabelDictionary dict;
  auto vlabels = simj::testing::TestLabels(dict, 5);
  std::vector<graph::LabelId> elabels = {dict.Intern("r1")};
  Rng rng(650 + GetParam());
  LabeledGraph q = simj::testing::RandomCertainGraph(
      rng, vlabels, elabels, static_cast<int>(rng.Uniform(1, 5)),
      static_cast<int>(rng.Uniform(0, 6)));
  UncertainGraph g = simj::testing::RandomUncertainGraph(
      rng, vlabels, elabels, static_cast<int>(rng.Uniform(1, 4)),
      static_cast<int>(rng.Uniform(0, 5)), /*max_alts=*/4);
  int tau = static_cast<int>(rng.Uniform(0, 3));

  double exact = ComputeSimP(q, g, tau, dict).probability;
  for (int depth : {0, 1, 2, 3}) {
    double bound = UpperBoundSimPTotalProbability(q, g, tau, dict, depth);
    EXPECT_GE(bound + 1e-9, exact) << "depth=" << depth;
  }
  // Depth 0 degenerates to the plain Markov bound.
  EXPECT_NEAR(UpperBoundSimPTotalProbability(q, g, tau, dict, 0),
              std::min(UpperBoundSimP(q, g, tau, dict),
                       UpperBoundSimPTotalProbability(q, g, tau, dict, 0)),
              1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sweep, TotalProbabilityBoundTest,
                         ::testing::Range(0, 40));

TEST(VerifyStatsTest, UpperBoundShortcutCountsWorlds) {
  // A pair where many worlds qualify: the greedy bound should accept some
  // of them without exact searches.
  LabelDictionary dict;
  graph::LabelId a = dict.Intern("A");
  graph::LabelId b = dict.Intern("B");
  graph::LabelId c = dict.Intern("C");
  graph::LabelId r = dict.Intern("r");
  LabeledGraph q;
  q.AddVertex(a);
  q.AddVertex(a);
  q.AddEdge(0, 1, r);
  UncertainGraph g;
  g.AddVertex({{a, 0.5}, {b, 0.3}, {c, 0.2}});
  g.AddVertex({{a, 0.5}, {b, 0.3}, {c, 0.2}});
  g.AddEdge(0, 1, r);

  VerifyStats stats;
  SimPResult result = ComputeSimP(q, g, /*tau=*/2, dict, ged::GedOptions(),
                                  &stats);
  EXPECT_NEAR(result.probability, 1.0, 1e-9);  // every world within 2 edits
  EXPECT_GT(stats.worlds_accepted_by_upper_bound, 0);
  EXPECT_EQ(stats.worlds_enumerated, 9);
}

class GroupingPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(GroupingPropertyTest, GroupsPartitionSimPAndBoundsStayValid) {
  LabelDictionary dict;
  auto vlabels = simj::testing::TestLabels(dict, 5);
  std::vector<graph::LabelId> elabels = {dict.Intern("r1")};
  Rng rng(700 + GetParam());
  LabeledGraph q = simj::testing::RandomCertainGraph(
      rng, vlabels, elabels, static_cast<int>(rng.Uniform(1, 5)),
      static_cast<int>(rng.Uniform(0, 5)));
  UncertainGraph g = simj::testing::RandomUncertainGraph(
      rng, vlabels, elabels, static_cast<int>(rng.Uniform(2, 4)),
      static_cast<int>(rng.Uniform(0, 4)), /*max_alts=*/3);
  int tau = static_cast<int>(rng.Uniform(0, 3));

  const SimPResult oracle = ComputeSimP(q, g, tau, dict);
  const double exact = oracle.probability;
  ged::WorldBound world_bound(ged::Summarize(q, dict),
                              ged::CssStructuralConstant(q, g, dict));

  for (int group_count : {1, 2, 4, 8}) {
    GroupingOptions options;
    options.group_count = group_count;
    GroupingResult grouping = PartitionPossibleWorlds(q, g, tau, dict, options);

    // The summed group upper bound must dominate the exact SimP.
    EXPECT_GE(grouping.simp_upper_bound + 1e-9, exact)
        << "group_count=" << group_count;

    // Exact SimP restricted to live groups must equal the full SimP:
    // discarded groups contain no qualifying world.
    double across_groups = 0.0;
    for (const ScoredGroup& group : grouping.live_groups) {
      across_groups += ComputeSimP(q, group.graph, tau, dict).probability;
    }
    EXPECT_NEAR(across_groups, exact, 1e-9) << "group_count=" << group_count;

    // Without the early exits, one walk over the live groups is exact SimP,
    // and its best world is the oracle's.
    std::vector<UncertainGraph> groups;
    for (const ScoredGroup& group : grouping.live_groups) {
      groups.push_back(group.graph);
    }
    const SimPResult walked = VerifySimP(
        q, world_bound, groups, grouping.live_mass, tau, /*alpha=*/1.0,
        /*early_exit=*/false, dict, ged::GedOptions(), nullptr,
        /*witness_accept=*/true);
    EXPECT_NEAR(walked.probability, exact, kSimPEpsilon)
        << "group_count=" << group_count;
    EXPECT_FALSE(walked.early_accept || walked.early_reject);
    EXPECT_EQ(walked.best_world_prob, oracle.best_world_prob)
        << "group_count=" << group_count;

    // Masses of live groups never exceed the total.
    EXPECT_LE(grouping.live_mass, g.TotalMass() + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, GroupingPropertyTest, ::testing::Range(0, 40));

TEST(GroupingTest, SplitsRespectGroupCountAndMass) {
  LabelDictionary dict;
  graph::LabelId a = dict.Intern("A");
  graph::LabelId b = dict.Intern("B");
  graph::LabelId c = dict.Intern("C");
  graph::LabelId r = dict.Intern("r");
  LabeledGraph q;
  q.AddVertex(a);
  q.AddVertex(a);
  q.AddEdge(0, 1, r);
  UncertainGraph g;
  g.AddVertex({{a, 0.5}, {b, 0.3}, {c, 0.2}});
  g.AddVertex({{a, 0.6}, {b, 0.4}});
  g.AddEdge(0, 1, r);

  for (int gn : {1, 2, 3, 5, 100}) {
    GroupingOptions options;
    options.group_count = gn;
    GroupingResult grouping =
        PartitionPossibleWorlds(q, g, /*tau=*/1, dict, options);
    // Never more groups than requested; mass never exceeds the total;
    // bounds stay within their ranges.
    EXPECT_LE(static_cast<int>(grouping.live_groups.size()), std::max(1, gn));
    EXPECT_LE(grouping.live_mass, g.TotalMass() + 1e-9);
    double mass_sum = 0.0;
    for (const ScoredGroup& group : grouping.live_groups) {
      EXPECT_GE(group.lower_bound, 0);
      EXPECT_LE(group.lower_bound, 1);  // live groups only
      EXPECT_GE(group.upper_bound, 0.0);
      EXPECT_LE(group.upper_bound, group.mass + 1e-9);
      mass_sum += group.mass;
    }
    EXPECT_NEAR(mass_sum, grouping.live_mass, 1e-9);
  }
  // With unlimited splitting the graph decomposes into fully certain
  // groups: 3 * 2 = 6 possible worlds.
  GroupingOptions unlimited;
  unlimited.group_count = 100;
  GroupingResult grouping =
      PartitionPossibleWorlds(q, g, /*tau=*/5, dict, unlimited);
  int64_t worlds = 0;
  for (const ScoredGroup& group : grouping.live_groups) {
    worlds += group.graph.NumPossibleWorlds();
  }
  EXPECT_EQ(worlds, 6);
}

TEST(GroupingTest, AllHeuristicsProduceValidBounds) {
  LabelDictionary dict;
  auto vlabels = simj::testing::TestLabels(dict, 5);
  std::vector<graph::LabelId> elabels = {dict.Intern("r1")};
  Rng rng(760);
  LabeledGraph q = simj::testing::RandomCertainGraph(rng, vlabels, elabels,
                                                     3, 3);
  UncertainGraph g = simj::testing::RandomUncertainGraph(
      rng, vlabels, elabels, 3, 3, /*max_alts=*/4);
  double exact = ComputeSimP(q, g, /*tau=*/1, dict).probability;
  for (SplitHeuristic heuristic :
       {SplitHeuristic::kCostModel, SplitHeuristic::kMassOnly,
        SplitHeuristic::kCountOnly}) {
    GroupingOptions options;
    options.group_count = 6;
    options.heuristic = heuristic;
    GroupingResult grouping =
        PartitionPossibleWorlds(q, g, /*tau=*/1, dict, options);
    EXPECT_GE(grouping.simp_upper_bound + 1e-9, exact);
  }
}

// The partition as it was computed before split scoring read the parent's
// cached terms: every candidate child built with RestrictVertex and scored
// from scratch (TotalMass, SummarizeGroup, MaxCommonVertexLabels,
// UpperBoundSimPWithConstant).
ScoredGroup ScoreFromScratch(const LabeledGraph& q,
                             const ged::GraphSummary& q_summary,
                             UncertainGraph group, ged::GraphSummary summary,
                             int tau, int structural_constant,
                             const LabelDictionary& dict) {
  ScoredGroup scored;
  scored.mass = group.TotalMass();
  scored.lower_bound =
      std::max(0, structural_constant -
                      ged::MaxCommonVertexLabels(q_summary, summary));
  scored.upper_bound =
      scored.lower_bound > tau
          ? 0.0
          : UpperBoundSimPWithConstant(q, group, tau, structural_constant,
                                       dict);
  scored.graph = std::move(group);
  scored.summary = std::move(summary);
  return scored;
}

std::vector<ScoredGroup> ReferencePartition(const LabeledGraph& q,
                                            const UncertainGraph& g, int tau,
                                            const LabelDictionary& dict,
                                            const GroupingOptions& options) {
  const ged::GraphSummary q_summary = ged::Summarize(q, dict);
  const ged::GraphSummary g_summary = ged::Summarize(g, dict);
  const int constant = ged::CssStructuralConstant(q_summary, g_summary);
  std::vector<ScoredGroup> groups;
  groups.push_back(
      ScoreFromScratch(q, q_summary, g, g_summary, tau, constant, dict));
  while (static_cast<int>(groups.size()) < options.group_count) {
    int target = -1;
    for (int i = 0; i < static_cast<int>(groups.size()); ++i) {
      const ScoredGroup& group = groups[i];
      bool splittable = false;
      for (int v = 0; v < group.graph.num_vertices(); ++v) {
        if (group.graph.alternatives(v).size() >= 2) splittable = true;
      }
      if (group.lower_bound > tau || !splittable) continue;
      if (target == -1 || group.lower_bound < groups[target].lower_bound ||
          (group.lower_bound == groups[target].lower_bound &&
           group.upper_bound > groups[target].upper_bound)) {
        target = i;
      }
    }
    if (target == -1) break;
    const UncertainGraph& parent = groups[target].graph;
    // The two selection principles, as in groups.cc.
    int by_mass = -1;
    double best_mass = -1.0;
    int by_count = -1;
    int best_count = 1;
    for (int v = 0; v < parent.num_vertices(); ++v) {
      const auto& alts = parent.alternatives(v);
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
    std::vector<int> picks;
    if (options.heuristic != SplitHeuristic::kCountOnly) {
      picks.push_back(by_mass);
    }
    if (options.heuristic != SplitHeuristic::kMassOnly) {
      picks.push_back(by_count);
    }
    double best_cost = 0.0;
    std::vector<ScoredGroup> best_children;
    for (size_t p = 0; p < picks.size(); ++p) {
      const int v = picks[p];
      if (v < 0 || (p == 1 && picks[0] == v)) continue;
      const auto& alts = parent.alternatives(v);
      int top = 0;
      for (int i = 1; i < static_cast<int>(alts.size()); ++i) {
        if (alts[i].prob > alts[top].prob) top = i;
      }
      std::vector<int> rest;
      for (int i = 0; i < static_cast<int>(alts.size()); ++i) {
        if (i != top) rest.push_back(i);
      }
      std::vector<ScoredGroup> children;
      for (const std::vector<int>& keep : {std::vector<int>{top}, rest}) {
        UncertainGraph child = parent.RestrictVertex(v, keep);
        ged::GraphSummary summary =
            ged::SummarizeGroup(groups[target].summary, child, dict);
        children.push_back(ScoreFromScratch(q, q_summary, std::move(child),
                                            std::move(summary), tau, constant,
                                            dict));
      }
      double cost = 0.0;
      for (const ScoredGroup& child : children) {
        if (child.lower_bound <= tau) cost += child.upper_bound;
      }
      if (best_children.empty() || cost < best_cost) {
        best_cost = cost;
        best_children = std::move(children);
      }
    }
    groups[target] = std::move(best_children[0]);
    groups.push_back(std::move(best_children[1]));
  }
  return groups;
}

void ExpectSameSummary(const ged::GraphSummary& got,
                       const ged::GraphSummary& want) {
  EXPECT_EQ(got.num_vertices, want.num_vertices);
  EXPECT_EQ(got.num_edges, want.num_edges);
  EXPECT_EQ(got.sorted_degrees, want.sorted_degrees);
  ASSERT_EQ(got.edge_labels.size(), want.edge_labels.size());
  for (size_t i = 0; i < got.edge_labels.size(); ++i) {
    EXPECT_EQ(got.edge_labels[i].label, want.edge_labels[i].label);
    EXPECT_EQ(got.edge_labels[i].count, want.edge_labels[i].count);
  }
  EXPECT_EQ(got.wildcard_edges, want.wildcard_edges);
  EXPECT_EQ(got.wildcard_vertices, want.wildcard_vertices);
  EXPECT_EQ(got.vertex_wildcard, want.vertex_wildcard);
  EXPECT_EQ(got.labeled_vertices, want.labeled_vertices);
}

// Split children are scored from the parent's cached per-vertex terms and
// summary, without building them. Every group must come out bit for bit as
// the from-scratch partition above has it, and as a from-scratch score of
// its own materialized graph; and it must share g's structure.
class SplitScoringTest : public ::testing::TestWithParam<int> {};

TEST_P(SplitScoringTest, ChildrenMatchFromScratchScores) {
  LabelDictionary dict;
  std::vector<graph::LabelId> vlabels = simj::testing::TestLabels(dict, 5);
  vlabels.push_back(dict.Intern("?v"));
  const std::vector<graph::LabelId> elabels = {dict.Intern("r1"),
                                               dict.Intern("r2"),
                                               dict.Intern("?r")};
  Rng rng(900 + GetParam());
  const LabeledGraph q = simj::testing::RandomCertainGraph(
      rng, vlabels, elabels, static_cast<int>(rng.Uniform(1, 6)),
      static_cast<int>(rng.Uniform(0, 8)));
  const UncertainGraph g = simj::testing::RandomUncertainGraph(
      rng, vlabels, elabels, static_cast<int>(rng.Uniform(2, 7)),
      static_cast<int>(rng.Uniform(0, 9)), /*max_alts=*/4);
  const ged::GraphSummary q_summary = ged::Summarize(q, dict);
  const ged::GraphSummary g_summary = ged::Summarize(g, dict);
  const int constant = ged::CssStructuralConstant(q_summary, g_summary);
  for (int tau = 0; tau <= 6; tau += 2) {
    for (int group_count : {2, 3, 5, 8}) {
      for (SplitHeuristic heuristic :
           {SplitHeuristic::kCostModel, SplitHeuristic::kMassOnly,
            SplitHeuristic::kCountOnly}) {
        SCOPED_TRACE("tau=" + std::to_string(tau) +
                     " group_count=" + std::to_string(group_count) +
                     " heuristic=" +
                     std::to_string(static_cast<int>(heuristic)));
        GroupingOptions options;
        options.group_count = group_count;
        options.heuristic = heuristic;
        const GroupingResult got =
            PartitionPossibleWorlds(q, g, tau, dict, options);
        const std::vector<ScoredGroup> want =
            ReferencePartition(q, g, tau, dict, options);
        double want_upper = 0.0;
        double want_live_mass = 0.0;
        std::vector<const ScoredGroup*> want_live;
        for (const ScoredGroup& group : want) {
          if (group.lower_bound > tau) continue;
          want_upper += group.upper_bound;
          want_live_mass += group.mass;
          want_live.push_back(&group);
        }
        EXPECT_EQ(got.simp_upper_bound, want_upper);
        EXPECT_EQ(got.live_mass, want_live_mass);
        ASSERT_EQ(got.live_groups.size(), want_live.size());
        for (size_t i = 0; i < want_live.size(); ++i) {
          const ScoredGroup& a = got.live_groups[i];
          const ScoredGroup& b = *want_live[i];
          SCOPED_TRACE("group " + std::to_string(i));
          EXPECT_EQ(a.mass, b.mass);
          EXPECT_EQ(a.lower_bound, b.lower_bound);
          EXPECT_EQ(a.upper_bound, b.upper_bound);
          ExpectSameSummary(a.summary, b.summary);
          ASSERT_EQ(a.graph.num_vertices(), b.graph.num_vertices());
          for (int v = 0; v < a.graph.num_vertices(); ++v) {
            EXPECT_EQ(a.graph.alternatives(v), b.graph.alternatives(v));
          }
          // From scratch on the group's own graph.
          EXPECT_EQ(&a.graph.structure(), &g.structure());
          EXPECT_EQ(a.mass, a.graph.TotalMass());
          ExpectSameSummary(a.summary,
                            ged::SummarizeGroup(g_summary, a.graph, dict));
          EXPECT_EQ(a.upper_bound, UpperBoundSimPWithConstant(
                                       q, a.graph, tau, constant, dict));
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, SplitScoringTest, ::testing::Range(0, 30));

TEST(VerifySimPTest, EarlyAcceptStopsAtAlpha) {
  LabelDictionary dict;
  graph::LabelId a = dict.Intern("A");
  graph::LabelId b = dict.Intern("B");
  LabeledGraph q;
  q.AddVertex(a);

  UncertainGraph g;
  g.AddVertex({{a, 0.6}, {b, 0.4}});

  VerifyStats stats;
  SimPResult result = VerifySimP(q, {g}, g.TotalMass(), /*tau=*/0,
                                 /*alpha=*/0.5, dict, ged::GedOptions(),
                                 &stats);
  EXPECT_TRUE(result.early_accept);
  EXPECT_GE(result.probability, 0.5);
}

TEST(VerifySimPTest, EarlyRejectWhenAlphaUnreachable) {
  LabelDictionary dict;
  graph::LabelId a = dict.Intern("A");
  graph::LabelId b = dict.Intern("B");
  graph::LabelId c = dict.Intern("C");
  LabeledGraph q;
  q.AddVertex(a);

  UncertainGraph g;
  g.AddVertex({{b, 0.5}, {c, 0.5}});  // no world within tau=0

  SimPResult result =
      VerifySimP(q, {g}, g.TotalMass(), /*tau=*/0, /*alpha=*/0.9, dict);
  EXPECT_TRUE(result.early_reject);
  EXPECT_LT(result.probability, 0.9);
}

class VerifyConsistencyTest : public ::testing::TestWithParam<int> {};

TEST_P(VerifyConsistencyTest, DecisionMatchesExactComputation) {
  LabelDictionary dict;
  auto vlabels = simj::testing::TestLabels(dict, 4);
  std::vector<graph::LabelId> elabels = {dict.Intern("r1")};
  Rng rng(800 + GetParam());
  LabeledGraph q = simj::testing::RandomCertainGraph(
      rng, vlabels, elabels, static_cast<int>(rng.Uniform(1, 4)),
      static_cast<int>(rng.Uniform(0, 5)));
  UncertainGraph g = simj::testing::RandomUncertainGraph(
      rng, vlabels, elabels, static_cast<int>(rng.Uniform(1, 4)),
      static_cast<int>(rng.Uniform(0, 4)), /*max_alts=*/3);
  int tau = static_cast<int>(rng.Uniform(0, 3));
  double alpha = 0.1 + 0.8 * rng.UniformDouble();

  double exact = ComputeSimP(q, g, tau, dict).probability;
  SimPResult verified = VerifySimP(q, {g}, g.TotalMass(), tau, alpha, dict);
  bool exact_decision = exact >= alpha - 1e-9;
  bool verify_decision = verified.probability >= alpha - 1e-9;
  EXPECT_EQ(exact_decision, verify_decision)
      << "exact=" << exact << " alpha=" << alpha;
}

INSTANTIATE_TEST_SUITE_P(Sweep, VerifyConsistencyTest,
                         ::testing::Range(0, 60));

}  // namespace
}  // namespace simj::core
