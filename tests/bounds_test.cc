#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ged/edit_distance.h"
#include "ged/lower_bounds.h"
#include "graph/uncertain_graph.h"
#include "test_util.h"
#include "util/rng.h"

namespace simj::ged {
namespace {

using graph::LabelDictionary;
using graph::LabeledGraph;
using graph::PossibleWorldIterator;
using graph::UncertainGraph;

TEST(LowerBoundTest, CountBoundHandCase) {
  LabelDictionary dict;
  graph::LabelId a = dict.Intern("A");
  LabeledGraph g1, g2;
  g1.AddVertex(a);
  g2.AddVertex(a);
  g2.AddVertex(a);
  g2.AddEdge(0, 1, a);
  EXPECT_EQ(CountLowerBound(g1, g2), 2);
}

TEST(LowerBoundTest, IdenticalGraphsGiveZeroBounds) {
  LabelDictionary dict;
  graph::LabelId a = dict.Intern("A");
  graph::LabelId r = dict.Intern("r");
  LabeledGraph g;
  g.AddVertex(a);
  g.AddVertex(a);
  g.AddEdge(0, 1, r);
  EXPECT_EQ(CountLowerBound(g, g), 0);
  EXPECT_EQ(LabelMultisetLowerBound(g, g, dict), 0);
  EXPECT_EQ(CssLowerBound(g, g, dict), 0);
}

TEST(LowerBoundTest, CssUsesDegreeDistance) {
  // Star with 3 spokes vs path with 4 vertices: same |V|, |E|, same labels,
  // but the degree sequences differ, so only CSS sees a gap.
  LabelDictionary dict;
  graph::LabelId a = dict.Intern("A");
  graph::LabelId r = dict.Intern("r");
  LabeledGraph star;
  for (int i = 0; i < 4; ++i) star.AddVertex(a);
  star.AddEdge(0, 1, r);
  star.AddEdge(0, 2, r);
  star.AddEdge(0, 3, r);
  LabeledGraph path;
  for (int i = 0; i < 4; ++i) path.AddVertex(a);
  path.AddEdge(0, 1, r);
  path.AddEdge(1, 2, r);
  path.AddEdge(2, 3, r);

  EXPECT_EQ(LabelMultisetLowerBound(star, path, dict), 0);
  EXPECT_GE(CssLowerBound(star, path, dict), 1);
  int exact = ExactGed(star, path, dict).distance;
  EXPECT_LE(CssLowerBound(star, path, dict), exact);
}

class CertainBoundsPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(CertainBoundsPropertyTest, BoundsAreValidAndOrdered) {
  LabelDictionary dict;
  auto vlabels = simj::testing::TestLabels(dict, 4);
  vlabels.push_back(dict.Intern("?x"));  // mix in wildcards
  std::vector<graph::LabelId> elabels = {dict.Intern("r1"),
                                         dict.Intern("r2")};
  Rng rng(400 + GetParam());
  LabeledGraph g1 = simj::testing::RandomCertainGraph(
      rng, vlabels, elabels, static_cast<int>(rng.Uniform(1, 5)),
      static_cast<int>(rng.Uniform(0, 6)));
  LabeledGraph g2 = simj::testing::RandomCertainGraph(
      rng, vlabels, elabels, static_cast<int>(rng.Uniform(1, 5)),
      static_cast<int>(rng.Uniform(0, 6)));

  int exact = ExactGed(g1, g2, dict).distance;
  int count_lb = CountLowerBound(g1, g2);
  int lm_lb = LabelMultisetLowerBound(g1, g2, dict);
  int css_lb = CssLowerBound(g1, g2, dict);
  int cstar_lb = CStarLowerBound(g1, g2, dict);

  // All bounds are valid lower bounds.
  EXPECT_LE(count_lb, exact);
  EXPECT_LE(lm_lb, exact);
  EXPECT_LE(css_lb, exact);
  EXPECT_LE(cstar_lb, exact);
  EXPECT_GE(cstar_lb, 0);
  // Thm. 2: CSS dominates the label-multiset bound (which dominates the
  // count bound by [31]), and so the count bound.
  EXPECT_GE(css_lb, lm_lb);
  EXPECT_LE(count_lb, css_lb);
}

INSTANTIATE_TEST_SUITE_P(Sweep, CertainBoundsPropertyTest,
                         ::testing::Range(0, 60));

class UncertainBoundPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(UncertainBoundPropertyTest, UniformBoundHoldsForEveryWorld) {
  LabelDictionary dict;
  auto vlabels = simj::testing::TestLabels(dict, 5);
  std::vector<graph::LabelId> elabels = {dict.Intern("r1"),
                                         dict.Intern("r2")};
  Rng rng(500 + GetParam());
  LabeledGraph q = simj::testing::RandomCertainGraph(
      rng, vlabels, elabels, static_cast<int>(rng.Uniform(1, 5)),
      static_cast<int>(rng.Uniform(0, 6)));
  UncertainGraph g = simj::testing::RandomUncertainGraph(
      rng, vlabels, elabels, static_cast<int>(rng.Uniform(1, 4)),
      static_cast<int>(rng.Uniform(0, 5)), /*max_alts=*/3);

  int uniform_bound = CssLowerBoundUncertain(q, g, dict);
  // Every world has g's counts, so the count bound sits below the uniform
  // bound too: the join's first structural check rests on this.
  EXPECT_LE(CountLowerBound(q, g.structure()), uniform_bound);
  for (PossibleWorldIterator it(g); !it.Done(); it.Next()) {
    graph::LabeledGraph world = g.Materialize(it.choice());
    int exact = ExactGed(q, world, dict).distance;
    EXPECT_LE(uniform_bound, exact);
    // The per-world certain bound is also valid.
    EXPECT_LE(CssLowerBound(q, world, dict), exact);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, UncertainBoundPropertyTest,
                         ::testing::Range(0, 40));

TEST(CStarBoundTest, HandCases) {
  LabelDictionary dict;
  graph::LabelId a = dict.Intern("A");
  graph::LabelId r = dict.Intern("r");
  LabeledGraph g;
  g.AddVertex(a);
  g.AddVertex(a);
  g.AddEdge(0, 1, r);
  EXPECT_EQ(CStarLowerBound(g, g, dict), 0);

  LabeledGraph empty;
  EXPECT_EQ(CStarLowerBound(empty, empty, dict), 0);
  // Versus the empty graph: mu = sum of star sizes, normalized by 4.
  EXPECT_GE(CStarLowerBound(g, empty, dict), 0);
  int exact = ExactGed(g, empty, dict).distance;
  EXPECT_LE(CStarLowerBound(g, empty, dict), exact);
}

TEST(UncertainBoundTest, MaxCommonVertexLabelsBipartite) {
  // Mirrors the paper's Def. 10 example shape: an uncertain vertex links to
  // a q vertex iff one of its alternatives matches.
  LabelDictionary dict;
  graph::LabelId nba = dict.Intern("NBA_Player");
  graph::LabelId prof = dict.Intern("Professor");
  graph::LabelId actor = dict.Intern("Actor");
  graph::LabelId city = dict.Intern("City");

  LabeledGraph q;
  q.AddVertex(actor);
  q.AddVertex(city);

  UncertainGraph g;
  g.AddVertex({{nba, 0.6}, {prof, 0.3}, {actor, 0.1}});
  g.AddVertex({{city, 1.0}});
  g.AddEdge(0, 1, actor);

  EXPECT_EQ(MaxCommonVertexLabels(q, g, dict), 2);
}

TEST(UncertainBoundTest, WildcardInQueryMatchesEverything) {
  LabelDictionary dict;
  graph::LabelId var = dict.Intern("?x");
  graph::LabelId a = dict.Intern("A");
  graph::LabelId b = dict.Intern("B");

  LabeledGraph q;
  q.AddVertex(var);

  UncertainGraph g;
  g.AddVertex({{a, 0.5}, {b, 0.5}});
  EXPECT_EQ(MaxCommonVertexLabels(q, g, dict), 1);
}

// ---------------------------------------------------------------------------
// Independent oracles for the summary kernels, on seeded graphs of at most 6
// vertices with wildcard vertex and edge labels, parallel edges and the
// empty graph.

struct KernelCase {
  LabelDictionary dict;
  LabeledGraph q;
  UncertainGraph g;
};

void MakeKernelCase(int seed, KernelCase* c) {
  Rng rng(7000 + seed);
  std::vector<graph::LabelId> vertex_labels =
      simj::testing::TestLabels(c->dict, 4);
  vertex_labels.push_back(c->dict.Intern("?x"));
  std::vector<graph::LabelId> edge_labels = {
      c->dict.Intern("r1"), c->dict.Intern("r2"), c->dict.Intern("?p")};
  // Seeds 0 and 1 pair an empty graph with a random one.
  const int q_vertices = seed == 0 ? 0 : static_cast<int>(rng.Uniform(1, 6));
  const int g_vertices = seed == 1 ? 0 : static_cast<int>(rng.Uniform(1, 6));
  c->q = simj::testing::RandomCertainGraph(
      rng, vertex_labels, edge_labels, q_vertices,
      static_cast<int>(rng.Uniform(0, 8)));
  c->g = simj::testing::RandomUncertainGraph(
      rng, vertex_labels, edge_labels, g_vertices,
      static_cast<int>(rng.Uniform(0, 8)), /*max_alts=*/3);
}

class SummaryKernelTest : public ::testing::TestWithParam<int> {};

// Def. 10, checked without a bipartite graph: lambda_V(q, g) is the best
// common vertex label count of any single possible world.
TEST_P(SummaryKernelTest, MaxCommonVertexLabelsIsTheBestWorld) {
  KernelCase c;
  MakeKernelCase(GetParam(), &c);
  int best = 0;
  for (PossibleWorldIterator it(c.g); !it.Done(); it.Next()) {
    LabeledGraph world = c.g.Materialize(it.choice());
    best = std::max(best, graph::MatchableLabelCount(
                              c.q.VertexLabelCounts(),
                              world.VertexLabelCounts(), c.dict));
  }
  EXPECT_EQ(MaxCommonVertexLabels(Summarize(c.q, c.dict),
                                  Summarize(c.g, c.dict)),
            best);
  EXPECT_EQ(MaxCommonVertexLabels(c.q, c.g, c.dict), best);
}

// lambda_E and C(q, g) from sorted runs equal their LabelCounts forms.
TEST_P(SummaryKernelTest, StructuralConstantMatchesLabelCounts) {
  KernelCase c;
  MakeKernelCase(GetParam(), &c);
  const GraphSummary q = Summarize(c.q, c.dict);
  const GraphSummary g = Summarize(c.g, c.dict);
  const int lambda_e = graph::MatchableLabelCount(
      c.q.EdgeLabelCounts(), c.g.EdgeLabelCounts(), c.dict);
  EXPECT_EQ(graph::MatchableLabelCount(q.edge_labels, q.wildcard_edges,
                                       g.edge_labels, g.wildcard_edges),
            lambda_e);

  // Thm. 3's constant spelled out from the graphs themselves.
  auto oriented = [&](const LabeledGraph& small, const LabeledGraph& big) {
    const int dif = graph::DegreeDistanceFromSorted(small.SortedDegrees(),
                                                    big.SortedDegrees());
    return big.num_vertices() + big.num_edges() - lambda_e + (dif + 1) / 2;
  };
  const LabeledGraph& gs = c.g.structure();
  int expected = 0;
  if (c.q.num_vertices() < gs.num_vertices()) {
    expected = oriented(c.q, gs);
  } else if (gs.num_vertices() < c.q.num_vertices()) {
    expected = oriented(gs, c.q);
  } else {
    expected = std::max(oriented(c.q, gs), oriented(gs, c.q));
  }
  EXPECT_EQ(CssStructuralConstant(q, g), expected);
  EXPECT_EQ(CssStructuralConstant(c.q, c.g, c.dict), expected);
  EXPECT_EQ(CssLowerBoundUncertain(q, g),
            std::max(0, expected - MaxCommonVertexLabels(q, g)));
}

// The join prunes on the count bound before computing CSS; that is exact
// only because the count bound never exceeds the uncertain CSS bound, also
// with wildcards, parallel edges and empty graphs.
TEST_P(SummaryKernelTest, CountBoundNeverExceedsUncertainCss) {
  KernelCase c;
  MakeKernelCase(GetParam(), &c);
  const GraphSummary q = Summarize(c.q, c.dict);
  const GraphSummary g = Summarize(c.g, c.dict);
  const int count = std::abs(c.q.num_vertices() - c.g.num_vertices()) +
                    std::abs(c.q.num_edges() - c.g.num_edges());
  EXPECT_EQ(CountLowerBound(q, g), count);
  EXPECT_LE(count, CssLowerBoundUncertain(q, g));
}

// The world overlay bound equals the certain CSS bound of the materialized
// world, for every world of g and of a group (restriction) of g.
TEST_P(SummaryKernelTest, WorldBoundEqualsMaterializedCssBound) {
  KernelCase c;
  MakeKernelCase(GetParam(), &c);
  const GraphSummary q = Summarize(c.q, c.dict);
  const GraphSummary g = Summarize(c.g, c.dict);
  WorldBound bound(q, CssStructuralConstant(q, g));
  for (PossibleWorldIterator it(c.g); !it.Done(); it.Next()) {
    EXPECT_EQ(bound.Bound(c.g, it.choice(), c.dict),
              CssLowerBound(c.q, c.g.Materialize(it.choice()), c.dict));
  }
  for (int v = 0; v < c.g.num_vertices(); ++v) {
    if (c.g.alternatives(v).size() < 2) continue;
    UncertainGraph group = c.g.RestrictVertex(v, {1});
    for (PossibleWorldIterator it(group); !it.Done(); it.Next()) {
      EXPECT_EQ(bound.Bound(group, it.choice(), c.dict),
                CssLowerBound(c.q, group.Materialize(it.choice()), c.dict));
    }
    break;
  }
}

// A group's summary derived from its parent's equals summarizing the group.
TEST_P(SummaryKernelTest, GroupSummaryMatchesSummarize) {
  KernelCase c;
  MakeKernelCase(GetParam(), &c);
  const GraphSummary g = Summarize(c.g, c.dict);
  for (int v = 0; v < c.g.num_vertices(); ++v) {
    const int alts = static_cast<int>(c.g.alternatives(v).size());
    if (alts < 2) continue;
    const UncertainGraph group = c.g.RestrictVertex(v, {alts - 1, 0});
    const GraphSummary derived = SummarizeGroup(g, group, c.dict);
    const GraphSummary direct = Summarize(group, c.dict);
    EXPECT_EQ(derived.num_vertices, direct.num_vertices);
    EXPECT_EQ(derived.num_edges, direct.num_edges);
    EXPECT_EQ(derived.sorted_degrees, direct.sorted_degrees);
    EXPECT_EQ(derived.wildcard_edges, direct.wildcard_edges);
    EXPECT_EQ(derived.vertex_wildcard, direct.vertex_wildcard);
    EXPECT_EQ(derived.wildcard_vertices, direct.wildcard_vertices);
    EXPECT_EQ(derived.labeled_vertices, direct.labeled_vertices);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SummaryKernelTest, ::testing::Range(0, 60));

// Pairs for the CSS cascade, up to 10 vertices each so that |V| often
// differs. By seed: no wildcard vertices (every step runs), wildcards in q
// only, in g only (the label-count step is skipped), or one side all
// wildcards (an empty labeled set). q draws its labels from L0..L3 and g
// from a window of L0..L7 shifted by 0..4, from equal to disjoint pools.
// Edges draw from r1, r2 and a wildcard, with parallel edges.
void MakeCascadeCase(int seed, KernelCase* c) {
  Rng rng(9100 + seed);
  const std::vector<graph::LabelId> labels =
      simj::testing::TestLabels(c->dict, 8);
  const graph::LabelId wildcard = c->dict.Intern("?x");
  const std::vector<graph::LabelId> edge_labels = {
      c->dict.Intern("r1"), c->dict.Intern("r2"), c->dict.Intern("?p")};
  const int shift = static_cast<int>(rng.Uniform(0, 4));
  std::vector<graph::LabelId> q_labels(labels.begin(), labels.begin() + 4);
  std::vector<graph::LabelId> g_labels(labels.begin() + shift,
                                       labels.begin() + shift + 4);
  switch (seed % 4) {
    case 1:
      q_labels.push_back(wildcard);
      break;
    case 2:
      g_labels.push_back(wildcard);
      break;
    case 3:
      (seed % 8 == 3 ? q_labels : g_labels) = {wildcard};
      break;
    default:
      break;
  }
  c->q = simj::testing::RandomCertainGraph(
      rng, q_labels, edge_labels, static_cast<int>(rng.Uniform(0, 10)),
      static_cast<int>(rng.Uniform(0, 16)));
  c->g = simj::testing::RandomUncertainGraph(
      rng, g_labels, edge_labels, static_cast<int>(rng.Uniform(0, 10)),
      static_cast<int>(rng.Uniform(0, 16)),
      std::min(3, static_cast<int>(g_labels.size())));
}

// The cascade against the exact bound at tau = 0..6: it prunes exactly
// when CssLowerBoundUncertain exceeds tau, never exceeds it, equals it
// whenever it does not prune, and each step returns its own value.
TEST(CssPruneTest, CascadeDecidesLikeTheExactBound) {
  int pruned_by_step[3] = {0, 0, 0};
  for (int seed = 0; seed < 400; ++seed) {
    KernelCase c;
    MakeCascadeCase(seed, &c);
    const GraphSummary q = Summarize(c.q, c.dict);
    const GraphSummary g = Summarize(c.g, c.dict);
    const int exact = CssLowerBoundUncertain(q, g);
    const int constant = CssStructuralConstant(q, g);
    const int min_vertices = std::min(c.q.num_vertices(), c.g.num_vertices());
    // q vertices whose label matches some alternative of some g vertex.
    int linkable = 0;
    for (int u = 0; u < c.q.num_vertices(); ++u) {
      bool links = false;
      for (int v = 0; v < c.g.num_vertices(); ++v) {
        for (const graph::LabelAlternative& alt : c.g.alternatives(v)) {
          links = links || c.dict.Matches(c.q.vertex_label(u), alt.label);
        }
      }
      linkable += links ? 1 : 0;
    }
    linkable = std::min(linkable, min_vertices);
    for (int tau = 0; tau <= 6; ++tau) {
      SCOPED_TRACE("seed " + std::to_string(seed) + ", tau " +
                   std::to_string(tau));
      const CssPrune prune = CssPruneBound(q, g, tau);
      EXPECT_EQ(prune.structural_constant, constant);
      EXPECT_EQ(prune.lower_bound > tau, exact > tau);
      EXPECT_LE(prune.lower_bound, exact);
      if (prune.lower_bound <= tau) {
        EXPECT_EQ(prune.lower_bound, exact);
      }
      if (constant - min_vertices > tau) {
        EXPECT_EQ(prune.lower_bound, constant - min_vertices);
        ++pruned_by_step[0];
      } else if (constant - linkable > tau) {
        EXPECT_EQ(prune.lower_bound, constant - linkable);
        ++pruned_by_step[1];
      } else if (exact > tau) {
        ++pruned_by_step[2];
      }
    }
    EXPECT_EQ(CssPruneBound(q, g, kExactCss).lower_bound, exact);
  }
  // Every step decides some of the pairs.
  EXPECT_GT(pruned_by_step[0], 0);
  EXPECT_GT(pruned_by_step[1], 0);
  EXPECT_GT(pruned_by_step[2], 0);
}

}  // namespace
}  // namespace simj::ged
