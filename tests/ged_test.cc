#include <functional>
#include <optional>

#include <gtest/gtest.h>

#include "ged/edit_distance.h"
#include "ged/lower_bounds.h"
#include "graph/label.h"
#include "graph/labeled_graph.h"
#include "test_util.h"
#include "util/rng.h"

namespace simj::ged {
namespace {

using graph::LabelDictionary;
using graph::LabeledGraph;

struct Fixture {
  LabelDictionary dict;
  graph::LabelId a, b, c, rel1, rel2, var;

  Fixture() {
    a = dict.Intern("A");
    b = dict.Intern("B");
    c = dict.Intern("C");
    rel1 = dict.Intern("rel1");
    rel2 = dict.Intern("rel2");
    var = dict.Intern("?x");
  }
};

TEST(GedTest, IdenticalGraphsHaveZeroDistance) {
  Fixture f;
  LabeledGraph g;
  g.AddVertex(f.a);
  g.AddVertex(f.b);
  g.AddEdge(0, 1, f.rel1);
  GedResult result = ExactGed(g, g, f.dict);
  EXPECT_EQ(result.distance, 0);
  EXPECT_EQ(result.mapping, (std::vector<int>{0, 1}));
}

TEST(GedTest, SingleVertexLabelSubstitution) {
  Fixture f;
  LabeledGraph g1, g2;
  g1.AddVertex(f.a);
  g1.AddVertex(f.b);
  g1.AddEdge(0, 1, f.rel1);
  g2.AddVertex(f.a);
  g2.AddVertex(f.c);
  g2.AddEdge(0, 1, f.rel1);
  EXPECT_EQ(ExactGed(g1, g2, f.dict).distance, 1);
}

TEST(GedTest, SingleEdgeLabelSubstitution) {
  Fixture f;
  LabeledGraph g1, g2;
  g1.AddVertex(f.a);
  g1.AddVertex(f.b);
  g1.AddEdge(0, 1, f.rel1);
  g2.AddVertex(f.a);
  g2.AddVertex(f.b);
  g2.AddEdge(0, 1, f.rel2);
  EXPECT_EQ(ExactGed(g1, g2, f.dict).distance, 1);
}

TEST(GedTest, EdgeDirectionMatters) {
  Fixture f;
  LabeledGraph g1, g2;
  g1.AddVertex(f.a);
  g1.AddVertex(f.b);
  g1.AddEdge(0, 1, f.rel1);
  g2.AddVertex(f.a);
  g2.AddVertex(f.b);
  g2.AddEdge(1, 0, f.rel1);
  // Delete one edge, insert the reversed one: cost 2 (labels differ on the
  // vertex pair, so flipping cannot be a free substitution).
  EXPECT_EQ(ExactGed(g1, g2, f.dict).distance, 2);
}

TEST(GedTest, VertexInsertionWithEdge) {
  Fixture f;
  LabeledGraph g1, g2;
  g1.AddVertex(f.a);
  g2.AddVertex(f.a);
  g2.AddVertex(f.b);
  g2.AddEdge(0, 1, f.rel1);
  // Insert vertex B (1) + insert edge (1).
  EXPECT_EQ(ExactGed(g1, g2, f.dict).distance, 2);
}

TEST(GedTest, WildcardSubstitutesForFree) {
  Fixture f;
  LabeledGraph g1, g2;
  g1.AddVertex(f.var);
  g1.AddVertex(f.b);
  g1.AddEdge(0, 1, f.rel1);
  g2.AddVertex(f.a);
  g2.AddVertex(f.b);
  g2.AddEdge(0, 1, f.rel1);
  EXPECT_EQ(ExactGed(g1, g2, f.dict).distance, 0);
}

TEST(GedTest, EmptyVersusNonEmpty) {
  Fixture f;
  LabeledGraph empty;
  LabeledGraph g;
  g.AddVertex(f.a);
  g.AddVertex(f.b);
  g.AddEdge(0, 1, f.rel1);
  EXPECT_EQ(ExactGed(empty, g, f.dict).distance, 3);
  EXPECT_EQ(ExactGed(g, empty, f.dict).distance, 3);
}

TEST(GedTest, PaperStyleExample) {
  // q: ?x --type--> Artist, ?x --graduatedFrom--> University
  // g: ?y --type--> Politician, ?y --graduatedFrom--> University
  // One vertex label substitution (Artist -> Politician).
  LabelDictionary dict;
  graph::LabelId var_x = dict.Intern("?x");
  graph::LabelId var_y = dict.Intern("?y");
  graph::LabelId artist = dict.Intern("Artist");
  graph::LabelId politician = dict.Intern("Politician");
  graph::LabelId university = dict.Intern("University");
  graph::LabelId type = dict.Intern("type");
  graph::LabelId grad = dict.Intern("graduatedFrom");

  LabeledGraph q;
  q.AddVertex(var_x);
  q.AddVertex(artist);
  q.AddVertex(university);
  q.AddEdge(0, 1, type);
  q.AddEdge(0, 2, grad);

  LabeledGraph g;
  g.AddVertex(var_y);
  g.AddVertex(politician);
  g.AddVertex(university);
  g.AddEdge(0, 1, type);
  g.AddEdge(0, 2, grad);

  GedResult result = ExactGed(q, g, dict);
  EXPECT_EQ(result.distance, 1);
  // The optimal mapping aligns the variable with the variable and the
  // university with the university.
  EXPECT_EQ(result.mapping[0], 0);
  EXPECT_EQ(result.mapping[2], 2);
}

TEST(EdgeSetCostTest, MultisetEdgeTransforms) {
  Fixture f;
  // Same labels: free.
  EXPECT_EQ(EdgeSetCost({f.rel1}, {f.rel1}, f.dict), 0);
  // Substitution.
  EXPECT_EQ(EdgeSetCost({f.rel1}, {f.rel2}, f.dict), 1);
  // Deletion / insertion.
  EXPECT_EQ(EdgeSetCost({f.rel1}, {}, f.dict), 1);
  EXPECT_EQ(EdgeSetCost({}, {f.rel1, f.rel2}, f.dict), 2);
  // Parallel edges: one kept, one substituted, one inserted.
  EXPECT_EQ(EdgeSetCost({f.rel1, f.rel1}, {f.rel1, f.rel2, f.rel2}, f.dict),
            2);
  EXPECT_EQ(EdgeSetCost({}, {}, f.dict), 0);
}

TEST(GedTest, BoundedGedRespectsThreshold) {
  Fixture f;
  LabeledGraph g1, g2;
  g1.AddVertex(f.a);
  g1.AddVertex(f.b);
  g1.AddEdge(0, 1, f.rel1);
  g2.AddVertex(f.c);
  g2.AddVertex(f.c);
  g2.AddEdge(0, 1, f.rel2);
  int exact = ExactGed(g1, g2, f.dict).distance;
  EXPECT_EQ(exact, 3);
  EXPECT_FALSE(BoundedGed(g1, g2, exact - 1, f.dict).has_value());
  ASSERT_TRUE(BoundedGed(g1, g2, exact, f.dict).has_value());
  EXPECT_EQ(BoundedGed(g1, g2, exact, f.dict)->distance, exact);
}

TEST(GedTest, MappingReachesReportedCost) {
  // Recompute the cost implied by the returned mapping and check it equals
  // the reported distance (on random instances).
  Fixture f;
  std::vector<graph::LabelId> vlabels = {f.a, f.b, f.c};
  std::vector<graph::LabelId> elabels = {f.rel1, f.rel2};
  Rng rng(5);
  for (int trial = 0; trial < 30; ++trial) {
    LabeledGraph g1 = simj::testing::RandomCertainGraph(
        rng, vlabels, elabels, static_cast<int>(rng.Uniform(1, 5)),
        static_cast<int>(rng.Uniform(0, 6)));
    LabeledGraph g2 = simj::testing::RandomCertainGraph(
        rng, vlabels, elabels, static_cast<int>(rng.Uniform(1, 5)),
        static_cast<int>(rng.Uniform(0, 6)));
    GedResult result = ExactGed(g1, g2, f.dict);

    // Cost implied by the mapping: vertex part.
    int implied = 0;
    std::vector<bool> used(g2.num_vertices(), false);
    for (int u = 0; u < g1.num_vertices(); ++u) {
      int v = result.mapping[u];
      if (v < 0) {
        implied += 1;
      } else {
        used[v] = true;
        implied += SubstitutionCost(f.dict, g1.vertex_label(u),
                                    g2.vertex_label(v));
      }
    }
    for (int v = 0; v < g2.num_vertices(); ++v) {
      if (!used[v]) implied += 1;
    }
    // Edge part: for every ordered pair of g1 vertices compare edge
    // multisets; edges incident to deleted/inserted vertices are
    // deleted/inserted wholesale.
    for (int u1 = 0; u1 < g1.num_vertices(); ++u1) {
      for (int u2 = 0; u2 < g1.num_vertices(); ++u2) {
        if (u1 == u2) continue;
        auto a_labels = g1.EdgeLabelsBetween(u1, u2);
        int v1 = result.mapping[u1];
        int v2 = result.mapping[u2];
        if (v1 < 0 || v2 < 0) {
          implied += static_cast<int>(a_labels.size());
        } else {
          implied += EdgeSetCost(a_labels, g2.EdgeLabelsBetween(v1, v2),
                                 f.dict);
        }
      }
    }
    // g2 edges not covered by mapped pairs are insertions.
    for (const graph::Edge& e : g2.edges()) {
      if (!used[e.src] || !used[e.dst]) implied += 1;
    }
    EXPECT_EQ(result.distance, implied)
        << g1.DebugString(f.dict) << g2.DebugString(f.dict);
  }
}

// Independent reference: exhaustively enumerate every injective partial
// mapping and take the cheapest MappingCost. Exponential, so graphs are
// tiny, but it shares no search logic with the A*.
int ReferenceGed(const LabeledGraph& a, const LabeledGraph& b,
                 const LabelDictionary& dict) {
  std::vector<int> mapping(a.num_vertices(), -1);
  std::vector<bool> used(b.num_vertices(), false);
  int best = TrivialUpperBound(a, b);
  std::function<void(int)> recurse = [&](int u) {
    if (u == a.num_vertices()) {
      best = std::min(best, MappingCost(a, b, mapping, dict));
      return;
    }
    mapping[u] = -1;
    recurse(u + 1);
    for (int v = 0; v < b.num_vertices(); ++v) {
      if (used[v]) continue;
      used[v] = true;
      mapping[u] = v;
      recurse(u + 1);
      mapping[u] = -1;
      used[v] = false;
    }
  };
  recurse(0);
  return best;
}

class GedReferenceTest : public ::testing::TestWithParam<int> {};

// Graphs of 1-6 vertices with up to twice as many edge draws as vertices
// over two edge labels, so vertex pairs often carry parallel edges.
TEST_P(GedReferenceTest, AStarMatchesExhaustiveSearch) {
  LabelDictionary dict;
  auto vlabels = simj::testing::TestLabels(dict, 3);
  vlabels.push_back(dict.Intern("?x"));
  std::vector<graph::LabelId> elabels = {dict.Intern("r1"),
                                         dict.Intern("r2")};
  Rng rng(4000 + GetParam());
  auto random_graph = [&] {
    const int n = static_cast<int>(rng.Uniform(1, 6));
    return simj::testing::RandomCertainGraph(
        rng, vlabels, elabels, n, static_cast<int>(rng.Uniform(0, 2 * n)));
  };
  LabeledGraph a = random_graph();
  LabeledGraph b = random_graph();
  SCOPED_TRACE(a.DebugString(dict) + b.DebugString(dict));
  const int truth = ReferenceGed(a, b, dict);
  EXPECT_EQ(ExactGed(a, b, dict).distance, truth);
  // The threshold is tight on both sides.
  if (truth > 0) {
    EXPECT_FALSE(BoundedGed(a, b, truth - 1, dict).has_value());
  }
  std::optional<GedResult> at_truth = BoundedGed(a, b, truth, dict);
  ASSERT_TRUE(at_truth.has_value());
  EXPECT_EQ(at_truth->distance, truth);
  // The bounds bracket the truth.
  EXPECT_LE(CssLowerBound(a, b, dict), truth);
  EXPECT_GE(GreedyGedUpperBound(a, b, dict), truth);
}

INSTANTIATE_TEST_SUITE_P(Sweep, GedReferenceTest, ::testing::Range(0, 60));

class UpperBoundTest : public ::testing::TestWithParam<int> {};

TEST_P(UpperBoundTest, GreedyBoundDominatesExactAndIsAttained) {
  LabelDictionary dict;
  auto vlabels = simj::testing::TestLabels(dict, 4);
  std::vector<graph::LabelId> elabels = {dict.Intern("r1")};
  Rng rng(4100 + GetParam());
  LabeledGraph a = simj::testing::RandomCertainGraph(
      rng, vlabels, elabels, static_cast<int>(rng.Uniform(1, 5)),
      static_cast<int>(rng.Uniform(0, 6)));
  LabeledGraph b = simj::testing::RandomCertainGraph(
      rng, vlabels, elabels, static_cast<int>(rng.Uniform(1, 5)),
      static_cast<int>(rng.Uniform(0, 6)));
  int exact = ExactGed(a, b, dict).distance;
  std::vector<int> witness;
  int upper = GreedyGedUpperBound(a, b, dict, &witness);
  EXPECT_GE(upper, exact);
  // The witness mapping must reproduce the reported bound.
  EXPECT_EQ(MappingCost(a, b, witness, dict), upper);
  // The trivial bound is never beaten upward.
  EXPECT_LE(upper, TrivialUpperBound(a, b));
}

INSTANTIATE_TEST_SUITE_P(Sweep, UpperBoundTest, ::testing::Range(0, 60));

TEST(MappingCostTest, OptimalMappingAttainsExactGed) {
  LabelDictionary dict;
  auto vlabels = simj::testing::TestLabels(dict, 3);
  std::vector<graph::LabelId> elabels = {dict.Intern("r1")};
  Rng rng(4200);
  for (int trial = 0; trial < 30; ++trial) {
    LabeledGraph a = simj::testing::RandomCertainGraph(
        rng, vlabels, elabels, static_cast<int>(rng.Uniform(1, 5)),
        static_cast<int>(rng.Uniform(0, 5)));
    LabeledGraph b = simj::testing::RandomCertainGraph(
        rng, vlabels, elabels, static_cast<int>(rng.Uniform(1, 5)),
        static_cast<int>(rng.Uniform(0, 5)));
    GedResult result = ExactGed(a, b, dict);
    EXPECT_EQ(MappingCost(a, b, result.mapping, dict), result.distance);
  }
}

class GedMetricTest : public ::testing::TestWithParam<int> {};

TEST_P(GedMetricTest, SymmetryAndTriangleInequality) {
  LabelDictionary dict;
  auto vlabels = simj::testing::TestLabels(dict, 3);
  std::vector<graph::LabelId> elabels = {dict.Intern("r1"),
                                         dict.Intern("r2")};
  Rng rng(300 + GetParam());
  auto random_graph = [&]() {
    return simj::testing::RandomCertainGraph(
        rng, vlabels, elabels, static_cast<int>(rng.Uniform(1, 4)),
        static_cast<int>(rng.Uniform(0, 5)));
  };
  LabeledGraph x = random_graph();
  LabeledGraph y = random_graph();
  LabeledGraph z = random_graph();

  int xy = ExactGed(x, y, dict).distance;
  int yx = ExactGed(y, x, dict).distance;
  EXPECT_EQ(xy, yx);

  int xz = ExactGed(x, z, dict).distance;
  int zy = ExactGed(z, y, dict).distance;
  EXPECT_LE(xy, xz + zy);

  EXPECT_GE(xy, 0);
  EXPECT_EQ(ExactGed(x, x, dict).distance, 0);
}

INSTANTIATE_TEST_SUITE_P(Sweep, GedMetricTest, ::testing::Range(0, 30));

}  // namespace
}  // namespace simj::ged
