#include <cmath>
#include <cstdint>
#include <numeric>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "graph/label.h"
#include "graph/labeled_graph.h"
#include "graph/uncertain_graph.h"
#include "test_util.h"
#include "util/rng.h"

namespace simj::graph {
namespace {

TEST(LabelDictionaryTest, InternIsIdempotent) {
  LabelDictionary dict;
  LabelId a = dict.Intern("Actor");
  LabelId b = dict.Intern("Actor");
  EXPECT_EQ(a, b);
  EXPECT_EQ(dict.Name(a), "Actor");
  EXPECT_EQ(dict.size(), 1);
}

TEST(LabelDictionaryTest, FindReturnsInvalidForUnknown) {
  LabelDictionary dict;
  dict.Intern("Actor");
  EXPECT_EQ(dict.Find("Professor"), kInvalidLabel);
  EXPECT_NE(dict.Find("Actor"), kInvalidLabel);
}

TEST(LabelDictionaryTest, WildcardDetection) {
  LabelDictionary dict;
  LabelId var = dict.Intern("?x");
  LabelId plain = dict.Intern("City");
  EXPECT_TRUE(dict.IsWildcard(var));
  EXPECT_FALSE(dict.IsWildcard(plain));
}

TEST(LabelDictionaryTest, MatchesIsWildcardAware) {
  LabelDictionary dict;
  LabelId var = dict.Intern("?x");
  LabelId city = dict.Intern("City");
  LabelId state = dict.Intern("State");
  EXPECT_TRUE(dict.Matches(city, city));
  EXPECT_FALSE(dict.Matches(city, state));
  EXPECT_TRUE(dict.Matches(var, city));
  EXPECT_TRUE(dict.Matches(state, var));
  EXPECT_TRUE(dict.Matches(var, var));
}

TEST(MatchableLabelCountTest, PlainMultisetIntersection) {
  LabelDictionary dict;
  LabelId a = dict.Intern("A");
  LabelId b = dict.Intern("B");
  LabelId c = dict.Intern("C");
  LabelCounts left{{a, 2}, {b, 1}};
  LabelCounts right{{a, 1}, {b, 3}, {c, 1}};
  EXPECT_EQ(MatchableLabelCount(left, right, dict), 2);  // one A, one B
}

TEST(MatchableLabelCountTest, WildcardsSoakUpLeftovers) {
  LabelDictionary dict;
  LabelId a = dict.Intern("A");
  LabelId b = dict.Intern("B");
  LabelId var = dict.Intern("?x");
  // left: {A, ?x, ?x}; right: {B, B, A}
  LabelCounts left{{a, 1}, {var, 2}};
  LabelCounts right{{b, 2}, {a, 1}};
  // A matches A; the two wildcards match the two Bs.
  EXPECT_EQ(MatchableLabelCount(left, right, dict), 3);
}

TEST(MatchableLabelCountTest, WildcardOnBothSides) {
  LabelDictionary dict;
  LabelId a = dict.Intern("A");
  LabelId var1 = dict.Intern("?x");
  LabelId var2 = dict.Intern("?y");
  LabelCounts left{{var1, 2}};
  LabelCounts right{{a, 1}, {var2, 2}};
  // Both wildcards on the left match; capped by left size.
  EXPECT_EQ(MatchableLabelCount(left, right, dict), 2);
}

TEST(MatchableLabelCountTest, EmptySides) {
  LabelDictionary dict;
  LabelId a = dict.Intern("A");
  LabelCounts left{{a, 1}};
  LabelCounts empty;
  EXPECT_EQ(MatchableLabelCount(left, empty, dict), 0);
  EXPECT_EQ(MatchableLabelCount(empty, left, dict), 0);
  EXPECT_EQ(MatchableLabelCount(empty, empty, dict), 0);
}

TEST(LabeledGraphTest, DegreesCountBothDirections) {
  LabelDictionary dict;
  LabelId l = dict.Intern("L");
  LabeledGraph g;
  int v0 = g.AddVertex(l);
  int v1 = g.AddVertex(l);
  int v2 = g.AddVertex(l);
  g.AddEdge(v0, v1, l);
  g.AddEdge(v2, v0, l);
  EXPECT_EQ(g.degree(v0), 2);
  EXPECT_EQ(g.degree(v1), 1);
  EXPECT_EQ(g.degree(v2), 1);
  EXPECT_EQ(g.SortedDegrees(), (std::vector<int>{2, 1, 1}));
}

TEST(LabeledGraphTest, ParallelEdgesAreKept) {
  LabelDictionary dict;
  LabelId l = dict.Intern("L");
  LabelId m = dict.Intern("M");
  LabeledGraph g;
  int v0 = g.AddVertex(l);
  int v1 = g.AddVertex(l);
  g.AddEdge(v0, v1, l);
  g.AddEdge(v0, v1, m);
  EXPECT_EQ(g.num_edges(), 2);
  EXPECT_EQ(g.EdgeLabelsBetween(v0, v1).size(), 2u);
  EXPECT_TRUE(g.EdgeLabelsBetween(v1, v0).empty());
}

TEST(LabeledGraphTest, LabelCounts) {
  LabelDictionary dict;
  LabelId a = dict.Intern("A");
  LabelId b = dict.Intern("B");
  LabeledGraph g;
  g.AddVertex(a);
  g.AddVertex(a);
  g.AddVertex(b);
  g.AddEdge(0, 1, b);
  LabelCounts vcounts = g.VertexLabelCounts();
  EXPECT_EQ(vcounts[a], 2);
  EXPECT_EQ(vcounts[b], 1);
  LabelCounts ecounts = g.EdgeLabelCounts();
  EXPECT_EQ(ecounts[b], 1);
}

TEST(DegreeDistanceTest, HandExample) {
  // small degrees {3, 1}, big degrees {2, 2, 1}: (3-2) + 0 = 1.
  EXPECT_EQ(DegreeDistanceFromSorted({3, 1}, {2, 2, 1}), 1);
}

TEST(DegreeDistanceTest, ZeroWhenDominated) {
  EXPECT_EQ(DegreeDistanceFromSorted({1, 1}, {3, 2, 1}), 0);
}

TEST(UncertainGraphTest, WorldProbabilitiesSumToTotalMass) {
  LabelDictionary dict;
  auto labels = testing::TestLabels(dict, 6);
  Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    UncertainGraph g = testing::RandomUncertainGraph(
        rng, labels, labels, /*n=*/4, /*m=*/5, /*max_alts=*/3);
    double sum = 0.0;
    int64_t worlds = 0;
    for (PossibleWorldIterator it(g); !it.Done(); it.Next()) {
      sum += it.probability();
      ++worlds;
    }
    EXPECT_EQ(worlds, g.NumPossibleWorlds());
    EXPECT_NEAR(sum, g.TotalMass(), 1e-9);
  }
}

TEST(UncertainGraphTest, MaterializePicksChosenLabels) {
  LabelDictionary dict;
  LabelId a = dict.Intern("A");
  LabelId b = dict.Intern("B");
  LabelId e = dict.Intern("rel");
  UncertainGraph g;
  g.AddVertex({{a, 0.6}, {b, 0.4}});
  g.AddCertainVertex(a);
  g.AddEdge(0, 1, e);
  LabeledGraph world = g.Materialize({1, 0});
  EXPECT_EQ(world.vertex_label(0), b);
  EXPECT_EQ(world.vertex_label(1), a);
  EXPECT_EQ(world.num_edges(), 1);
  EXPECT_NEAR(g.WorldProbability({1, 0}), 0.4, 1e-12);
}

TEST(UncertainGraphTest, CertaintyDetection) {
  LabelDictionary dict;
  LabelId a = dict.Intern("A");
  LabelId b = dict.Intern("B");
  UncertainGraph g;
  g.AddCertainVertex(a);
  g.AddVertex({{a, 0.5}, {b, 0.5}});
  EXPECT_TRUE(g.IsVertexCertain(0));
  EXPECT_FALSE(g.IsVertexCertain(1));
}

TEST(UncertainGraphTest, RestrictVertexMassesAddUp) {
  LabelDictionary dict;
  LabelId a = dict.Intern("A");
  LabelId b = dict.Intern("B");
  LabelId c = dict.Intern("C");
  UncertainGraph g;
  g.AddVertex({{a, 0.5}, {b, 0.3}, {c, 0.2}});
  g.AddCertainVertex(a);
  g.AddEdge(0, 1, a);
  UncertainGraph first = g.RestrictVertex(0, {0});
  UncertainGraph rest = g.RestrictVertex(0, {1, 2});
  EXPECT_NEAR(first.TotalMass() + rest.TotalMass(), g.TotalMass(), 1e-12);
  EXPECT_EQ(first.num_edges(), 1);
  EXPECT_EQ(rest.alternatives(0).size(), 2u);
}

TEST(UncertainGraphTest, CopiesAndRestrictionsShareStructure) {
  LabelDictionary dict;
  LabelId a = dict.Intern("A");
  LabelId b = dict.Intern("B");
  LabelId c = dict.Intern("C");
  LabelId r = dict.Intern("r");
  UncertainGraph g;
  g.AddVertex({{a, 0.5}, {b, 0.3}, {c, 0.2}});
  g.AddCertainVertex(a);
  g.AddVertex({{b, 0.6}, {c, 0.4}});
  g.AddEdge(0, 1, r);
  g.AddEdge(1, 2, r);

  UncertainGraph copy = g;
  UncertainGraph restricted = g.RestrictVertex(0, {2, 0});
  EXPECT_EQ(&copy.structure(), &g.structure());
  EXPECT_EQ(&restricted.structure(), &g.structure());
  ASSERT_EQ(restricted.alternatives(0).size(), 2u);
  EXPECT_EQ(restricted.alternatives(0)[0], (LabelAlternative{c, 0.2}));
  EXPECT_EQ(restricted.alternatives(0)[1], (LabelAlternative{a, 0.5}));
  EXPECT_EQ(restricted.alternatives(2), g.alternatives(2));

  // Mutating a copy or a restriction gives it its own structure and leaves
  // the original as it was.
  copy.AddEdge(2, 0, r);
  EXPECT_NE(&copy.structure(), &g.structure());
  EXPECT_EQ(copy.num_edges(), 3);
  EXPECT_EQ(g.num_edges(), 2);
  EXPECT_EQ(g.structure().out_edges(2).size(), 0u);
  restricted.AddCertainVertex(b);
  EXPECT_NE(&restricted.structure(), &g.structure());
  EXPECT_EQ(restricted.num_vertices(), 4);
  EXPECT_EQ(restricted.structure().num_vertices(), 4);
  EXPECT_EQ(g.num_vertices(), 3);
  EXPECT_EQ(g.structure().num_vertices(), 3);
  EXPECT_EQ(g.alternatives(0).size(), 3u);
  EXPECT_TRUE(copy.Validate(dict).ok());
  EXPECT_TRUE(restricted.Validate(dict).ok());
  EXPECT_TRUE(g.Validate(dict).ok());

  // A restriction of a restriction still shares the original structure.
  UncertainGraph inner = g.RestrictVertex(0, {0, 1}).RestrictVertex(2, {1});
  EXPECT_EQ(&inner.structure(), &g.structure());
  EXPECT_DOUBLE_EQ(inner.TotalMass(), (0.5 + 0.3) * 1.0 * 0.4);
}

// Four threads copy and restrict one shared graph at once and mutate their
// own copies: the structure's reference count is shared between threads,
// and the original must come out unchanged.
TEST(UncertainGraphTest, ConcurrentCopiesAndRestrictions) {
  LabelDictionary dict;
  auto labels = testing::TestLabels(dict, 4);
  Rng rng(31);
  const UncertainGraph g = testing::RandomUncertainGraph(
      rng, labels, labels, /*n=*/6, /*m=*/9, /*max_alts=*/3);
  const int edges = g.num_edges();
  constexpr int kThreads = 4;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 200; ++round) {
        UncertainGraph copy = g;
        const int v = (t + round) % g.num_vertices();
        UncertainGraph restricted = g.RestrictVertex(v, {0});
        if (&copy.structure() != &g.structure() ||
            &restricted.structure() != &g.structure() ||
            restricted.alternatives(v).size() != 1 ||
            restricted.NumPossibleWorlds() * static_cast<int64_t>(
                                                 g.alternatives(v).size()) !=
                g.NumPossibleWorlds()) {
          ++mismatches[t];
        }
        copy.AddEdge(0, 1, labels[0]);
        restricted.AddCertainVertex(labels[1]);
        if (copy.num_edges() != edges + 1 || g.num_edges() != edges ||
            restricted.num_vertices() != g.num_vertices() + 1) {
          ++mismatches[t];
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[t], 0) << "thread " << t;
  }
  EXPECT_EQ(g.num_edges(), edges);
  EXPECT_TRUE(g.Validate(dict).ok());
}

TEST(UncertainGraphTest, FromCertainRoundTrips) {
  LabelDictionary dict;
  auto labels = testing::TestLabels(dict, 4);
  Rng rng(11);
  LabeledGraph g =
      testing::RandomCertainGraph(rng, labels, labels, /*n=*/5, /*m=*/6);
  UncertainGraph u = UncertainGraph::FromCertain(g);
  EXPECT_EQ(u.NumPossibleWorlds(), 1);
  LabeledGraph back = u.Materialize(std::vector<int>(5, 0));
  for (int v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(back.vertex_label(v), g.vertex_label(v));
  }
  EXPECT_EQ(back.num_edges(), g.num_edges());
}

TEST(UncertainGraphTest, LiftUncertainEdgesAddsFictitiousVertices) {
  LabelDictionary dict;
  LabelId person = dict.Intern("Person");
  LabelId spouse = dict.Intern("spouse");
  LabelId knows = dict.Intern("knows");
  LabelId link = dict.Intern("__edge__");

  std::vector<std::vector<LabelAlternative>> vertices = {
      {{person, 1.0}}, {{person, 1.0}}};
  std::vector<UncertainEdge> uncertain_edges = {
      {0, 1, {{spouse, 0.7}, {knows, 0.3}}}};
  UncertainGraph lifted =
      LiftUncertainEdges(vertices, /*certain_edges=*/{}, uncertain_edges,
                         link);
  EXPECT_EQ(lifted.num_vertices(), 3);
  EXPECT_EQ(lifted.num_edges(), 2);
  EXPECT_EQ(lifted.alternatives(2).size(), 2u);
  EXPECT_EQ(lifted.NumPossibleWorlds(), 2);
}

}  // namespace
}  // namespace simj::graph
