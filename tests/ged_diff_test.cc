// Differential test of the flat GED kernels (ged/edit_distance.cc) against
// the kernels they replaced (ged_reference.h). The A* must take the same
// search step for step, so besides distance, mapping and the abort flag it
// must expand the same number of states and reach the same open-list peak;
// the greedy upper bound must return the same value and mapping. The
// per-pair layout (WorldGed) is held to the same standard against the
// one-shot BoundedGed on every possible world it searches.

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "ged/edit_distance.h"
#include "ged/lower_bounds.h"
#include "ged_reference.h"
#include "graph/label.h"
#include "graph/labeled_graph.h"
#include "graph/uncertain_graph.h"
#include "test_util.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "workload/synthetic.h"

namespace simj::ged {
namespace {

using graph::LabelDictionary;
using graph::LabeledGraph;

constexpr int kMaxTau = 6;
const int64_t kExpansionCaps[] = {1, 7, 50, GedOptions().max_expansions};

// One BoundedGed call and what it left in the registry.
struct Search {
  std::optional<GedResult> result;
  bool aborted = false;
  int64_t expansions = 0;
  double open_list_peak = 0.0;
};

template <typename Kernel>
Search Measure(const Kernel& kernel) {
  metrics::Registry& registry = metrics::Registry::Global();
  metrics::Counter& expansions =
      registry.GetCounter("simj_ged_expansions_total");
  metrics::Gauge& peak = registry.GetGauge("simj_ged_open_list_peak");
  peak.ResetForTesting();
  const int64_t before = expansions.Value();
  Search search;
  search.result = kernel(&search.aborted);
  search.expansions = expansions.Value() - before;
  search.open_list_peak = peak.Value();
  return search;
}

// Runs both A* kernels on (a, b) at every tau in [first_tau, first_tau +
// kMaxTau] and every expansion cap, and both greedy bounds once. Returns
// the number of searches that expanded a state.
int ExpectSameKernels(const LabeledGraph& a, const LabeledGraph& b,
                      const LabelDictionary& dict, const std::string& what,
                      int first_tau = 0) {
  SCOPED_TRACE(what + "\n" + a.DebugString(dict) + b.DebugString(dict));
  int searched = 0;
  for (int tau = first_tau; tau <= first_tau + kMaxTau; ++tau) {
    for (int64_t cap : kExpansionCaps) {
      SCOPED_TRACE("tau=" + std::to_string(tau) +
                   " max_expansions=" + std::to_string(cap));
      GedOptions options;
      options.max_expansions = cap;
      const Search want = Measure([&](bool* aborted) {
        return reference::BoundedGed(a, b, tau, dict, options, aborted);
      });
      const Search got = Measure([&](bool* aborted) {
        return BoundedGed(a, b, tau, dict, options, aborted);
      });
      EXPECT_EQ(got.result.has_value(), want.result.has_value());
      if (got.result.has_value() && want.result.has_value()) {
        EXPECT_EQ(got.result->distance, want.result->distance);
        EXPECT_EQ(got.result->mapping, want.result->mapping);
      }
      EXPECT_EQ(got.aborted, want.aborted);
      EXPECT_EQ(got.expansions, want.expansions);
      EXPECT_EQ(got.open_list_peak, want.open_list_peak);
      if (want.expansions > 0) ++searched;
    }
  }
  std::vector<int> want_mapping;
  std::vector<int> got_mapping;
  EXPECT_EQ(GreedyGedUpperBound(a, b, dict, &got_mapping),
            reference::GreedyGedUpperBound(a, b, dict, &want_mapping));
  EXPECT_EQ(got_mapping, want_mapping);
  return searched;
}

// The er_verify shape: 10-vertex, 16-edge ER graphs, 40% of the uncertain
// graphs' vertices uncertain with 3 labels each.
workload::SyntheticDataset ErShapes(uint64_t seed, int graphs) {
  workload::SyntheticConfig config;
  config.seed = seed;
  config.num_certain = graphs;
  config.num_uncertain = graphs;
  config.num_vertices = 10;
  config.num_edges = 16;
  config.labels_per_vertex = 3;
  config.perturbation_ops = 2;
  config.uncertain_vertex_fraction = 0.4;
  return workload::MakeErDataset(config);
}

// Up to `limit` (certain graph, possible world) pairs of `data` whose CSS
// bound lies in [min_css, max_css]: pairs that verification runs A* on,
// the harder ones first when min_css is high. Two worlds of each uncertain
// graph.
std::vector<std::pair<const LabeledGraph*, LabeledGraph>> ErCandidates(
    const workload::SyntheticDataset& data, int min_css, int max_css,
    size_t limit) {
  std::vector<std::pair<const LabeledGraph*, LabeledGraph>> pairs;
  for (const LabeledGraph& q : data.certain) {
    for (const graph::UncertainGraph& g : data.uncertain) {
      int worlds = 0;
      for (graph::PossibleWorldIterator it(g); !it.Done() && worlds < 2;
           it.Next(), ++worlds) {
        LabeledGraph world = g.Materialize(it.choice());
        const int css = CssLowerBound(q, world, data.dict);
        if (css < min_css || css > max_css) continue;
        pairs.emplace_back(&q, std::move(world));
        if (pairs.size() == limit) return pairs;
      }
    }
  }
  return pairs;
}

TEST(GedDiffTest, ErShapes) {
  const workload::SyntheticDataset data = ErShapes(/*seed=*/61, 24);
  int searched = 0;
  for (const auto& [q, world] : ErCandidates(data, 3, 6, 24)) {
    searched += ExpectSameKernels(*q, world, data.dict, "er pair");
  }
  EXPECT_GT(searched, 0);
}

// Query-graph-like pairs: 6 vertices, a few of them variables, edges with
// a small predicate alphabet that includes a variable predicate, so both
// vertex and edge wildcards and parallel edges occur.
TEST(GedDiffTest, QaLikeWithWildcards) {
  LabelDictionary dict;
  std::vector<graph::LabelId> vertex_labels =
      simj::testing::TestLabels(dict, 4);
  vertex_labels.push_back(dict.Intern("?x"));
  vertex_labels.push_back(dict.Intern("?y"));
  const std::vector<graph::LabelId> edge_labels = {
      dict.Intern("type"), dict.Intern("p1"), dict.Intern("p2"),
      dict.Intern("?p")};
  Rng rng(6100);
  for (int trial = 0; trial < 24; ++trial) {
    const LabeledGraph a = simj::testing::RandomCertainGraph(
        rng, vertex_labels, edge_labels, 6,
        static_cast<int>(rng.Uniform(4, 8)));
    const LabeledGraph b = simj::testing::RandomCertainGraph(
        rng, vertex_labels, edge_labels, 6,
        static_cast<int>(rng.Uniform(4, 8)));
    ExpectSameKernels(a, b, dict, "qa trial " + std::to_string(trial));
  }
}

// Few vertices and many edges: most vertex pairs carry parallel edges,
// with repeated labels.
TEST(GedDiffTest, ParallelEdges) {
  LabelDictionary dict;
  std::vector<graph::LabelId> vertex_labels =
      simj::testing::TestLabels(dict, 2);
  vertex_labels.push_back(dict.Intern("?x"));
  const std::vector<graph::LabelId> edge_labels = {
      dict.Intern("r1"), dict.Intern("r2"), dict.Intern("?r")};
  Rng rng(6200);
  for (int trial = 0; trial < 24; ++trial) {
    const LabeledGraph a = simj::testing::RandomCertainGraph(
        rng, vertex_labels, edge_labels, static_cast<int>(rng.Uniform(2, 4)),
        static_cast<int>(rng.Uniform(4, 12)));
    const LabeledGraph b = simj::testing::RandomCertainGraph(
        rng, vertex_labels, edge_labels, static_cast<int>(rng.Uniform(2, 4)),
        static_cast<int>(rng.Uniform(4, 12)));
    ExpectSameKernels(a, b, dict, "parallel trial " + std::to_string(trial));
  }
}

TEST(GedDiffTest, EmptySides) {
  LabelDictionary dict;
  const std::vector<graph::LabelId> vertex_labels =
      simj::testing::TestLabels(dict, 3);
  const std::vector<graph::LabelId> edge_labels = {dict.Intern("r1")};
  Rng rng(6300);
  const LabeledGraph empty;
  const LabeledGraph small =
      simj::testing::RandomCertainGraph(rng, vertex_labels, edge_labels, 3, 3);
  ExpectSameKernels(empty, empty, dict, "empty vs empty");
  ExpectSameKernels(empty, small, dict, "empty vs small");
  ExpectSameKernels(small, empty, dict, "small vs empty");
}

// |V(b)| at BoundedGed's limit of 64.
TEST(GedDiffTest, SixtyFourVertexTarget) {
  LabelDictionary dict;
  std::vector<graph::LabelId> vertex_labels =
      simj::testing::TestLabels(dict, 5);
  vertex_labels.push_back(dict.Intern("?x"));
  const std::vector<graph::LabelId> edge_labels = {dict.Intern("r1"),
                                                   dict.Intern("r2")};
  Rng rng(6400);
  for (int trial = 0; trial < 3; ++trial) {
    const LabeledGraph a = simj::testing::RandomCertainGraph(
        rng, vertex_labels, edge_labels, 4, 4);
    const LabeledGraph b = simj::testing::RandomCertainGraph(
        rng, vertex_labels, edge_labels, 64, 96);
    ASSERT_EQ(b.num_vertices(), 64);
    // GED is at least 60 here: also search the taus just above the CSS
    // bound.
    ExpectSameKernels(a, b, dict, "64-vertex trial " + std::to_string(trial));
    EXPECT_GT(ExpectSameKernels(a, b, dict,
                                "64-vertex trial " + std::to_string(trial),
                                CssLowerBound(a, b, dict)),
              0);
  }
}

// WorldGed, laid out once against `groups` (restrictions of one uncertain
// graph), against the one-shot BoundedGed on every world of every group, at
// every tau in [0, kMaxTau] and every expansion cap: the same result, abort
// flag, expansion count and open-list peak. `max_worlds` caps the worlds
// searched per group. Returns the number of searches that expanded a state.
int ExpectWorldGedMatchesOneShot(
    const LabeledGraph& q, const std::vector<graph::UncertainGraph>& groups,
    const LabelDictionary& dict, const std::string& what,
    int max_worlds = 1 << 30) {
  SCOPED_TRACE(what + "\n" + q.DebugString(dict) +
               groups.front().DebugString(dict));
  WorldGed world_ged;
  world_ged.Build(q, groups, dict);
  int searched = 0;
  for (size_t i = 0; i < groups.size(); ++i) {
    const graph::UncertainGraph& group = groups[i];
    int worlds = 0;
    for (graph::PossibleWorldIterator it(group);
         !it.Done() && worlds < max_worlds; it.Next(), ++worlds) {
      const LabeledGraph world = group.Materialize(it.choice());
      for (int tau = 0; tau <= kMaxTau; ++tau) {
        for (int64_t cap : kExpansionCaps) {
          SCOPED_TRACE("group " + std::to_string(i) + " world " +
                       std::to_string(worlds) + " tau=" + std::to_string(tau) +
                       " max_expansions=" + std::to_string(cap));
          GedOptions options;
          options.max_expansions = cap;
          const Search want = Measure([&](bool* aborted) {
            return BoundedGed(q, world, tau, dict, options, aborted);
          });
          const Search got = Measure([&](bool* aborted) {
            return world_ged.BoundedGed(group, it.choice(), tau, options,
                                        aborted);
          });
          EXPECT_EQ(got.result.has_value(), want.result.has_value());
          if (got.result.has_value() && want.result.has_value()) {
            EXPECT_EQ(got.result->distance, want.result->distance);
            EXPECT_EQ(got.result->mapping, want.result->mapping);
          }
          EXPECT_EQ(got.aborted, want.aborted);
          EXPECT_EQ(got.expansions, want.expansions);
          EXPECT_EQ(got.open_list_peak, want.open_list_peak);
          if (want.expansions > 0) ++searched;
        }
      }
    }
  }
  return searched;
}

// g and its two children of a split of vertex v: alternative 0 alone, and
// the rest.
std::vector<graph::UncertainGraph> SplitGroups(const graph::UncertainGraph& g) {
  for (int v = 0; v < g.num_vertices(); ++v) {
    const int alternatives = static_cast<int>(g.alternatives(v).size());
    if (alternatives < 2) continue;
    std::vector<int> rest(static_cast<size_t>(alternatives - 1));
    for (int i = 1; i < alternatives; ++i) rest[i - 1] = i;
    return {g.RestrictVertex(v, {0}), g.RestrictVertex(v, rest)};
  }
  return {g};
}

// Small uncertain graphs with wildcard alternatives, wildcard edges and
// parallel edges, searched whole and as two split groups.
TEST(GedDiffTest, WorldGedMatchesOneShotOnEveryWorld) {
  LabelDictionary dict;
  std::vector<graph::LabelId> vertex_labels =
      simj::testing::TestLabels(dict, 4);
  vertex_labels.push_back(dict.Intern("?x"));
  const std::vector<graph::LabelId> edge_labels = {
      dict.Intern("r1"), dict.Intern("r2"), dict.Intern("?r")};
  Rng rng(6500);
  int searched = 0;
  for (int trial = 0; trial < 10; ++trial) {
    const LabeledGraph q = simj::testing::RandomCertainGraph(
        rng, vertex_labels, edge_labels, static_cast<int>(rng.Uniform(2, 5)),
        static_cast<int>(rng.Uniform(2, 9)));
    const graph::UncertainGraph g = simj::testing::RandomUncertainGraph(
        rng, vertex_labels, edge_labels, static_cast<int>(rng.Uniform(2, 5)),
        static_cast<int>(rng.Uniform(2, 9)), /*max_alts=*/3);
    const std::string what = "trial " + std::to_string(trial);
    searched += ExpectWorldGedMatchesOneShot(q, {g}, dict, what + " whole");
    searched += ExpectWorldGedMatchesOneShot(q, SplitGroups(g), dict,
                                             what + " split");
  }
  EXPECT_GT(searched, 0);
}

// er_verify-shaped pairs, the first worlds of each.
TEST(GedDiffTest, WorldGedMatchesOneShotOnErShapes) {
  const workload::SyntheticDataset data = ErShapes(/*seed=*/63, 12);
  int searched = 0;
  int pairs = 0;
  for (const LabeledGraph& q : data.certain) {
    for (const graph::UncertainGraph& g : data.uncertain) {
      const int css = CssLowerBoundUncertain(q, g, data.dict);
      if (css < 2 || css > 5 || pairs == 4) continue;
      ++pairs;
      searched += ExpectWorldGedMatchesOneShot(
          q, SplitGroups(g), data.dict, "er pair " + std::to_string(pairs),
          /*max_worlds=*/6);
    }
  }
  EXPECT_EQ(pairs, 4);
  EXPECT_GT(searched, 0);
}

// A one-shot BoundedGed on another pair between two world searches on the
// same thread leaves the WorldGed's layout intact.
TEST(GedDiffTest, OneShotCallsBetweenWorldSearches) {
  LabelDictionary dict;
  std::vector<graph::LabelId> vertex_labels =
      simj::testing::TestLabels(dict, 5);
  vertex_labels.push_back(dict.Intern("?x"));
  const std::vector<graph::LabelId> edge_labels = {dict.Intern("r1"),
                                                   dict.Intern("r2")};
  Rng rng(6600);
  const graph::UncertainGraph g = simj::testing::RandomUncertainGraph(
      rng, vertex_labels, edge_labels, 5, 7, /*max_alts=*/3);
  // One of g's worlds, so that the worlds near it fall within tau.
  const LabeledGraph q =
      g.Materialize(std::vector<int>(static_cast<size_t>(g.num_vertices()), 0));
  const LabeledGraph other_a = simj::testing::RandomCertainGraph(
      rng, vertex_labels, edge_labels, 6, 9);
  const LabeledGraph other_b = simj::testing::RandomCertainGraph(
      rng, vertex_labels, edge_labels, 7, 10);
  constexpr int kTau = 4;
  WorldGed world_ged;
  world_ged.Build(q, std::span(&g, 1), dict);
  int found = 0;
  for (graph::PossibleWorldIterator it(g); !it.Done(); it.Next()) {
    const std::optional<GedResult> want =
        BoundedGed(q, g.Materialize(it.choice()), kTau, dict);
    const std::optional<GedResult> first =
        world_ged.BoundedGed(g, it.choice(), kTau);
    // Lays other_a out against other_b in the one-shot scratch.
    (void)BoundedGed(other_a, other_b, kTau + 6, dict);
    const std::optional<GedResult> second =
        world_ged.BoundedGed(g, it.choice(), kTau);
    ASSERT_EQ(first.has_value(), want.has_value());
    ASSERT_EQ(second.has_value(), want.has_value());
    if (!want.has_value()) continue;
    ++found;
    EXPECT_EQ(first->distance, want->distance);
    EXPECT_EQ(first->mapping, want->mapping);
    EXPECT_EQ(second->distance, want->distance);
    EXPECT_EQ(second->mapping, want->mapping);
  }
  EXPECT_GT(found, 0);
}

// Four threads run both A* kernels and both greedy bounds at once on the
// same graphs: each thread's per-thread scratch must keep its results those
// of the reference. (The registry counters are shared, so only results are
// compared here.)
TEST(GedDiffTest, ConcurrentCallsAgree) {
  const workload::SyntheticDataset data = ErShapes(/*seed=*/62, 24);
  const auto pairs = ErCandidates(data, 2, 5, 12);
  ASSERT_FALSE(pairs.empty());
  constexpr int kThreads = 4;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 2; ++round) {
        for (size_t p = 0; p < pairs.size(); ++p) {
          const LabeledGraph& a = *pairs[p].first;
          const LabeledGraph& b = pairs[p].second;
          const int tau = static_cast<int>((p + t + round) % (kMaxTau + 1));
          GedOptions options;
          options.max_expansions = kExpansionCaps[(p + t) % 4];
          bool want_aborted = false;
          bool got_aborted = false;
          const std::optional<GedResult> want = reference::BoundedGed(
              a, b, tau, data.dict, options, &want_aborted);
          const std::optional<GedResult> got =
              BoundedGed(a, b, tau, data.dict, options, &got_aborted);
          std::vector<int> want_mapping;
          std::vector<int> got_mapping;
          const int want_upper = reference::GreedyGedUpperBound(
              a, b, data.dict, &want_mapping);
          const int got_upper =
              GreedyGedUpperBound(a, b, data.dict, &got_mapping);
          const bool same =
              got.has_value() == want.has_value() &&
              (!want.has_value() || (got->distance == want->distance &&
                                     got->mapping == want->mapping)) &&
              got_aborted == want_aborted && got_upper == want_upper &&
              got_mapping == want_mapping;
          if (!same) ++mismatches[t];
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[t], 0) << "thread " << t;
  }
}

}  // namespace
}  // namespace simj::ged
