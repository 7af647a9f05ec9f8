#include <cstdint>
#include <set>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "core/join.h"
#include "core/similarity.h"
#include "core/topk.h"
#include "ged/lower_bounds.h"
#include "test_util.h"
#include "util/metrics.h"
#include "util/rng.h"

namespace simj::core {
namespace {

using graph::LabelDictionary;
using graph::LabeledGraph;
using graph::UncertainGraph;

// Brute-force reference: exact SimP for every pair, no pruning at all.
std::set<std::pair<int, int>> BruteForceJoin(
    const std::vector<LabeledGraph>& d, const std::vector<UncertainGraph>& u,
    int tau, double alpha, const LabelDictionary& dict) {
  std::set<std::pair<int, int>> result;
  for (int qi = 0; qi < static_cast<int>(d.size()); ++qi) {
    for (int gi = 0; gi < static_cast<int>(u.size()); ++gi) {
      if (ComputeSimP(d[qi], u[gi], tau, dict).probability >= alpha - 1e-9) {
        result.insert({qi, gi});
      }
    }
  }
  return result;
}

std::set<std::pair<int, int>> PairSet(const JoinResult& result) {
  std::set<std::pair<int, int>> out;
  for (const MatchedPair& pair : result.pairs) {
    out.insert({pair.q_index, pair.g_index});
  }
  return out;
}

class JoinEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(JoinEquivalenceTest, AllConfigurationsAgreeWithBruteForce) {
  simj::testing::RandomJoinWorkload workload =
      simj::testing::MakeRandomJoinWorkload(900 + GetParam());
  const LabelDictionary& dict = workload.dict;
  const std::vector<LabeledGraph>& d = workload.d;
  const std::vector<UncertainGraph>& u = workload.u;
  Rng rng(9000 + GetParam());

  int tau = static_cast<int>(rng.Uniform(0, 3));
  double alpha = 0.2 + 0.6 * rng.UniformDouble();
  std::set<std::pair<int, int>> reference =
      BruteForceJoin(d, u, tau, alpha, dict);

  // CSS only / SimJ / SimJ+opt / everything off must all return the same
  // pair set as the brute force.
  for (int config = 0; config < 4; ++config) {
    SimJParams params;
    params.tau = tau;
    params.alpha = alpha;
    params.structural_pruning = config != 3;
    params.probabilistic_pruning = config == 1 || config == 2;
    params.group_count = config == 2 ? 6 : 1;
    JoinResult joined = SimJoin(d, u, params, dict);
    EXPECT_EQ(PairSet(joined), reference)
        << "config=" << config << " tau=" << tau << " alpha=" << alpha;
    // Sanity on statistics bookkeeping.
    EXPECT_EQ(joined.stats.total_pairs,
              static_cast<int64_t>(d.size() * u.size()));
    EXPECT_EQ(joined.stats.results,
              static_cast<int64_t>(joined.pairs.size()));
    EXPECT_LE(joined.stats.candidates, joined.stats.total_pairs);
    EXPECT_EQ(joined.stats.total_pairs - joined.stats.pruned_structural -
                  joined.stats.pruned_probabilistic,
              joined.stats.candidates);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, JoinEquivalenceTest, ::testing::Range(0, 30));

TEST(JoinTest, MatchedPairCarriesMappingForTemplates) {
  LabelDictionary dict;
  graph::LabelId var = dict.Intern("?x");
  graph::LabelId artist = dict.Intern("Artist");
  graph::LabelId politician = dict.Intern("Politician");
  graph::LabelId university = dict.Intern("University");
  graph::LabelId company = dict.Intern("Company");
  graph::LabelId type = dict.Intern("type");
  graph::LabelId grad = dict.Intern("graduatedFrom");

  // q1 from the paper's running example.
  LabeledGraph q;
  q.AddVertex(var);
  q.AddVertex(artist);
  q.AddVertex(university);
  q.AddEdge(0, 1, type);
  q.AddEdge(0, 2, grad);

  // g2: "Which politician graduated from CIT?" (CIT: University 0.8 /
  // Company 0.2).
  UncertainGraph g;
  g.AddCertainVertex(var);
  g.AddCertainVertex(politician);
  g.AddVertex({{university, 0.8}, {company, 0.2}});
  g.AddEdge(0, 1, type);
  g.AddEdge(0, 2, grad);

  SimJParams params;
  params.tau = 1;
  params.alpha = 0.7;
  JoinResult result = SimJoin({q}, {g}, params, dict);
  ASSERT_EQ(result.pairs.size(), 1u);
  const MatchedPair& pair = result.pairs[0];
  // SimP = 0.8 (world with University qualifies at ged 1; the Company world
  // has ged 2).
  EXPECT_NEAR(pair.similarity_probability, 0.8, 1e-9);
  ASSERT_EQ(pair.mapping.size(), 3u);
  EXPECT_EQ(pair.mapping[0], 0);  // ?x        <-> ?x
  EXPECT_EQ(pair.mapping[1], 1);  // Artist    <-> Politician
  EXPECT_EQ(pair.mapping[2], 2);  // University<-> CIT
}

// Regression test: the result set must shrink monotonically as alpha grows,
// including at alphas that exactly hit accumulated world probabilities
// (0.1 * k arithmetic bit-patterns vs exact confidence sums).
TEST(JoinTest, ResultsAreMonotoneInAlpha) {
  simj::testing::RandomJoinWorkloadOptions options;
  options.num_certain = 6;
  options.num_uncertain = 6;
  options.vertex_label_pool = 4;
  options.edge_label_pool = 1;
  options.add_wildcard = false;
  simj::testing::RandomJoinWorkload workload =
      simj::testing::MakeRandomJoinWorkload(999, options);
  const LabelDictionary& dict = workload.dict;
  std::vector<LabeledGraph>& d = workload.d;
  std::vector<UncertainGraph>& u = workload.u;
  // Mix in a vertex with the exact 0.6/0.4 confidences the workload
  // generator produces, so some SimP values equal 0.1 * k exactly.
  UncertainGraph exact_probs;
  exact_probs.AddVertex({{workload.vertex_labels[0], 0.6},
                         {workload.vertex_labels[1], 0.4}});
  u.push_back(std::move(exact_probs));
  LabeledGraph single;
  single.AddVertex(workload.vertex_labels[0]);
  d.push_back(std::move(single));

  std::set<std::pair<int, int>> previous;
  bool first = true;
  for (int step = 9; step >= 1; --step) {
    SimJParams params;
    params.tau = 1;
    params.alpha = 0.1 * step;
    std::set<std::pair<int, int>> current = PairSet(SimJoin(d, u, params, dict));
    if (!first) {
      for (const auto& pair : previous) {
        EXPECT_TRUE(current.contains(pair))
            << "pair (" << pair.first << "," << pair.second
            << ") present at alpha=" << 0.1 * (step + 1)
            << " but missing at alpha=" << 0.1 * step;
      }
    }
    previous = std::move(current);
    first = false;
  }
}

// Explain-all samples every pair, so no pair takes the count-bound check:
// the run without explain must count exactly the same prunes.
class CountCheckTest : public ::testing::TestWithParam<int> {};

TEST_P(CountCheckTest, CountsLikeTheFullCssFilter) {
  simj::testing::RandomJoinWorkloadOptions options;
  options.num_certain = 8;
  options.num_uncertain = 8;
  options.max_vertices = 5;
  options.max_edges = 6;
  options.max_uncertain_edges = 5;
  options.vertex_label_pool = 4;
  options.edge_label_pool = 1;
  options.add_wildcard = false;
  simj::testing::RandomJoinWorkload workload =
      simj::testing::MakeRandomJoinWorkload(1400 + GetParam(), options);
  const LabelDictionary& dict = workload.dict;
  const std::vector<LabeledGraph>& d = workload.d;
  const std::vector<UncertainGraph>& u = workload.u;
  Rng rng(14000 + GetParam());
  SimJParams params;
  params.tau = static_cast<int>(rng.Uniform(0, 3));
  params.alpha = 0.2 + 0.6 * rng.UniformDouble();

  JoinResult checked = SimJoin(d, u, params, dict);
  params.explain.enabled = true;
  JoinResult full = SimJoin(d, u, params, dict);
  EXPECT_EQ(PairSet(checked), PairSet(full));
  EXPECT_EQ(checked.stats.total_pairs, full.stats.total_pairs);
  EXPECT_EQ(checked.stats.pruned_structural, full.stats.pruned_structural);
  EXPECT_EQ(checked.stats.pruned_probabilistic,
            full.stats.pruned_probabilistic);
  EXPECT_EQ(checked.stats.candidates, full.stats.candidates);
}

INSTANTIATE_TEST_SUITE_P(Sweep, CountCheckTest, ::testing::Range(0, 25));

// The CSS filter counts one kernel call and observes one duration into the
// structural histogram per pair that reaches it (every pair but the ones
// the count bound decides), whichever step of the cascade decides the
// pair, sampled or not, at one thread or several.
TEST(JoinTest, CssInstrumentsCountEveryFilteredPair) {
  simj::testing::RandomJoinWorkloadOptions options;
  options.num_certain = 12;
  options.num_uncertain = 12;
  options.max_vertices = 6;
  options.max_edges = 8;
  options.max_uncertain_edges = 7;
  simj::testing::RandomJoinWorkload w =
      simj::testing::MakeRandomJoinWorkload(1900, options);
  for (int threads : {1, 3}) {
    for (bool sampled : {false, true}) {
      SCOPED_TRACE(std::to_string(threads) + " threads, sampled " +
                   std::to_string(sampled));
      SimJParams params;
      params.tau = 1;
      params.num_threads = threads;
      params.explain.enabled = sampled;
      params.explain.sample_every = 3;
      const metrics::MetricsSnapshot before =
          metrics::Registry::Global().Snapshot();
      const JoinResult result = SimJoin(w.d, w.u, params, w.dict);
      const metrics::MetricsSnapshot after =
          metrics::Registry::Global().Snapshot();
      auto counted = [&](const std::string& name) {
        auto was = before.counters.find(name);
        return after.counters.at(name) -
               (was == before.counters.end() ? 0 : was->second);
      };
      auto observed = [&](const std::string& name) {
        auto was = before.histograms.find(name);
        return after.histograms.at(name).count -
               (was == before.histograms.end() ? 0 : was->second.count);
      };
      const int64_t filtered = counted("simj_join_pairs_total") -
                               counted(kPrunedCountBoundMetric);
      EXPECT_EQ(counted("simj_join_pairs_total"), result.stats.total_pairs);
      EXPECT_GT(counted(kPrunedCountBoundMetric), 0);
      EXPECT_GT(filtered, 0);
      EXPECT_EQ(counted(ged::kCssBoundCallsMetric), filtered);
      EXPECT_EQ(observed("simj_filter_structural_seconds"), filtered);
    }
  }
}

class TopKJoinTest : public ::testing::TestWithParam<int> {};

TEST_P(TopKJoinTest, MatchesBruteForceRanking) {
  simj::testing::RandomJoinWorkloadOptions options;
  options.num_certain = 7;
  options.num_uncertain = 4;
  options.vertex_label_pool = 4;
  options.edge_label_pool = 1;
  options.add_wildcard = false;
  simj::testing::RandomJoinWorkload workload =
      simj::testing::MakeRandomJoinWorkload(1500 + GetParam(), options);
  const LabelDictionary& dict = workload.dict;
  const std::vector<LabeledGraph>& d = workload.d;
  const std::vector<UncertainGraph>& u = workload.u;
  Rng rng(15000 + GetParam());
  TopKParams params;
  params.tau = static_cast<int>(rng.Uniform(0, 3));
  params.k = static_cast<int>(rng.Uniform(1, 4));
  params.group_count = GetParam() % 2 == 0 ? 1 : 4;

  TopKResult topk = TopKJoin(d, u, params, dict);
  ASSERT_EQ(topk.matches.size(), u.size());
  for (size_t gi = 0; gi < u.size(); ++gi) {
    // Brute force: exact SimP for every q, rank, take k nonzero.
    std::vector<std::pair<double, int>> all;
    for (int qi = 0; qi < static_cast<int>(d.size()); ++qi) {
      double simp =
          ComputeSimP(d[qi], u[gi], params.tau, dict).probability;
      if (simp > kSimPEpsilon) all.push_back({simp, qi});
    }
    std::sort(all.begin(), all.end(), [](const auto& a, const auto& b) {
      if (a.first != b.first) return a.first > b.first;
      return a.second < b.second;
    });
    if (static_cast<int>(all.size()) > params.k) all.resize(params.k);

    const std::vector<MatchedPair>& got = topk.matches[gi];
    ASSERT_EQ(got.size(), all.size()) << "g=" << gi;
    for (size_t r = 0; r < all.size(); ++r) {
      EXPECT_EQ(got[r].q_index, all[r].second) << "g=" << gi << " rank=" << r;
      EXPECT_NEAR(got[r].similarity_probability, all[r].first, 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, TopKJoinTest, ::testing::Range(0, 25));

// Without the early exits the pair's worlds are still one walk: the second
// group's world (A, D) or (C, B), at probability below the first group's
// best, is accepted by the witness that the first group's A* search left.
// Worlds: (A,B) 0.42 ged 0; (C,B) 0.28 ged 1; (A,D) 0.18 ged 1; (C,D) 0.12
// ged 2. Whichever vertex the partition splits, one A* search (the best
// world) decides the pair, and both other qualifying worlds are witnessed.
TEST(JoinTest, ExactVerificationSharesWitnessesAcrossGroups) {
  LabelDictionary dict;
  const graph::LabelId a = dict.Intern("A");
  const graph::LabelId b = dict.Intern("B");
  const graph::LabelId c = dict.Intern("C");
  const graph::LabelId d = dict.Intern("D");
  const graph::LabelId r = dict.Intern("r");
  LabeledGraph q;
  q.AddVertex(a);
  q.AddVertex(b);
  q.AddEdge(0, 1, r);
  UncertainGraph g;
  g.AddVertex({{a, 0.6}, {c, 0.4}});
  g.AddVertex({{b, 0.7}, {d, 0.3}});
  g.AddEdge(0, 1, r);

  SimJParams params;
  params.tau = 1;
  params.alpha = 0.5;
  params.group_count = 2;
  params.early_exit_verification = false;
  JoinStats stats;
  MatchedPair pair;
  PairExplain explain;
  ASSERT_TRUE(EvaluatePair(q, g, params, dict, &stats, &pair, &explain));
  EXPECT_EQ(explain.live_groups, 2);
  EXPECT_NEAR(pair.similarity_probability, 0.88, kSimPEpsilon);
  EXPECT_EQ(pair.mapping, (std::vector<int>{0, 1}));
  EXPECT_EQ(pair.best_world_ged, 0);
  EXPECT_EQ(stats.verify.worlds_enumerated, 4);
  EXPECT_EQ(stats.verify.worlds_pruned_by_bound, 1);
  EXPECT_EQ(stats.verify.ged_calls, 1);
  EXPECT_EQ(stats.verify.worlds_accepted_by_upper_bound, 2);
}

TEST(JoinTest, EmptyInputs) {
  LabelDictionary dict;
  SimJParams params;
  JoinResult result = SimJoin({}, {}, params, dict);
  EXPECT_TRUE(result.pairs.empty());
  EXPECT_EQ(result.stats.total_pairs, 0);
  EXPECT_EQ(result.stats.CandidateRatio(), 0.0);
}

}  // namespace
}  // namespace simj::core
