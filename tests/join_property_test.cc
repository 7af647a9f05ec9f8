// Randomized differential tests for the similarity join: every pruning
// configuration, the size-indexed join, and the parallel path must return
// exactly the pair set of a no-pruning brute force built on ComputeSimP,
// with matching similarity probabilities. Pruning-heavy joins are where
// silent correctness bugs hide (a wrong filter only makes the join look
// faster), so the oracle uses none of the machinery under test: it
// enumerates possible worlds pair by pair.

#include <bit>
#include <cstdint>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/index.h"
#include "core/join.h"
#include "core/similarity.h"
#include "test_util.h"
#include "workload/synthetic.h"

namespace simj::core {
namespace {

using graph::LabelDictionary;
using graph::LabeledGraph;
using graph::UncertainGraph;

using PairKey = std::pair<int, int>;

// Oracle: exact SimP for every pair of the cross product, no pruning.
std::map<PairKey, double> BruteForceSimP(
    const std::vector<LabeledGraph>& d, const std::vector<UncertainGraph>& u,
    int tau, const LabelDictionary& dict) {
  std::map<PairKey, double> simp;
  for (int qi = 0; qi < static_cast<int>(d.size()); ++qi) {
    for (int gi = 0; gi < static_cast<int>(u.size()); ++gi) {
      simp[{qi, gi}] = ComputeSimP(d[qi], u[gi], tau, dict).probability;
    }
  }
  return simp;
}

std::set<PairKey> QualifyingPairs(const std::map<PairKey, double>& simp,
                                  double alpha) {
  std::set<PairKey> out;
  for (const auto& [key, probability] : simp) {
    if (probability >= alpha - kSimPEpsilon) out.insert(key);
  }
  return out;
}

std::set<PairKey> PairSet(const JoinResult& result) {
  std::set<PairKey> out;
  for (const MatchedPair& pair : result.pairs) {
    out.insert({pair.q_index, pair.g_index});
  }
  return out;
}

struct NamedConfig {
  const char* name;
  bool structural_pruning;
  bool probabilistic_pruning;
  int group_count;
};

// Every pruning configuration the paper evaluates, plus everything-off.
constexpr NamedConfig kConfigs[] = {
    {"no pruning", false, false, 1},
    {"CSS only", true, false, 1},
    {"SimJ", true, true, 1},
    {"SimJ+opt g=2", true, true, 2},
    {"SimJ+opt g=4", true, true, 4},
};

class JoinDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(JoinDifferentialTest, AllPathsMatchBruteForceOracle) {
  const int seed = GetParam();
  workload::SyntheticDataset data =
      simj::testing::MakeTinySyntheticDataset(3000 + seed);
  const int tau = 1 + seed % 2;
  const double alpha = 0.25 + 0.15 * (seed % 4);

  std::map<PairKey, double> oracle_simp =
      BruteForceSimP(data.certain, data.uncertain, tau, data.dict);
  std::set<PairKey> oracle_pairs = QualifyingPairs(oracle_simp, alpha);

  for (const NamedConfig& config : kConfigs) {
    for (int threads : {1, 2, 8}) {
      SimJParams params;
      params.tau = tau;
      params.alpha = alpha;
      params.structural_pruning = config.structural_pruning;
      params.probabilistic_pruning = config.probabilistic_pruning;
      params.group_count = config.group_count;
      params.num_threads = threads;
      // Exact mode first: without the verification early exits every
      // reported probability must equal the oracle's, not just bound it.
      params.early_exit_verification = false;

      for (bool indexed : {false, true}) {
        SCOPED_TRACE(::testing::Message()
                     << config.name << " threads=" << threads
                     << " indexed=" << indexed << " tau=" << tau
                     << " alpha=" << alpha);
        JoinResult result =
            indexed ? IndexedSimJoin(data.certain, data.uncertain, params,
                                     data.dict)
                    : SimJoin(data.certain, data.uncertain, params, data.dict);
        EXPECT_EQ(PairSet(result), oracle_pairs);
        for (const MatchedPair& pair : result.pairs) {
          double exact = oracle_simp[{pair.q_index, pair.g_index}];
          EXPECT_NEAR(pair.similarity_probability, exact, kSimPEpsilon);
        }
        EXPECT_EQ(result.stats.results,
                  static_cast<int64_t>(result.pairs.size()));
      }

      // Default mode: with early exits the reported probability is allowed
      // to be a lower bound, but it must still reach alpha and never
      // overshoot the exact value.
      params.early_exit_verification = true;
      JoinResult result =
          SimJoin(data.certain, data.uncertain, params, data.dict);
      SCOPED_TRACE(::testing::Message() << config.name << " threads="
                                        << threads << " early-exit mode");
      EXPECT_EQ(PairSet(result), oracle_pairs);
      for (const MatchedPair& pair : result.pairs) {
        double exact = oracle_simp[{pair.q_index, pair.g_index}];
        EXPECT_GE(pair.similarity_probability, alpha - kSimPEpsilon);
        EXPECT_LE(pair.similarity_probability, exact + kSimPEpsilon);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(SyntheticSweep, JoinDifferentialTest,
                         ::testing::Range(0, 8));

// The same oracle over the adversarial random-graph generator (wildcards,
// multigraph edges, degenerate one-vertex graphs).
class RandomGraphDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomGraphDifferentialTest, AllConfigurationsMatchOracle) {
  const int seed = GetParam();
  simj::testing::RandomJoinWorkloadOptions options;
  options.num_certain = 5;
  options.num_uncertain = 5;
  simj::testing::RandomJoinWorkload workload =
      simj::testing::MakeRandomJoinWorkload(7100 + seed, options);
  const int tau = seed % 3;
  const double alpha = 0.2 + 0.1 * (seed % 7);

  std::map<PairKey, double> oracle_simp =
      BruteForceSimP(workload.d, workload.u, tau, workload.dict);
  std::set<PairKey> oracle_pairs = QualifyingPairs(oracle_simp, alpha);

  for (const NamedConfig& config : kConfigs) {
    for (int threads : {1, 4}) {
      SimJParams params;
      params.tau = tau;
      params.alpha = alpha;
      params.structural_pruning = config.structural_pruning;
      params.probabilistic_pruning = config.probabilistic_pruning;
      params.group_count = config.group_count;
      params.num_threads = threads;
      params.early_exit_verification = false;
      SCOPED_TRACE(::testing::Message() << config.name
                                        << " threads=" << threads);
      JoinResult plain = SimJoin(workload.d, workload.u, params, workload.dict);
      JoinResult indexed =
          IndexedSimJoin(workload.d, workload.u, params, workload.dict);
      EXPECT_EQ(PairSet(plain), oracle_pairs);
      EXPECT_EQ(PairSet(indexed), oracle_pairs);
      for (const JoinResult* result : {&plain, &indexed}) {
        for (const MatchedPair& pair : result->pairs) {
          double exact = oracle_simp[{pair.q_index, pair.g_index}];
          EXPECT_NEAR(pair.similarity_probability, exact, kSimPEpsilon);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSweep, RandomGraphDifferentialTest,
                         ::testing::Range(0, 10));

// Witness accepts decide a world that cannot become the pair's best from an
// earlier world's A* mapping, the ablation from the greedy bipartite bound.
// Both accept only worlds with ged <= tau, and the would-be-best worlds get
// the same A* either way, so pairs, mappings, SimP bit patterns and
// best_world_ged must be identical, and only the split of the decided
// worlds between worlds_accepted_by_upper_bound and ged_calls may move.

struct WitnessInput {
  graph::LabelDictionary dict;
  std::vector<LabeledGraph> d;
  std::vector<UncertainGraph> u;
};

// Even seeds: ER graphs from the synthetic generator. Odd seeds: random
// graphs with wildcard vertex labels and parallel edges.
WitnessInput MakeWitnessInput(int seed) {
  WitnessInput input;
  if (seed % 2 == 0) {
    workload::SyntheticConfig config;
    config.seed = 8100 + static_cast<uint64_t>(seed);
    config.num_certain = 8;
    config.num_uncertain = 8;
    config.num_vertices = 6;
    config.num_edges = 9;
    config.vertex_label_pool = 5;
    config.edge_label_pool = 3;
    config.labels_per_vertex = 3;
    workload::SyntheticDataset data = workload::MakeErDataset(config);
    input.dict = std::move(data.dict);
    input.d = std::move(data.certain);
    input.u = std::move(data.uncertain);
  } else {
    simj::testing::RandomJoinWorkloadOptions options;
    options.num_certain = 7;
    options.num_uncertain = 7;
    options.max_vertices = 5;
    options.max_edges = 8;
    options.max_uncertain_edges = 8;
    simj::testing::RandomJoinWorkload workload =
        simj::testing::MakeRandomJoinWorkload(8100 + seed, options);
    input.dict = std::move(workload.dict);
    input.d = std::move(workload.d);
    input.u = std::move(workload.u);
  }
  return input;
}

void ExpectIdenticalPairs(const JoinResult& witness, const JoinResult& greedy) {
  ASSERT_EQ(witness.pairs.size(), greedy.pairs.size());
  for (size_t i = 0; i < greedy.pairs.size(); ++i) {
    const MatchedPair& a = witness.pairs[i];
    const MatchedPair& b = greedy.pairs[i];
    EXPECT_EQ(a.q_index, b.q_index) << "pair " << i;
    EXPECT_EQ(a.g_index, b.g_index) << "pair " << i;
    EXPECT_EQ(std::bit_cast<uint64_t>(a.similarity_probability),
              std::bit_cast<uint64_t>(b.similarity_probability))
        << "pair " << i;
    EXPECT_EQ(a.mapping, b.mapping) << "pair " << i;
    EXPECT_EQ(a.best_world_ged, b.best_world_ged) << "pair " << i;
  }
}

class WitnessAcceptTest : public ::testing::TestWithParam<int> {};

TEST_P(WitnessAcceptTest, JoinOutputEqualsTheGreedyAblation) {
  const WitnessInput input = MakeWitnessInput(GetParam());
  int64_t witness_accepts = 0;
  for (int tau = 0; tau <= 6; ++tau) {
    for (int groups : {1, 4, 8}) {
      for (bool early_exit : {true, false}) {
        SimJParams params;
        params.tau = tau;
        params.alpha = 0.15 + 0.1 * ((tau + groups) % 6);
        params.group_count = groups;
        params.early_exit_verification = early_exit;
        params.slow_pair_log_ms = 0.0;
        SCOPED_TRACE(::testing::Message()
                     << "tau=" << tau << " groups=" << groups
                     << " early_exit=" << early_exit);
        const JoinResult witness =
            SimJoin(input.d, input.u, params, input.dict);
        params.witness_accept = false;
        const JoinResult greedy = SimJoin(input.d, input.u, params, input.dict);
        ExpectIdenticalPairs(witness, greedy);
        const VerifyStats& w = witness.stats.verify;
        const VerifyStats& g = greedy.stats.verify;
        EXPECT_EQ(w.worlds_enumerated, g.worlds_enumerated);
        EXPECT_EQ(w.worlds_pruned_by_bound, g.worlds_pruned_by_bound);
        EXPECT_EQ(w.ged_aborted, 0);
        EXPECT_EQ(g.ged_aborted, 0);
        // Every world within the bound is decided exactly once.
        EXPECT_EQ(w.worlds_accepted_by_upper_bound + w.ged_calls,
                  w.worlds_enumerated - w.worlds_pruned_by_bound);
        EXPECT_EQ(g.worlds_accepted_by_upper_bound + g.ged_calls,
                  g.worlds_enumerated - g.worlds_pruned_by_bound);
        witness_accepts += w.worlds_accepted_by_upper_bound;
      }
    }
  }
  EXPECT_GT(witness_accepts, 0);
}

// With a tiny expansion cap the A* aborts, and an abort turns a world into
// a non-match. The two paths send different worlds to the A*, so a pair
// may differ, but only where one of its searches aborted: every pair with
// no abort on either path is identical.
TEST_P(WitnessAcceptTest, OnlyAbortedSearchesSeparateThePathsUnderATinyCap) {
  const WitnessInput input = MakeWitnessInput(GetParam());
  ged::GedOptions options;
  options.max_expansions = 4;
  int64_t compared = 0;
  int64_t with_aborts = 0;
  for (int tau : {2, 4, 6}) {
    for (const LabeledGraph& q : input.d) {
      for (const UncertainGraph& g : input.u) {
        VerifyStats witness_stats;
        VerifyStats greedy_stats;
        const SimPResult witness =
            VerifySimP(q, {g}, g.TotalMass(), tau, /*alpha=*/0.6, input.dict,
                       options, &witness_stats, /*witness_accept=*/true);
        const SimPResult greedy =
            VerifySimP(q, {g}, g.TotalMass(), tau, /*alpha=*/0.6, input.dict,
                       options, &greedy_stats, /*witness_accept=*/false);
        if (witness_stats.ged_aborted + greedy_stats.ged_aborted > 0) {
          ++with_aborts;
          continue;
        }
        ++compared;
        EXPECT_EQ(std::bit_cast<uint64_t>(witness.probability),
                  std::bit_cast<uint64_t>(greedy.probability));
        EXPECT_EQ(witness.early_accept, greedy.early_accept);
        EXPECT_EQ(witness.early_reject, greedy.early_reject);
        EXPECT_EQ(witness.best_mapping, greedy.best_mapping);
        EXPECT_EQ(witness.best_world_ged, greedy.best_world_ged);
      }
    }
  }
  EXPECT_GT(compared, 0);
  EXPECT_GT(with_aborts, 0) << "the cap never bit";
}

INSTANTIATE_TEST_SUITE_P(Seeds, WitnessAcceptTest, ::testing::Range(0, 6));

}  // namespace
}  // namespace simj::core
