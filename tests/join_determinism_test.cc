// The parallel join must be a pure optimization: for a fixed seed and
// parameter set, every thread count (including the serial legacy path)
// must produce byte-identical results — same pairs in the same order, same
// probabilities and mappings, and identical merged prune/verify counters.

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/index.h"
#include "core/join.h"
#include "dist/coordinator.h"
#include "test_util.h"

#ifndef SIMJ_TEST_GOLDEN_DIR
#define SIMJ_TEST_GOLDEN_DIR "tests/golden"
#endif

namespace simj::core {
namespace {

void ExpectSamePairs(const JoinResult& got, const JoinResult& want) {
  ASSERT_EQ(got.pairs.size(), want.pairs.size());
  for (size_t i = 0; i < want.pairs.size(); ++i) {
    const MatchedPair& a = got.pairs[i];
    const MatchedPair& b = want.pairs[i];
    EXPECT_EQ(a.q_index, b.q_index) << "pair " << i;
    EXPECT_EQ(a.g_index, b.g_index) << "pair " << i;
    // Each pair is evaluated wholly inside one worker, so even the
    // floating-point results are bitwise identical across thread counts.
    EXPECT_EQ(a.similarity_probability, b.similarity_probability)
        << "pair " << i;
    EXPECT_EQ(a.mapping, b.mapping) << "pair " << i;
    EXPECT_EQ(a.best_world_ged, b.best_world_ged) << "pair " << i;
  }
}

void ExpectSameCounters(const JoinStats& got, const JoinStats& want) {
  EXPECT_EQ(got.total_pairs, want.total_pairs);
  EXPECT_EQ(got.pruned_structural, want.pruned_structural);
  EXPECT_EQ(got.pruned_probabilistic, want.pruned_probabilistic);
  EXPECT_EQ(got.candidates, want.candidates);
  EXPECT_EQ(got.results, want.results);
  EXPECT_EQ(got.verify.worlds_enumerated, want.verify.worlds_enumerated);
  EXPECT_EQ(got.verify.worlds_pruned_by_bound,
            want.verify.worlds_pruned_by_bound);
  EXPECT_EQ(got.verify.worlds_accepted_by_upper_bound,
            want.verify.worlds_accepted_by_upper_bound);
  EXPECT_EQ(got.verify.ged_calls, want.verify.ged_calls);
  EXPECT_EQ(got.verify.ged_aborted, want.verify.ged_aborted);
}

// Sweep inputs 0-5 are 12x12 datasets. Input 6 has fewer pairs (1x3) than
// the 8-thread run has workers, so some workers claim no chunk at all.
// Input 7's 17x31 pairs leave a partial last chunk at 2 and 3 threads.
std::pair<int, int> SweepShape(int input) {
  if (input == 6) return {1, 3};
  if (input == 7) return {17, 31};
  return {12, 12};
}

class JoinDeterminismTest : public ::testing::TestWithParam<int> {};

TEST_P(JoinDeterminismTest, ThreadCountNeverChangesTheResult) {
  const auto [num_certain, num_uncertain] = SweepShape(GetParam());
  workload::SyntheticDataset data = simj::testing::MakeTinySyntheticDataset(
      5000 + GetParam(), num_certain, num_uncertain);

  SimJParams params;
  params.tau = 1 + GetParam() % 2;
  params.alpha = 0.4;
  params.group_count = GetParam() % 2 == 0 ? 1 : 4;

  params.num_threads = 1;
  JoinResult serial = SimJoin(data.certain, data.uncertain, params, data.dict);
  JoinResult serial_indexed =
      IndexedSimJoin(data.certain, data.uncertain, params, data.dict);

  // 3 is an odd worker count next to the powers of two.
  for (int threads : {2, 3, 8}) {
    params.num_threads = threads;
    JoinResult parallel =
        SimJoin(data.certain, data.uncertain, params, data.dict);
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    ExpectSamePairs(parallel, serial);
    ExpectSameCounters(parallel.stats, serial.stats);

    JoinResult parallel_indexed =
        IndexedSimJoin(data.certain, data.uncertain, params, data.dict);
    ExpectSamePairs(parallel_indexed, serial_indexed);
    ExpectSameCounters(parallel_indexed.stats, serial_indexed.stats);
  }

  // num_threads = 0 (hardware concurrency) goes through the parallel path
  // too, whatever the machine's core count.
  params.num_threads = 0;
  JoinResult hw = SimJoin(data.certain, data.uncertain, params, data.dict);
  ExpectSamePairs(hw, serial);
  ExpectSameCounters(hw.stats, serial.stats);
}

INSTANTIATE_TEST_SUITE_P(Sweep, JoinDeterminismTest, ::testing::Range(0, 8));

TEST(JoinDeterminismTest, FrozenDictionaryRejectsNewLabels) {
  graph::LabelDictionary dict;
  graph::LabelId known = dict.Intern("Known");
  dict.Freeze();
  EXPECT_TRUE(dict.frozen());
  // Looking up an existing label stays legal after the freeze...
  EXPECT_EQ(dict.Intern("Known"), known);
  EXPECT_EQ(dict.Find("Known"), known);
  // ...but interning a new one is a programmer error.
  EXPECT_DEATH(dict.Intern("Fresh"), "frozen");
}

TEST(JoinDeterminismTest, ScopedFreezesNest) {
  graph::LabelDictionary dict;
  {
    graph::ScopedFreeze outer(dict);
    {
      graph::ScopedFreeze inner(dict);
      EXPECT_TRUE(dict.frozen());
    }
    // An overlapping join still runs: the dictionary stays frozen.
    EXPECT_TRUE(dict.frozen());
  }
  EXPECT_FALSE(dict.frozen());
  EXPECT_GE(dict.Intern("Fresh"), 0);
}

TEST(JoinDeterminismTest, ParallelJoinsUnfreezeTheDictionaryWhenDone) {
  workload::SyntheticDataset data =
      simj::testing::MakeTinySyntheticDataset(99, /*num_certain=*/3,
                                              /*num_uncertain=*/3);
  SimJParams params;
  params.num_threads = 2;
  JoinResult parallel = SimJoin(data.certain, data.uncertain, params, data.dict);
  EXPECT_EQ(parallel.stats.total_pairs, 9);
  EXPECT_FALSE(data.dict.frozen());

  dist::DistJoinParams dist_params;
  dist_params.num_workers = 2;
  dist::DistJoinResult sharded = dist::ShardedSimJoin(
      data.certain, data.uncertain, params, data.dict, dist_params);
  EXPECT_EQ(sharded.join.stats.total_pairs, 9);
  EXPECT_FALSE(data.dict.frozen());
  // Writable again: a later caller may intern new labels.
  EXPECT_GE(data.dict.Intern("AfterTheJoin"), 0);
}

TEST(JoinDeterminismTest, DictionaryFrozenBeforeTheJoinStaysFrozen) {
  workload::SyntheticDataset data =
      simj::testing::MakeTinySyntheticDataset(99, /*num_certain=*/3,
                                              /*num_uncertain=*/3);
  data.dict.Freeze();
  SimJParams params;
  params.num_threads = 2;
  JoinResult parallel = SimJoin(data.certain, data.uncertain, params, data.dict);
  (void)parallel;
  EXPECT_TRUE(data.dict.frozen());

  dist::DistJoinParams dist_params;
  dist_params.num_workers = 2;
  dist::DistJoinResult sharded = dist::ShardedSimJoin(
      data.certain, data.uncertain, params, data.dict, dist_params);
  (void)sharded;
  EXPECT_TRUE(data.dict.frozen());
}

// ---------------------------------------------------------------------------
// Golden join digest: an FNV-1a hash over everything a join reports (pairs,
// mappings, SimP bit patterns, every JoinStats counter and the explain
// lines), checked against the files in tests/golden. The brute-force oracle
// of join_property_test shares the per-world bound with the join, so only a
// digest recorded from an earlier build catches drift in both at once.
//
// join_digest_v1.txt was recorded with the greedy-bound world accept and
// checks that path (witness_accept = false); join_digest_v2.txt checks the
// default witness accepts. Pairs and mappings agree between the two; the
// split of decided worlds between worlds_accepted_by_upper_bound and
// ged_calls (and so the explain lines' ged_calls=) may not.
struct DigestFile {
  const char* name;
  bool witness_accept;
};
constexpr DigestFile kDigestFiles[] = {{"join_digest_v1.txt", false},
                                       {"join_digest_v2.txt", true}};

std::map<std::string, std::string> ReadDigestFile(const DigestFile& file) {
  return simj::testing::ReadGoldenDigests(std::string(SIMJ_TEST_GOLDEN_DIR) +
                                          "/" + file.name);
}

std::string JoinDigest(const JoinResult& result, const SimJParams& params) {
  simj::testing::Fnv1a h;
  h.I64(static_cast<int64_t>(result.pairs.size()));
  for (const MatchedPair& pair : result.pairs) {
    h.I64(pair.q_index);
    h.I64(pair.g_index);
    h.F64(pair.similarity_probability);
    h.I64(pair.best_world_ged);
    h.I64(static_cast<int64_t>(pair.mapping.size()));
    for (int m : pair.mapping) h.I64(m);
  }
  const JoinStats& s = result.stats;
  for (int64_t counter :
       {s.total_pairs, s.pruned_structural, s.pruned_probabilistic,
        s.candidates, s.results, s.verify.worlds_enumerated,
        s.verify.worlds_pruned_by_bound,
        s.verify.worlds_accepted_by_upper_bound, s.verify.ged_calls,
        s.verify.ged_aborted}) {
    h.I64(counter);
  }
  h.Str(FormatExplains(result, params));
  return h.Hex();
}

// A seeded join input plus the parameters it is digested under.
struct DigestInput {
  graph::LabelDictionary dict;
  std::vector<graph::LabeledGraph> d;
  std::vector<graph::UncertainGraph> u;
  SimJParams params;
};

SimJParams DigestParams(int tau, double alpha, int group_count) {
  SimJParams params;
  params.tau = tau;
  params.alpha = alpha;
  params.group_count = group_count;
  params.slow_pair_log_ms = 0.0;
  params.explain.enabled = true;
  return params;
}

void FromDataset(workload::SyntheticDataset data, DigestInput* input) {
  input->dict = std::move(data.dict);
  input->d = std::move(data.certain);
  input->u = std::move(data.uncertain);
}

// "er_tau1_simj": ER graphs at tau = 1, SimJ (one group).
// "er_tau4_opt8": ER graphs at tau = 4, SimJ+opt with 8 groups.
// "wildcards": wildcard vertex labels on both sides and wildcard edge
// labels, parallel edges allowed.
void MakeDigestInput(const std::string& name, DigestInput* input) {
  if (name == "er_tau1_simj") {
    workload::SyntheticConfig config;
    config.seed = 41;
    config.num_certain = 30;
    config.num_uncertain = 30;
    config.num_vertices = 7;
    config.num_edges = 10;
    config.vertex_label_pool = 6;
    config.edge_label_pool = 3;
    config.labels_per_vertex = 3;
    FromDataset(workload::MakeErDataset(config), input);
    input->params = DigestParams(/*tau=*/1, /*alpha=*/0.1, /*group_count=*/1);
  } else if (name == "er_tau4_opt8") {
    FromDataset(simj::testing::MakeTinySyntheticDataset(42, 14, 14), input);
    input->params = DigestParams(/*tau=*/4, /*alpha=*/0.4, /*group_count=*/8);
  } else {
    Rng rng(43);
    std::vector<graph::LabelId> vertex_labels =
        simj::testing::TestLabels(input->dict, 4);
    vertex_labels.push_back(input->dict.Intern("?x"));
    vertex_labels.push_back(input->dict.Intern("?y"));
    std::vector<graph::LabelId> edge_labels = {input->dict.Intern("r1"),
                                               input->dict.Intern("r2"),
                                               input->dict.Intern("?p")};
    for (int i = 0; i < 14; ++i) {
      input->d.push_back(simj::testing::RandomCertainGraph(
          rng, vertex_labels, edge_labels,
          static_cast<int>(rng.Uniform(1, 5)),
          static_cast<int>(rng.Uniform(0, 6))));
    }
    for (int i = 0; i < 14; ++i) {
      input->u.push_back(simj::testing::RandomUncertainGraph(
          rng, vertex_labels, edge_labels,
          static_cast<int>(rng.Uniform(1, 5)),
          static_cast<int>(rng.Uniform(0, 6)), /*max_alts=*/3));
    }
    input->params = DigestParams(/*tau=*/2, /*alpha=*/0.3, /*group_count=*/2);
  }
}

class GoldenJoinDigestTest : public ::testing::TestWithParam<const char*> {};

TEST_P(GoldenJoinDigestTest, MatchesTheRecordedDigest) {
  const std::string name = GetParam();
  for (const DigestFile& file : kDigestFiles) {
    SCOPED_TRACE(file.name);
    const std::map<std::string, std::string> golden = ReadDigestFile(file);
    ASSERT_TRUE(golden.count(name) == 1)
        << "no digest for " << name << " in " << file.name;
    DigestInput input;
    MakeDigestInput(name, &input);
    input.params.witness_accept = file.witness_accept;

    for (int threads : {1, 4}) {
      input.params.num_threads = threads;
      JoinResult result = SimJoin(input.d, input.u, input.params, input.dict);
      EXPECT_EQ(JoinDigest(result, input.params), golden.at(name))
          << name << " at " << threads << " threads";
    }

    // The sharded join without the index plans the full cross product, so
    // it must reproduce SimJoin byte for byte.
    dist::DistJoinParams dist_params;
    dist_params.num_workers = 3;
    dist_params.transport = dist::Transport::kThread;
    dist_params.max_pairs_per_shard = 16;
    dist_params.use_index = false;
    input.params.num_threads = 1;
    dist::DistJoinResult sharded = dist::ShardedSimJoin(
        input.d, input.u, input.params, input.dict, dist_params);
    EXPECT_EQ(JoinDigest(sharded.join, input.params), golden.at(name))
        << name << " through ShardedSimJoin";
  }
}

// Explain-all samples every pair, so the digests above never see the
// count-bound check that SimJoin runs on unsampled pairs. Without explain,
// and with every third pair sampled, pairs and every counter must equal the
// explain-all run at 1 and 4 threads, and the index-planned sharded join
// must print SimJoin's sampled explain lines.
TEST_P(GoldenJoinDigestTest, UnsampledPairsCountLikeTheExplainAllRun) {
  DigestInput input;
  MakeDigestInput(GetParam(), &input);
  const JoinResult all = SimJoin(input.d, input.u, input.params, input.dict);

  for (int threads : {1, 4}) {
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    SimJParams params = input.params;
    params.num_threads = threads;
    params.explain.enabled = false;
    JoinResult off = SimJoin(input.d, input.u, params, input.dict);
    ExpectSamePairs(off, all);
    ExpectSameCounters(off.stats, all.stats);
    EXPECT_TRUE(off.explains.empty());

    params.explain.enabled = true;
    params.explain.sample_every = 3;
    JoinResult sampled = SimJoin(input.d, input.u, params, input.dict);
    ExpectSamePairs(sampled, all);
    ExpectSameCounters(sampled.stats, all.stats);
    EXPECT_FALSE(sampled.explains.empty());
    EXPECT_LT(sampled.explains.size(), all.explains.size());
  }

  SimJParams params = input.params;
  params.explain.sample_every = 3;
  const JoinResult sampled = SimJoin(input.d, input.u, params, input.dict);
  dist::DistJoinParams dist_params;
  dist_params.num_workers = 3;
  dist_params.transport = dist::Transport::kThread;
  dist_params.max_pairs_per_shard = 16;
  dist_params.use_index = true;
  for (bool explain : {false, true}) {
    SCOPED_TRACE(::testing::Message() << "sharded, explain=" << explain);
    params.explain.enabled = explain;
    dist::DistJoinResult sharded = dist::ShardedSimJoin(
        input.d, input.u, params, input.dict, dist_params);
    ExpectSamePairs(sharded.join, all);
    ExpectSameCounters(sharded.join.stats, all.stats);
    EXPECT_EQ(FormatExplains(sharded.join, params),
              explain ? FormatExplains(sampled, params) : "");
  }
}

// The sharded join with the index plan reproduces SimJoin byte for byte.
TEST_P(GoldenJoinDigestTest, IndexPlannedShardedJoinMatchesTheRecordedDigest) {
  const std::string name = GetParam();
  for (const DigestFile& file : kDigestFiles) {
    SCOPED_TRACE(file.name);
    const std::map<std::string, std::string> golden = ReadDigestFile(file);
    ASSERT_TRUE(golden.count(name) == 1)
        << "no digest for " << name << " in " << file.name;
    DigestInput input;
    MakeDigestInput(name, &input);
    input.params.witness_accept = file.witness_accept;
    dist::DistJoinParams dist_params;
    dist_params.num_workers = 3;
    dist_params.transport = dist::Transport::kThread;
    dist_params.max_pairs_per_shard = 16;
    dist_params.use_index = true;
    dist::DistJoinResult sharded = dist::ShardedSimJoin(
        input.d, input.u, input.params, input.dict, dist_params);
    EXPECT_EQ(JoinDigest(sharded.join, input.params), golden.at(name))
        << name << " through the index-planned ShardedSimJoin";
  }
}

INSTANTIATE_TEST_SUITE_P(Inputs, GoldenJoinDigestTest,
                         ::testing::Values("er_tau1_simj", "er_tau4_opt8",
                                           "wildcards"));

}  // namespace
}  // namespace simj::core
