// The parallel join must be a pure optimization: for a fixed seed and
// parameter set, every thread count (including the serial legacy path)
// must produce byte-identical results — same pairs in the same order, same
// probabilities and mappings, and identical merged prune/verify counters.

#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/index.h"
#include "core/join.h"
#include "test_util.h"

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

TEST(JoinDeterminismTest, ParallelJoinFreezesTheDictionary) {
  workload::SyntheticDataset data =
      simj::testing::MakeTinySyntheticDataset(99, /*num_certain=*/3,
                                              /*num_uncertain=*/3);
  SimJParams params;
  params.num_threads = 2;
  // Only the freeze side effect matters here; the join output is discarded.
  JoinResult ignored = SimJoin(data.certain, data.uncertain, params, data.dict);
  (void)ignored;
  EXPECT_TRUE(data.dict.frozen());
}

}  // namespace
}  // namespace simj::core
