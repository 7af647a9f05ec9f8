// Tests for the shard planner (dist/shard.h): bucket homogeneity, size
// bounds, exact cross-product coverage, determinism, and count-bound skips
// that SimJoin counts the same way. Also the process transport's
// response frame codec (dist/worker.h): a full round trip, a pinned byte
// layout, and rejection of truncated frames, of counts the frame cannot
// hold and of enum or bool bytes the encoder never writes. And the shard
// executor, through ShardWorker on both transports.

#include "dist/shard.h"

#include <algorithm>
#include <climits>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "core/join.h"
#include "dist/coordinator.h"
#include "dist/worker.h"
#include "ged/lower_bounds.h"
#include "test_util.h"
#include "util/log.h"
#include "util/metrics.h"

#if defined(__SANITIZE_THREAD__)
#define SIMJ_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define SIMJ_TSAN 1
#endif
#endif

namespace simj::dist {
namespace {

using simj::testing::MakeRandomJoinWorkload;
using simj::testing::MakeSkewedBucketWorkload;
using simj::testing::RandomJoinWorkload;

core::SimJParams BaseParams() {
  core::SimJParams params;
  params.tau = 2;
  params.alpha = 0.3;
  params.slow_pair_log_ms = 0.0;
  return params;
}

TEST(ShardPlanTest, NoIndexPlanCoversCrossProductExactlyOnce) {
  RandomJoinWorkload w =
      MakeRandomJoinWorkload(21, {.num_certain = 6, .num_uncertain = 5});
  ShardPlanOptions options;
  options.use_index = false;
  options.max_pairs_per_shard = 4;
  ShardPlan plan = PlanShards(w.d, w.u, BaseParams(), options);

  EXPECT_EQ(plan.pre_stats.total_pairs, 0);
  std::set<std::pair<int, int>> seen;
  for (const Shard& shard : plan.shards) {
    for (const auto& pair : shard.pairs) {
      EXPECT_TRUE(seen.insert(pair).second)
          << "pair <" << pair.first << "," << pair.second
          << "> planned twice";
    }
  }
  EXPECT_EQ(plan.planned_pairs, static_cast<int64_t>(seen.size()));
  EXPECT_EQ(seen.size(), w.d.size() * w.u.size());
}

TEST(ShardPlanTest, ShardsAreSignatureHomogeneousAndSizeBounded) {
  RandomJoinWorkload w =
      MakeRandomJoinWorkload(22, {.num_certain = 8, .num_uncertain = 6});
  ShardPlanOptions options;
  options.max_pairs_per_shard = 3;
  ShardPlan plan = PlanShards(w.d, w.u, BaseParams(), options);

  for (const Shard& shard : plan.shards) {
    EXPECT_LE(shard.pairs.size(), 3u);
    EXPECT_FALSE(shard.pairs.empty());
    for (const auto& [qi, gi] : shard.pairs) {
      EXPECT_EQ(w.d[static_cast<size_t>(qi)].num_vertices(), shard.vertices);
      EXPECT_EQ(w.d[static_cast<size_t>(qi)].num_edges(), shard.edges);
    }
  }
  // Shard ids are dense and ascending.
  for (size_t s = 0; s < plan.shards.size(); ++s) {
    EXPECT_EQ(plan.shards[s].shard_id, static_cast<int>(s));
  }
}

// The planned pair set under use_index.
std::set<std::pair<int, int>> PlannedPairs(const ShardPlan& plan) {
  std::set<std::pair<int, int>> planned;
  for (const Shard& shard : plan.shards) {
    planned.insert(shard.pairs.begin(), shard.pairs.end());
  }
  return planned;
}

TEST(ShardPlanTest, IndexPlanSkipsExactlyTheCountPrunedPairs) {
  RandomJoinWorkload w =
      MakeRandomJoinWorkload(23, {.num_certain = 8, .num_uncertain = 6});
  core::SimJParams params = BaseParams();
  ShardPlanOptions options;
  options.use_index = true;
  options.max_pairs_per_shard = 5;
  ShardPlan plan = PlanShards(w.d, w.u, params, options);

  // Planned + skipped partitions the cross product, and skips are counted
  // as structurally pruned.
  const int64_t cross =
      static_cast<int64_t>(w.d.size()) * static_cast<int64_t>(w.u.size());
  EXPECT_EQ(plan.planned_pairs + plan.pre_stats.total_pairs, cross);
  EXPECT_EQ(plan.pre_stats.pruned_structural, plan.pre_stats.total_pairs);
  EXPECT_EQ(plan.pre_stats.candidates, 0);
  EXPECT_GT(plan.pre_stats.total_pairs, 0);

  std::set<std::pair<int, int>> expected;
  for (int qi = 0; qi < static_cast<int>(w.d.size()); ++qi) {
    for (int gi = 0; gi < static_cast<int>(w.u.size()); ++gi) {
      if (ged::CountLowerBound(w.d[qi], w.u[gi].structure()) <= params.tau) {
        expected.emplace(qi, gi);
      }
    }
  }
  EXPECT_EQ(PlannedPairs(plan), expected);
}

TEST(ShardPlanTest, ExplainSampledPairsAreAlwaysPlanned) {
  RandomJoinWorkload w =
      MakeRandomJoinWorkload(24, {.num_certain = 6, .num_uncertain = 6});
  core::SimJParams params = BaseParams();
  params.explain.enabled = true;
  params.explain.sample_every = 1;
  ShardPlanOptions options;
  ShardPlan all = PlanShards(w.d, w.u, params, options);
  EXPECT_EQ(all.pre_stats.total_pairs, 0);
  EXPECT_EQ(all.planned_pairs,
            static_cast<int64_t>(w.d.size() * w.u.size()));

  params.explain.sample_every = 3;
  ShardPlan sampled = PlanShards(w.d, w.u, params, options);
  const std::set<std::pair<int, int>> planned = PlannedPairs(sampled);
  int64_t count_pruned = 0;
  for (int qi = 0; qi < static_cast<int>(w.d.size()); ++qi) {
    for (int gi = 0; gi < static_cast<int>(w.u.size()); ++gi) {
      const bool pruned =
          ged::CountLowerBound(w.d[qi], w.u[gi].structure()) > params.tau;
      if (pruned) ++count_pruned;
      EXPECT_EQ(planned.count({qi, gi}) == 1,
                !pruned || params.explain.ShouldExplain(qi, gi))
          << "pair <" << qi << "," << gi << ">";
    }
  }
  EXPECT_GT(sampled.pre_stats.total_pairs, 0);
  EXPECT_LT(sampled.pre_stats.total_pairs, count_pruned);
}

DistJoinResult IndexPlannedJoin(const RandomJoinWorkload& w,
                                      const core::SimJParams& params) {
  DistJoinParams dist_params;
  dist_params.num_workers = 2;
  dist_params.transport = Transport::kThread;
  dist_params.max_pairs_per_shard = 4;
  dist_params.use_index = true;
  return ShardedSimJoin(w.d, w.u, params, w.dict, dist_params);
}

// With structural pruning off, the plan skips nothing, so the sharded join
// reports no structural prune, like SimJoin.
TEST(ShardPlanTest, NoStructuralPruningPlansEveryPair) {
  RandomJoinWorkload w =
      MakeRandomJoinWorkload(27, {.num_certain = 6, .num_uncertain = 5});
  core::SimJParams params = BaseParams();
  params.structural_pruning = false;
  ShardPlan plan = PlanShards(w.d, w.u, params, ShardPlanOptions{});
  EXPECT_EQ(plan.pre_stats.total_pairs, 0);
  EXPECT_EQ(plan.planned_pairs,
            static_cast<int64_t>(w.d.size() * w.u.size()));

  core::JoinResult serial = core::SimJoin(w.d, w.u, params, w.dict);
  core::JoinResult sharded = IndexPlannedJoin(w, params).join;
  EXPECT_EQ(sharded.stats.pruned_structural, 0);
  EXPECT_EQ(serial.stats.pruned_structural, 0);
  EXPECT_EQ(sharded.stats.total_pairs, serial.stats.total_pairs);
  EXPECT_EQ(sharded.stats.pruned_probabilistic,
            serial.stats.pruned_probabilistic);
  EXPECT_EQ(sharded.stats.candidates, serial.stats.candidates);
  EXPECT_EQ(sharded.stats.results, serial.stats.results);
  ASSERT_EQ(sharded.pairs.size(), serial.pairs.size());
  for (size_t i = 0; i < serial.pairs.size(); ++i) {
    EXPECT_EQ(sharded.pairs[i].q_index, serial.pairs[i].q_index);
    EXPECT_EQ(sharded.pairs[i].g_index, serial.pairs[i].g_index);
    EXPECT_EQ(sharded.pairs[i].similarity_probability,
              serial.pairs[i].similarity_probability);
    EXPECT_EQ(sharded.pairs[i].mapping, serial.pairs[i].mapping);
  }
}

// A sampled pair that fails the count bound is explained by the CSS filter
// with its exact bound, through SimJoin and through the index plan.
TEST(ShardPlanTest, SampledCountPrunedPairPrintsItsExactCssBound) {
  RandomJoinWorkload w;
  const graph::LabelId a = w.dict.Intern("A");
  const graph::LabelId b = w.dict.Intern("B");
  const graph::LabelId r = w.dict.Intern("r");
  // D holds a matching singleton and a 5-vertex chain; at tau = 0 the count
  // bound (|dV| + |dE| = 8) prunes the chain against the singleton.
  graph::LabeledGraph single;
  single.AddVertex(a);
  graph::LabeledGraph chain;
  for (int i = 0; i < 5; ++i) chain.AddVertex(b);
  for (int i = 0; i + 1 < 5; ++i) chain.AddEdge(i, i + 1, r);
  w.d = {single, chain};
  graph::UncertainGraph g;
  g.AddVertex({{a, 1.0}});
  w.u = {g};
  ASSERT_GT(ged::CountLowerBound(w.d[1], w.u[0].structure()), 0);

  core::SimJParams params = BaseParams();
  params.tau = 0;
  params.alpha = 0.5;
  params.explain.enabled = true;
  params.explain.pairs = {{1, 0}};
  const int css = ged::CssLowerBoundUncertain(w.d[1], w.u[0], w.dict);
  const std::string want = "<q=1,g=0> PRUNED structural: css_lb=" +
                           std::to_string(css) + " > tau=0\n";

  core::JoinResult serial = core::SimJoin(w.d, w.u, params, w.dict);
  EXPECT_EQ(core::FormatExplains(serial, params), want);

  ShardPlan plan = PlanShards(w.d, w.u, params, ShardPlanOptions{});
  EXPECT_EQ(PlannedPairs(plan),
            (std::set<std::pair<int, int>>{{0, 0}, {1, 0}}));
  core::JoinResult sharded = IndexPlannedJoin(w, params).join;
  EXPECT_EQ(core::FormatExplains(sharded, params), want);
  EXPECT_EQ(sharded.stats.pruned_structural, 1);
  EXPECT_EQ(sharded.stats.results, 1);

  // Unsampled, the plan skips the pair and the counts stay the same.
  params.explain.enabled = false;
  EXPECT_EQ(PlanShards(w.d, w.u, params, ShardPlanOptions{}).planned_pairs, 1);
  sharded = IndexPlannedJoin(w, params).join;
  EXPECT_EQ(sharded.stats.total_pairs, 2);
  EXPECT_EQ(sharded.stats.pruned_structural, 1);
  EXPECT_EQ(sharded.stats.results, 1);
}

TEST(ShardPlanTest, PlanIsDeterministic) {
  RandomJoinWorkload w = MakeRandomJoinWorkload(25);
  ShardPlanOptions options;
  options.max_pairs_per_shard = 2;
  ShardPlan a = PlanShards(w.d, w.u, BaseParams(), options);
  ShardPlan b = PlanShards(w.d, w.u, BaseParams(), options);
  ASSERT_EQ(a.shards.size(), b.shards.size());
  EXPECT_EQ(a.planned_pairs, b.planned_pairs);
  for (size_t s = 0; s < a.shards.size(); ++s) {
    EXPECT_EQ(a.shards[s].shard_id, b.shards[s].shard_id);
    EXPECT_EQ(a.shards[s].vertices, b.shards[s].vertices);
    EXPECT_EQ(a.shards[s].edges, b.shards[s].edges);
    EXPECT_EQ(a.shards[s].pairs, b.shards[s].pairs);
  }
}

TEST(ShardPlanTest, SkewedWorkloadYieldsOneHotBucket) {
  RandomJoinWorkload w = MakeSkewedBucketWorkload(26);
  ShardPlanOptions options;
  options.max_pairs_per_shard = 8;
  ShardPlan plan = PlanShards(w.d, w.u, BaseParams(), options);

  // Count shards per signature: the (4,3) hot bucket must dominate.
  std::map<std::pair<int, int>, int> shards_per_signature;
  for (const Shard& shard : plan.shards) {
    ++shards_per_signature[{shard.vertices, shard.edges}];
  }
  ASSERT_TRUE(shards_per_signature.count({4, 3}) > 0);
  const int hot = shards_per_signature[{4, 3}];
  EXPECT_GE(hot, 8);  // 24 hot graphs x 6 uncertain / 8 per shard
  for (const auto& [signature, count] : shards_per_signature) {
    if (signature != std::make_pair(4, 3)) {
      EXPECT_LT(count, hot);
    }
  }
}

// A result with every frame section non-empty.
ShardResult MakeFullResult() {
  ShardResult result;
  result.shard_id = 7;
  result.stats.total_pairs = 12;
  result.stats.pruned_structural = 5;
  result.stats.pruned_count_bound = 3;
  result.stats.candidates = 7;
  result.stats.results = 2;
  result.stats.css_bound_calls = 9;
  result.stats.verify.ged_calls = 9;
  result.stats.pruning_cpu_seconds = 0.25;
  result.pairs = {{3, 4, 0.75, {0, 2, 1}, 1}, {5, 6, 1.0, {}, 0}};
  core::PairExplain explain;
  explain.q_index = 3;
  explain.g_index = 4;
  explain.pruned_by = core::PruneStage::kNone;
  explain.accepted = true;
  explain.css_lower_bound = 1;
  explain.simp_upper_bound = 0.9;
  explain.early_accept = true;
  explain.worlds_enumerated = 4;
  explain.best_world_ged = 1;
  result.explains = {explain};
  explain.pruned_by = core::PruneStage::kStructural;
  explain.css_lower_bound = 3;
  result.slow_pairs = {{12.5, explain}};
  trace::TraceEvent span;
  span.name = "verify";
  span.category = "join";
  span.ts_us = 10.5;
  span.dur_us = 2.0;
  span.trace_id = 99;
  span.parent_span_id = 42;
  result.spans = {span};
  result.profile.samples = 3;
  result.profile.dropped = 1;
  result.profile.stacks = {{"serve", {"ServeShards", "EvalShard"}, 3}};
  result.heap.truncated = 2;
  result.heap.stacks = {{"serve", {"RunShard"}, -64, -1, 128, 2}};
  return result;
}

TEST(ShardFrameTest, RoundTripKeepsEverySection) {
  const ShardResult in = MakeFullResult();
  StatusOr<ShardResult> decoded = DecodeResult(EncodeResult(in));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  const ShardResult& out = *decoded;
  EXPECT_EQ(out.shard_id, 7);
  EXPECT_EQ(out.stats.total_pairs, 12);
  EXPECT_EQ(out.stats.pruned_structural, 5);
  EXPECT_EQ(out.stats.pruned_count_bound, 3);
  EXPECT_EQ(out.stats.css_bound_calls, 9);
  EXPECT_EQ(out.stats.verify.ged_calls, 9);
  EXPECT_EQ(out.stats.pruning_cpu_seconds, 0.25);
  ASSERT_EQ(out.pairs.size(), 2u);
  EXPECT_EQ(out.pairs[0].q_index, 3);
  EXPECT_EQ(out.pairs[0].g_index, 4);
  EXPECT_EQ(out.pairs[0].similarity_probability, 0.75);
  EXPECT_EQ(out.pairs[0].mapping, (std::vector<int>{0, 2, 1}));
  EXPECT_EQ(out.pairs[0].best_world_ged, 1);
  EXPECT_TRUE(out.pairs[1].mapping.empty());
  ASSERT_EQ(out.explains.size(), 1u);
  EXPECT_EQ(out.explains[0].q_index, 3);
  EXPECT_TRUE(out.explains[0].accepted);
  EXPECT_TRUE(out.explains[0].early_accept);
  EXPECT_FALSE(out.explains[0].early_reject);
  EXPECT_EQ(out.explains[0].simp_upper_bound, 0.9);
  EXPECT_EQ(out.explains[0].worlds_enumerated, 4);
  ASSERT_EQ(out.slow_pairs.size(), 1u);
  EXPECT_EQ(out.slow_pairs[0].elapsed_ms, 12.5);
  EXPECT_EQ(out.slow_pairs[0].explain.pruned_by,
            core::PruneStage::kStructural);
  EXPECT_EQ(out.slow_pairs[0].explain.css_lower_bound, 3);
  ASSERT_EQ(out.spans.size(), 1u);
  EXPECT_EQ(out.spans[0].name, "verify");
  EXPECT_EQ(out.spans[0].category, "join");
  EXPECT_EQ(out.spans[0].ts_us, 10.5);
  EXPECT_EQ(out.spans[0].trace_id, 99u);
  EXPECT_EQ(out.spans[0].parent_span_id, 42u);
  EXPECT_EQ(out.profile.samples, 3);
  EXPECT_EQ(out.profile.dropped, 1);
  ASSERT_EQ(out.profile.stacks.size(), 1u);
  EXPECT_EQ(out.profile.stacks[0].thread, "serve");
  EXPECT_EQ(out.profile.stacks[0].frames,
            (std::vector<std::string>{"ServeShards", "EvalShard"}));
  EXPECT_EQ(out.profile.stacks[0].count, 3);
  EXPECT_EQ(out.heap.truncated, 2);
  ASSERT_EQ(out.heap.stacks.size(), 1u);
  EXPECT_EQ(out.heap.stacks[0].frames, std::vector<std::string>{"RunShard"});
  EXPECT_EQ(out.heap.stacks[0].inuse_bytes, -64);
  EXPECT_EQ(out.heap.stacks[0].inuse_objects, -1);
  EXPECT_EQ(out.heap.stacks[0].alloc_bytes, 128);
  EXPECT_EQ(out.heap.stacks[0].alloc_objects, 2);
  // Re-encoding the decoded result reproduces the frame byte for byte.
  EXPECT_EQ(EncodeResult(out), EncodeResult(in));
}

// FNV-1a (64-bit) of a byte string.
uint64_t Fnv1a(const std::string& bytes) {
  uint64_t hash = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    hash ^= static_cast<uint8_t>(c);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

// Pins the response frame's byte layout: field order, widths and the
// section order. A codec change that moves a single byte fails here.
TEST(ShardFrameTest, FullFrameLayoutIsPinned) {
  const std::string frame = EncodeResult(MakeFullResult());
  EXPECT_EQ(frame.size(), size_t{538});
  EXPECT_EQ(Fnv1a(frame), uint64_t{14001959817418410061u});
}

TEST(ShardFrameTest, TruncatedFrameIsAnError) {
  const std::string frame = EncodeResult(MakeFullResult());
  for (size_t keep = 0; keep < frame.size(); ++keep) {
    StatusOr<ShardResult> decoded = DecodeResult(frame.substr(0, keep));
    ASSERT_FALSE(decoded.ok()) << "truncated to " << keep << " bytes";
    EXPECT_EQ(decoded.status().code(), StatusCode::kInternal);
  }
  EXPECT_FALSE(DecodeResult(frame + "x").ok());  // trailing bytes
}

TEST(ShardFrameTest, OversizedCountIsCorruptionNotAnAbort) {
  std::string frame = EncodeResult(ShardResult());
  // The pair count follows shard_id, twelve int64 counters and two doubles.
  const size_t pair_count_offset = 4 + 12 * 8 + 2 * 8;
  const int32_t huge = INT32_MAX;
  std::memcpy(&frame[pair_count_offset], &huge, sizeof(huge));
  StatusOr<ShardResult> decoded = DecodeResult(frame);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInternal);
  EXPECT_NE(decoded.status().message().find("shard response corrupt"),
            std::string::npos)
      << decoded.status().ToString();

  // Every count in a full frame: a huge value anywhere must decode to an
  // error (or, for a non-count field, to some value), never abort.
  const std::string full = EncodeResult(MakeFullResult());
  for (size_t offset = 0; offset + sizeof(huge) <= full.size(); ++offset) {
    std::string patched = full;
    std::memcpy(&patched[offset], &huge, sizeof(huge));
    (void)DecodeResult(patched).ok();
  }
}

// An explain record's enum and bool fields accept only the values the
// encoder writes: an out-of-range PruneStage, or a bool byte other than 0
// or 1, is corruption.
TEST(ShardFrameTest, OutOfRangeStageOrBoolIsCorruption) {
  ShardResult result;
  core::PairExplain explain;
  explain.q_index = 1;
  explain.g_index = 2;
  explain.pruned_by = core::PruneStage::kProbabilistic;
  result.explains = {explain};
  const std::string frame = EncodeResult(result);
  ASSERT_TRUE(DecodeResult(frame).ok());

  // shard_id, the stats, an empty pair list and the explain count, then
  // q_index and g_index.
  const size_t stage_offset = 4 + 12 * 8 + 2 * 8 + 4 + 4 + 2 * 4;
  const size_t accepted_offset = stage_offset + 4;
  // accepted, css_lower_bound, simp_upper_bound, live_groups, live_mass,
  // simp_probability.
  const size_t early_accept_offset = accepted_offset + 1 + 4 + 8 + 4 + 8 + 8;
  const size_t early_reject_offset = early_accept_offset + 1;
  auto expect_corrupt = [&](size_t offset, const void* bytes, size_t size) {
    std::string patched = frame;
    std::memcpy(&patched[offset], bytes, size);
    StatusOr<ShardResult> decoded = DecodeResult(patched);
    ASSERT_FALSE(decoded.ok()) << "patched offset " << offset;
    EXPECT_EQ(decoded.status().code(), StatusCode::kInternal);
    EXPECT_NE(decoded.status().message().find(
                  "shard response corrupt (explain)"),
              std::string::npos)
        << decoded.status().ToString();
  };
  const int32_t past_last =
      static_cast<int32_t>(core::PruneStage::kProbabilistic) + 1;
  for (const int32_t stage : {int32_t{-1}, past_last, INT32_MAX}) {
    expect_corrupt(stage_offset, &stage, sizeof(stage));
  }
  for (const size_t offset :
       {accepted_offset, early_accept_offset, early_reject_offset}) {
    for (const uint8_t byte : {uint8_t{2}, uint8_t{255}}) {
      expect_corrupt(offset, &byte, sizeof(byte));
    }
  }
}

std::vector<Transport> TransportsUnderTest() {
#ifdef SIMJ_TSAN
  return {Transport::kThread};  // fork() under TSan can deadlock the child
#else
  return {Transport::kThread, Transport::kProcess};
#endif
}

// The frame bytes of a result with its CPU timings cleared: equal bytes
// mean equal stats, pairs (mappings included) and explain records.
std::string DeterministicBytes(ShardResult result) {
  result.stats.pruning_cpu_seconds = 0.0;
  result.stats.verification_cpu_seconds = 0.0;
  return EncodeResult(result);
}

// The one shard executor, through the public ShardWorker on each
// transport: a clean run equals core::EvaluatePairList on the same pairs,
// an injected death fails after evaluating exactly the prefix, and a
// restarted worker runs clean again.
TEST(ShardWorkerTest, RunShardMatchesEvaluatePairListAndDiesOnCue) {
  RandomJoinWorkload w =
      MakeRandomJoinWorkload(28, {.num_certain = 5, .num_uncertain = 4});
  core::SimJParams params = BaseParams();
  params.explain.enabled = true;
  params.explain.sample_every = 2;
  const graph::ScopedFreeze freeze(w.dict);
  const core::JoinSummaries summaries =
      core::SummarizeJoinInputs(w.d, w.u, w.dict);
  WorkerContext ctx;
  ctx.d = &w.d;
  ctx.u = &w.u;
  ctx.summaries = &summaries;
  ctx.params = &params;
  ctx.dict = &w.dict;

  Shard shard;
  shard.shard_id = 3;
  for (int qi = 0; qi < static_cast<int>(w.d.size()); ++qi) {
    for (int gi = 0; gi < static_cast<int>(w.u.size()); ++gi) {
      shard.pairs.emplace_back(qi, gi);
    }
  }
  core::JoinResult evaluated;
  std::vector<core::SlowPair> slow_pairs;
  core::EvaluatePairList(w.d, w.u, summaries, params, w.dict, shard.pairs,
                         /*worker=*/0, &evaluated, &slow_pairs);
  ShardResult expected;
  expected.shard_id = shard.shard_id;
  expected.stats = evaluated.stats;
  expected.pairs = evaluated.pairs;
  expected.explains = evaluated.explains;
  ASSERT_GT(expected.pairs.size(), 0u);
  ASSERT_GT(expected.explains.size(), 0u);

  metrics::Counter& pairs_total =
      metrics::Registry::Global().GetCounter("simj_join_pairs_total");
  const int size = static_cast<int>(shard.pairs.size());
  for (Transport transport : TransportsUnderTest()) {
    SCOPED_TRACE(std::string("transport=") + TransportName(transport));
    ShardWorker worker(ctx, /*worker_index=*/1, transport);
    EXPECT_EQ(worker.counts_in_process(), transport == Transport::kThread);

    StatusOr<ShardResult> clean =
        worker.RunShard(shard, FaultSpec{}, SpanContext{});
    ASSERT_TRUE(clean.ok()) << clean.status().ToString();
    EXPECT_EQ(DeterministicBytes(clean.value()), DeterministicBytes(expected));

    for (const int k : {0, 5, size + 3}) {
      SCOPED_TRACE("die_after_pairs=" + std::to_string(k));
      FaultSpec fault;
      fault.die_after_pairs = k;
      const int64_t before = pairs_total.Value();
      StatusOr<ShardResult> dead = worker.RunShard(shard, fault, SpanContext{});
      EXPECT_FALSE(dead.ok());
      if (transport == Transport::kThread) {
        EXPECT_EQ(pairs_total.Value() - before, std::min(k, size));
      }
      ASSERT_TRUE(worker.Restart().ok());
      StatusOr<ShardResult> again =
          worker.RunShard(shard, FaultSpec{}, SpanContext{});
      ASSERT_TRUE(again.ok()) << again.status().ToString();
      EXPECT_EQ(DeterministicBytes(again.value()),
                DeterministicBytes(expected));
    }
  }
}

// At the smallest positive budget every pair that reaches the CSS filter
// (all but the count-bound prunes) blows it. On either transport the
// coordinator logs each such pair once, in a "slow pair:" WARN, when its
// shard completes, and counts it in simj_join_slow_pairs_total: a forked
// worker ships its slow pairs instead of logging them.
TEST(ShardWorkerTest, CoordinatorLogsEverySlowPairOnBothTransports) {
  RandomJoinWorkload w = MakeRandomJoinWorkload(
      29, {.num_certain = 8, .num_uncertain = 6});
  core::SimJParams params = BaseParams();
  params.slow_pair_log_ms = std::numeric_limits<double>::min();
  metrics::Counter& slow_pairs =
      metrics::Registry::Global().GetCounter("simj_join_slow_pairs_total");
  std::optional<int64_t> first_delta;
  for (Transport transport : TransportsUnderTest()) {
    SCOPED_TRACE(std::string("transport=") + TransportName(transport));
    DistJoinParams dist_params;
    dist_params.num_workers = 2;
    dist_params.transport = transport;
    dist_params.max_pairs_per_shard = 8;
    dist_params.use_index = false;

    auto sink = std::make_unique<log::CaptureSink>();
    log::CaptureSink* capture = sink.get();
    auto previous = log::SetSink(std::move(sink));
    const int64_t before = slow_pairs.Value();
    const DistJoinResult dist =
        ShardedSimJoin(w.d, w.u, params, w.dict, dist_params);
    const int64_t delta = slow_pairs.Value() - before;
    const std::vector<log::Entry> entries = capture->Entries();
    log::SetSink(std::move(previous));

    std::set<std::pair<int, int>> logged;
    for (const log::Entry& entry : entries) {
      if (entry.message.rfind("slow pair: ", 0) != 0) continue;
      EXPECT_EQ(entry.level, log::Level::kWarn);
      int q = -1;
      int g = -1;
      const size_t at = entry.message.find("<q=");
      ASSERT_NE(at, std::string::npos) << entry.message;
      ASSERT_EQ(std::sscanf(entry.message.c_str() + at, "<q=%d,g=%d>", &q, &g),
                2)
          << entry.message;
      EXPECT_TRUE(logged.insert({q, g}).second)
          << "pair <" << q << "," << g << "> logged twice";
    }
    const core::JoinStats& stats = dist.join.stats;
    const int64_t reached_css = stats.total_pairs - stats.pruned_count_bound;
    EXPECT_GT(reached_css, 0);
    EXPECT_EQ(static_cast<int64_t>(logged.size()), reached_css);
    EXPECT_EQ(delta, reached_css);
    if (!first_delta) first_delta = delta;
    EXPECT_EQ(delta, *first_delta);
  }
}

// Every join entry point feeds the unlabeled registry counters exactly the
// JoinStats it returns, the world counts of VerifyStats included (a forked
// child's worlds reach the registry only through its shard's stats), and
// the count-bound prunes stay a subset of the structural ones. A serial
// join after a threaded one resets simj_join_workers to 1.
TEST(JoinCounterTest, JoinCountersMirrorJoinStats) {
  RandomJoinWorkload w = MakeRandomJoinWorkload(
      21, {.num_certain = 12, .num_uncertain = 10});
  core::SimJParams params = BaseParams();
  params.tau = 1;
  metrics::Registry& registry = metrics::Registry::Global();
  const char* const families[] = {
      "simj_join_pairs_total", "simj_join_pruned_structural_total",
      "simj_join_pruned_probabilistic_total", "simj_join_candidates_total",
      "simj_join_results_total", core::kPrunedCountBoundMetric,
      ged::kCssBoundCallsMetric, "simj_verify_worlds_total",
      "simj_verify_worlds_pruned_total"};
  const auto read = [&] {
    std::vector<int64_t> values;
    for (const char* family : families) {
      values.push_back(registry.GetCounter(family).Value());
    }
    return values;
  };
  // The count-bound and CSS deltas of the first join, which every join
  // entry point but EvaluatePair (no count bound) must repeat.
  std::optional<std::pair<int64_t, int64_t>> join_filter_counts;
  // Runs `join` and compares the counter deltas with the stats it returns.
  const auto expect_mirrored = [&](const std::string& what, const auto& join,
                                   bool count_bound = true) {
    SCOPED_TRACE(what);
    const std::vector<int64_t> before = read();
    const core::JoinStats stats = join();
    const std::vector<int64_t> after = read();
    ASSERT_GT(stats.pruned_structural, 0);
    EXPECT_EQ(after[0] - before[0], stats.total_pairs);
    EXPECT_EQ(after[1] - before[1], stats.pruned_structural);
    EXPECT_EQ(after[2] - before[2], stats.pruned_probabilistic);
    EXPECT_EQ(after[3] - before[3], stats.candidates);
    EXPECT_EQ(after[4] - before[4], stats.results);
    EXPECT_EQ(after[5] - before[5], stats.pruned_count_bound);
    EXPECT_EQ(after[6] - before[6], stats.css_bound_calls);
    EXPECT_GT(stats.verify.worlds_enumerated, 0);
    EXPECT_EQ(after[7] - before[7], stats.verify.worlds_enumerated);
    EXPECT_EQ(after[8] - before[8], stats.verify.worlds_pruned_by_bound);
    EXPECT_LE(after[5] - before[5], after[1] - before[1]);
    // Every pair is decided by the count bound or takes the CSS kernel.
    EXPECT_EQ(stats.pruned_count_bound + stats.css_bound_calls,
              stats.total_pairs);
    if (!count_bound) return;
    const std::pair<int64_t, int64_t> filter_counts{after[5] - before[5],
                                                    after[6] - before[6]};
    if (!join_filter_counts) join_filter_counts = filter_counts;
    EXPECT_GT(filter_counts.first, 0);
    EXPECT_EQ(filter_counts, *join_filter_counts);
  };

  metrics::Gauge& workers = registry.GetGauge("simj_join_workers");
  for (int threads : {3, 1}) {
    expect_mirrored("SimJoin, threads=" + std::to_string(threads), [&] {
      core::SimJParams threaded = params;
      threaded.num_threads = threads;
      return core::SimJoin(w.d, w.u, threaded, w.dict).stats;
    });
    EXPECT_EQ(workers.Value(), threads);
  }

  std::vector<std::pair<int, int>> all_pairs;
  for (int qi = 0; qi < static_cast<int>(w.d.size()); ++qi) {
    for (int gi = 0; gi < static_cast<int>(w.u.size()); ++gi) {
      all_pairs.emplace_back(qi, gi);
    }
  }
  const core::JoinSummaries summaries =
      core::SummarizeJoinInputs(w.d, w.u, w.dict);
  expect_mirrored("EvaluatePairList", [&] {
    core::JoinResult result;
    std::vector<core::SlowPair> slow_pairs;
    core::EvaluatePairList(w.d, w.u, summaries, params, w.dict, all_pairs,
                           /*worker=*/0, &result, &slow_pairs);
    return result.stats;
  });
  expect_mirrored("EvaluatePair", [&] {
    core::JoinStats stats;
    for (const auto& [qi, gi] : all_pairs) {
      core::MatchedPair pair;
      (void)core::EvaluatePair(w.d[qi], w.u[gi], params, w.dict, &stats,
                               &pair);
    }
    return stats;
  }, /*count_bound=*/false);

  for (Transport transport : TransportsUnderTest()) {
    for (bool use_index : {true, false}) {
      DistJoinParams dist_params;
      dist_params.num_workers = 2;
      dist_params.transport = transport;
      dist_params.max_pairs_per_shard = 8;
      dist_params.use_index = use_index;
      const std::string what = std::string("ShardedSimJoin, transport=") +
                               TransportName(transport) +
                               ", use_index=" + (use_index ? "on" : "off");
      expect_mirrored(what, [&] {
        return ShardedSimJoin(w.d, w.u, params, w.dict, dist_params)
            .join.stats;
      });
    }
  }
}

}  // namespace
}  // namespace simj::dist
