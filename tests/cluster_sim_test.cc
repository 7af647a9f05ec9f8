// The distributed-join cluster simulator test (the headline of the shard-out
// work): differential tests of ShardedSimJoin against the serial oracles
// (IndexedSimJoin / SimJoin) across many seeds, every worker count in
// {1, 2, 4, 8}, and both transports, under rng-driven fault plans mixing
// slow, dying, and restarting workers — plus targeted tests that the stall
// watchdog sees every injected straggler, that work stealing balances a
// skewed-bucket workload, and that the all-workers-dead fallback converges.
//
// Seed count: `--seeds=N` (default 8 for a quick ctest run; ci.sh runs the
// dedicated leg with --seeds=20). On failure the offending seed / worker
// count / transport are in the SCOPED_TRACE output — rerun with that seed
// to replay the exact fault plan.
//
// Under ThreadSanitizer only the in-process transport runs: fork() from a
// multi-threaded TSan process (worker restarts fork mid-run) can deadlock
// in the child, and the ISSUE's TSan requirement covers the in-process
// transport.

#include "dist/simulator.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <sstream>

#include "core/index.h"
#include "core/join.h"
#include "dist/clusterz.h"
#include "dist/coordinator.h"
#include "dist/shard.h"
#include "dist/worker.h"
#include "test_util.h"
#include "util/flight_recorder.h"
#include "util/health.h"
#include "util/log.h"
#include "util/metrics.h"
#include "util/trace.h"

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

int g_seeds = 8;  // overridden by --seeds=N (see main below)

std::vector<Transport> TransportsUnderTest() {
#ifdef SIMJ_TSAN
  return {Transport::kThread};
#else
  return {Transport::kThread, Transport::kProcess};
#endif
}

core::SimJParams BaseParams() {
  core::SimJParams params;
  params.tau = 2;
  params.alpha = 0.3;
  params.group_count = 2;
  params.slow_pair_log_ms = 0.0;
  params.explain.enabled = true;  // the merge must reproduce explains too
  params.explain.sample_every = 2;
  return params;
}

// Byte-identity on everything deterministic: matched pairs (indices, exact
// probabilities, mappings, GED), all counters, and explain records. Timing
// fields (wall/CPU seconds) are excluded by construction.
void ExpectIdenticalJoin(const core::JoinResult& expected,
                         const core::JoinResult& actual) {
  ASSERT_EQ(expected.pairs.size(), actual.pairs.size());
  for (size_t i = 0; i < expected.pairs.size(); ++i) {
    const core::MatchedPair& e = expected.pairs[i];
    const core::MatchedPair& a = actual.pairs[i];
    EXPECT_EQ(e.q_index, a.q_index) << "pair " << i;
    EXPECT_EQ(e.g_index, a.g_index) << "pair " << i;
    EXPECT_EQ(e.similarity_probability, a.similarity_probability)
        << "pair " << i;
    EXPECT_EQ(e.mapping, a.mapping) << "pair " << i;
    EXPECT_EQ(e.best_world_ged, a.best_world_ged) << "pair " << i;
  }
  EXPECT_EQ(expected.stats.total_pairs, actual.stats.total_pairs);
  EXPECT_EQ(expected.stats.pruned_structural, actual.stats.pruned_structural);
  EXPECT_EQ(expected.stats.pruned_probabilistic,
            actual.stats.pruned_probabilistic);
  EXPECT_EQ(expected.stats.candidates, actual.stats.candidates);
  EXPECT_EQ(expected.stats.results, actual.stats.results);
  EXPECT_EQ(expected.stats.verify.worlds_enumerated,
            actual.stats.verify.worlds_enumerated);
  EXPECT_EQ(expected.stats.verify.worlds_pruned_by_bound,
            actual.stats.verify.worlds_pruned_by_bound);
  EXPECT_EQ(expected.stats.verify.worlds_accepted_by_upper_bound,
            actual.stats.verify.worlds_accepted_by_upper_bound);
  EXPECT_EQ(expected.stats.verify.ged_calls, actual.stats.verify.ged_calls);
  EXPECT_EQ(expected.stats.verify.ged_aborted, actual.stats.verify.ged_aborted);
  ASSERT_EQ(expected.explains.size(), actual.explains.size());
  for (size_t i = 0; i < expected.explains.size(); ++i) {
    const core::PairExplain& e = expected.explains[i];
    const core::PairExplain& a = actual.explains[i];
    EXPECT_EQ(e.q_index, a.q_index) << "explain " << i;
    EXPECT_EQ(e.g_index, a.g_index) << "explain " << i;
    EXPECT_EQ(e.pruned_by, a.pruned_by) << "explain " << i;
    EXPECT_EQ(e.accepted, a.accepted) << "explain " << i;
    EXPECT_EQ(e.css_lower_bound, a.css_lower_bound) << "explain " << i;
    EXPECT_EQ(e.simp_upper_bound, a.simp_upper_bound) << "explain " << i;
    EXPECT_EQ(e.live_groups, a.live_groups) << "explain " << i;
    EXPECT_EQ(e.live_mass, a.live_mass) << "explain " << i;
    EXPECT_EQ(e.simp_probability, a.simp_probability) << "explain " << i;
    EXPECT_EQ(e.early_accept, a.early_accept) << "explain " << i;
    EXPECT_EQ(e.early_reject, a.early_reject) << "explain " << i;
    EXPECT_EQ(e.worlds_enumerated, a.worlds_enumerated) << "explain " << i;
    EXPECT_EQ(e.ged_calls, a.ged_calls) << "explain " << i;
    EXPECT_EQ(e.best_world_ged, a.best_world_ged) << "explain " << i;
  }
}

// Internal bookkeeping invariants that must hold after any run.
void ExpectCoherentDistStats(const DistStats& stats) {
  int completed = 0;
  for (const WorkerReport& report : stats.workers) {
    completed += report.shards_completed;
    EXPECT_GE(report.busy_seconds, 0.0);
  }
  EXPECT_EQ(completed + stats.fallback_shards, stats.shards_planned);
  int failed = 0;
  for (const WorkerReport& report : stats.workers) {
    failed += report.shards_failed;
  }
  EXPECT_EQ(failed, stats.shards_requeued);
}

// The headline differential matrix: for each seed, the merged distributed
// result must be byte-identical to the serial oracle at every worker
// count, on both transports, under the seed's fault plan.
TEST(ClusterSimTest, DifferentialAgainstIndexedOracleUnderFaults) {
  for (int s = 0; s < g_seeds; ++s) {
    const uint64_t seed = 1000 + static_cast<uint64_t>(s);
    SCOPED_TRACE("seed=" + std::to_string(seed) +
                 " (rerun: cluster_sim_test --seeds=N picks seeds 1000..)");
    RandomJoinWorkload w = MakeRandomJoinWorkload(
        seed, {.num_certain = 5, .num_uncertain = 4});
    core::SimJParams params = BaseParams();
    const core::JoinResult oracle =
        core::IndexedSimJoin(w.d, w.u, params, w.dict);

    for (Transport transport : TransportsUnderTest()) {
      for (int workers : {1, 2, 4, 8}) {
        SCOPED_TRACE(std::string("transport=") + TransportName(transport) +
                     " workers=" + std::to_string(workers));
        SimOptions sim_options;
        sim_options.seed = seed;
        sim_options.slow_probability = 0.2;
        sim_options.slow_min_ms = 1.0;
        sim_options.slow_max_ms = 3.0;
        sim_options.death_probability = 0.25;
        ClusterSim sim(sim_options);

        DistJoinParams dist_params;
        dist_params.num_workers = workers;
        dist_params.transport = transport;
        dist_params.max_pairs_per_shard = 3;
        dist_params.use_index = true;
        dist_params.max_worker_restarts = 3;
        dist_params.fault_hook = sim.Hook();

        DistJoinResult dist =
            ShardedSimJoin(w.d, w.u, params, w.dict, dist_params);
        ExpectIdenticalJoin(oracle, dist.join);
        ExpectCoherentDistStats(dist.dist);
      }
    }
  }
}

// The no-index plan must reproduce plain SimJoin instead.
TEST(ClusterSimTest, DifferentialAgainstSimJoinOracleWithoutIndex) {
  const int seeds = std::min(g_seeds, 5);
  for (int s = 0; s < seeds; ++s) {
    const uint64_t seed = 2000 + static_cast<uint64_t>(s);
    SCOPED_TRACE("seed=" + std::to_string(seed));
    RandomJoinWorkload w = MakeRandomJoinWorkload(seed);
    core::SimJParams params = BaseParams();
    const core::JoinResult oracle = core::SimJoin(w.d, w.u, params, w.dict);

    for (Transport transport : TransportsUnderTest()) {
      SCOPED_TRACE(std::string("transport=") + TransportName(transport));
      SimOptions sim_options;
      sim_options.seed = seed;
      sim_options.death_probability = 0.3;
      ClusterSim sim(sim_options);

      DistJoinParams dist_params;
      dist_params.num_workers = 3;
      dist_params.transport = transport;
      dist_params.max_pairs_per_shard = 2;
      dist_params.use_index = false;
      dist_params.fault_hook = sim.Hook();

      DistJoinResult dist =
          ShardedSimJoin(w.d, w.u, params, w.dict, dist_params);
      ExpectIdenticalJoin(oracle, dist.join);
      ExpectCoherentDistStats(dist.dist);
    }
  }
}

// Every injected straggler must be observed by the stall watchdog: the
// coordinator heartbeats the shard's first pair before dispatch, the
// injected delay ages that heartbeat past the pair-time budget, and the
// monitor thread flags it — one stall event per delayed execution,
// regardless of transport. The delay precedes the shard's first pair, so
// it is no pair's own evaluation time: on the thread transport (the
// process transport's child logs nothing), a line carrying a pair's
// explain record is a "slow pair:" line for a pair whose own evaluation
// exceeded the budget, never a fast pair that ran after a flagged delay.
TEST(ClusterSimTest, StallWatchdogSeesEveryInjectedStraggler) {
  RandomJoinWorkload w = MakeRandomJoinWorkload(
      31, {.num_certain = 4, .num_uncertain = 3});
  core::SimJParams params = BaseParams();
  const core::JoinResult oracle =
      core::IndexedSimJoin(w.d, w.u, params, w.dict);
  constexpr double kBudgetMs = 8.0;
  params.slow_pair_log_ms = kBudgetMs;

  for (Transport transport : TransportsUnderTest()) {
    SCOPED_TRACE(std::string("transport=") + TransportName(transport));
    SimOptions sim_options;
    sim_options.seed = 31;
    sim_options.slow_probability = 1.0;  // every execution is a straggler
    sim_options.slow_min_ms = 40.0;
    sim_options.slow_max_ms = 60.0;
    ClusterSim sim(sim_options);

    DistJoinParams dist_params;
    dist_params.num_workers = 2;
    dist_params.transport = transport;
    dist_params.max_pairs_per_shard = 4;
    dist_params.fault_hook = sim.Hook();

    auto sink = std::make_unique<log::CaptureSink>();
    log::CaptureSink* capture = sink.get();
    auto previous = log::SetSink(std::move(sink));
    DistJoinResult dist = ShardedSimJoin(w.d, w.u, params, w.dict, dist_params);
    const std::vector<log::Entry> entries = capture->Entries();
    log::SetSink(std::move(previous));

    EXPECT_GT(sim.injected_delays(), 0);
    EXPECT_EQ(sim.injected_delays(), dist.dist.shards_planned);
    // Detection, not just sampling: every 40-60 ms straggler blows the 8 ms
    // budget and the monitor polls every ~2 ms.
    EXPECT_GE(dist.dist.stall_events, sim.injected_delays());
    ExpectIdenticalJoin(oracle, dist.join);
    if (transport != Transport::kThread) continue;
    for (const log::Entry& entry : entries) {
      // An explain record (FormatExplain) is "<q=Q,g=G> " and the verdict.
      const std::string& m = entry.message;
      if (m.find("> PRUNED") == std::string::npos &&
          m.find("> ACCEPT") == std::string::npos &&
          m.find("> REJECT") == std::string::npos) {
        continue;
      }
      double elapsed_ms = 0.0;
      EXPECT_EQ(std::sscanf(m.c_str(), "slow pair: %lf ms", &elapsed_ms), 1)
          << "completion line is not a slow-pair line: " << m;
      EXPECT_GT(elapsed_ms, kBudgetMs)
          << "completion line names a pair under the budget: " << m;
    }
  }
}

// Work stealing on the skewed-bucket workload: a straggler worker's queue
// is drained by its peers, so busy time stays balanced — no worker owns
// more than 2x the mean — and at least one steal actually happens.
TEST(ClusterSimTest, WorkStealingBalancesSkewedBuckets) {
  RandomJoinWorkload w = MakeSkewedBucketWorkload(33);
  core::SimJParams params = BaseParams();
  params.explain.enabled = false;
  const core::JoinResult oracle =
      core::IndexedSimJoin(w.d, w.u, params, w.dict);

  DistJoinParams dist_params;
  dist_params.num_workers = 4;
  dist_params.transport = Transport::kThread;
  dist_params.max_pairs_per_shard = 8;
  // Deterministic cost model instead of rng faults: every shard carries a
  // per-pair delay so shard time dominates scheduling noise, and worker 0
  // is a straggler (+8 ms per shard) whose queue the others must steal.
  dist_params.fault_hook = [](int worker, int /*shard_id*/, int /*attempt*/,
                              int shard_pairs) {
    FaultSpec fault;
    fault.delay_ms = 1.0 + 0.5 * shard_pairs + (worker == 0 ? 8.0 : 0.0);
    return fault;
  };

  DistJoinResult dist = ShardedSimJoin(w.d, w.u, params, w.dict, dist_params);
  ExpectIdenticalJoin(oracle, dist.join);

  double total_busy = 0.0;
  double max_busy = 0.0;
  int steals = 0;
  for (const WorkerReport& report : dist.dist.workers) {
    total_busy += report.busy_seconds;
    max_busy = std::max(max_busy, report.busy_seconds);
    steals += report.steals;
  }
  const double mean_busy = total_busy / 4.0;
  ASSERT_GT(mean_busy, 0.0);
  EXPECT_LE(max_busy, 2.0 * mean_busy)
      << "straggler kept " << max_busy << "s of " << total_busy
      << "s total; stealing failed to rebalance";
  EXPECT_GT(steals, 0) << "skewed queues should force at least one steal";
}

// With every execution dying and restarts capped, all workers go
// permanently dead — the coordinator must requeue the abandoned shards,
// run them inline, and still merge a byte-identical result.
TEST(ClusterSimTest, AllWorkersDeadFallsBackInlineAndConverges) {
  RandomJoinWorkload w = MakeRandomJoinWorkload(34);
  core::SimJParams params = BaseParams();
  const core::JoinResult oracle =
      core::IndexedSimJoin(w.d, w.u, params, w.dict);

  for (Transport transport : TransportsUnderTest()) {
    SCOPED_TRACE(std::string("transport=") + TransportName(transport));
    SimOptions sim_options;
    sim_options.seed = 34;
    sim_options.death_probability = 1.0;
    ClusterSim sim(sim_options);

    DistJoinParams dist_params;
    dist_params.num_workers = 2;
    dist_params.transport = transport;
    dist_params.max_pairs_per_shard = 3;
    dist_params.max_worker_restarts = 1;
    dist_params.fault_hook = sim.Hook();

    DistJoinResult dist = ShardedSimJoin(w.d, w.u, params, w.dict, dist_params);
    ExpectIdenticalJoin(oracle, dist.join);
    EXPECT_GT(dist.dist.fallback_shards, 0);
    EXPECT_GT(dist.dist.shards_requeued, 0);
    for (const WorkerReport& report : dist.dist.workers) {
      EXPECT_TRUE(report.permanently_dead);
      EXPECT_EQ(report.restarts, 1);
      EXPECT_EQ(report.shards_completed, 0);
    }
    ExpectCoherentDistStats(dist.dist);
  }
}

// The fault plan is a pure function of (seed, shard_id, attempt): two sims
// with the same seed agree decision-for-decision; a different seed
// disagrees somewhere.
TEST(ClusterSimTest, FaultPlanIsPureFunctionOfSeed) {
  SimOptions options;
  options.seed = 42;
  options.slow_probability = 0.5;
  options.death_probability = 0.5;
  ClusterSim a(options);
  ClusterSim b(options);
  options.seed = 43;
  ClusterSim c(options);

  bool differs_across_seeds = false;
  for (int shard = 0; shard < 16; ++shard) {
    for (int attempt = 0; attempt < 4; ++attempt) {
      const FaultSpec fa = a.Decide(shard, attempt, 10);
      const FaultSpec fb = b.Decide(shard, attempt, 10);
      EXPECT_EQ(fa.delay_ms, fb.delay_ms);
      EXPECT_EQ(fa.die_after_pairs, fb.die_after_pairs);
      const FaultSpec fc = c.Decide(shard, attempt, 10);
      if (fa.delay_ms != fc.delay_ms ||
          fa.die_after_pairs != fc.die_after_pairs) {
        differs_across_seeds = true;
      }
    }
  }
  EXPECT_TRUE(differs_across_seeds);
}

// A single worker with no faults is the degenerate cluster: still exact.
TEST(ClusterSimTest, SingleWorkerNoFaultsMatchesOracleOnBothTransports) {
  RandomJoinWorkload w = MakeRandomJoinWorkload(35);
  core::SimJParams params = BaseParams();
  const core::JoinResult oracle =
      core::IndexedSimJoin(w.d, w.u, params, w.dict);
  for (Transport transport : TransportsUnderTest()) {
    SCOPED_TRACE(std::string("transport=") + TransportName(transport));
    DistJoinParams dist_params;
    dist_params.num_workers = 1;
    dist_params.transport = transport;
    DistJoinResult dist = ShardedSimJoin(w.d, w.u, params, w.dict, dist_params);
    ExpectIdenticalJoin(oracle, dist.join);
    EXPECT_EQ(dist.dist.shards_requeued, 0);
    EXPECT_EQ(dist.dist.fallback_shards, 0);
  }
}

// Sum across every `family{worker="..."}` labeled series of the counter
// delta between two registry snapshots.
int64_t LabeledWorkerSum(const metrics::MetricsSnapshot& before,
                         const metrics::MetricsSnapshot& after,
                         const std::string& family) {
  const std::string prefix = family + "{worker=";
  int64_t sum = 0;
  for (const auto& [name, value] : after.counters) {
    if (name.rfind(prefix, 0) != 0) continue;
    auto it = before.counters.find(name);
    sum += value - (it == before.counters.end() ? 0 : it->second);
  }
  return sum;
}

// The ISSUE's acceptance criteria in one test, per transport: a seeded
// faulted run with every sink enabled (tracer on, flight recorder active,
// /clusterz probed mid-run from the fault hook) must
//   (1) merge byte-identically to a sinks-off run and the serial oracle,
//   (2) leave a merged cluster trace with a named lane per worker and an
//       attempt span for EVERY executed shard attempt — requeued retries
//       included — filed under the executing worker's lane,
//   (3) account every evaluated pair to exactly one `worker` label, so the
//       per-label sums equal the unsharded oracle's totals, and
//   (4) record a flight-recorder dump whose deal/dispatch/steal/requeue
//       events replay to the exact final shard-to-worker assignment.
TEST(ClusterObservabilityTest, FaultedRunWithAllSinksMeetsAcceptance) {
  RandomJoinWorkload w = MakeRandomJoinWorkload(
      77, {.num_certain = 5, .num_uncertain = 4});
  core::SimJParams params = BaseParams();
  const core::JoinResult oracle =
      core::IndexedSimJoin(w.d, w.u, params, w.dict);

  SimOptions sim_options;
  sim_options.seed = 77;
  sim_options.death_probability = 0.4;
  sim_options.slow_probability = 0.1;
  sim_options.slow_min_ms = 1.0;
  sim_options.slow_max_ms = 2.0;

  for (Transport transport : TransportsUnderTest()) {
    SCOPED_TRACE(std::string("transport=") + TransportName(transport));

    DistJoinParams dist_params;
    dist_params.num_workers = 4;
    dist_params.transport = transport;
    dist_params.max_pairs_per_shard = 3;
    dist_params.max_worker_restarts = 3;

    // Sinks-off reference run under the identical fault plan (ClusterSim
    // decisions are a pure function of (seed, shard, attempt)).
    ClusterSim sim_off(sim_options);
    dist_params.fault_hook = sim_off.Hook();
    const DistJoinResult off =
        ShardedSimJoin(w.d, w.u, params, w.dict, dist_params);

    // Sinks-on run: same fault plan, plus a one-shot /clusterz probe from
    // inside the first fault-hook call (i.e. while the join is live).
    ClusterSim sim_on(sim_options);
    std::atomic<bool> probed{false};
    std::string probe_body;
    std::mutex probe_mu;
    dist_params.fault_hook = [&](int /*worker*/, int shard_id, int attempt,
                                 int shard_pairs) {
      if (!probed.exchange(true)) {
        std::lock_guard<std::mutex> lock(probe_mu);
        probe_body = ClusterzBody();
      }
      return sim_on.Decide(shard_id, attempt, shard_pairs);
    };
    trace::Tracer::Global().Start();
    const metrics::MetricsSnapshot before = metrics::Registry::Global().Snapshot();
    const DistJoinResult on =
        ShardedSimJoin(w.d, w.u, params, w.dict, dist_params);
    const metrics::MetricsSnapshot after = metrics::Registry::Global().Snapshot();
    const std::vector<trace::TraceEvent> spans =
        trace::Tracer::Global().SnapshotEvents();
    std::ostringstream trace_json;
    trace::Tracer::Global().WriteChromeTrace(trace_json);
    trace::Tracer::Global().Stop();

    // (1) Byte identity: sinks change nothing about the join.
    ExpectIdenticalJoin(oracle, on.join);
    ExpectIdenticalJoin(off.join, on.join);
    ExpectCoherentDistStats(on.dist);

    // The seed must actually exercise the paths under test.
    EXPECT_GT(on.dist.shards_requeued, 0)
        << "seed stopped injecting deaths; pick one that requeues";

    // (2) One named lane per worker in the merged Chrome trace...
    const std::string json = trace_json.str();
    for (int worker = 0; worker < 4; ++worker) {
      EXPECT_NE(json.find("\"worker-" + std::to_string(worker) + "\""),
                std::string::npos)
          << "missing process lane for worker " << worker;
    }
    // ...and an attempt span for every executed shard attempt, filed under
    // the executing worker's pid lane (worker w -> pid w+2; pid 1 is the
    // coordinator). dispatch/steal flight events enumerate the executions.
    for (const flight::Event& e : on.dist.events) {
      if (e.type != kEventDispatch && e.type != kEventSteal) continue;
      const std::string name = "shard-" + std::to_string(e.shard) +
                               "/attempt-" + std::to_string(e.attempt);
      bool found = false;
      for (const trace::TraceEvent& span : spans) {
        if (span.name == name) {
          EXPECT_EQ(span.pid, e.worker + 2) << name;
          EXPECT_GT(span.trace_id, 0u) << name;
          EXPECT_GT(span.span_id, 0u) << name;
          found = true;
          break;
        }
      }
      EXPECT_TRUE(found) << "no attempt span for execution " << name
                         << " (worker " << e.worker << ")";
    }

    // (3) Every pair accounted to exactly one worker label: per-label sums
    // equal the oracle totals. Fallback shards land under worker="inline"
    // and index pruning (which never reaches a shard) under
    // worker="coordinator".
    EXPECT_EQ(LabeledWorkerSum(before, after, "simj_join_pairs_total"),
              oracle.stats.total_pairs);
    EXPECT_EQ(
        LabeledWorkerSum(before, after, "simj_join_pruned_structural_total"),
        oracle.stats.pruned_structural);
    EXPECT_EQ(
        LabeledWorkerSum(before, after, "simj_join_pruned_probabilistic_total"),
        oracle.stats.pruned_probabilistic);
    EXPECT_EQ(LabeledWorkerSum(before, after, "simj_join_candidates_total"),
              oracle.stats.candidates);
    EXPECT_EQ(LabeledWorkerSum(before, after, "simj_join_results_total"),
              oracle.stats.results);

    // (4) The flight-recorder dump replays to the final assignment.
    auto replayed =
        ReplayFinalAssignment(on.dist.events, on.dist.shards_planned);
    ASSERT_TRUE(replayed.ok()) << replayed.status().message();
    EXPECT_EQ(replayed.value(), on.dist.shard_completed_by);

    // The mid-run /clusterz probe saw a live coordinator.
    std::lock_guard<std::mutex> lock(probe_mu);
    EXPECT_NE(probe_body.find("\"active\":true"), std::string::npos)
        << probe_body;
    EXPECT_NE(probe_body.find("\"workers\":["), std::string::npos)
        << probe_body;
    EXPECT_NE(probe_body.find("\"recent_events\":["), std::string::npos)
        << probe_body;
    EXPECT_NE(probe_body.find("\"num_shards\":"), std::string::npos)
        << probe_body;
  }
}

// The inline fallback under tracing: every shard the coordinator ran
// itself after all workers died appears as exactly one
// `shard-N/fallback` span in the coordinator's own lane (pid 1), and its
// counters land under worker="inline", so the per-label sums still equal
// the unsharded oracle's totals.
TEST(ClusterObservabilityTest, TracedFallbackFilesOneSpanPerShardInline) {
  RandomJoinWorkload w = MakeRandomJoinWorkload(34);
  core::SimJParams params = BaseParams();
  const core::JoinResult oracle =
      core::IndexedSimJoin(w.d, w.u, params, w.dict);

  for (Transport transport : TransportsUnderTest()) {
    SCOPED_TRACE(std::string("transport=") + TransportName(transport));
    SimOptions sim_options;
    sim_options.seed = 34;
    sim_options.death_probability = 1.0;
    ClusterSim sim(sim_options);

    DistJoinParams dist_params;
    dist_params.num_workers = 2;
    dist_params.transport = transport;
    dist_params.max_pairs_per_shard = 3;
    dist_params.max_worker_restarts = 1;
    dist_params.fault_hook = sim.Hook();

    trace::Tracer::Global().Start();
    const metrics::MetricsSnapshot before =
        metrics::Registry::Global().Snapshot();
    const DistJoinResult dist =
        ShardedSimJoin(w.d, w.u, params, w.dict, dist_params);
    const metrics::MetricsSnapshot after =
        metrics::Registry::Global().Snapshot();
    const std::vector<trace::TraceEvent> spans =
        trace::Tracer::Global().SnapshotEvents();
    trace::Tracer::Global().Stop();

    ExpectIdenticalJoin(oracle, dist.join);
    int fallbacks = 0;
    for (const flight::Event& e : dist.dist.events) {
      if (e.type != kEventFallback) continue;
      ++fallbacks;
      const std::string name = "shard-" + std::to_string(e.shard) + "/fallback";
      int matching = 0;
      for (const trace::TraceEvent& span : spans) {
        if (span.name != name) continue;
        ++matching;
        EXPECT_EQ(span.pid, 1) << name;
        EXPECT_GT(span.trace_id, 0u) << name;
      }
      EXPECT_EQ(matching, 1) << name;
    }
    EXPECT_GT(fallbacks, 0);
    EXPECT_EQ(fallbacks, dist.dist.fallback_shards);

    EXPECT_EQ(LabeledWorkerSum(before, after, "simj_join_pairs_total"),
              oracle.stats.total_pairs);
    EXPECT_EQ(
        LabeledWorkerSum(before, after, "simj_join_pruned_structural_total"),
        oracle.stats.pruned_structural);
    EXPECT_EQ(
        LabeledWorkerSum(before, after, "simj_join_pruned_probabilistic_total"),
        oracle.stats.pruned_probabilistic);
    EXPECT_EQ(LabeledWorkerSum(before, after, "simj_join_candidates_total"),
              oracle.stats.candidates);
    EXPECT_EQ(LabeledWorkerSum(before, after, "simj_join_results_total"),
              oracle.stats.results);
    const std::string inline_pairs =
        metrics::LabeledName("simj_join_pairs_total", {{"worker", "inline"}});
    auto it = before.counters.find(inline_pairs);
    EXPECT_GT(after.counters.at(inline_pairs) -
                  (it == before.counters.end() ? 0 : it->second),
              0);
  }
}

// After ShardedSimJoin returns, /clusterz must report inactive (the
// coordinator unregisters itself) and every per-worker health component
// must be healthy again — a finished run never leaves /healthz degraded.
TEST(ClusterObservabilityTest, ClusterzInactiveAndHealthyAfterRun) {
  RandomJoinWorkload w = MakeRandomJoinWorkload(36);
  core::SimJParams params = BaseParams();
  SimOptions sim_options;
  sim_options.seed = 36;
  sim_options.death_probability = 0.5;
  ClusterSim sim(sim_options);
  DistJoinParams dist_params;
  dist_params.num_workers = 2;
  dist_params.transport = Transport::kThread;
  dist_params.max_pairs_per_shard = 2;
  dist_params.fault_hook = sim.Hook();
  DistJoinResult dist = ShardedSimJoin(w.d, w.u, params, w.dict, dist_params);
  EXPECT_GT(dist.dist.shards_requeued, 0);

  const std::string body = ClusterzBody();
  EXPECT_NE(body.find("\"active\":false"), std::string::npos) << body;
  EXPECT_NE(body.find("\"coordinator\":null"), std::string::npos) << body;
  // Workers that died mid-run were marked unhealthy, but the end-of-run
  // sweep cleared every dist_worker_N component (stall_watchdog may outlive
  // the run by design — it resets on the next join's BeginJoin).
  EXPECT_EQ(health::HealthzBody().find("dist_worker"), std::string::npos)
      << health::HealthzBody();
}

}  // namespace
}  // namespace simj::dist

// Custom main: strip --seeds=N (the ci.sh cluster-sim leg passes
// --seeds=20; ctest runs the smaller default) before handing the rest to
// googletest.
int main(int argc, char** argv) {
  int argc_out = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--seeds=", 8) == 0) {
      const int seeds = std::atoi(argv[i] + 8);
      if (seeds > 0) simj::dist::g_seeds = seeds;
      continue;
    }
    argv[argc_out++] = argv[i];
  }
  argc = argc_out;
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
