// simj-lint: allow-file(io) -- benchmark/example harness prints results to stdout.
// Sharded join scaling: wall-clock speedup of ShardedSimJoin at 1/2/4/8
// workers on both transports (in-process threads and forked child
// processes), plus a result-identity check against the serial SimJoin
// oracle — the distributed path must be a pure
// reorganization of the same work.
//
// Flags: --num_certain / --num_uncertain / --num_vertices / --tau /
// --alpha rescale the workload; --max_pairs_per_shard sets shard
// granularity. --workers=N pins a single worker count (0, the default,
// sweeps {1,2,4,8}); --transport=thread|process|both picks the transport
// legs. --death_probability / --slow_probability / --sim_seed wire a
// ClusterSim fault hook into every measured join, so CI can drive a
// faulted run with --trace_out/--events_out and validate the merged
// cluster trace and flight-recorder dump. As in bench_parallel_scaling,
// worker counts the host cannot exercise (hardware_threads < 4) are
// recorded as skipped samples rather than measured as scheduler noise —
// unless the count was pinned explicitly with --workers.

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "core/join.h"
#include "dist/coordinator.h"
#include "dist/simulator.h"

namespace {

bool SameResults(const simj::core::JoinResult& a,
                 const simj::core::JoinResult& b) {
  if (a.pairs.size() != b.pairs.size()) return false;
  for (size_t i = 0; i < a.pairs.size(); ++i) {
    if (a.pairs[i].q_index != b.pairs[i].q_index ||
        a.pairs[i].g_index != b.pairs[i].g_index ||
        a.pairs[i].similarity_probability !=
            b.pairs[i].similarity_probability ||
        a.pairs[i].mapping != b.pairs[i].mapping) {
      return false;
    }
  }
  return a.stats.total_pairs == b.stats.total_pairs &&
         a.stats.candidates == b.stats.candidates &&
         a.stats.pruned_structural == b.stats.pruned_structural &&
         a.stats.pruned_probabilistic == b.stats.pruned_probabilistic &&
         a.stats.results == b.stats.results;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace simj;
  Flags flags = bench::ParseBenchFlags(
      argc, argv,
      {"seed", "num_certain", "num_uncertain", "num_vertices", "num_edges",
       "labels", "tau", "alpha", "max_pairs_per_shard", "workers", "transport",
       "sim_seed", "death_probability", "slow_probability"});
  bench::PrintHeader("Sharded similarity join scaling (synthetic ER)");

  workload::SyntheticConfig config;
  config.seed = flags.GetInt("seed", 7);
  config.num_certain = static_cast<int>(flags.GetInt("num_certain", 120));
  config.num_uncertain = static_cast<int>(flags.GetInt("num_uncertain", 120));
  config.num_vertices = static_cast<int>(flags.GetInt("num_vertices", 10));
  config.num_edges = static_cast<int>(flags.GetInt("num_edges", 14));
  config.labels_per_vertex = static_cast<int>(flags.GetInt("labels", 3));
  workload::SyntheticDataset data = workload::MakeErDataset(config);

  core::SimJParams params =
      bench::ParamsFor(bench::JoinConfig::kSimJ,
                       static_cast<int>(flags.GetInt("tau", 2)),
                       flags.GetDouble("alpha", 0.5));
  const int max_pairs_per_shard =
      static_cast<int>(flags.GetInt("max_pairs_per_shard", 64));

  // --workers=0 sweeps; an explicit pin is honored even on small hosts.
  const int pinned_workers = static_cast<int>(flags.GetInt("workers", 0));
  std::vector<int> worker_counts;
  if (pinned_workers > 0) {
    worker_counts.push_back(pinned_workers);
  } else {
    worker_counts = {1, 2, 4, 8};
  }
  const std::string transport_flag = flags.GetString("transport", "both");
  std::vector<dist::Transport> transports;
  if (transport_flag == "thread") {
    transports = {dist::Transport::kThread};
  } else if (transport_flag == "process") {
    transports = {dist::Transport::kProcess};
  } else {
    transports = {dist::Transport::kThread, dist::Transport::kProcess};
  }

  dist::SimOptions sim_options;
  sim_options.seed = static_cast<uint64_t>(flags.GetInt("sim_seed", 1));
  sim_options.death_probability = flags.GetDouble("death_probability", 0.0);
  sim_options.slow_probability = flags.GetDouble("slow_probability", 0.0);
  const bool faulted = sim_options.death_probability > 0.0 ||
                       sim_options.slow_probability > 0.0;
  dist::ClusterSim sim(sim_options);

  const unsigned hardware_threads = std::thread::hardware_concurrency();
  std::printf("|D|=%zu |U|=%zu max_pairs_per_shard=%d hardware_threads=%u",
              data.certain.size(), data.uncertain.size(), max_pairs_per_shard,
              hardware_threads);
  if (faulted) {
    std::printf(" sim_seed=%llu death_p=%.2f slow_p=%.2f",
                static_cast<unsigned long long>(sim_options.seed),
                sim_options.death_probability, sim_options.slow_probability);
  }
  std::printf("\n\n");

  // Serial oracle: the sharded join must reproduce this byte-for-byte.
  core::JoinResult baseline =
      core::SimJoin(data.certain, data.uncertain, params, data.dict);
  const double baseline_seconds = baseline.stats.wall_seconds;
  std::printf("serial SimJoin: %.3fs, %zu results\n\n",
              baseline_seconds, baseline.pairs.size());
  std::printf("%10s %8s %12s %10s %10s %10s\n", "transport", "workers",
              "seconds", "speedup", "steals", "identical");

  bool all_identical = true;
  for (dist::Transport transport : transports) {
    for (int workers : worker_counts) {
      dist::DistJoinParams dist_params;
      dist_params.transport = transport;
      dist_params.num_workers = workers;
      dist_params.max_pairs_per_shard = max_pairs_per_shard;
      if (faulted) dist_params.fault_hook = sim.Hook();
      params.num_threads = workers;  // sample-name key only; workers drive it

      if (pinned_workers == 0 && hardware_threads < 4 &&
          workers > static_cast<int>(hardware_threads)) {
        bench::RecordBenchSample(
            bench::JoinSampleName(dist::TransportName(transport), params),
            run_record::Stats{}, run_record::Stats{},
            {{"hardware_threads", static_cast<double>(hardware_threads)}},
            /*skipped=*/true);
        std::printf("%10s %8d %12s %10s %10s %10s\n",
                    dist::TransportName(transport), workers, "-", "-", "-",
                    "skipped");
        continue;
      }

      std::vector<double> wall, cpu;
      dist::DistJoinResult result;
      int64_t steals = 0;
      const int trials = bench::BenchWarmup() + bench::BenchRepeat();
      for (int trial = 0; trial < trials; ++trial) {
        WallTimer timer;
        result = dist::ShardedSimJoin(data.certain, data.uncertain, params,
                                      data.dict, dist_params);
        if (trial < bench::BenchWarmup()) continue;
        wall.push_back(timer.ElapsedSeconds());
        cpu.push_back(result.join.stats.TotalCpuSeconds());
      }
      steals = 0;
      for (const dist::WorkerReport& report : result.dist.workers) {
        steals += report.steals;
      }
      const double seconds = bench::MedianOf(wall);
      const bool identical = SameResults(result.join, baseline);
      all_identical = all_identical && identical;
      const double speedup = seconds > 0 ? baseline_seconds / seconds : 0.0;
      bench::RecordBenchSample(
          bench::JoinSampleName(dist::TransportName(transport), params),
          run_record::Stats::FromSamples(wall),
          run_record::Stats::FromSamples(cpu),
          {{"speedup", speedup},
           {"identical", identical ? 1.0 : 0.0},
           {"steals", static_cast<double>(steals)},
           {"shards", static_cast<double>(result.dist.shards_planned)},
           {"requeues", static_cast<double>(result.dist.shards_requeued)},
           {"fallback_shards",
            static_cast<double>(result.dist.fallback_shards)},
           {"injected_deaths", static_cast<double>(sim.injected_deaths())},
           {"injected_delays", static_cast<double>(sim.injected_delays())}});
      std::printf("%10s %8d %12.3f %9.2fx %10lld %10s\n",
                  dist::TransportName(transport), workers, seconds, speedup,
                  static_cast<long long>(steals), identical ? "yes" : "NO");
    }
  }

  if (!all_identical) {
    std::printf("\nERROR: sharded results differ from the serial oracle\n");
    return 1;
  }
  std::printf("\nidentity: every (transport, workers) cell reproduced the "
              "serial oracle\n");
  if (faulted) {
    std::printf("faults injected: %lld deaths, %lld delays (%.1f ms)\n",
                static_cast<long long>(sim.injected_deaths()),
                static_cast<long long>(sim.injected_delays()),
                sim.injected_delay_ms());
  }
  return 0;
}
