// The three synthetic ER join workloads: er_filter, er_verify, er_sharded.
// Why each exists and what it measures is in perfbench/NOTES.md.
#include <algorithm>
#include <utility>

#include "common.h"
#include "core/index.h"
#include "core/join.h"
#include "dist/coordinator.h"
#include "dist/shard.h"
#include "layers.h"
#include "spans.h"
#include "util/mem.h"
#include "util/metrics.h"
#include "util/timer.h"
#include "workload/synthetic.h"

namespace perfbench {
namespace {

using simj::core::JoinResult;
using simj::core::JoinStats;
using simj::core::SimJParams;

enum class Engine {
  kPool,     // core::SimJoin, num_threads = PoolThreads()
  kSerial,   // core::SimJoin, num_threads = 1
  kSharded,  // dist::ShardedSimJoin, process transport, index on
};

struct ErSpec {
  int graphs = 0;    // |D| = |U| of each dataset
  int datasets = 1;  // independent datasets per run
  int perturbation_ops = 0;
  double uncertain_vertex_fraction = 0.5;
  int tau = 1;
  double alpha = 0.8;
  int group_count = 1;
  Engine engine = Engine::kPool;
};

ErSpec SpecFor(const std::string& workload) {
  ErSpec spec;
  if (workload == "er_verify") {
    spec.graphs = 100;
    spec.datasets = 40;
    spec.perturbation_ops = 2;
    // Fewer uncertain vertices thin the tail of per-pair world counts
    // (3^k worlds for k uncertain vertices), which otherwise lets a few
    // pairs set the seed-to-seed spread.
    spec.uncertain_vertex_fraction = 0.4;
    spec.tau = 4;
    spec.group_count = 8;
    spec.engine = Engine::kSerial;
  } else {
    spec.graphs = 400;
    spec.datasets = 1;
    spec.engine = workload == "er_sharded" ? Engine::kSharded : Engine::kPool;
  }
  return spec;
}

// Set-up samples; setup_s is their median. One generation takes only a few
// milliseconds, too short to time steadily on its own, so each sample is the
// mean over repeated generations totalling at least kSetupBatchS. The
// samples are spread over the timed window, between joins, so that their
// median covers the whole run and not one burst of it.
constexpr int kSetupSamples = 9;
constexpr double kSetupBatchS = 0.15;
// Serial joins timed for util.pool.scaling_eff in the traced run.
constexpr int kSerialReps = 3;
// Shard plans timed for dist.plan_ms in the traced run.
constexpr int kPlanReps = 5;

int Parallelism(const ErSpec& spec) {
  return spec.engine == Engine::kSerial ? 1 : PoolThreads();
}

SimJParams ParamsFor(const ErSpec& spec) {
  SimJParams params;
  params.tau = spec.tau;
  params.alpha = spec.alpha;
  params.group_count = spec.group_count;
  params.num_threads = spec.engine == Engine::kPool ? PoolThreads() : 1;
  return params;
}

simj::dist::DistJoinParams DistParams() {
  simj::dist::DistJoinParams params;
  params.num_workers = PoolThreads();
  params.transport = simj::dist::Transport::kProcess;
  return params;
}

std::vector<simj::workload::SyntheticDataset> Generate(const ErSpec& spec,
                                                       uint64_t seed) {
  std::vector<simj::workload::SyntheticDataset> datasets;
  for (int k = 0; k < spec.datasets; ++k) {
    simj::workload::SyntheticConfig config;
    config.seed = seed * 1000003 + static_cast<uint64_t>(k);
    config.num_certain = spec.graphs;
    config.num_uncertain = spec.graphs;
    config.num_vertices = 10;
    config.num_edges = 16;
    config.labels_per_vertex = 3;
    config.perturbation_ops = spec.perturbation_ops;
    config.uncertain_vertex_fraction = spec.uncertain_vertex_fraction;
    datasets.push_back(simj::workload::MakeErDataset(config));
  }
  return datasets;
}

// The join under test, as configured by the workload.
JoinResult RunJoin(const ErSpec& spec,
                   const simj::workload::SyntheticDataset& data,
                   simj::dist::DistStats* dist_stats = nullptr) {
  SimJParams params = ParamsFor(spec);
  if (spec.engine != Engine::kSharded) {
    return simj::core::SimJoin(data.certain, data.uncertain, params, data.dict);
  }
  simj::dist::DistJoinResult result = simj::dist::ShardedSimJoin(
      data.certain, data.uncertain, params, data.dict, DistParams());
  if (dist_stats != nullptr) *dist_stats = std::move(result.dist);
  return std::move(result.join);
}

// The serial reference the timed joins are checked against: SimJoin for
// the pool and serial engines, IndexedSimJoin for the sharded one (the
// shard plan applies the index).
JoinResult RunOracle(const ErSpec& spec,
                     const simj::workload::SyntheticDataset& data) {
  SimJParams params = ParamsFor(spec);
  params.num_threads = 1;
  return spec.engine == Engine::kSharded
             ? simj::core::IndexedSimJoin(data.certain, data.uncertain, params,
                                          data.dict)
             : simj::core::SimJoin(data.certain, data.uncertain, params,
                                   data.dict);
}

// What the traced run needs from one sharded join.
struct DistSummary {
  std::vector<double> busy_s;  // per worker
  int steals = 0;
  int requeues = 0;
};

// Counts one join as attempted, and as failed unless it matches its oracle.
void CheckJoin(const JoinResult& joined, const JoinResult& oracle, size_t k,
               RunResult* result) {
  ++result->attempted;
  if (MatchesOracle(joined, oracle)) return;
  ++result->failed;
  result->correct = false;
  result->Note(Format("MISMATCH: dataset %zu differs from its serial oracle", k));
}

struct Timed {
  int64_t joins = 0;
  std::vector<std::vector<double>> walls_by_dataset;
  std::vector<JoinStats> stats_dataset0;
  std::vector<DistSummary> dist_dataset0;
  double elapsed = 0.0;
};

// One set-up sample: the mean time of generating the run's inputs again,
// over repetitions totalling at least kSetupBatchS.
double SetupSample(const ErSpec& spec, uint64_t seed) {
  double generating = 0.0;
  int reps = 0;
  do {
    std::vector<simj::workload::SyntheticDataset> again;
    generating += TimeSeconds([&] { again = Generate(spec, seed); });
    ++reps;
  } while (generating < kSetupBatchS);
  return generating / reps;
}

// Runs the configured join round-robin over the datasets for `seconds`,
// checking every result against its oracle. Takes the kSetupSamples set-up
// samples into `setup_s` at even points of the window, between joins; their
// time is not part of the window.
Timed MeasureJoins(const ErSpec& spec, uint64_t seed,
                   const std::vector<simj::workload::SyntheticDataset>& data,
                   const std::vector<JoinResult>& oracles, double seconds,
                   std::vector<double>* setup_s, RunResult* result) {
  Timed timed;
  timed.walls_by_dataset.resize(data.size());
  simj::WallTimer window;
  double paused = 0.0;
  auto take_setup_sample = [&] {
    paused += TimeSeconds([&] { setup_s->push_back(SetupSample(spec, seed)); });
  };
  auto elapsed = [&] { return window.ElapsedSeconds() - paused; };
  do {
    for (size_t k = 0; k < data.size(); ++k) {
      if (static_cast<int>(setup_s->size()) < kSetupSamples &&
          elapsed() >= seconds * static_cast<double>(setup_s->size()) /
                           kSetupSamples) {
        take_setup_sample();
      }
      simj::dist::DistStats dist;
      simj::WallTimer timer;
      JoinResult joined = RunJoin(spec, data[k], &dist);
      double wall = timer.ElapsedSeconds();
      CheckJoin(joined, oracles[k], k, result);
      ++timed.joins;
      timed.walls_by_dataset[k].push_back(wall);
      if (k == 0) {
        timed.stats_dataset0.push_back(joined.stats);
        DistSummary summary;
        for (const simj::dist::WorkerReport& w : dist.workers) {
          summary.busy_s.push_back(w.busy_seconds);
          summary.steals += w.steals;
        }
        summary.requeues = dist.shards_requeued;
        timed.dist_dataset0.push_back(std::move(summary));
      }
    }
  } while (elapsed() < seconds);
  timed.elapsed = elapsed();
  while (static_cast<int>(setup_s->size()) < kSetupSamples) take_setup_sample();
  return timed;
}

// Index of the median element of `values`.
size_t MedianIndex(const std::vector<double>& values) {
  std::vector<size_t> order(values.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return values[a] < values[b]; });
  return order[order.size() / 2];
}

// Sets the dist.* metrics; returns the pairs the shard plan leaves.
int64_t SetDistMetrics(const ErSpec& spec,
                    const simj::workload::SyntheticDataset& data,
                    const DistSummary& dist, double wall,
                    LayerMetrics* layers) {
  SimJParams params = ParamsFor(spec);
  simj::dist::DistJoinParams dist_params = DistParams();
  simj::dist::ShardPlanOptions plan_options;
  plan_options.max_pairs_per_shard = dist_params.max_pairs_per_shard;
  plan_options.use_index = dist_params.use_index;
  std::vector<double> plan_s;
  simj::dist::ShardPlan plan;
  for (int r = 0; r < kPlanReps; ++r) {
    plan_s.push_back(TimeSeconds([&] {
      plan = simj::dist::PlanShards(data.certain, data.uncertain, params,
                                    plan_options);
    }));
  }
  layers->Set("dist.plan_ms", 1e3 * Median(plan_s));
  layers->Set("dist.shards", static_cast<double>(plan.shards.size()));

  const std::vector<double>& busy = dist.busy_s;
  layers->Set("dist.steals", dist.steals);
  layers->Set("dist.requeues", dist.requeues);
  layers->Set("dist.worker_busy_frac",
              Ratio(Sum(busy), static_cast<double>(busy.size()) * wall));
  layers->Set("dist.busy_imbalance",
              Ratio(busy.empty() ? 0.0 : *std::max_element(busy.begin(),
                                                           busy.end()),
                    Mean(busy)));

  // Frame bytes both ways over one more join, from the coordinator's
  // subprocess frame counters.
  auto& registry = simj::metrics::Registry::Global();
  auto frame_bytes = [&] {
    return registry.GetCounter("simj_subprocess_frame_bytes_written_total")
               .Value() +
           registry.GetCounter("simj_subprocess_frame_bytes_read_total")
               .Value();
  };
  int64_t before = frame_bytes();
  (void)RunJoin(spec, data);
  layers->Set("dist.frame_bytes_per_pair",
              Ratio(static_cast<double>(frame_bytes() - before),
                    static_cast<double>(plan.planned_pairs)));
  return plan.planned_pairs;
}

}  // namespace

RunResult RunErWorkload(const Options& options) {
  const ErSpec spec = SpecFor(options.workload);
  RunResult result;

  // Set-up: the inputs, generated from the seed.
  std::vector<simj::workload::SyntheticDataset> data =
      Generate(spec, options.seed);

  // The serial oracles, computed once.
  std::vector<JoinResult> oracles;
  std::vector<double> oracle_walls;
  double pairs = 0.0;
  for (const auto& d : data) {
    oracle_walls.push_back(TimeSeconds([&] { oracles.push_back(RunOracle(spec, d)); }));
    pairs += static_cast<double>(d.certain.size() * d.uncertain.size());
  }

  // Warm-up: one configured join per dataset, checked but not timed. The
  // serial engine runs the oracle's code path, which has just warmed up.
  for (size_t k = 0; spec.engine != Engine::kSerial && k < data.size(); ++k) {
    CheckJoin(RunJoin(spec, data[k]), oracles[k], k, &result);
  }

  double window = options.trace ? options.seconds / 2 : options.seconds;
  std::vector<double> setup_s;
  Timed timed = MeasureJoins(spec, options.seed, data, oracles, window,
                             &setup_s, &result);
  double median_round = 0.0;
  for (const auto& walls : timed.walls_by_dataset) median_round += Median(walls);

  JoinStats oracle_stats;
  int64_t results = 0;
  for (const JoinResult& o : oracles) {
    simj::core::MergeJoinStats(o.stats, &oracle_stats);
    results += o.stats.results;
  }
  result.Note(Format("# workload %s seed %llu: %d dataset(s) of %dx%d ER "
                     "graphs (10 vertices, 16 edges, %.0f%% of vertices "
                     "uncertain with 3 labels), tau=%d alpha=%.2f groups=%d, "
                     "parallelism %d",
                     options.workload.c_str(),
                     static_cast<unsigned long long>(options.seed),
                     spec.datasets, spec.graphs, spec.graphs,
                     100 * spec.uncertain_vertex_fraction, spec.tau,
                     spec.alpha, spec.group_count, Parallelism(spec)));
  result.Note(Format("# oracle: %lld candidates, %lld results, serial wall "
                     "%.3f s; %zu timed joins, median round %.4f s",
                     static_cast<long long>(oracle_stats.candidates),
                     static_cast<long long>(results), Sum(oracle_walls),
                     static_cast<size_t>(timed.joins), median_round));
  result.Note(Format("# error_frac %.6f",
                     Ratio(static_cast<double>(result.failed),
                           static_cast<double>(result.attempted))));

  if (!options.trace) {
    result.Add("setup_s", Median(setup_s), "s");
    result.Add("join_pairs_per_s", Ratio(pairs, median_round), "pairs/s");
    // The median join latency of each dataset, averaged over datasets.
    result.Add("op_latency_p50_ms", 1e3 * median_round / spec.datasets, "ms");
    result.Add("ops_per_s",
               Ratio(static_cast<double>(timed.joins), timed.elapsed), "1/s");
    result.Add("peak_rss_mb", simj::mem::PeakRssBytes() / (1024.0 * 1024.0),
               "MiB");
    return result;
  }

  // ---- Traced run: per-layer metrics. ----
  LayerMetrics layers;
  SpanRecorder spans(true);
  const simj::workload::SyntheticDataset& data0 = data[0];
  double wall0 = Median(timed.walls_by_dataset[0]);
  double pairs0 = static_cast<double>(data0.certain.size() * data0.uncertain.size());

  layers.Set("workload.generate_s", Median(setup_s));
  double worlds = 0.0, graphs = 0.0;
  for (const auto& d : data) {
    for (const auto& g : d.uncertain) {
      worlds += static_cast<double>(g.NumPossibleWorlds());
      graphs += 1.0;
    }
  }
  layers.Set("graph.worlds_per_uncertain", Ratio(worlds, graphs));
  SetJoinStatsMetrics(oracle_stats, &layers);

  // Join-level timings from the median timed join of dataset 0.
  size_t mid = MedianIndex(timed.walls_by_dataset[0]);
  const JoinStats& timed0 = timed.stats_dataset0[mid];
  layers.Set("core.pruning_cpu_s", timed0.pruning_cpu_seconds);
  layers.Set("core.verification_cpu_s", timed0.verification_cpu_seconds);
  int parallelism = Parallelism(spec);
  layers.Set("util.pool.busy_frac",
             Ratio(timed0.TotalCpuSeconds(), parallelism * wall0));

  // The plain single-thread run of the same input: the serial baseline.
  std::vector<double> serial_walls = {oracle_walls[0]};
  for (int r = 0; r < kSerialReps; ++r) {
    serial_walls.push_back(TimeSeconds([&] { (void)RunOracle(spec, data0); }));
  }
  double serial_wall = Median(serial_walls);
  layers.Set("util.pool.scaling_eff", Ratio(serial_wall, parallelism * wall0));
  result.Note(Format("# serial baseline %.4f s, configured join %.4f s on %d "
                     "workers: speedup %.2fx",
                     serial_wall, wall0, parallelism,
                     Ratio(serial_wall, wall0)));

  // Pairs that reach EvaluatePair, and so CssLowerBoundUncertain, per join
  // of dataset 0: the shard plan's index skips some.
  int64_t evaluated0 = oracles[0].stats.total_pairs;
  if (spec.engine == Engine::kSharded) {
    evaluated0 = SetDistMetrics(spec, data0, timed.dist_dataset0[mid], wall0,
                                &layers);
  }
  layers.Set("ged.css_uncertain.calls", static_cast<double>(evaluated0));

  // Sampled allocations per pair of one configured join of dataset 0.
  CountAllocations([&] { (void)RunJoin(spec, data0); },
                   static_cast<int64_t>(pairs0), &layers, &result);

  ProbeTimes probe = ProbeJoinPairs(data0.certain, data0.uncertain,
                                    ParamsFor(spec), data0.dict, wall0, &spans,
                                    &layers);
  SetTraceMetrics({probe}, spans, &layers);
  result.Note(Format("# traced: %zu spans over %.0f pairs of dataset 0",
                     spans.size(), pairs0));
  if (!options.trace_out.empty() && !spans.WriteChromeTrace(options.trace_out)) {
    result.Note("could not write " + options.trace_out);
  }
  layers.Emit(&result);
  return result;
}

}  // namespace perfbench
