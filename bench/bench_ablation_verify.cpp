// simj-lint: allow-file(io) -- benchmark/example harness prints results to stdout.
// Ablation: the verification-phase early exits (accept once alpha is
// reached, reject once the remaining mass cannot reach alpha), and how a
// world that cannot become the pair's best is accepted without A*: from an
// earlier world's A* mapping (witness) or from the greedy bipartite bound.

#include <cstdio>

#include "bench_util.h"

int main(int argc, char** argv) {
  using namespace simj;
  bench::ParseBenchFlags(argc, argv);
  bench::PrintHeader("Ablation: verification early exits (ER)");

  workload::SyntheticConfig config;
  config.seed = 106;
  config.num_certain = 100;
  config.num_uncertain = 100;
  config.num_vertices = 10;
  config.num_edges = 16;
  config.labels_per_vertex = 4;
  workload::SyntheticDataset data = workload::MakeErDataset(config);

  std::printf("%-18s %-8s %6s %14s %10s %10s\n", "mode", "accept", "alpha",
              "verification(s)", "wall(s)", "results");
  for (double alpha : {0.3, 0.6, 0.9}) {
    for (bool early_exit : {true, false}) {
      for (bool witness : {true, false}) {
        core::SimJParams params =
            bench::ParamsFor(bench::JoinConfig::kSimJ, /*tau=*/2, alpha);
        params.early_exit_verification = early_exit;
        params.witness_accept = witness;
        bench::EfficiencyRow row = bench::RunEfficiency(
            data.certain, data.uncertain, data.dict, params);
        std::printf("%-18s %-8s %6.1f %14.3f %10.3f %10lld\n",
                    early_exit ? "early exit" : "full enumeration",
                    witness ? "witness" : "greedy", alpha,
                    row.verification_cpu_seconds, row.wall_seconds,
                    static_cast<long long>(row.results));
      }
    }
  }
  return 0;
}
