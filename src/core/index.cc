#include "core/index.h"

#include <algorithm>
#include <cstdlib>
#include <utility>

#include "util/metrics.h"
#include "util/timer.h"
#include "util/trace.h"

namespace simj::core {

CertainGraphIndex::CertainGraphIndex(
    const std::vector<graph::LabeledGraph>* d)
    : d_(d), num_graphs_(static_cast<int64_t>(d->size())) {
  for (int i = 0; i < static_cast<int>(d->size()); ++i) {
    const graph::LabeledGraph& g = (*d)[i];
    buckets_[{g.num_vertices(), g.num_edges()}].push_back(i);
  }
}

bool CertainGraphIndex::SignatureSurvives(int vertices, int edges,
                                          const graph::UncertainGraph& g,
                                          int tau) {
  const int dv = std::abs(vertices - g.num_vertices());
  const int de = std::abs(edges - g.num_edges());
  return dv + de <= tau;
}

std::vector<int> CertainGraphIndex::Candidates(
    const graph::UncertainGraph& g, int tau) const {
  static metrics::Histogram& probe_seconds =
      metrics::Registry::Global().GetHistogram("simj_index_probe_seconds");
  static metrics::Counter& probes =
      metrics::Registry::Global().GetCounter("simj_index_probes_total");
  metrics::ScopedLatency latency(probe_seconds);
  trace::ScopedSpan span("index_probe", "index");
  probes.Increment();
  std::vector<int> out;
  const int v = g.num_vertices();
  const int e = g.num_edges();
  // Buckets are sorted by (|V|, |E|); scan the |V| window and filter on
  // the combined count bound.
  auto begin = buckets_.lower_bound({v - tau, 0});
  for (auto it = begin; it != buckets_.end(); ++it) {
    int dv = std::abs(it->first.first - v);
    if (it->first.first > v + tau) break;
    int de = std::abs(it->first.second - e);
    if (dv + de > tau) continue;
    out.insert(out.end(), it->second.begin(), it->second.end());
  }
  std::sort(out.begin(), out.end());
  return out;
}

void AccountIndexSkips(int g_index, const std::vector<int>& skipped_q,
                       const SimJParams& params, JoinStats* stats,
                       std::vector<PairExplain>* explains) {
  static metrics::Counter& skipped_total =
      metrics::Registry::Global().GetCounter("simj_index_skipped_pairs_total");
  const int64_t skipped = static_cast<int64_t>(skipped_q.size());
  stats->total_pairs += skipped;
  stats->pruned_structural += skipped;
  skipped_total.Add(skipped);
  if (!params.explain.enabled) return;
  for (int qi : skipped_q) {
    if (!params.explain.ShouldExplain(qi, g_index)) continue;
    PairExplain explain;
    explain.q_index = qi;
    explain.g_index = g_index;
    explain.pruned_by = PruneStage::kIndexCount;
    explains->push_back(std::move(explain));
  }
}

JoinResult IndexedSimJoin(const std::vector<graph::LabeledGraph>& d,
                          const std::vector<graph::UncertainGraph>& u,
                          const SimJParams& params,
                          const graph::LabelDictionary& dict) {
  WallTimer wall;
  trace::ScopedSpan join_span("indexed_simjoin", "join");
  CertainGraphIndex index(&d);
  JoinResult result;
  // Materialize the surviving pairs up front (the index probe is cheap and
  // serial), then hand the skewed refinement work to the shared engine,
  // which shards it across the configured workers.
  std::vector<std::pair<int, int>> pairs;
  {
    trace::ScopedSpan span("candidate_generation", "index");
    std::vector<int> skipped;
    for (int gi = 0; gi < static_cast<int>(u.size()); ++gi) {
      std::vector<int> candidates = index.Candidates(u[gi], params.tau);
      // Pairs skipped by the index never reach EvaluatePair: D minus the
      // sorted candidate list.
      skipped.clear();
      size_t next = 0;
      for (int qi = 0; qi < static_cast<int>(d.size()); ++qi) {
        if (next < candidates.size() && candidates[next] == qi) {
          ++next;
        } else {
          skipped.push_back(qi);
        }
      }
      AccountIndexSkips(gi, skipped, params, &result.stats, &result.explains);
      for (int qi : candidates) pairs.emplace_back(qi, gi);
    }
  }
  JoinPairs(d, u, params, dict, static_cast<int64_t>(pairs.size()),
            [&pairs](int64_t p) { return pairs[p]; }, &result);
  result.stats.wall_seconds = wall.ElapsedSeconds();
  return result;
}

}  // namespace simj::core
