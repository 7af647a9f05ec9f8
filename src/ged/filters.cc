#include "ged/filters.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <vector>

#include "ged/lower_bounds.h"
#include "matching/hungarian.h"
#include "util/check.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace simj::ged {

namespace {

using graph::LabeledGraph;
using graph::LabelDictionary;
using graph::UncertainGraph;

class CssFilter : public GedFilter {
 public:
  std::string name() const override { return "CSS"; }

  int LowerBound(const LabeledGraph& q, const UncertainGraph& g,
                 const LabelDictionary& dict, int /*tau*/) const override {
    static metrics::Histogram& hist =
        metrics::Registry::Global().GetHistogram("simj_filter_css_seconds");
    metrics::ScopedLatency latency(hist);
    trace::ScopedSpan span("filter_css", "filter");
    return CssLowerBoundUncertain(q, g, dict);
  }
};

int MaxDegree(const LabeledGraph& g) {
  int max_degree = 0;
  for (int v = 0; v < g.num_vertices(); ++v) {
    max_degree = std::max(max_degree, g.degree(v));
  }
  return max_degree;
}

// Structure-only path filter. One edge operation changes the edge count by
// at most 1 and the 2-path count by at most 2 * max_degree (an edit script
// can always be ordered deletions-first, so intermediate graphs stay inside
// one of the endpoints' degree envelopes).
class PathFilter : public GedFilter {
 public:
  std::string name() const override { return "Path"; }

  int LowerBound(const LabeledGraph& q, const UncertainGraph& g,
                 const LabelDictionary& /*dict*/, int /*tau*/) const override {
    static metrics::Histogram& hist =
        metrics::Registry::Global().GetHistogram("simj_filter_path_seconds");
    metrics::ScopedLatency latency(hist);
    trace::ScopedSpan span("filter_path", "filter");
    const LabeledGraph& h = g.structure();
    int64_t bound1 = std::abs(q.num_edges() - h.num_edges());
    int64_t diff2 = std::abs(CountTwoPaths(q) - CountTwoPaths(h));
    int per_op = 2 * std::max(1, std::max(MaxDegree(q), MaxDegree(h)));
    int64_t bound2 = (diff2 + per_op - 1) / per_op;
    return static_cast<int>(std::max(bound1, bound2));
  }
};

// Structure-only star filter: assignment between degree-stars, normalized
// as in c-star [29] by max(4, max_degree + 1). The structural star edit
// distance |d_i - d_j| underestimates the labeled one, so the bound stays
// valid.
class StarFilter : public GedFilter {
 public:
  std::string name() const override { return "SEGOS"; }

  int LowerBound(const LabeledGraph& q, const UncertainGraph& g,
                 const LabelDictionary& /*dict*/, int /*tau*/) const override {
    static metrics::Histogram& hist =
        metrics::Registry::Global().GetHistogram("simj_filter_segos_seconds");
    metrics::ScopedLatency latency(hist);
    trace::ScopedSpan span("filter_segos", "filter");
    const LabeledGraph& h = g.structure();
    std::vector<int> deg_a(q.num_vertices());
    for (int v = 0; v < q.num_vertices(); ++v) deg_a[v] = q.degree(v);
    std::vector<int> deg_b(h.num_vertices());
    for (int v = 0; v < h.num_vertices(); ++v) deg_b[v] = h.degree(v);
    // Pad with empty stars; mapping a star onto an empty star costs the
    // star's full size (center + spokes).
    size_t n = std::max(deg_a.size(), deg_b.size());
    if (n == 0) return 0;
    std::vector<double> cost(n * n, 0.0);
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = 0; j < n; ++j) {
        if (i < deg_a.size() && j < deg_b.size()) {
          cost[i * n + j] = std::abs(deg_a[i] - deg_b[j]);
        } else if (i < deg_a.size()) {
          cost[i * n + j] = 1.0 + deg_a[i];
        } else if (j < deg_b.size()) {
          cost[i * n + j] = 1.0 + deg_b[j];
        }
      }
    }
    double mu = matching::MinCostAssignment(cost, static_cast<int>(n),
                                            static_cast<int>(n));
    int delta = std::max(4, std::max(MaxDegree(q), MaxDegree(h)) + 1);
    return static_cast<int>(mu / delta);
  }
};

// Edge-disjoint BFS partitioning of q into `parts` connected(-ish) pieces.
std::vector<LabeledGraph> PartitionEdges(const LabeledGraph& q, int parts) {
  SIMJ_CHECK_GT(parts, 0);
  std::vector<LabeledGraph> out;
  int total = q.num_edges();
  if (total == 0) return out;
  int per_part = std::max(1, (total + parts - 1) / parts);
  // Walk edges in index order, grouping consecutive runs. Edges added by
  // generators are locally clustered, which keeps parts loosely connected;
  // connectivity is not required for validity.
  int e = 0;
  while (e < total) {
    int end = std::min(total, e + per_part);
    LabeledGraph part;
    std::vector<int> vertex_map(q.num_vertices(), -1);
    for (int i = e; i < end; ++i) {
      const graph::Edge& edge = q.edge(i);
      for (int endpoint : {edge.src, edge.dst}) {
        if (vertex_map[endpoint] == -1) {
          vertex_map[endpoint] = part.AddVertex(q.vertex_label(endpoint));
        }
      }
      part.AddEdge(vertex_map[edge.src], vertex_map[edge.dst], edge.label);
    }
    out.push_back(std::move(part));
    e = end;
  }
  return out;
}

class ParsFilter : public GedFilter {
 public:
  std::string name() const override { return "Pars"; }

  int LowerBound(const LabeledGraph& q, const UncertainGraph& g,
                 const LabelDictionary& /*dict*/, int tau) const override {
    static metrics::Histogram& hist =
        metrics::Registry::Global().GetHistogram("simj_filter_pars_seconds");
    metrics::ScopedLatency latency(hist);
    trace::ScopedSpan span("filter_pars", "filter");
    const LabeledGraph& h = g.structure();
    std::vector<LabeledGraph> parts = PartitionEdges(q, tau + 1);
    int mismatched = 0;
    for (const LabeledGraph& part : parts) {
      if (!StructurallySubgraphIsomorphic(part, h)) ++mismatched;
    }
    return mismatched;
  }
};

// Backtracking structural subgraph isomorphism; pattern graphs here are a
// handful of edges, so plain DFS with degree pruning is plenty.
bool ExtendMapping(const LabeledGraph& pattern, const LabeledGraph& host,
                   std::vector<int>& map, std::vector<bool>& used, int next) {
  if (next == pattern.num_vertices()) return true;
  for (int candidate = 0; candidate < host.num_vertices(); ++candidate) {
    if (used[candidate]) continue;
    if (host.degree(candidate) < pattern.degree(next)) continue;
    bool consistent = true;
    for (int prev = 0; prev < next && consistent; ++prev) {
      int need_out =
          static_cast<int>(pattern.EdgeLabelsBetween(next, prev).size());
      int need_in =
          static_cast<int>(pattern.EdgeLabelsBetween(prev, next).size());
      if (need_out >
              static_cast<int>(
                  host.EdgeLabelsBetween(candidate, map[prev]).size()) ||
          need_in > static_cast<int>(
                        host.EdgeLabelsBetween(map[prev], candidate).size())) {
        consistent = false;
      }
    }
    if (!consistent) continue;
    map[next] = candidate;
    used[candidate] = true;
    if (ExtendMapping(pattern, host, map, used, next + 1)) return true;
    used[candidate] = false;
    map[next] = -1;
  }
  return false;
}

}  // namespace

bool StructurallySubgraphIsomorphic(const LabeledGraph& pattern,
                                    const LabeledGraph& host) {
  if (pattern.num_vertices() > host.num_vertices()) return false;
  if (pattern.num_edges() > host.num_edges()) return false;
  std::vector<int> map(pattern.num_vertices(), -1);
  std::vector<bool> used(host.num_vertices(), false);
  return ExtendMapping(pattern, host, map, used, 0);
}

int64_t CountTwoPaths(const LabeledGraph& g) {
  int64_t total = 0;
  for (int v = 0; v < g.num_vertices(); ++v) {
    for (int e_in : g.in_edges(v)) {
      for (int e_out : g.out_edges(v)) {
        if (g.edge(e_in).src != g.edge(e_out).dst) ++total;
      }
    }
  }
  return total;
}

std::unique_ptr<GedFilter> MakeCssFilter() {
  return std::make_unique<CssFilter>();
}
std::unique_ptr<GedFilter> MakePathFilter() {
  return std::make_unique<PathFilter>();
}
std::unique_ptr<GedFilter> MakeStarFilter() {
  return std::make_unique<StarFilter>();
}
std::unique_ptr<GedFilter> MakeParsFilter() {
  return std::make_unique<ParsFilter>();
}

}  // namespace simj::ged
