// The exact GED kernels as they were before the flat rewrite: BoundedGed,
// GreedyGedUpperBound and their helpers, with the nested-vector Hungarian
// they called, copied unchanged. ged_diff_test checks the flat kernels of
// ged/edit_distance.cc against them, step for step.
//
// Only the namespaces differ. The copy lives in simj::ged::reference, and
// the Hungarian in simj::ged::reference::matching, so that the copied
// `matching::MinCostAssignment(cost, &assignment)` call resolves to the
// copied solver. Everything else the copy calls (SubstitutionCost,
// EdgeSetCost, MappingCost, TrivialUpperBound, ValidateGedResult,
// MatchableLabelCount) is the public API of simj::ged and simj::graph.

#ifndef SIMJ_TESTS_GED_REFERENCE_H_
#define SIMJ_TESTS_GED_REFERENCE_H_

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <optional>
#include <queue>
#include <vector>

#include "ged/edit_distance.h"
#include "ged/lower_bounds.h"
#include "graph/label.h"
#include "graph/labeled_graph.h"
#include "util/check.h"
#include "util/metrics.h"

namespace simj::ged::reference {

namespace matching {

inline double MinCostAssignment(const std::vector<std::vector<double>>& cost,
                         std::vector<int>* assignment) {
  const int n = static_cast<int>(cost.size());
  if (n == 0) {
    if (assignment != nullptr) assignment->clear();
    return 0.0;
  }
  const int m = static_cast<int>(cost[0].size());
  SIMJ_CHECK_LE(n, m);
  for (const auto& row : cost) {
    SIMJ_CHECK_EQ(static_cast<int>(row.size()), m);
  }

  // Classic O(n^2 m) potentials formulation (1-indexed internals).
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> u(n + 1, 0.0), v(m + 1, 0.0);
  std::vector<int> p(m + 1, 0);      // p[j] = row matched to column j
  std::vector<int> way(m + 1, 0);

  for (int i = 1; i <= n; ++i) {
    p[0] = i;
    int j0 = 0;
    std::vector<double> minv(m + 1, kInf);
    std::vector<bool> used(m + 1, false);
    do {
      used[j0] = true;
      int i0 = p[j0];
      double delta = kInf;
      int j1 = 0;
      for (int j = 1; j <= m; ++j) {
        if (used[j]) continue;
        double cur = cost[i0 - 1][j - 1] - u[i0] - v[j];
        if (cur < minv[j]) {
          minv[j] = cur;
          way[j] = j0;
        }
        if (minv[j] < delta) {
          delta = minv[j];
          j1 = j;
        }
      }
      for (int j = 0; j <= m; ++j) {
        if (used[j]) {
          u[p[j]] += delta;
          v[j] -= delta;
        } else {
          minv[j] -= delta;
        }
      }
      j0 = j1;
    } while (p[j0] != 0);
    do {
      int j1 = way[j0];
      p[j0] = p[j1];
      j0 = j1;
    } while (j0 != 0);
  }

  if (assignment != nullptr) {
    assignment->assign(n, -1);
    for (int j = 1; j <= m; ++j) {
      if (p[j] > 0) (*assignment)[p[j] - 1] = j - 1;
    }
  }
  double total = 0.0;
  for (int j = 1; j <= m; ++j) {
    if (p[j] > 0) total += cost[p[j] - 1][j - 1];
  }
  return total;
}

}  // namespace matching

namespace {

using graph::LabelCounts;
using graph::LabeledGraph;
using graph::LabelDictionary;
using graph::LabelId;

// Search state: vertices of `a` (in a fixed processing order) mapped one by
// one to distinct vertices of `b` or deleted (-1). `used` is a bitmask over
// b's vertices.
struct State {
  int f = 0;      // g_cost + heuristic
  int g_cost = 0; // cost of the decided prefix
  int depth = 0;  // number of a-vertices decided
  uint64_t used = 0;
  std::vector<int> assignment;  // size == depth, values: b-vertex or -1
};

struct StateOrder {
  bool operator()(const State& lhs, const State& rhs) const {
    if (lhs.f != rhs.f) return lhs.f > rhs.f;   // min-heap on f
    return lhs.depth < rhs.depth;               // prefer deeper states
  }
};

// Precomputed per-graph data reused across the search.
struct SearchContext {
  const LabeledGraph& a;
  const LabeledGraph& b;
  const LabelDictionary& dict;
  std::vector<int> order;  // processing order of a's vertices

  // pending_vertex_labels[d]: multiset of labels of a-vertices not yet
  // decided at depth d (i.e. order[d..]).
  std::vector<LabelCounts> pending_vertex_labels;
  // pending_edge_labels[d]: labels of a-edges with at least one endpoint
  // not yet decided at depth d.
  std::vector<LabelCounts> pending_edge_labels;
  std::vector<int> pending_edge_total;  // sizes of the multisets above

  // position_in_order[v] = depth at which a-vertex v is decided.
  std::vector<int> position_in_order;
};

SearchContext BuildContext(const LabeledGraph& a, const LabeledGraph& b,
                           const LabelDictionary& dict) {
  SearchContext ctx{a, b, dict, {}, {}, {}, {}, {}};
  const int n = a.num_vertices();
  ctx.order.resize(n);
  for (int i = 0; i < n; ++i) ctx.order[i] = i;
  // High-degree vertices first: they constrain edge costs early.
  std::sort(ctx.order.begin(), ctx.order.end(), [&](int x, int y) {
    if (a.degree(x) != a.degree(y)) return a.degree(x) > a.degree(y);
    return x < y;
  });
  ctx.position_in_order.assign(n, 0);
  for (int d = 0; d < n; ++d) ctx.position_in_order[ctx.order[d]] = d;

  ctx.pending_vertex_labels.resize(n + 1);
  for (int d = n - 1; d >= 0; --d) {
    ctx.pending_vertex_labels[d] = ctx.pending_vertex_labels[d + 1];
    ++ctx.pending_vertex_labels[d][a.vertex_label(ctx.order[d])];
  }

  ctx.pending_edge_labels.resize(n + 1);
  ctx.pending_edge_total.assign(n + 1, 0);
  for (int d = 0; d <= n; ++d) {
    for (const graph::Edge& e : a.edges()) {
      // Pending at depth d iff either endpoint is decided at position >= d.
      if (ctx.position_in_order[e.src] >= d ||
          ctx.position_in_order[e.dst] >= d) {
        ++ctx.pending_edge_labels[d][e.label];
        ++ctx.pending_edge_total[d];
      }
    }
  }
  return ctx;
}

// Admissible heuristic: label-multiset relaxation over the not-yet-decided
// part of `a` and the not-yet-used part of `b`.
int Heuristic(const SearchContext& ctx, int depth, uint64_t used) {
  const int pending_a_vertices = ctx.a.num_vertices() - depth;
  LabelCounts b_vertex_labels;
  int pending_b_vertices = 0;
  for (int v = 0; v < ctx.b.num_vertices(); ++v) {
    if (used & (uint64_t{1} << v)) continue;
    ++b_vertex_labels[ctx.b.vertex_label(v)];
    ++pending_b_vertices;
  }
  int vertex_cost =
      std::max(pending_a_vertices, pending_b_vertices) -
      MatchableLabelCount(ctx.pending_vertex_labels[depth], b_vertex_labels,
                          ctx.dict);

  LabelCounts b_edge_labels;
  int pending_b_edges = 0;
  for (const graph::Edge& e : ctx.b.edges()) {
    bool src_used = (used >> e.src) & 1;
    bool dst_used = (used >> e.dst) & 1;
    if (src_used && dst_used) continue;
    ++b_edge_labels[e.label];
    ++pending_b_edges;
  }
  int edge_cost =
      std::max(ctx.pending_edge_total[depth], pending_b_edges) -
      MatchableLabelCount(ctx.pending_edge_labels[depth], b_edge_labels,
                          ctx.dict);
  return vertex_cost + edge_cost;
}

// Incremental cost of deciding a-vertex `u` (at `depth`) to map to b-vertex
// `v` (or -1): vertex substitution/deletion plus edge costs against every
// previously decided a-vertex.
int ExtensionCost(const SearchContext& ctx, const State& state, int u,
                  int v) {
  int cost = 0;
  if (v < 0) {
    cost += 1;  // delete u
  } else {
    cost += SubstitutionCost(ctx.dict, ctx.a.vertex_label(u),
                             ctx.b.vertex_label(v));
  }
  for (int d = 0; d < state.depth; ++d) {
    int prev_u = ctx.order[d];
    int prev_v = state.assignment[d];
    // Both directions between the pair.
    std::vector<LabelId> a_out = ctx.a.EdgeLabelsBetween(u, prev_u);
    std::vector<LabelId> a_in = ctx.a.EdgeLabelsBetween(prev_u, u);
    if (v < 0 || prev_v < 0) {
      cost += static_cast<int>(a_out.size() + a_in.size());
      continue;
    }
    std::vector<LabelId> b_out = ctx.b.EdgeLabelsBetween(v, prev_v);
    std::vector<LabelId> b_in = ctx.b.EdgeLabelsBetween(prev_v, v);
    cost += EdgeSetCost(a_out, b_out, ctx.dict);
    cost += EdgeSetCost(a_in, b_in, ctx.dict);
  }
  return cost;
}

// Flushes a locally accumulated count into a shared counter on scope exit,
// so the A* hot loop touches no atomics per expansion.
class CounterFlusher {
 public:
  CounterFlusher(metrics::Counter& counter, const int64_t& value)
      : counter_(counter), value_(value) {}
  ~CounterFlusher() {
    if (value_ > 0) counter_.Add(value_);
  }

 private:
  metrics::Counter& counter_;
  const int64_t& value_;
};

// Publishes a locally tracked high-water mark into a gauge on scope exit
// (one UpdateMax per call, whichever return path is taken).
class GaugeMaxFlusher {
 public:
  GaugeMaxFlusher(metrics::Gauge& gauge, const size_t& value)
      : gauge_(gauge), value_(value) {}
  ~GaugeMaxFlusher() { gauge_.UpdateMax(static_cast<double>(value_)); }

 private:
  metrics::Gauge& gauge_;
  const size_t& value_;
};

// Cost of completing a full assignment: insert every unused b-vertex and
// every b-edge with at least one unused endpoint.
int CompletionCost(const SearchContext& ctx, uint64_t used) {
  int cost = 0;
  for (int v = 0; v < ctx.b.num_vertices(); ++v) {
    if (!((used >> v) & 1)) ++cost;
  }
  for (const graph::Edge& e : ctx.b.edges()) {
    if (!((used >> e.src) & 1) || !((used >> e.dst) & 1)) ++cost;
  }
  return cost;
}

}  // namespace

inline std::optional<GedResult> BoundedGed(const LabeledGraph& a,
                                    const LabeledGraph& b, int tau,
                                    const LabelDictionary& dict,
                                    const GedOptions& options,
                                    bool* aborted) {
  SIMJ_CHECK_GE(tau, 0);
  SIMJ_CHECK_LE(b.num_vertices(), 64);
  static metrics::Counter& calls_total =
      metrics::Registry::Global().GetCounter("simj_ged_calls_total");
  static metrics::Counter& expansions_total =
      metrics::Registry::Global().GetCounter("simj_ged_expansions_total");
  static metrics::Counter& aborted_total =
      metrics::Registry::Global().GetCounter("simj_ged_aborted_total");
  static metrics::Gauge& open_list_peak =
      metrics::Registry::Global().GetGauge("simj_ged_open_list_peak");
  calls_total.Increment();
  if (aborted != nullptr) *aborted = false;

  SearchContext ctx = BuildContext(a, b, dict);
  const int n = a.num_vertices();

  if (n == 0) {
    // Everything in b must be inserted.
    int distance = b.num_vertices() + b.num_edges();
    if (distance > tau) return std::nullopt;
    return GedResult{distance, {}};
  }

  std::priority_queue<State, std::vector<State>, StateOrder> open;
  {
    State root;
    root.f = Heuristic(ctx, 0, 0);
    if (root.f > tau) return std::nullopt;
    open.push(std::move(root));
  }

  int64_t expansions = 0;
  CounterFlusher flush_expansions(expansions_total, expansions);
  size_t open_peak = open.size();
  GaugeMaxFlusher flush_open_peak(open_list_peak, open_peak);
  while (!open.empty()) {
    State state = open.top();
    open.pop();
    if (state.f > tau) return std::nullopt;  // best possible exceeds tau

    if (state.depth == n) {
      // Completion cost was already folded in when the last vertex was
      // decided (see below), so this state is a full solution.
      GedResult result;
      result.distance = state.g_cost;
      result.mapping.assign(n, -1);
      for (int d = 0; d < n; ++d) {
        result.mapping[ctx.order[d]] = state.assignment[d];
      }
      // Debug-mode postcondition: the mapping witnesses the distance and
      // the distance sits inside the lower/upper bound sandwich.
      SIMJ_DCHECK_OK(ValidateGedResult(a, b, result, dict));
      SIMJ_DCHECK_LE(result.distance, tau);
      return result;
    }

    if (++expansions > options.max_expansions) {
      aborted_total.Increment();
      if (aborted != nullptr) *aborted = true;
      return std::nullopt;
    }

    int u = ctx.order[state.depth];
    // Candidate images: every unused b-vertex, plus deletion.
    for (int v = -1; v < b.num_vertices(); ++v) {
      if (v >= 0 && ((state.used >> v) & 1)) continue;
      State next;
      next.depth = state.depth + 1;
      next.used = state.used | (v >= 0 ? (uint64_t{1} << v) : 0);
      next.assignment = state.assignment;
      next.assignment.push_back(v);
      next.g_cost = state.g_cost + ExtensionCost(ctx, state, u, v);
      if (next.depth == n) {
        next.g_cost += CompletionCost(ctx, next.used);
        next.f = next.g_cost;
      } else {
        next.f = next.g_cost + Heuristic(ctx, next.depth, next.used);
      }
      if (next.f <= tau) {
        open.push(std::move(next));
        if (open.size() > open_peak) open_peak = open.size();
      }
    }
  }
  return std::nullopt;
}

inline int GreedyGedUpperBound(const LabeledGraph& a, const LabeledGraph& b,
                        const LabelDictionary& dict,
                        std::vector<int>* mapping_out) {
  const int n = a.num_vertices();
  const int m = b.num_vertices();
  if (n == 0 || m == 0) {
    if (mapping_out != nullptr) mapping_out->assign(n, -1);
    return TrivialUpperBound(a, b);
  }

  // Assignment over a square matrix of size n + m: rows 0..n-1 are
  // a-vertices, rows n.. are "insert" placeholders; columns 0..m-1 are
  // b-vertices, columns m.. are "delete" placeholders.
  const int size = n + m;
  std::vector<std::vector<double>> cost(size, std::vector<double>(size, 0.0));
  for (int u = 0; u < n; ++u) {
    for (int v = 0; v < m; ++v) {
      // Substitution estimate: label cost plus half the degree difference
      // (each unmatched incident edge will cost at least an op somewhere).
      cost[u][v] =
          SubstitutionCost(dict, a.vertex_label(u), b.vertex_label(v)) +
          0.5 * std::abs(a.degree(u) - b.degree(v));
    }
    for (int v = m; v < size; ++v) {
      cost[u][v] = 1.0 + a.degree(u);  // delete u and its edges
    }
  }
  for (int u = n; u < size; ++u) {
    for (int v = 0; v < m; ++v) {
      cost[u][v] = 1.0 + b.degree(v);  // insert v and its edges
    }
  }
  std::vector<int> assignment;
  matching::MinCostAssignment(cost, &assignment);
  std::vector<int> mapping(n, -1);
  for (int u = 0; u < n; ++u) {
    if (assignment[u] < m) mapping[u] = assignment[u];
  }
  int upper = MappingCost(a, b, mapping, dict);
  if (mapping_out != nullptr) *mapping_out = std::move(mapping);
  return upper;
}


}  // namespace simj::ged::reference

#endif  // SIMJ_TESTS_GED_REFERENCE_H_
