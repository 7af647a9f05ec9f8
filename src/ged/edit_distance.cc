#include "ged/edit_distance.h"

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <queue>
#include <span>
#include <utility>
#include <vector>

#include "ged/lower_bounds.h"
#include "matching/hungarian.h"
#include "util/check.h"
#include "util/metrics.h"

namespace simj::ged {

namespace {

using graph::LabelCounts;
using graph::LabeledGraph;
using graph::LabelDictionary;
using graph::LabelId;
using graph::LabelRun;

// Dense local ids for the labels one call sees. Id 0 stands for every
// wildcard (a wildcard matches anything, so wildcards are interchangeable);
// the distinct non-wildcard labels get ids 1.. in ascending global order.
class LocalLabels {
 public:
  static constexpr int kWildcard = 0;

  void Clear() { labels_.clear(); }
  void Add(LabelId label, const LabelDictionary& dict) {
    if (!dict.IsWildcard(label)) labels_.push_back(label);
  }
  // Called once every label is added, before Local().
  void Seal() {
    std::sort(labels_.begin(), labels_.end());
    labels_.erase(std::unique(labels_.begin(), labels_.end()), labels_.end());
  }
  // Number of ids, the wildcard id included.
  int size() const { return static_cast<int>(labels_.size()) + 1; }
  int Local(LabelId label, const LabelDictionary& dict) const {
    if (dict.IsWildcard(label)) return kWildcard;
    const auto it = std::lower_bound(labels_.begin(), labels_.end(), label);
    SIMJ_DCHECK(it != labels_.end() && *it == label);
    return 1 + static_cast<int>(it - labels_.begin());
  }

 private:
  std::vector<LabelId> labels_;
};

// SubstitutionCost on local ids.
int LocalSubstitutionCost(int from, int to) {
  return from == to || from == LocalLabels::kWildcard ||
                 to == LocalLabels::kWildcard
             ? 0
             : 1;
}

// The parallel edges src -> dst of one ordered vertex pair: `total` labels,
// `wildcards` of them wildcards, the rest as `num_runs` ascending runs at
// FlatGraph::runs[begin..].
struct PairEdges {
  int begin = 0;
  int num_runs = 0;
  int wildcards = 0;
  int total = 0;
};

// One graph of a layout in local label ids, with the edge labels of every
// ordered vertex pair as one flat table of sorted runs.
struct FlatGraph {
  int n = 0;
  std::vector<int> vertex_label;
  std::vector<int> edge_label;   // of edges()[e]
  std::vector<PairEdges> pairs;  // n x n, row-major by (src, dst)
  std::vector<LabelRun> runs;
  std::vector<uint64_t> keys;    // build buffer: pair << 32 | label

  const PairEdges& Pair(int src, int dst) const {
    return pairs[static_cast<size_t>(src * n + dst)];
  }
  std::span<const LabelRun> Runs(const PairEdges& p) const {
    return {runs.data() + p.begin, static_cast<size_t>(p.num_runs)};
  }

  void Build(const LabeledGraph& g, const LocalLabels& vertex_ids,
             const LocalLabels& edge_ids, const LabelDictionary& dict) {
    BuildEdges(g, edge_ids, dict);
    for (int v = 0; v < n; ++v) {
      vertex_label[v] = vertex_ids.Local(g.vertex_label(v), dict);
    }
  }

  // Everything but the vertex labels, which the caller writes into
  // vertex_label (sized n here).
  void BuildEdges(const LabeledGraph& g, const LocalLabels& edge_ids,
                  const LabelDictionary& dict) {
    n = g.num_vertices();
    vertex_label.resize(static_cast<size_t>(n));
    edge_label.resize(g.edges().size());
    keys.clear();
    for (size_t e = 0; e < g.edges().size(); ++e) {
      const graph::Edge& edge = g.edges()[e];
      edge_label[e] = edge_ids.Local(edge.label, dict);
      keys.push_back(static_cast<uint64_t>(edge.src * n + edge.dst) << 32 |
                     static_cast<uint32_t>(edge_label[e]));
    }
    std::sort(keys.begin(), keys.end());
    pairs.assign(static_cast<size_t>(n * n), PairEdges{});
    runs.clear();
    for (uint64_t key : keys) {
      PairEdges& pair = pairs[key >> 32];
      const int label = static_cast<int>(key & 0xffffffffu);
      ++pair.total;
      if (label == LocalLabels::kWildcard) {
        ++pair.wildcards;
      } else if (pair.num_runs > 0 && runs.back().label == label) {
        // Keys are sorted, so the last run is this pair's.
        ++runs.back().count;
      } else {
        if (pair.num_runs == 0) pair.begin = static_cast<int>(runs.size());
        runs.push_back(LabelRun{label, 1});
        ++pair.num_runs;
      }
    }
  }
};

// EdgeSetCost of the parallel edges of pair `x` of `a` against pair `y` of
// `b`.
int PairCost(const FlatGraph& a, const PairEdges& x, const FlatGraph& b,
             const PairEdges& y) {
  if (x.total == 0) return y.total;
  if (y.total == 0) return x.total;
  return std::max(x.total, y.total) -
         graph::MatchableLabelCount(a.Runs(x), x.wildcards, b.Runs(y),
                                    y.wildcards);
}

// Both graphs of a call over shared local vertex-label and edge-label ids.
struct FlatPair {
  LocalLabels vertex_ids;
  LocalLabels edge_ids;
  FlatGraph a;
  FlatGraph b;

  void Build(const LabeledGraph& ga, const LabeledGraph& gb,
             const LabelDictionary& dict) {
    vertex_ids.Clear();
    edge_ids.Clear();
    for (const LabeledGraph* g : {&ga, &gb}) {
      for (int v = 0; v < g->num_vertices(); ++v) {
        vertex_ids.Add(g->vertex_label(v), dict);
      }
      for (const graph::Edge& e : g->edges()) edge_ids.Add(e.label, dict);
    }
    vertex_ids.Seal();
    edge_ids.Seal();
    a.Build(ga, vertex_ids, edge_ids, dict);
    b.Build(gb, vertex_ids, edge_ids, dict);
  }

  // `ga` against the shared structure of `groups`, restrictions of one
  // uncertain graph: the vertex-label ids cover every alternative of every
  // group, and b's vertex labels are left for SetWorld.
  void Build(const LabeledGraph& ga,
             std::span<const graph::UncertainGraph> groups,
             const LabelDictionary& dict) {
    vertex_ids.Clear();
    edge_ids.Clear();
    for (int v = 0; v < ga.num_vertices(); ++v) {
      vertex_ids.Add(ga.vertex_label(v), dict);
    }
    for (const graph::Edge& e : ga.edges()) edge_ids.Add(e.label, dict);
    for (const graph::UncertainGraph& group : groups) {
      for (int v = 0; v < group.num_vertices(); ++v) {
        for (const graph::LabelAlternative& alt : group.alternatives(v)) {
          vertex_ids.Add(alt.label, dict);
        }
      }
    }
    for (const graph::Edge& e : groups.front().edges()) {
      edge_ids.Add(e.label, dict);
    }
    vertex_ids.Seal();
    edge_ids.Seal();
    a.Build(ga, vertex_ids, edge_ids, dict);
    b.BuildEdges(groups.front().structure(), edge_ids, dict);
  }

  // Writes the labels of the world of `group` selected by `choice` into b.
  void SetWorld(const graph::UncertainGraph& group,
                const std::vector<int>& choice, const LabelDictionary& dict) {
    SIMJ_DCHECK_EQ(group.num_vertices(), b.n);
    for (int v = 0; v < b.n; ++v) {
      b.vertex_label[v] =
          vertex_ids.Local(group.alternatives(v)[choice[v]].label, dict);
    }
  }

  // MappingCost over the flat tables (`covered` is a buffer).
  int MappingCost(const LabeledGraph& gb, const std::vector<int>& mapping,
                  std::vector<char>* covered) const {
    int cost = 0;
    covered->assign(static_cast<size_t>(b.n), 0);
    for (int u = 0; u < a.n; ++u) {
      const int v = mapping[u];
      if (v < 0) {
        cost += 1;  // delete u
        continue;
      }
      (*covered)[v] = 1;
      cost += LocalSubstitutionCost(a.vertex_label[u], b.vertex_label[v]);
    }
    for (int v = 0; v < b.n; ++v) {
      if (!(*covered)[v]) cost += 1;  // insert v
    }
    for (int u1 = 0; u1 < a.n; ++u1) {
      for (int u2 = 0; u2 < a.n; ++u2) {
        if (u1 == u2) continue;
        const PairEdges& edges = a.Pair(u1, u2);
        const int v1 = mapping[u1];
        const int v2 = mapping[u2];
        cost += v1 < 0 || v2 < 0 ? edges.total
                                 : PairCost(a, edges, b, b.Pair(v1, v2));
      }
    }
    for (const graph::Edge& e : gb.edges()) {
      if (!(*covered)[e.src] || !(*covered)[e.dst]) cost += 1;
    }
    return cost;
  }
};

// Search state: vertices of `a` (in a fixed processing order) mapped one by
// one to distinct vertices of `b` or deleted (-1). Plain data: the decided
// prefix lives in the scratch's arena.
struct State {
  int f = 0;       // g_cost + heuristic
  int g_cost = 0;  // cost of the decided prefix
  int depth = 0;   // number of a-vertices decided
  uint64_t used = 0;  // bitmask over b's vertices
  int node = -1;   // arena entry of the last decision; -1 for the root
};

struct StateOrder {
  bool operator()(const State& lhs, const State& rhs) const {
    if (lhs.f != rhs.f) return lhs.f > rhs.f;   // min-heap on f
    return lhs.depth < rhs.depth;               // prefer deeper states
  }
};

// One decision of the arena: the a-vertex at depth d maps to `image` (a
// b-vertex, or -1 to delete it), after the decisions of entry `parent`.
struct Node {
  int parent = -1;
  int image = -1;
};

// The open list: a std::priority_queue whose storage a scratch keeps, so
// its capacity survives the call. Pushes and pops are the queue's own.
class OpenList
    : public std::priority_queue<State, std::vector<State>, StateOrder> {
 public:
  std::vector<State>& storage() { return c; }
};

// States a call may leave in the scratch's arena and open list.
constexpr size_t kRetainedStates = size_t{1} << 18;

}  // namespace

// Both graphs of a search laid out flat, with a's processing order and its
// pending label counts: everything the A* reads that no search changes.
// BoundedGed builds one per call; a WorldGed builds one per pair and
// rewrites only b's vertex labels from world to world.
struct GedLayout {
  FlatPair graphs;
  std::vector<int> order;     // processing order of a's vertices
  std::vector<int> position;  // position[v] = depth at which v is decided
  int vertex_ids = 0;         // row widths of the count arrays below
  int edge_ids = 0;
  // Row d: label counts of the a-vertices not yet decided at depth d
  // (order[d..]), and of the a-edges with an endpoint not yet decided.
  std::vector<int> pending_vertices;    // (n + 1) x vertex_ids
  std::vector<int> pending_edges;       // (n + 1) x edge_ids
  std::vector<int> pending_edge_total;  // n + 1

  // a's order and pending rows, once `graphs` is built.
  void BuildRows(const LabeledGraph& a) {
    const int n = a.num_vertices();
    order.resize(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) order[i] = i;
    // High-degree vertices first: they constrain edge costs early.
    std::sort(order.begin(), order.end(), [&](int x, int y) {
      if (a.degree(x) != a.degree(y)) return a.degree(x) > a.degree(y);
      return x < y;
    });
    position.resize(static_cast<size_t>(n));
    for (int d = 0; d < n; ++d) position[order[d]] = d;

    vertex_ids = graphs.vertex_ids.size();
    edge_ids = graphs.edge_ids.size();
    const size_t rows = static_cast<size_t>(n) + 1;
    pending_vertices.assign(rows * vertex_ids, 0);
    for (int d = n - 1; d >= 0; --d) {
      std::copy_n(&pending_vertices[(d + 1) * vertex_ids], vertex_ids,
                  &pending_vertices[d * vertex_ids]);
      ++pending_vertices[d * vertex_ids + graphs.a.vertex_label[order[d]]];
    }
    // An edge is pending at depth d iff one endpoint is decided at a
    // position >= d: count it in the row of its later endpoint, then sum
    // the rows from the bottom up.
    pending_edges.assign(rows * edge_ids, 0);
    pending_edge_total.assign(rows, 0);
    for (size_t e = 0; e < a.edges().size(); ++e) {
      const graph::Edge& edge = a.edges()[e];
      const int last = std::max(position[edge.src], position[edge.dst]);
      ++pending_edges[last * edge_ids + graphs.a.edge_label[e]];
      ++pending_edge_total[last];
    }
    for (int d = n - 1; d >= 0; --d) {
      for (int l = 0; l < edge_ids; ++l) {
        pending_edges[d * edge_ids + l] +=
            pending_edges[(d + 1) * edge_ids + l];
      }
      pending_edge_total[d] += pending_edge_total[d + 1];
    }
  }
};

namespace {

// The A*'s per-thread buffers, reused by the next search on the thread.
// Nothing in them outlives a search, so every layout shares them.
struct SearchScratch {
  // Label counts of the unused b-vertices and of the b-edges with an
  // unused endpoint, for the state being expanded (or one of its
  // children while it is made).
  std::vector<int> b_vertices;
  std::vector<int> b_edges;
  std::vector<Node> arena;
  OpenList open;
  std::vector<int> assignment;  // the expanded state's prefix
  // The expanded state's decided predecessors that were mapped: the a-pair
  // tables toward and from them, and their images.
  struct Mapped {
    const PairEdges* out = nullptr;
    const PairEdges* in = nullptr;
    int image = -1;
  };
  std::vector<Mapped> mapped;

  void Start(const GedLayout& layout) {
    b_vertices.resize(static_cast<size_t>(layout.vertex_ids));
    b_edges.resize(static_cast<size_t>(layout.edge_ids));
    arena.clear();
    open.storage().clear();
    assignment.resize(static_cast<size_t>(layout.graphs.a.n));
  }

  // Fills b_vertices and b_edges for `used`; returns the vertex and edge
  // totals.
  std::pair<int, int> CountUnusedB(const GedLayout& layout,
                                   const LabeledGraph& b, uint64_t used) {
    std::fill(b_vertices.begin(), b_vertices.end(), 0);
    std::fill(b_edges.begin(), b_edges.end(), 0);
    int vertices = 0;
    for (int v = 0; v < b.num_vertices(); ++v) {
      if ((used >> v) & 1) continue;
      ++b_vertices[layout.graphs.b.vertex_label[v]];
      ++vertices;
    }
    int edges = 0;
    for (size_t e = 0; e < b.edges().size(); ++e) {
      const graph::Edge& edge = b.edges()[e];
      if (((used >> edge.src) & 1) && ((used >> edge.dst) & 1)) continue;
      ++b_edges[layout.graphs.b.edge_label[e]];
      ++edges;
    }
    return {vertices, edges};
  }

  // Moves b-vertex v between unused (delta +1) and used (delta -1) in the
  // counts, with the b-edges joining it to a vertex of `used`; returns the
  // number of such edges.
  int MoveB(const GedLayout& layout, const LabeledGraph& b, uint64_t used,
            int v, int delta) {
    b_vertices[layout.graphs.b.vertex_label[v]] += delta;
    int closed = 0;
    for (int e : b.out_edges(v)) {
      if ((used >> b.edge(e).dst) & 1) {
        b_edges[layout.graphs.b.edge_label[e]] += delta;
        ++closed;
      }
    }
    for (int e : b.in_edges(v)) {
      if ((used >> b.edge(e).src) & 1) {
        b_edges[layout.graphs.b.edge_label[e]] += delta;
        ++closed;
      }
    }
    return closed;
  }

  // Admissible heuristic: label-multiset relaxation over the not-yet-decided
  // part of `a` and the unused part of `b` (b_vertices and b_edges, with
  // the given totals).
  int Heuristic(const GedLayout& layout, int depth, int b_vertex_total,
                int b_edge_total) const {
    const int vertex_ids = layout.vertex_ids;
    const int edge_ids = layout.edge_ids;
    const int* pv = &layout.pending_vertices[depth * vertex_ids];
    const int* pe = &layout.pending_edges[depth * edge_ids];
    const std::span<const int> a_vertices(pv + 1, vertex_ids - 1);
    const std::span<const int> a_edges(pe + 1, edge_ids - 1);
    const std::span<const int> unused_vertices(b_vertices.data() + 1,
                                               vertex_ids - 1);
    const std::span<const int> unused_edges(b_edges.data() + 1, edge_ids - 1);
    const int vertex_cost =
        std::max(layout.graphs.a.n - depth, b_vertex_total) -
        graph::MatchableLabelCount(a_vertices, pv[0], unused_vertices,
                                   b_vertices[0]);
    const int edge_cost =
        std::max(layout.pending_edge_total[depth], b_edge_total) -
        graph::MatchableLabelCount(a_edges, pe[0], unused_edges, b_edges[0]);
    return vertex_cost + edge_cost;
  }

  // Rebuilds the decided prefix of `state` into `assignment`.
  void Rebuild(const State& state) {
    int node = state.node;
    for (int d = state.depth - 1; d >= 0; --d) {
      assignment[d] = arena[node].image;
      node = arena[node].parent;
    }
  }

  // Frees the arena and open list after a search that grew them unusually
  // large, rather than keep that peak for the thread's life.
  void Trim() {
    if (arena.capacity() > kRetainedStates) std::vector<Node>().swap(arena);
    if (open.storage().capacity() > kRetainedStates) {
      std::vector<State>().swap(open.storage());
    }
  }
};

// GreedyGedUpperBound's per-thread scratch.
struct GreedyScratch {
  FlatPair graphs;
  std::vector<double> cost;  // (n + m) x (n + m), row-major
  std::vector<int> assignment;
  std::vector<int> mapping;
  std::vector<char> covered;
};

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

}  // namespace

int EdgeSetCost(const std::vector<LabelId>& from,
                const std::vector<LabelId>& to,
                const LabelDictionary& dict) {
  if (from.empty() && to.empty()) return 0;
  LabelCounts from_counts;
  for (LabelId l : from) ++from_counts[l];
  LabelCounts to_counts;
  for (LabelId l : to) ++to_counts[l];
  int matchable = MatchableLabelCount(from_counts, to_counts, dict);
  return static_cast<int>(std::max(from.size(), to.size())) - matchable;
}

int TrivialUpperBound(const LabeledGraph& a, const LabeledGraph& b) {
  return a.num_vertices() + a.num_edges() + b.num_vertices() + b.num_edges();
}

namespace {

// The A* over a built layout, whose b side is `b`'s structure with the
// vertex labels the layout holds: BoundedGed's one search loop.
std::optional<GedResult> Search(const GedLayout& layout, const LabeledGraph& b,
                                int tau, const GedOptions& options,
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

  const FlatGraph& fa = layout.graphs.a;
  const FlatGraph& fb = layout.graphs.b;
  const int n = fa.n;
  if (n == 0) {
    // Everything in b must be inserted.
    int distance = b.num_vertices() + b.num_edges();
    if (distance > tau) return std::nullopt;
    return GedResult{distance, {}};
  }

  thread_local SearchScratch s;
  // Trims the scratch on every return path.
  struct TrimOnReturn {
    SearchScratch& scratch;
    ~TrimOnReturn() { scratch.Trim(); }
  } trim_on_return{s};
  s.Start(layout);
  const int m = b.num_vertices();
  OpenList& open = s.open;

  {
    const auto [b_vertices, b_edges] = s.CountUnusedB(layout, b, 0);
    State root;
    root.f = s.Heuristic(layout, 0, b_vertices, b_edges);
    if (root.f > tau) return std::nullopt;
    open.push(root);
  }

  int64_t expansions = 0;
  CounterFlusher flush_expansions(expansions_total, expansions);
  size_t open_peak = open.size();
  GaugeMaxFlusher flush_open_peak(open_list_peak, open_peak);
  while (!open.empty()) {
    const State state = open.top();
    open.pop();
    if (state.f > tau) return std::nullopt;  // best possible exceeds tau

    if (state.depth == n) {
      // Completion cost was already folded in when the last vertex was
      // decided (see below), so this state is a full solution.
      s.Rebuild(state);
      GedResult result;
      result.distance = state.g_cost;
      result.mapping.assign(n, -1);
      for (int d = 0; d < n; ++d) {
        result.mapping[layout.order[d]] = s.assignment[d];
      }
      SIMJ_DCHECK_LE(result.distance, tau);
      return result;
    }

    if (++expansions > options.max_expansions) {
      aborted_total.Increment();
      if (aborted != nullptr) *aborted = true;
      return std::nullopt;
    }

    // The expanded state's prefix, once for all its children. Deciding u
    // costs, against every decided predecessor, the edit of the edges
    // between them: all of u's edges to it when either side is deleted.
    s.Rebuild(state);
    const int u = layout.order[state.depth];
    int delete_cost = 1;  // delete u
    int deleted_neighbors_cost = 0;
    s.mapped.clear();
    for (int d = 0; d < state.depth; ++d) {
      const int prev_u = layout.order[d];
      const PairEdges& out = fa.Pair(u, prev_u);
      const PairEdges& in = fa.Pair(prev_u, u);
      const int edges = out.total + in.total;
      delete_cost += edges;
      if (s.assignment[d] < 0) {
        deleted_neighbors_cost += edges;
      } else {
        s.mapped.push_back({&out, &in, s.assignment[d]});
      }
    }
    const auto [b_vertices, b_edges] = s.CountUnusedB(layout, b, state.used);
    const int depth = state.depth + 1;

    // Candidate images: every unused b-vertex, plus deletion.
    for (int v = -1; v < m; ++v) {
      if (v >= 0 && ((state.used >> v) & 1)) continue;
      State next;
      next.depth = depth;
      int child_vertices = b_vertices;
      int child_edges = b_edges;
      if (v < 0) {
        next.used = state.used;
        next.g_cost = state.g_cost + delete_cost;
      } else {
        next.used = state.used | (uint64_t{1} << v);
        int cost = LocalSubstitutionCost(fa.vertex_label[u],
                                         fb.vertex_label[v]) +
                   deleted_neighbors_cost;
        for (const SearchScratch::Mapped& prev : s.mapped) {
          cost += PairCost(fa, *prev.out, fb, fb.Pair(v, prev.image));
          cost += PairCost(fa, *prev.in, fb, fb.Pair(prev.image, v));
        }
        next.g_cost = state.g_cost + cost;
        child_vertices -= 1;
        child_edges -= s.MoveB(layout, b, state.used, v, -1);
      }
      if (depth == n) {
        // Completion: insert every unused b-vertex and every b-edge with an
        // unused endpoint.
        next.g_cost += child_vertices + child_edges;
        next.f = next.g_cost;
      } else {
        next.f = next.g_cost +
                 s.Heuristic(layout, depth, child_vertices, child_edges);
      }
      if (v >= 0) s.MoveB(layout, b, state.used, v, +1);
      if (next.f <= tau) {
        next.node = static_cast<int>(s.arena.size());
        s.arena.push_back(Node{state.node, v});
        open.push(next);
        if (open.size() > open_peak) open_peak = open.size();
      }
    }
  }
  return std::nullopt;
}

// Spare per-pair layouts of this thread: a WorldGed takes one at Build and
// gives it back when it ends, so a warm pair reuses the buffers of an
// earlier pair instead of allocating its own.
thread_local std::vector<std::unique_ptr<GedLayout>> spare_layouts;

}  // namespace

std::optional<GedResult> BoundedGed(const LabeledGraph& a,
                                    const LabeledGraph& b, int tau,
                                    const LabelDictionary& dict,
                                    const GedOptions& options,
                                    bool* aborted) {
  // The one-shot layout: a WorldGed's layout is never this one, so a call
  // here between two world searches leaves the pair's layout intact.
  thread_local GedLayout layout;
  layout.graphs.Build(a, b, dict);
  layout.BuildRows(a);
  std::optional<GedResult> result = Search(layout, b, tau, options, aborted);
  // Debug-mode postcondition: the mapping witnesses the distance and the
  // distance sits inside the lower/upper bound sandwich.
  if (result.has_value()) {
    SIMJ_DCHECK_OK(ValidateGedResult(a, b, *result, dict));
  }
  return result;
}

WorldGed::WorldGed() = default;
WorldGed::WorldGed(WorldGed&&) noexcept = default;
WorldGed& WorldGed::operator=(WorldGed&&) noexcept = default;

WorldGed::~WorldGed() {
  if (layout_ != nullptr) spare_layouts.push_back(std::move(layout_));
}

void WorldGed::Build(const LabeledGraph& a,
                     std::span<const graph::UncertainGraph> groups,
                     const LabelDictionary& dict) {
  SIMJ_CHECK(!groups.empty());
  if (layout_ == nullptr) {
    if (spare_layouts.empty()) {
      layout_ = std::make_unique<GedLayout>();
    } else {
      layout_ = std::move(spare_layouts.back());
      spare_layouts.pop_back();
    }
  }
  a_ = &a;
  dict_ = &dict;
  layout_->graphs.Build(a, groups, dict);
  layout_->BuildRows(a);
}

std::optional<GedResult> WorldGed::BoundedGed(
    const graph::UncertainGraph& group, const std::vector<int>& choice,
    int tau, const GedOptions& options, bool* aborted) {
  SIMJ_CHECK(layout_ != nullptr);
  layout_->graphs.SetWorld(group, choice, *dict_);
  std::optional<GedResult> result =
      Search(*layout_, group.structure(), tau, options, aborted);
  if (result.has_value()) {
    SIMJ_DCHECK_OK(ValidateGedResult(*a_, group.Materialize(choice), *result,
                                     *dict_));
  }
  return result;
}

int MappingCost(const LabeledGraph& a, const LabeledGraph& b,
                const std::vector<int>& mapping,
                const LabelDictionary& dict) {
  SIMJ_CHECK_EQ(static_cast<int>(mapping.size()), a.num_vertices());
  int cost = 0;
  std::vector<bool> used(b.num_vertices(), false);
  for (int u = 0; u < a.num_vertices(); ++u) {
    int v = mapping[u];
    if (v < 0) {
      cost += 1;  // delete u
      continue;
    }
    SIMJ_CHECK(v < b.num_vertices());
    SIMJ_CHECK(!used[v]);
    used[v] = true;
    cost += SubstitutionCost(dict, a.vertex_label(u), b.vertex_label(v));
  }
  for (int v = 0; v < b.num_vertices(); ++v) {
    if (!used[v]) cost += 1;  // insert v
  }
  // Edge costs: every ordered pair of a-vertices against its image pair;
  // b-edges touching an uncovered vertex are insertions.
  for (int u1 = 0; u1 < a.num_vertices(); ++u1) {
    for (int u2 = 0; u2 < a.num_vertices(); ++u2) {
      if (u1 == u2) continue;
      std::vector<graph::LabelId> a_labels = a.EdgeLabelsBetween(u1, u2);
      int v1 = mapping[u1];
      int v2 = mapping[u2];
      if (v1 < 0 || v2 < 0) {
        cost += static_cast<int>(a_labels.size());
      } else {
        cost += EdgeSetCost(a_labels, b.EdgeLabelsBetween(v1, v2), dict);
      }
    }
  }
  for (const graph::Edge& e : b.edges()) {
    if (!used[e.src] || !used[e.dst]) cost += 1;
  }
  return cost;
}

int GreedyGedUpperBound(const LabeledGraph& a, const LabeledGraph& b,
                        const LabelDictionary& dict,
                        std::vector<int>* mapping_out) {
  const int n = a.num_vertices();
  const int m = b.num_vertices();
  if (n == 0 || m == 0) {
    if (mapping_out != nullptr) mapping_out->assign(n, -1);
    return TrivialUpperBound(a, b);
  }

  thread_local GreedyScratch s;
  s.graphs.Build(a, b, dict);
  const FlatGraph& fa = s.graphs.a;
  const FlatGraph& fb = s.graphs.b;

  // Assignment over a square matrix of size n + m: rows 0..n-1 are
  // a-vertices, rows n.. are "insert" placeholders; columns 0..m-1 are
  // b-vertices, columns m.. are "delete" placeholders.
  const int size = n + m;
  s.cost.assign(static_cast<size_t>(size) * size, 0.0);
  const auto cost = [&](int row, int column) -> double& {
    return s.cost[static_cast<size_t>(row) * size + column];
  };
  for (int u = 0; u < n; ++u) {
    for (int v = 0; v < m; ++v) {
      // Substitution estimate: label cost plus half the degree difference
      // (each unmatched incident edge will cost at least an op somewhere).
      cost(u, v) =
          LocalSubstitutionCost(fa.vertex_label[u], fb.vertex_label[v]) +
          0.5 * std::abs(a.degree(u) - b.degree(v));
    }
    for (int v = m; v < size; ++v) {
      cost(u, v) = 1.0 + a.degree(u);  // delete u and its edges
    }
  }
  for (int u = n; u < size; ++u) {
    for (int v = 0; v < m; ++v) {
      cost(u, v) = 1.0 + b.degree(v);  // insert v and its edges
    }
  }
  matching::MinCostAssignment(s.cost, size, size, &s.assignment);
  s.mapping.assign(n, -1);
  for (int u = 0; u < n; ++u) {
    if (s.assignment[u] < m) s.mapping[u] = s.assignment[u];
  }
  const int upper = s.graphs.MappingCost(b, s.mapping, &s.covered);
  if (mapping_out != nullptr) *mapping_out = s.mapping;
  return upper;
}

GedResult ExactGed(const LabeledGraph& a, const LabeledGraph& b,
                   const LabelDictionary& dict, const GedOptions& options) {
  std::optional<GedResult> result =
      BoundedGed(a, b, TrivialUpperBound(a, b), dict, options);
  SIMJ_CHECK(result.has_value());
  return *std::move(result);
}

Status ValidateGedResult(const LabeledGraph& a, const LabeledGraph& b,
                         const GedResult& result,
                         const LabelDictionary& dict) {
  if (static_cast<int>(result.mapping.size()) != a.num_vertices()) {
    return InternalError("GED mapping size disagrees with |V(a)|");
  }
  std::vector<bool> used(b.num_vertices(), false);
  for (int u = 0; u < a.num_vertices(); ++u) {
    int v = result.mapping[u];
    if (v < -1 || v >= b.num_vertices()) {
      std::string message = "GED mapping sends vertex ";
      message += std::to_string(u);
      message += " to out-of-range target ";
      message += std::to_string(v);
      return InternalError(std::move(message));
    }
    if (v >= 0) {
      if (used[v]) {
        std::string message = "GED mapping is not injective: b-vertex ";
        message += std::to_string(v);
        message += " has two preimages";
        return InternalError(std::move(message));
      }
      used[v] = true;
    }
  }
  int witnessed = MappingCost(a, b, result.mapping, dict);
  if (witnessed != result.distance) {
    std::string message = "GED mapping witnesses cost ";
    message += std::to_string(witnessed);
    message += " but the solver reported distance ";
    message += std::to_string(result.distance);
    return InternalError(std::move(message));
  }
  int lower = CssLowerBound(a, b, dict);
  if (result.distance < lower) {
    std::string message = "reported GED ";
    message += std::to_string(result.distance);
    message += " is below the CSS lower bound ";
    message += std::to_string(lower);
    return InternalError(std::move(message));
  }
  int upper = GreedyGedUpperBound(a, b, dict);
  if (result.distance > upper) {
    std::string message = "reported GED ";
    message += std::to_string(result.distance);
    message += " exceeds the greedy upper bound ";
    message += std::to_string(upper);
    return InternalError(std::move(message));
  }
  return Status::Ok();
}

}  // namespace simj::ged
