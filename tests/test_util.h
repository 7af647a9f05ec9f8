// Shared helpers for the test suite: small random graph generators with
// controllable label alphabets and seeded workload builders, used by the
// property-based and integration tests.

#ifndef SIMJ_TESTS_TEST_UTIL_H_
#define SIMJ_TESTS_TEST_UTIL_H_

#include <bit>
#include <cstdint>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "graph/label.h"
#include "graph/labeled_graph.h"
#include "graph/uncertain_graph.h"
#include "util/rng.h"
#include "workload/knowledge_base.h"
#include "workload/question_gen.h"
#include "workload/synthetic.h"

namespace simj::testing {

// FNV-1a over the bytes a golden digest covers. Integers hash as eight
// little-endian bytes, doubles as their bit pattern, strings as their
// length then their bytes.
class Fnv1a {
 public:
  void Bytes(const void* data, size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < size; ++i) {
      hash_ ^= bytes[i];
      hash_ *= 1099511628211ULL;
    }
  }
  void I64(int64_t value) {
    for (int shift = 0; shift < 64; shift += 8) {
      const unsigned char byte = static_cast<unsigned char>(
          static_cast<uint64_t>(value) >> shift);
      Bytes(&byte, 1);
    }
  }
  void F64(double value) {
    I64(static_cast<int64_t>(std::bit_cast<uint64_t>(value)));
  }
  void Str(const std::string& value) {
    I64(static_cast<int64_t>(value.size()));
    Bytes(value.data(), value.size());
  }
  std::string Hex() const {
    std::ostringstream out;
    out << std::hex << hash_;
    return out.str();
  }

 private:
  uint64_t hash_ = 14695981039346656037ULL;
};

// Reads a golden digest file: "name digest" lines, '#' comments.
inline std::map<std::string, std::string> ReadGoldenDigests(
    const std::string& path) {
  std::map<std::string, std::string> digests;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line.front() == '#') continue;
    std::istringstream fields(line);
    std::string name;
    std::string digest;
    fields >> name >> digest;
    digests[name] = digest;
  }
  return digests;
}

// Interns labels "L0".."L{n-1}" plus wildcards "?a".."?c".
inline std::vector<graph::LabelId> TestLabels(graph::LabelDictionary& dict,
                                              int n) {
  std::vector<graph::LabelId> labels;
  for (int i = 0; i < n; ++i) {
    // Built via += (not `"L" + std::to_string(i)`) to dodge the GCC 12
    // -Wrestrict false positive on char*-plus-rvalue-string (PR105651).
    std::string name = "L";
    name += std::to_string(i);
    labels.push_back(dict.Intern(name));
  }
  return labels;
}

// Random certain graph with `n` vertices and up to `m` edges (no self
// loops; parallel edges collapse by (src,dst,label) uniqueness not being
// enforced, which exercises the multigraph paths).
inline graph::LabeledGraph RandomCertainGraph(
    Rng& rng, const std::vector<graph::LabelId>& vertex_labels,
    const std::vector<graph::LabelId>& edge_labels, int n, int m) {
  graph::LabeledGraph g;
  for (int v = 0; v < n; ++v) {
    g.AddVertex(vertex_labels[rng.Uniform(0, vertex_labels.size() - 1)]);
  }
  if (n < 2) return g;
  for (int e = 0; e < m; ++e) {
    int src = static_cast<int>(rng.Uniform(0, n - 1));
    int dst = static_cast<int>(rng.Uniform(0, n - 1));
    if (src == dst) continue;
    g.AddEdge(src, dst, edge_labels[rng.Uniform(0, edge_labels.size() - 1)]);
  }
  return g;
}

// Random uncertain graph: each vertex gets 1..max_alts alternatives with a
// random probability simplex.
inline graph::UncertainGraph RandomUncertainGraph(
    Rng& rng, const std::vector<graph::LabelId>& vertex_labels,
    const std::vector<graph::LabelId>& edge_labels, int n, int m,
    int max_alts) {
  graph::UncertainGraph g;
  for (int v = 0; v < n; ++v) {
    int alts = static_cast<int>(rng.Uniform(1, max_alts));
    std::vector<double> probs = rng.RandomSimplex(alts, 1.0);
    std::vector<graph::LabelAlternative> alternatives;
    std::vector<bool> taken(vertex_labels.size(), false);
    for (int a = 0; a < alts; ++a) {
      int pick;
      do {
        pick = static_cast<int>(rng.Uniform(0, vertex_labels.size() - 1));
      } while (taken[pick]);
      taken[pick] = true;
      alternatives.push_back(
          graph::LabelAlternative{vertex_labels[pick], probs[a]});
    }
    g.AddVertex(std::move(alternatives));
  }
  if (n >= 2) {
    for (int e = 0; e < m; ++e) {
      int src = static_cast<int>(rng.Uniform(0, n - 1));
      int dst = static_cast<int>(rng.Uniform(0, n - 1));
      if (src == dst) continue;
      g.AddEdge(src, dst,
                edge_labels[rng.Uniform(0, edge_labels.size() - 1)]);
    }
  }
  return g;
}

// ---------------------------------------------------------------------------
// Seeded workload builders shared across join_test, pipeline_test and the
// property tests (one place to keep brute-force-tractable sizes).
// ---------------------------------------------------------------------------

// A complete random join instance: dictionary, certain side D, uncertain
// side U.
struct RandomJoinWorkload {
  graph::LabelDictionary dict;
  std::vector<graph::LabelId> vertex_labels;  // includes the wildcard, if any
  std::vector<graph::LabelId> edge_labels;
  std::vector<graph::LabeledGraph> d;
  std::vector<graph::UncertainGraph> u;
};

struct RandomJoinWorkloadOptions {
  int num_certain = 4;
  int num_uncertain = 4;
  int max_vertices = 4;    // per graph, drawn uniformly from [1, max]
  int max_edges = 5;       // edge draws per certain graph
  int max_uncertain_edges = 4;
  int max_alts = 3;        // candidate labels per uncertain vertex
  int vertex_label_pool = 5;
  int edge_label_pool = 2;
  bool add_wildcard = true;  // append "?x" to the vertex label pool
};

// Small random D/U sides sized so that a no-pruning ComputeSimP brute force
// over the whole cross product stays fast.
inline RandomJoinWorkload MakeRandomJoinWorkload(
    uint64_t seed, const RandomJoinWorkloadOptions& options = {}) {
  RandomJoinWorkload workload;
  Rng rng(seed);
  workload.vertex_labels = TestLabels(workload.dict, options.vertex_label_pool);
  if (options.add_wildcard) {
    workload.vertex_labels.push_back(workload.dict.Intern("?x"));
  }
  for (int i = 0; i < options.edge_label_pool; ++i) {
    std::string name = "r";
    name += std::to_string(i + 1);
    workload.edge_labels.push_back(workload.dict.Intern(name));
  }
  for (int i = 0; i < options.num_certain; ++i) {
    workload.d.push_back(RandomCertainGraph(
        rng, workload.vertex_labels, workload.edge_labels,
        static_cast<int>(rng.Uniform(1, options.max_vertices)),
        static_cast<int>(rng.Uniform(0, options.max_edges))));
  }
  for (int i = 0; i < options.num_uncertain; ++i) {
    workload.u.push_back(RandomUncertainGraph(
        rng, workload.vertex_labels, workload.edge_labels,
        static_cast<int>(rng.Uniform(1, options.max_vertices)),
        static_cast<int>(rng.Uniform(0, options.max_uncertain_edges)),
        options.max_alts));
  }
  return workload;
}

// A join workload with one HOT size-signature bucket and many cold ones:
// `hot_certain` certain graphs share the same (|V|, |E|) signature (so the
// shard planner cuts that bucket into many shards), while `cold_certain`
// graphs get unique, mostly-index-pruned signatures. Exercises the
// distributed join's work stealing: without stealing, the round-robin deal
// strands most of the hot bucket on a few workers.
inline RandomJoinWorkload MakeSkewedBucketWorkload(uint64_t seed,
                                                   int hot_certain = 24,
                                                   int cold_certain = 6,
                                                   int num_uncertain = 6) {
  RandomJoinWorkload workload;
  Rng rng(seed);
  workload.vertex_labels = TestLabels(workload.dict, 6);
  workload.vertex_labels.push_back(workload.dict.Intern("?x"));
  workload.edge_labels.push_back(workload.dict.Intern("r1"));
  workload.edge_labels.push_back(workload.dict.Intern("r2"));
  // Hot bucket: every graph is exactly (4 vertices, 3 edges).
  for (int i = 0; i < hot_certain; ++i) {
    graph::LabeledGraph g;
    for (int v = 0; v < 4; ++v) {
      g.AddVertex(workload.vertex_labels[rng.Uniform(
          0, static_cast<int64_t>(workload.vertex_labels.size()) - 1)]);
    }
    // A random spanning-ish triple of edges over distinct vertex pairs.
    g.AddEdge(0, 1 + static_cast<int>(rng.Uniform(0, 2)),
              workload.edge_labels[rng.Uniform(0, 1)]);
    g.AddEdge(1, 2 + static_cast<int>(rng.Uniform(0, 1)),
              workload.edge_labels[rng.Uniform(0, 1)]);
    g.AddEdge(2, 3, workload.edge_labels[rng.Uniform(0, 1)]);
    workload.d.push_back(std::move(g));
  }
  // Cold tail: one graph per distinct larger signature (8.. vertices), far
  // enough from the uncertain side that the index prunes most of them.
  for (int i = 0; i < cold_certain; ++i) {
    const int n = 8 + i;
    workload.d.push_back(RandomCertainGraph(rng, workload.vertex_labels,
                                            workload.edge_labels, n, n + 2));
  }
  // Uncertain side sized to match the hot bucket signature.
  for (int i = 0; i < num_uncertain; ++i) {
    workload.u.push_back(RandomUncertainGraph(
        rng, workload.vertex_labels, workload.edge_labels, 4, 3,
        /*max_alts=*/3));
  }
  return workload;
}

// Seeded question workload over an existing knowledge base (pipeline and
// template tests generate several of these per test).
inline workload::Workload MakeSeededWorkload(
    workload::KnowledgeBase& kb, uint64_t seed, int num_questions,
    int distractor_queries = 0) {
  workload::WorkloadConfig config;
  config.seed = seed;
  config.num_questions = num_questions;
  config.distractor_queries = distractor_queries;
  return workload::GenerateWorkload(kb, config);
}

// A scaled-down ER dataset from the synthetic generator: few enough
// possible worlds per uncertain graph (<= 2 alternatives on half the
// vertices) that exact SimP enumeration over every pair is cheap.
inline workload::SyntheticDataset MakeTinySyntheticDataset(
    uint64_t seed, int num_certain = 6, int num_uncertain = 6) {
  workload::SyntheticConfig config;
  config.seed = seed;
  config.num_certain = num_certain;
  config.num_uncertain = num_uncertain;
  config.num_vertices = 5;
  config.num_edges = 6;
  config.vertex_label_pool = 8;
  config.edge_label_pool = 3;
  config.labels_per_vertex = 2;
  config.uncertain_vertex_fraction = 0.5;
  config.perturbation_ops = 2;
  return workload::MakeErDataset(config);
}

}  // namespace simj::testing

#endif  // SIMJ_TESTS_TEST_UTIL_H_
