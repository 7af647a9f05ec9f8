// simj-lint: allow-file(io) -- benchmark/example harness prints results to stdout.
// Microbenchmarks (google-benchmark) for the computational kernels: exact
// GED, the lower bounds, the probabilistic bound, bipartite matching,
// assignment, tree edit distance, token alignment and BGP evaluation.

#include <algorithm>
#include <functional>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "core/groups.h"
#include "core/join.h"
#include "core/similarity.h"
#include "ged/edit_distance.h"
#include "ged/lower_bounds.h"
#include "graph/uncertain_graph.h"
#include "matching/bipartite.h"
#include "matching/hungarian.h"
#include "nlp/dependency.h"
#include "rdf/triple_store.h"
#include "util/rng.h"
#include "workload/synthetic.h"

namespace {

using namespace simj;

struct PairFixture {
  graph::LabelDictionary dict;
  std::vector<graph::LabeledGraph> certain;
  std::vector<graph::UncertainGraph> uncertain;

  explicit PairFixture(int vertices, int edges) {
    workload::SyntheticConfig config;
    config.seed = 500;
    config.num_certain = 32;
    config.num_uncertain = 32;
    config.num_vertices = vertices;
    config.num_edges = edges;
    config.labels_per_vertex = 3;
    workload::SyntheticDataset data = workload::MakeErDataset(config);
    dict = std::move(data.dict);
    certain = std::move(data.certain);
    uncertain = std::move(data.uncertain);
  }
};

void BM_ExactGed(benchmark::State& state) {
  PairFixture fixture(static_cast<int>(state.range(0)),
                      static_cast<int>(state.range(0)) * 3 / 2);
  size_t i = 0;
  for (auto _ : state) {
    const auto& a = fixture.certain[i % fixture.certain.size()];
    const auto& b = fixture.certain[(i + 1) % fixture.certain.size()];
    benchmark::DoNotOptimize(ged::ExactGed(a, b, fixture.dict).distance);
    ++i;
  }
}
BENCHMARK(BM_ExactGed)->Arg(4)->Arg(6)->Arg(8);

void BM_BoundedGed(benchmark::State& state) {
  PairFixture fixture(10, 15);
  size_t i = 0;
  for (auto _ : state) {
    const auto& a = fixture.certain[i % fixture.certain.size()];
    const auto& b = fixture.certain[(i + 1) % fixture.certain.size()];
    benchmark::DoNotOptimize(
        ged::BoundedGed(a, b, static_cast<int>(state.range(0)), fixture.dict)
            .has_value());
    ++i;
  }
}
BENCHMARK(BM_BoundedGed)->Arg(1)->Arg(3);

// er_verify's GED calls: (certain graph, possible world) pairs of a
// 10-vertex, 16-edge ER dataset (40% of the vertices uncertain, 3 labels
// each) whose CSS bound is at most tau = 4, split by whether ged <= 4.
struct ErGedPairs {
  static constexpr int kTau = 4;
  static constexpr size_t kPairs = 32;
  graph::LabelDictionary dict;
  std::vector<std::pair<graph::LabeledGraph, graph::LabeledGraph>> accept;
  std::vector<std::pair<graph::LabeledGraph, graph::LabeledGraph>> reject;

  ErGedPairs() {
    workload::SyntheticConfig config;
    config.seed = 506;
    config.num_certain = 40;
    config.num_uncertain = 40;
    config.num_vertices = 10;
    config.num_edges = 16;
    config.labels_per_vertex = 3;
    config.perturbation_ops = 2;
    config.uncertain_vertex_fraction = 0.4;
    workload::SyntheticDataset data = workload::MakeErDataset(config);
    dict = std::move(data.dict);
    for (const auto& q : data.certain) {
      for (const auto& g : data.uncertain) {
        graph::PossibleWorldIterator it(g);
        graph::LabeledGraph world = g.Materialize(it.choice());
        if (ged::CssLowerBound(q, world, dict) > kTau) continue;
        auto& list =
            ged::BoundedGed(q, world, kTau, dict).has_value() ? accept : reject;
        if (list.size() < kPairs) list.emplace_back(q, std::move(world));
      }
    }
  }

  static const ErGedPairs& Get() {
    static const ErGedPairs pairs;
    return pairs;
  }
};

void BM_BoundedGedEr(benchmark::State& state) {
  const ErGedPairs& pairs = ErGedPairs::Get();
  const auto& list = state.range(0) == 1 ? pairs.accept : pairs.reject;
  size_t i = 0;
  for (auto _ : state) {
    const auto& [a, b] = list[i++ % list.size()];
    benchmark::DoNotOptimize(
        ged::BoundedGed(a, b, ErGedPairs::kTau, pairs.dict).has_value());
  }
}
BENCHMARK(BM_BoundedGedEr)->ArgName("accept")->Arg(1)->Arg(0);

void BM_GreedyGedUpperBoundEr(benchmark::State& state) {
  const ErGedPairs& pairs = ErGedPairs::Get();
  size_t i = 0;
  for (auto _ : state) {
    const auto& list = i % 2 == 0 ? pairs.accept : pairs.reject;
    const auto& [a, b] = list[(i / 2) % list.size()];
    benchmark::DoNotOptimize(ged::GreedyGedUpperBound(a, b, pairs.dict));
    ++i;
  }
}
BENCHMARK(BM_GreedyGedUpperBoundEr);

// One candidate pair of a join, the one whose verification weighs most by
// `weight` among the pairs the join verifies. Its live groups are split
// once, heaviest first as the join orders them, and each iteration runs
// VerifySimP over them.
struct CandidatePair {
  core::SimJParams params;
  graph::LabelDictionary dict;
  graph::LabeledGraph q;
  graph::UncertainGraph g;
  std::vector<graph::UncertainGraph> groups;
  double live_mass = 0.0;

  CandidatePair(const workload::SyntheticConfig& config,
                const core::SimJParams& params_in,
                int64_t core::PairExplain::*weight)
      : params(params_in) {
    workload::SyntheticDataset data = workload::MakeErDataset(config);
    params.explain.enabled = true;
    const core::JoinResult join =
        core::SimJoin(data.certain, data.uncertain, params, data.dict);
    const core::PairExplain* heaviest = nullptr;
    for (const core::PairExplain& e : join.explains) {
      if (heaviest == nullptr || e.*weight > heaviest->*weight) {
        heaviest = &e;
      }
    }
    dict = std::move(data.dict);
    q = data.certain[heaviest->q_index];
    g = data.uncertain[heaviest->g_index];
    core::GroupingOptions options;
    options.group_count = params.group_count;
    core::GroupingResult grouping =
        core::PartitionPossibleWorlds(q, g, params.tau, dict, options);
    std::sort(grouping.live_groups.begin(), grouping.live_groups.end(),
              [](const core::ScoredGroup& a, const core::ScoredGroup& b) {
                return a.mass > b.mass;
              });
    for (core::ScoredGroup& group : grouping.live_groups) {
      groups.push_back(std::move(group.graph));
    }
    live_mass = grouping.live_mass;
  }

  double Verify(bool witness, core::VerifyStats* stats) const {
    return core::VerifySimP(q, groups, live_mass, params.tau, params.alpha,
                            dict, ged::GedOptions(), stats, witness)
        .probability;
  }
};

// er_verify's candidate (the ErGedPairs dataset shape at tau = 4,
// alpha = 0.8, 8 groups) whose verification makes the most A* calls on the
// greedy-bound path; witness:1 accepts non-best worlds from earlier worlds'
// A* mappings, witness:0 from the greedy bound.
struct ErCandidatePair {
  static const CandidatePair& Get() {
    static const CandidatePair pair = [] {
      workload::SyntheticConfig config;
      config.seed = 506;
      config.num_certain = 40;
      config.num_uncertain = 40;
      config.num_vertices = 10;
      config.num_edges = 16;
      config.labels_per_vertex = 3;
      config.perturbation_ops = 2;
      config.uncertain_vertex_fraction = 0.4;
      core::SimJParams params;
      params.tau = 4;
      params.alpha = 0.8;
      params.group_count = 8;
      params.witness_accept = false;
      return CandidatePair(config, params, &core::PairExplain::ged_calls);
    }();
    return pair;
  }
};

void BM_VerifySimPEr(benchmark::State& state) {
  const CandidatePair& pair = ErCandidatePair::Get();
  const bool witness = state.range(0) == 1;
  core::VerifyStats stats;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pair.Verify(witness, &stats));
  }
  const double iterations = static_cast<double>(state.iterations());
  state.counters["ged_calls"] =
      static_cast<double>(stats.ged_calls) / iterations;
  state.counters["ub_accepts"] =
      static_cast<double>(stats.worlds_accepted_by_upper_bound) / iterations;
}
BENCHMARK(BM_VerifySimPEr)->ArgName("witness")->Arg(0)->Arg(1);

// er_filter's candidate (the perfbench er_filter input at seed 1: 400 x 400
// ER graphs of 10 vertices and 16 edges, half the vertices uncertain with
// 3 labels; tau = 1, alpha = 0.8, one group) whose verification visits the
// most possible worlds: the early-exit world walk at its longest.
void BM_VerifySimPErFilter(benchmark::State& state) {
  static const CandidatePair pair = [] {
    workload::SyntheticConfig config;
    config.seed = 1000003;
    config.num_certain = 400;
    config.num_uncertain = 400;
    config.num_vertices = 10;
    config.num_edges = 16;
    config.labels_per_vertex = 3;
    core::SimJParams params;
    params.tau = 1;
    params.alpha = 0.8;
    params.group_count = 1;
    return CandidatePair(config, params,
                         &core::PairExplain::worlds_enumerated);
  }();
  core::VerifyStats stats;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pair.Verify(pair.params.witness_accept, &stats));
  }
  const double iterations = static_cast<double>(state.iterations());
  state.counters["worlds"] =
      static_cast<double>(stats.worlds_enumerated) / iterations;
  state.counters["ged_calls"] =
      static_cast<double>(stats.ged_calls) / iterations;
}
BENCHMARK(BM_VerifySimPErFilter);

// The possible-world partition of the same pair at 8 groups (the join's
// Markov filter), from the summaries the join builds once per input graph.
void BM_PartitionPossibleWorldsEr(benchmark::State& state) {
  const CandidatePair& pair = ErCandidatePair::Get();
  const ged::GraphSummary q_summary = ged::Summarize(pair.q, pair.dict);
  const ged::GraphSummary g_summary = ged::Summarize(pair.g, pair.dict);
  core::GroupingOptions options;
  options.group_count = pair.params.group_count;
  size_t live_groups = 0;
  for (auto _ : state) {
    const core::GroupingResult grouping = core::PartitionPossibleWorlds(
        pair.q, q_summary, pair.g, g_summary, pair.params.tau, pair.dict,
        options);
    live_groups = grouping.live_groups.size();
    benchmark::DoNotOptimize(grouping.simp_upper_bound);
  }
  state.counters["live_groups"] = static_cast<double>(live_groups);
}
BENCHMARK(BM_PartitionPossibleWorldsEr);

void BM_CssLowerBoundCertain(benchmark::State& state) {
  PairFixture fixture(12, 18);
  size_t i = 0;
  for (auto _ : state) {
    const auto& a = fixture.certain[i % fixture.certain.size()];
    const auto& b = fixture.certain[(i + 1) % fixture.certain.size()];
    benchmark::DoNotOptimize(ged::CssLowerBound(a, b, fixture.dict));
    ++i;
  }
}
BENCHMARK(BM_CssLowerBoundCertain);

void BM_CssLowerBoundUncertain(benchmark::State& state) {
  PairFixture fixture(12, 18);
  size_t i = 0;
  for (auto _ : state) {
    const auto& q = fixture.certain[i % fixture.certain.size()];
    const auto& g = fixture.uncertain[i % fixture.uncertain.size()];
    benchmark::DoNotOptimize(ged::CssLowerBoundUncertain(q, g, fixture.dict));
    ++i;
  }
}
BENCHMARK(BM_CssLowerBoundUncertain);

// The join's form of the same bound: summaries built once, outside the loop.
void BM_CssLowerBoundUncertainSummarized(benchmark::State& state) {
  PairFixture fixture(12, 18);
  std::vector<ged::GraphSummary> certain;
  std::vector<ged::GraphSummary> uncertain;
  for (const auto& q : fixture.certain) {
    certain.push_back(ged::Summarize(q, fixture.dict));
  }
  for (const auto& g : fixture.uncertain) {
    uncertain.push_back(ged::Summarize(g, fixture.dict));
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ged::CssLowerBoundUncertain(
        certain[i % certain.size()], uncertain[i % uncertain.size()]));
    ++i;
  }
}
BENCHMARK(BM_CssLowerBoundUncertainSummarized);

// The join's structural filter on the er_filter shape (10 vertices, 16
// edges, half the vertices uncertain with 3 labels) at tau = 1, over all
// 32 x 32 pairs: cascade:0 is the exact kernel the join used to call,
// cascade:1 the C -> label-count -> matching cascade it calls now.
void BM_CssFilterErShape(benchmark::State& state) {
  PairFixture fixture(10, 16);
  std::vector<ged::GraphSummary> certain;
  std::vector<ged::GraphSummary> uncertain;
  for (const auto& q : fixture.certain) {
    certain.push_back(ged::Summarize(q, fixture.dict));
  }
  for (const auto& g : fixture.uncertain) {
    uncertain.push_back(ged::Summarize(g, fixture.dict));
  }
  const bool cascade = state.range(0) == 1;
  constexpr int kTau = 1;
  size_t i = 0;
  for (auto _ : state) {
    const ged::GraphSummary& q =
        certain[(i / uncertain.size()) % certain.size()];
    const ged::GraphSummary& g = uncertain[i % uncertain.size()];
    benchmark::DoNotOptimize(cascade
                                 ? ged::CssPruneBound(q, g, kTau).lower_bound
                                 : ged::CssLowerBoundUncertain(q, g));
    ++i;
  }
}
BENCHMARK(BM_CssFilterErShape)->ArgName("cascade")->Arg(0)->Arg(1);

void BM_UpperBoundSimP(benchmark::State& state) {
  PairFixture fixture(12, 18);
  size_t i = 0;
  for (auto _ : state) {
    const auto& q = fixture.certain[i % fixture.certain.size()];
    const auto& g = fixture.uncertain[i % fixture.uncertain.size()];
    benchmark::DoNotOptimize(core::UpperBoundSimP(q, g, 2, fixture.dict));
    ++i;
  }
}
BENCHMARK(BM_UpperBoundSimP);

// Rebuilds the graph through Reset() every iteration, as the CSS filter does
// once per pair: once warm, neither the rebuild nor the matching allocates.
void BM_HopcroftKarp(benchmark::State& state) {
  Rng rng(501);
  int n = static_cast<int>(state.range(0));
  std::vector<std::pair<int, int>> edges;
  for (int l = 0; l < n; ++l) {
    for (int r = 0; r < n; ++r) {
      if (rng.Bernoulli(0.3)) edges.emplace_back(l, r);
    }
  }
  matching::BipartiteGraph bipartite;
  for (auto _ : state) {
    bipartite.Reset(n, n);
    for (const auto& [l, r] : edges) bipartite.AddEdge(l, r);
    benchmark::DoNotOptimize(bipartite.MaxMatching());
  }
}
BENCHMARK(BM_HopcroftKarp)->Arg(8)->Arg(32)->Arg(128);

void BM_Hungarian(benchmark::State& state) {
  Rng rng(502);
  int n = static_cast<int>(state.range(0));
  std::vector<double> cost(static_cast<size_t>(n) * n);
  for (double& c : cost) c = rng.UniformDouble() * 10;
  for (auto _ : state) {
    benchmark::DoNotOptimize(matching::MinCostAssignment(cost, n, n));
  }
}
BENCHMARK(BM_Hungarian)->Arg(8)->Arg(32)->Arg(64);

void BM_TreeEditDistance(benchmark::State& state) {
  Rng rng(503);
  auto random_tree = [&](int n) {
    nlp::DepTree tree;
    for (int i = 0; i < n; ++i) {
      tree.nodes.push_back(
          {std::string(1, static_cast<char>('a' + rng.Uniform(0, 5))), {}});
      if (i > 0) {
        tree.nodes[rng.Uniform(0, i - 1)].children.push_back(i);
      }
    }
    tree.root = 0;
    return tree;
  };
  nlp::DepTree a = random_tree(static_cast<int>(state.range(0)));
  nlp::DepTree b = random_tree(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(nlp::TreeEditDistance(a, b));
  }
}
BENCHMARK(BM_TreeEditDistance)->Arg(6)->Arg(12)->Arg(24);

// A template "which <slot0> v1 v2 <slot1>" against a question of
// range(0) tokens whose spans a hash-set lexicon links about one time in
// three: the shape TemplateQa aligns for every template and question.
struct AlignInput {
  std::vector<std::string> tmpl = {"which", "<slot0>", "v1", "v2", "<slot1>"};
  std::vector<std::string> question;
  std::unordered_set<std::string> lexicon;
  std::function<bool(const std::string&)> linkable = [this](
      const std::string& span) { return lexicon.contains(span); };

  explicit AlignInput(int tokens) {
    Rng rng(505);
    const char* words[] = {"which", "v1", "v2", "w0", "w1", "w2", "w3"};
    question.push_back("which");
    for (int i = 1; i < tokens; ++i) {
      question.push_back(words[rng.Uniform(0, std::size(words) - 1)]);
    }
    for (int j = 0; j < tokens; ++j) {
      std::string span;
      for (int len = 1; len <= 3 && j + len <= tokens; ++len) {
        if (!span.empty()) span += ' ';
        span += question[j + len - 1];
        if (rng.Uniform(0, 2) == 0) lexicon.insert(span);
      }
    }
  }
};

// The one-shot overload: builds the slot indices and the span table (one
// validator call per span) on every call.
void BM_AlignTokens(benchmark::State& state) {
  AlignInput in(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        nlp::AlignTokens(in.tmpl, 2, in.question, &in.linkable));
  }
}
BENCHMARK(BM_AlignTokens)->Arg(6)->Arg(12)->Arg(24);

// TemplateQa's path: slot indices and span table built once, outside the
// loop, so only the DP and its backtrack are timed.
void BM_AlignTokensSharedSpans(benchmark::State& state) {
  AlignInput in(static_cast<int>(state.range(0)));
  std::vector<int> slot_of_token = nlp::SlotIndexPerToken(in.tmpl, 2);
  nlp::SlotSpanTable spans(in.question, &in.linkable);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        nlp::AlignTokens(in.tmpl, slot_of_token, 2, in.question, spans));
  }
}
BENCHMARK(BM_AlignTokensSharedSpans)->Arg(6)->Arg(12)->Arg(24);

void BM_BgpEvaluate(benchmark::State& state) {
  graph::LabelDictionary dict;
  rdf::TripleStore store;
  Rng rng(504);
  rdf::TermId knows = dict.Intern("knows");
  rdf::TermId type = dict.Intern("type");
  rdf::TermId person = dict.Intern("Person");
  std::vector<rdf::TermId> people;
  for (int i = 0; i < 500; ++i) {
    std::string person_name = "P";
    person_name += std::to_string(i);
    people.push_back(dict.Intern(person_name));
    store.Add(people.back(), type, person);
  }
  for (int i = 0; i < 3000; ++i) {
    store.Add(people[rng.Uniform(0, people.size() - 1)], knows,
              people[rng.Uniform(0, people.size() - 1)]);
  }
  rdf::TermId x = dict.Intern("?x");
  rdf::TermId y = dict.Intern("?y");
  rdf::TermId z = dict.Intern("?z");
  rdf::BgpQuery query;
  query.select_vars = {x, z};
  query.patterns = {rdf::TriplePattern{x, knows, y},
                    rdf::TriplePattern{y, knows, z},
                    rdf::TriplePattern{x, type, person}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.Evaluate(query, dict, 2000));
  }
}
BENCHMARK(BM_BgpEvaluate);

}  // namespace

// Expanded BENCHMARK_MAIN() so the shared bench flags (--json_out,
// --log_level, ...) are consumed before google-benchmark sees argv; the
// harness still emits a BenchResult run record via the shared atexit path.
int main(int argc, char** argv) {
  simj::bench::ConsumeSharedFlags(&argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
