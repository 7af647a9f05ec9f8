// Tests for the per-pair explain mode: handcrafted workloads force each
// pruning stage (CSS structural, probabilistic Markov)
// and each verification outcome for a known pair, and the recorded
// PairExplain must name the right stage with the right evidence. Explain
// output must also be byte-identical at 1/2/8 threads.

#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/join.h"
#include "ged/lower_bounds.h"
#include "graph/label.h"
#include "graph/labeled_graph.h"
#include "graph/uncertain_graph.h"
#include "test_util.h"
#include "util/log.h"

namespace simj::core {
namespace {

using graph::LabelDictionary;
using graph::LabeledGraph;
using graph::UncertainGraph;

// One certain vertex with the given label.
LabeledGraph SingleVertex(graph::LabelId label) {
  LabeledGraph g;
  g.AddVertex(label);
  return g;
}

// One uncertain vertex with the given alternatives.
UncertainGraph SingleUncertainVertex(
    std::vector<graph::LabelAlternative> alternatives) {
  UncertainGraph g;
  g.AddVertex(std::move(alternatives));
  return g;
}

SimJParams ExplainAllParams(int tau, double alpha) {
  SimJParams params;
  params.tau = tau;
  params.alpha = alpha;
  params.explain.enabled = true;
  return params;
}

TEST(ExplainTest, StructuralPruneRecordsCssBound) {
  LabelDictionary dict;
  graph::LabelId a = dict.Intern("A");
  graph::LabelId b = dict.Intern("B");
  graph::LabelId r = dict.Intern("r");
  // q: a 3-vertex chain of Bs; g: a lone A vertex. The CSS bound has to
  // pay for the missing vertices and edges, so it exceeds tau = 0.
  LabeledGraph q;
  q.AddVertex(b);
  q.AddVertex(b);
  q.AddVertex(b);
  q.AddEdge(0, 1, r);
  q.AddEdge(1, 2, r);
  std::vector<LabeledGraph> d = {q};
  std::vector<UncertainGraph> u = {SingleUncertainVertex({{a, 1.0}})};

  JoinResult result = SimJoin(d, u, ExplainAllParams(/*tau=*/0, 0.5), dict);
  ASSERT_EQ(result.explains.size(), 1u);
  const PairExplain& explain = result.explains[0];
  EXPECT_EQ(explain.pruned_by, PruneStage::kStructural);
  EXPECT_GT(explain.css_lower_bound, 0);
  EXPECT_FALSE(explain.accepted);
  // The probabilistic stage never ran.
  EXPECT_EQ(explain.live_groups, -1);
  EXPECT_EQ(explain.worlds_enumerated, 0);
  EXPECT_NE(FormatExplain(explain, ExplainAllParams(0, 0.5))
                .find("PRUNED structural"),
            std::string::npos);
}

// An unsampled pair that the CSS cascade prunes with a bound below the exact
// one: its slow-pair line still prints the exact css_lb.
TEST(ExplainTest, SlowPairLineCarriesTheExactCssBound) {
  LabelDictionary dict;
  graph::LabelId a = dict.Intern("A");
  graph::LabelId b = dict.Intern("B");
  graph::LabelId r = dict.Intern("r");
  graph::LabelId s = dict.Intern("s");
  // Equal counts, so the count bound passes the pair to the CSS filter.
  // C = |V| + |E| - lambda_E = 3; min(|V|) = 2 prunes at tau = 0 with a
  // bound of 1, but only one q vertex can take g's B, so the exact bound
  // is C - lambda_V = 2.
  LabeledGraph q;
  q.AddVertex(b);
  q.AddVertex(b);
  q.AddEdge(0, 1, r);
  UncertainGraph g;
  g.AddVertex({{b, 1.0}});
  g.AddVertex({{a, 1.0}});
  g.AddEdge(0, 1, s);
  const int exact = ged::CssLowerBoundUncertain(q, g, dict);
  ASSERT_EQ(exact, 2);
  ASSERT_EQ(ged::CssPruneBound(ged::Summarize(q, dict),
                               ged::Summarize(g, dict), /*tau=*/0)
                .lower_bound,
            1);

  auto previous = log::SetSink(std::make_unique<log::CaptureSink>());
  SimJParams params;
  params.tau = 0;
  params.slow_pair_log_ms = std::numeric_limits<double>::min();
  const JoinResult result = SimJoin({q}, {g}, params, dict);
  const std::unique_ptr<log::Sink> capture = log::SetSink(std::move(previous));

  EXPECT_EQ(result.stats.pruned_structural, 1);
  int lines = 0;
  for (const log::Entry& entry :
       static_cast<const log::CaptureSink&>(*capture).Entries()) {
    if (entry.message.find("slow pair:") == std::string::npos) continue;
    ++lines;
    EXPECT_EQ(entry.level, log::Level::kWarn);
    EXPECT_NE(entry.message.find(
                  "<q=0,g=0> PRUNED structural: css_lb=2 > tau=0"),
              std::string::npos)
        << entry.message;
  }
  EXPECT_EQ(lines, 1);
}

TEST(ExplainTest, ProbabilisticPruneRecordsUpperBound) {
  LabelDictionary dict;
  graph::LabelId a = dict.Intern("A");
  graph::LabelId c = dict.Intern("C");
  // q: vertex A; g: vertex that is A with prob 0.3. The structural bound
  // passes (the A world has GED 0) but the Markov bound 0.3 < alpha = 0.5.
  std::vector<LabeledGraph> d = {SingleVertex(a)};
  std::vector<UncertainGraph> u = {
      SingleUncertainVertex({{a, 0.3}, {c, 0.7}})};

  SimJParams params = ExplainAllParams(/*tau=*/0, /*alpha=*/0.5);
  JoinResult result = SimJoin(d, u, params, dict);
  ASSERT_EQ(result.explains.size(), 1u);
  const PairExplain& explain = result.explains[0];
  EXPECT_EQ(explain.pruned_by, PruneStage::kProbabilistic);
  EXPECT_EQ(explain.css_lower_bound, 0);
  EXPECT_NEAR(explain.simp_upper_bound, 0.3, 1e-9);
  EXPECT_EQ(explain.live_groups, 1);
  EXPECT_EQ(explain.worlds_enumerated, 0);  // never verified
  EXPECT_NE(FormatExplain(explain, params).find("PRUNED probabilistic"),
            std::string::npos);
}

TEST(ExplainTest, AcceptedPairRecordsVerificationEvidence) {
  LabelDictionary dict;
  graph::LabelId a = dict.Intern("A");
  graph::LabelId c = dict.Intern("C");
  std::vector<LabeledGraph> d = {SingleVertex(a)};
  std::vector<UncertainGraph> u = {
      SingleUncertainVertex({{a, 0.8}, {c, 0.2}})};

  SimJParams params = ExplainAllParams(/*tau=*/0, /*alpha=*/0.5);
  JoinResult result = SimJoin(d, u, params, dict);
  ASSERT_EQ(result.pairs.size(), 1u);
  ASSERT_EQ(result.explains.size(), 1u);
  const PairExplain& explain = result.explains[0];
  EXPECT_EQ(explain.pruned_by, PruneStage::kNone);
  EXPECT_TRUE(explain.accepted);
  EXPECT_GE(explain.simp_probability, 0.5);
  EXPECT_TRUE(explain.early_accept);
  EXPECT_GT(explain.worlds_enumerated, 0);
  EXPECT_EQ(explain.best_world_ged, 0);
  EXPECT_NE(FormatExplain(explain, params).find("ACCEPT"), std::string::npos);
}

TEST(ExplainTest, RejectedPairRecordsVerificationEvidence) {
  LabelDictionary dict;
  graph::LabelId a = dict.Intern("A");
  graph::LabelId c = dict.Intern("C");
  std::vector<LabeledGraph> d = {SingleVertex(a)};
  std::vector<UncertainGraph> u = {
      SingleUncertainVertex({{a, 0.4}, {c, 0.6}})};

  // Disable the probabilistic filter so the pair reaches verification and
  // fails there (SimP = 0.4 < 0.5).
  SimJParams params = ExplainAllParams(/*tau=*/0, /*alpha=*/0.5);
  params.probabilistic_pruning = false;
  JoinResult result = SimJoin(d, u, params, dict);
  EXPECT_TRUE(result.pairs.empty());
  ASSERT_EQ(result.explains.size(), 1u);
  const PairExplain& explain = result.explains[0];
  EXPECT_EQ(explain.pruned_by, PruneStage::kNone);
  EXPECT_FALSE(explain.accepted);
  // The most probable world (C, 0.6) is bound-pruned first, after which the
  // remaining 0.4 cannot reach alpha: early reject with SimP still below it.
  EXPECT_LT(explain.simp_probability, 0.5);
  EXPECT_TRUE(explain.early_reject);
  EXPECT_GT(explain.worlds_enumerated, 0);
  EXPECT_NE(FormatExplain(explain, params).find("REJECT"), std::string::npos);
}

TEST(ExplainTest, SampleEveryAndPairListSelectDeterministically) {
  ExplainOptions options;
  options.enabled = true;
  options.sample_every = 3;
  int selected = 0;
  for (int q = 0; q < 10; ++q) {
    for (int g = 0; g < 10; ++g) {
      if (options.ShouldExplain(q, g)) ++selected;
      // Pure function: asking twice gives the same answer.
      EXPECT_EQ(options.ShouldExplain(q, g), options.ShouldExplain(q, g));
    }
  }
  EXPECT_GT(selected, 0);
  EXPECT_LT(selected, 100);

  ExplainOptions listed;
  listed.enabled = true;
  listed.pairs = {{2, 5}, {7, 1}};
  EXPECT_TRUE(listed.ShouldExplain(2, 5));
  EXPECT_TRUE(listed.ShouldExplain(7, 1));
  EXPECT_FALSE(listed.ShouldExplain(5, 2));

  ExplainOptions disabled;
  EXPECT_FALSE(disabled.ShouldExplain(0, 0));
}

TEST(ExplainTest, ExplainOutputIdenticalAcrossThreadCounts) {
  workload::SyntheticDataset data = testing::MakeTinySyntheticDataset(
      /*seed=*/321, /*num_certain=*/8, /*num_uncertain=*/8);
  SimJParams params;
  params.tau = 2;
  params.alpha = 0.5;
  params.group_count = 4;
  params.explain.enabled = true;

  params.num_threads = 1;
  JoinResult serial = SimJoin(data.certain, data.uncertain, params, data.dict);
  ASSERT_FALSE(serial.explains.empty());
  std::string serial_text = FormatExplains(serial, params);

  for (int threads : {2, 8}) {
    params.num_threads = threads;
    JoinResult parallel =
        SimJoin(data.certain, data.uncertain, params, data.dict);
    EXPECT_EQ(FormatExplains(parallel, params), serial_text)
        << "threads=" << threads;
    ASSERT_EQ(parallel.explains.size(), serial.explains.size());
    for (size_t i = 0; i < serial.explains.size(); ++i) {
      EXPECT_EQ(parallel.explains[i].pruned_by, serial.explains[i].pruned_by);
      EXPECT_EQ(parallel.explains[i].worlds_enumerated,
                serial.explains[i].worlds_enumerated);
    }
  }
}

TEST(ExplainTest, DisabledExplainLeavesResultEmpty) {
  workload::SyntheticDataset data =
      testing::MakeTinySyntheticDataset(/*seed=*/322);
  SimJParams params;
  params.tau = 1;
  params.alpha = 0.5;
  JoinResult result = SimJoin(data.certain, data.uncertain, params, data.dict);
  EXPECT_TRUE(result.explains.empty());
}

TEST(ExplainTest, WallSecondsMeasuredOnceAndCpuSecondsSum) {
  workload::SyntheticDataset data =
      testing::MakeTinySyntheticDataset(/*seed=*/323);
  SimJParams params;
  params.tau = 2;
  params.alpha = 0.5;
  params.num_threads = 4;
  JoinResult result = SimJoin(data.certain, data.uncertain, params, data.dict);
  EXPECT_GT(result.stats.wall_seconds, 0.0);
  EXPECT_GE(result.stats.TotalCpuSeconds(), 0.0);
  // Merging per-thread stats must leave wall_seconds untouched.
  JoinStats merged;
  MergeJoinStats(result.stats, &merged);
  EXPECT_DOUBLE_EQ(merged.wall_seconds, 0.0);
  EXPECT_DOUBLE_EQ(merged.pruning_cpu_seconds,
                   result.stats.pruning_cpu_seconds);
}

}  // namespace
}  // namespace simj::core
