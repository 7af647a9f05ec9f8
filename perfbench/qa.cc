// The qa workload: online question answering with templates built by the
// join. Why it exists and what it measures is in perfbench/NOTES.md.
//
// Templates are built with a serial join on purpose. Any join with
// num_threads != 1, and ShardedSimJoin, leave the LabelDictionary frozen
// for good; GenerateTemplate then interns "__slotK" labels and aborts on
// SIMJ_CHECK(!frozen()) in graph/label.cc. That defect is left in place
// for the program to fix; the benchmark does not route around it.
#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common.h"
#include "core/join.h"
#include "layers.h"
#include "nlp/dependency.h"
#include "nlp/semantic_graph.h"
#include "sparql/parser.h"
#include "spans.h"
#include "templates/qa.h"
#include "templates/template.h"
#include "util/mem.h"
#include "util/timer.h"
#include "workload/knowledge_base.h"
#include "workload/question_gen.h"

namespace perfbench {
namespace {

using simj::StatusOr;

// The knowledge base stands for a fixed database (DBpedia in the paper):
// its seed is fixed, and --seed draws the question workloads from it.
constexpr uint64_t kKbSeed = 42;
constexpr int kTrainQuestions = 800;
constexpr int kDistractorQueries = 200;
// Held-out questions; the timed loop cycles over them and always finishes
// the first pass, so each run answers at least this many (>= 10 samples
// lie beyond p99).
constexpr int kTestQuestions = 1200;
// Set-ups per run: one before the question loop and the rest between its
// chunks, so that their samples span the run rather than one burst at its
// start. setup_s and join_pairs_per_s are medians over them.
constexpr int kSetupReps = 7;
// Questions the traced run probes layer by layer.
constexpr int kProbedQuestions = 200;
// Uncertain graphs whose pairs the traced run probes layer by layer (all
// of D against each); the per-call costs need no more.
constexpr size_t kProbedUncertain = 100;

simj::core::SimJParams TemplateJoinParams() {
  simj::core::SimJParams params;
  params.tau = 1;
  params.alpha = 0.6;
  params.num_threads = 1;  // see the note at the top of this file
  return params;
}

struct QaSetup {
  std::unique_ptr<simj::workload::KnowledgeBase> kb;
  simj::workload::Workload train;
  simj::workload::Workload test;
  simj::workload::JoinSides sides;
  simj::core::JoinResult joined;
  simj::tmpl::TemplateStore store;
  double generate_s = 0.0;  // knowledge base and both workloads
  double join_s = 0.0;      // the template-building join
  double total_s = 0.0;
};

StatusOr<simj::tmpl::Template> GenerateFor(QaSetup& s,
                                           const simj::core::MatchedPair& pair) {
  return simj::tmpl::GenerateTemplate(
      s.train.sparql_queries[pair.q_index], s.sides.d_graphs[pair.q_index],
      s.sides.u_parsed[pair.g_index], s.sides.u_graphs[pair.g_index],
      pair.mapping, s.kb->dict());
}

QaSetup BuildSetup(uint64_t seed) {
  QaSetup s;
  simj::WallTimer total;
  s.generate_s = TimeSeconds([&] {
    simj::workload::KbConfig kb_config;
    kb_config.seed = kKbSeed;
    s.kb = std::make_unique<simj::workload::KnowledgeBase>(kb_config);
    simj::workload::WorkloadConfig train;
    train.seed = seed * 7919 + 2;
    train.num_questions = kTrainQuestions;
    train.distractor_queries = kDistractorQueries;
    s.train = simj::workload::GenerateWorkload(*s.kb, train);
    simj::workload::WorkloadConfig test;
    test.seed = seed * 7919 + 3;
    test.num_questions = kTestQuestions;
    s.test = simj::workload::GenerateWorkload(*s.kb, test);
  });
  s.sides = simj::workload::BuildJoinSides(*s.kb, s.train);
  s.join_s = TimeSeconds([&] {
    s.joined = simj::core::SimJoin(s.sides.d, s.sides.u, TemplateJoinParams(),
                                   s.kb->dict());
  });
  for (const simj::core::MatchedPair& pair : s.joined.pairs) {
    StatusOr<simj::tmpl::Template> t = GenerateFor(s, pair);
    if (t.ok()) s.store.Add(*std::move(t), s.kb->dict());
  }
  s.total_s = total.ElapsedSeconds();
  return s;
}

struct Reference {
  simj::StatusCode code = simj::StatusCode::kOk;
  std::vector<std::vector<simj::rdf::TermId>> rows;
};

// Closed loop, one client: answers the held-out questions one at a time,
// cycling. The first pass records each answer as the reference the later
// passes must reproduce; Score() rates those answers against the gold rows
// once the timed loop is over.
class AnswerLoop {
 public:
  AnswerLoop(const QaSetup& s, RunResult* result)
      : s_(s),
        qa_(&s.store, &s.kb->lexicon(), &s.kb->store(), &s.kb->dict()),
        reference_(s.test.questions.size()),
        result_(result) {}

  // Answers questions for `seconds`; with `finish_pass`, also until the
  // first pass over the questions is complete.
  void Run(double seconds, bool finish_pass) {
    const auto& questions = s_.test.questions;
    simj::WallTimer window;
    while (window.ElapsedSeconds() < seconds ||
           (finish_pass && next_ < questions.size())) {
      size_t k = next_ % questions.size();
      bool first_pass = next_ < questions.size();
      ++next_;
      simj::WallTimer timer;
      StatusOr<simj::tmpl::QaAnswer> answer = qa_.Answer(questions[k].text);
      latencies_s_.push_back(timer.ElapsedSeconds());
      ++result_->attempted;
      simj::StatusCode code = answer.status().code();
      bool ok = code == simj::StatusCode::kOk ||
                code == simj::StatusCode::kNotFound;
      if (first_pass) {
        reference_[k].code = code;
        if (answer.ok()) reference_[k].rows = answer->rows;
      } else {
        ok = ok && code == reference_[k].code &&
             (!answer.ok() || answer->rows == reference_[k].rows);
      }
      if (!ok) {
        ++result_->failed;
        result_->correct = false;
        result_->Note(Format("FAILED: question %zu: %s", k,
                             answer.status().ToString().c_str()));
      }
    }
    elapsed_s_ += window.ElapsedSeconds();
  }

  // Scores the first pass's answers against the gold rows. Call once, after
  // the first pass is complete.
  void Score() {
    const auto& questions = s_.test.questions;
    for (size_t k = 0; k < questions.size(); ++k) {
      auto gold = s_.kb->store().Evaluate(questions[k].gold_query.ToBgp(),
                                          s_.kb->dict());
      simj::tmpl::PrfScore score =
          simj::tmpl::ScoreAnswer(gold, reference_[k].rows);
      precision_ += score.precision;
      recall_ += score.recall;
      if (reference_[k].code == simj::StatusCode::kOk) ++answered_;
    }
  }

  const std::vector<double>& latencies_s() const { return latencies_s_; }
  double elapsed_s() const { return elapsed_s_; }
  // First-pass quality: share of questions answered, and macro F1 of the
  // mean precision and recall against the gold rows.
  double answered_frac() const { return answered_ / Questions(); }
  double f1() const {
    double p = precision_ / Questions(), r = recall_ / Questions();
    return Ratio(2 * p * r, p + r);
  }

 private:
  double Questions() const {
    return static_cast<double>(s_.test.questions.size());
  }

  const QaSetup& s_;
  simj::tmpl::TemplateQa qa_;
  std::vector<Reference> reference_;
  RunResult* result_;
  size_t next_ = 0;
  std::vector<double> latencies_s_;
  double elapsed_s_ = 0.0;
  int answered_ = 0;
  double precision_ = 0.0, recall_ = 0.0;
};

// Re-runs the stages of TemplateQa::Answer from outside for the first
// kProbedQuestions questions: ParseQuestion, AlignTokens against every
// template, TreeEditDistance for the templates clearing phi, and
// TripleStore::Evaluate of the executed query. Each question is one span
// id; the real Answer call is a child span too.
void ProbePass(const QaSetup& s, SpanRecorder& spans, int* parse_failures,
               int* candidates, double* rows) {
  simj::tmpl::TemplateQa qa(&s.store, &s.kb->lexicon(), &s.kb->store(),
                            &s.kb->dict());
  const simj::nlp::Lexicon& lexicon = s.kb->lexicon();
  std::function<bool(const std::string&)> validator =
      [&lexicon](const std::string& span) {
        return lexicon.FindEntity(span) != nullptr ||
               lexicon.FindClass(span) != nullptr;
      };
  const double min_phi = simj::tmpl::QaOptions().min_matching_proportion;
  *parse_failures = 0;
  *candidates = 0;
  *rows = 0.0;
  const auto& questions = s.test.questions;
  size_t n = std::min<size_t>(kProbedQuestions, questions.size());
  for (size_t k = 0; k < n; ++k) {
    const std::string& text = questions[k].text;
    ScopedSpan root(spans, "question", k);
    StatusOr<simj::tmpl::QaAnswer> answer = [&] {
      ScopedSpan span(spans, "templates.answer", k, root.index());
      return qa.Answer(text);
    }();
    std::optional<simj::nlp::DepTree> tree;
    {
      ScopedSpan span(spans, "nlp.parse_question", k, root.index());
      StatusOr<simj::nlp::ParsedQuestion> parsed =
          simj::nlp::ParseQuestion(text, lexicon);
      if (parsed.ok()) {
        tree = simj::nlp::BuildQuestionTree(*parsed);
      } else {
        ++*parse_failures;
      }
    }
    std::vector<std::string> tokens = simj::nlp::NormalizeQuestion(text);
    for (const simj::tmpl::Template& t : s.store.templates()) {
      std::optional<simj::nlp::TokenAlignment> alignment;
      {
        ScopedSpan span(spans, "nlp.align_tokens", k, root.index());
        alignment = simj::nlp::AlignTokens(t.nl_tokens, t.num_slots(), tokens,
                                           &validator);
      }
      if (!alignment.has_value() ||
          alignment->matching_proportion < min_phi - 1e-9) {
        continue;
      }
      ++*candidates;
      if (tree.has_value()) {
        ScopedSpan span(spans, "nlp.tree_edit_distance", k, root.index());
        volatile int ted = simj::nlp::TreeEditDistance(*tree, t.tree);
        (void)ted;
      }
    }
    if (answer.ok()) {
      ScopedSpan span(spans, "rdf.evaluate", k, root.index());
      *rows += static_cast<double>(
          s.kb->store().Evaluate(answer->executed.ToBgp(), s.kb->dict()).size());
    }
  }
}

}  // namespace

RunResult RunQaWorkload(const Options& options) {
  RunResult result;
  std::vector<double> setup_s, generate_s, join_s;
  auto record = [&](const QaSetup& setup) {
    setup_s.push_back(setup.total_s);
    generate_s.push_back(setup.generate_s);
    join_s.push_back(setup.join_s);
  };
  QaSetup s = BuildSetup(options.seed);
  record(s);
  double join_pairs = static_cast<double>(s.sides.d.size() * s.sides.u.size());

  // Every later set-up must reproduce the first one's join and templates.
  double window = options.trace ? options.seconds / 2 : options.seconds;
  double chunk = window / kSetupReps;
  AnswerLoop loop(s, &result);
  for (int r = 1; r < kSetupReps; ++r) {
    loop.Run(chunk, false);
    QaSetup again = BuildSetup(options.seed);
    record(again);
    ++result.attempted;
    if (!MatchesOracle(again.joined, s.joined) ||
        again.store.size() != s.store.size()) {
      ++result.failed;
      result.correct = false;
      result.Note("MISMATCH: a repeated set-up differs from the first");
    }
  }
  loop.Run(chunk, true);
  loop.Score();
  const std::vector<double>& latencies_s = loop.latencies_s();
  double f1 = loop.f1();
  double answered_frac = loop.answered_frac();

  result.Note(Format("# workload qa seed %llu: |D|=%zu |U|=%zu, %lld matched "
                     "pairs, %d templates; %zu test questions, %zu answered "
                     "in %.2f s",
                     static_cast<unsigned long long>(options.seed),
                     s.sides.d.size(), s.sides.u.size(),
                     static_cast<long long>(s.joined.pairs.size()),
                     s.store.size(), s.test.questions.size(),
                     latencies_s.size(), loop.elapsed_s()));

  double p50 = 1e3 * Median(latencies_s);
  double p99 = 1e3 * Quantile(latencies_s, 0.99);
  double per_s =
      Ratio(static_cast<double>(latencies_s.size()), loop.elapsed_s());
  result.Note(Format("# qa_latency_p50_ms %.4f qa_latency_p99_ms %.4f "
                     "(%zu samples) qa_per_s %.2f qa_answered_frac %.4f "
                     "qa_f1 %.4f error_frac %.6f",
                     p50, p99, latencies_s.size(), per_s, answered_frac,
                     f1,
                     Ratio(static_cast<double>(result.failed),
                           static_cast<double>(result.attempted))));
  if (!options.trace) {
    result.Add("setup_s", Median(setup_s), "s");
    result.Add("join_pairs_per_s", Ratio(join_pairs, Median(join_s)), "pairs/s");
    result.Add("op_latency_p50_ms", p50, "ms");
    result.Add("ops_per_s", per_s, "1/s");
    result.Add("peak_rss_mb", simj::mem::PeakRssBytes() / (1024.0 * 1024.0),
               "MiB");
    return result;
  }

  // ---- Traced run: per-layer metrics. ----
  LayerMetrics layers;
  SpanRecorder spans(true);
  std::vector<ProbeTimes> probes;

  layers.Set("workload.generate_s", Median(generate_s));
  double worlds = 0.0;
  for (const auto& g : s.sides.u) worlds += static_cast<double>(g.NumPossibleWorlds());
  layers.Set("graph.worlds_per_uncertain",
             Ratio(worlds, static_cast<double>(s.sides.u.size())));

  // The template-building join over the real query shapes.
  const simj::core::JoinStats& stats = s.joined.stats;
  SetJoinStatsMetrics(stats, &layers);
  layers.Set("ged.css_uncertain.calls", static_cast<double>(stats.total_pairs));
  layers.Set("core.pruning_cpu_s", stats.pruning_cpu_seconds);
  layers.Set("core.verification_cpu_s", stats.verification_cpu_seconds);
  layers.Set("util.pool.busy_frac",
             Ratio(stats.TotalCpuSeconds(), stats.wall_seconds));
  std::vector<simj::graph::UncertainGraph> u_head(
      s.sides.u.begin(),
      s.sides.u.begin() + std::min(kProbedUncertain, s.sides.u.size()));
  probes.push_back(ProbeJoinPairs(s.sides.d, u_head, TemplateJoinParams(),
                                  s.kb->dict(), Median(join_s), &spans,
                                  &layers));
  CountAllocations(
      [&] {
        (void)simj::core::SimJoin(s.sides.d, s.sides.u, TemplateJoinParams(),
                                  s.kb->dict());
      },
      static_cast<int64_t>(join_pairs), &layers, &result);

  // Set-up work of this workload, re-run with spans: template generation
  // over the matched pairs and parsing of the training queries.
  for (size_t i = 0; i < s.joined.pairs.size(); ++i) {
    ScopedSpan span(spans, "templates.generate", i);
    (void)GenerateFor(s, s.joined.pairs[i]);
  }
  for (size_t i = 0; i < s.train.sparql_texts.size(); ++i) {
    ScopedSpan span(spans, "sparql.parse", i);
    StatusOr<simj::sparql::ParsedQuery> parsed =
        simj::sparql::ParseSparql(s.train.sparql_texts[i], s.kb->dict());
    ++result.attempted;
    if (!parsed.ok()) {
      ++result.failed;
      result.correct = false;
      result.Note("FAILED: workload query does not parse: " +
                  parsed.status().ToString());
    }
  }

  // The online path, stage by stage.
  SpanRecorder off(false);
  int parse_failures = 0, candidates = 0;
  double rows = 0.0;
  ProbeTimes qa_probe;
  ProbePass(s, off, &parse_failures, &candidates, &rows);  // warm-up
  qa_probe.untraced_s = TimeSeconds(
      [&] { ProbePass(s, off, &parse_failures, &candidates, &rows); });
  qa_probe.traced_s = TimeSeconds(
      [&] { ProbePass(s, spans, &parse_failures, &candidates, &rows); });
  probes.push_back(qa_probe);
  std::map<std::string, SpanRecorder::NameStats> named = spans.Summarize();
  auto get = [&](const char* name) -> const SpanRecorder::NameStats& {
    static const SpanRecorder::NameStats kEmpty;
    auto it = named.find(name);
    return it == named.end() ? kEmpty : it->second;
  };
  const auto& answer = get("templates.answer");
  const auto& align = get("nlp.align_tokens");
  const auto& ted = get("nlp.tree_edit_distance");
  const auto& parse = get("nlp.parse_question");
  const auto& evaluate = get("rdf.evaluate");
  auto us_per_call = [](const SpanRecorder::NameStats& st) {
    return 1e6 * Ratio(st.total_s, static_cast<double>(st.count));
  };
  layers.Set("templates.store_size", s.store.size());
  layers.Set("templates.generate.us_per_call",
             us_per_call(get("templates.generate")));
  layers.Set("sparql.parse.us_per_call", us_per_call(get("sparql.parse")));
  double probed = static_cast<double>(answer.count);
  layers.Set("templates.answer.ms_p50", 1e3 * Median(answer.durations_s));
  layers.Set("templates.answer.ms_p99", 1e3 * Quantile(answer.durations_s, 0.99));
  layers.Set("templates.answered_frac", answered_frac);
  layers.Set("templates.f1", f1);
  layers.Set("templates.candidates_per_question", Ratio(candidates, probed));
  layers.Set("nlp.align_tokens.calls_per_question",
             Ratio(static_cast<double>(align.count), probed));
  layers.Set("nlp.align_tokens.ns_per_call",
             1e9 * Ratio(align.total_s, static_cast<double>(align.count)));
  layers.Set("nlp.tree_edit_distance.calls_per_question",
             Ratio(static_cast<double>(ted.count), probed));
  layers.Set("nlp.tree_edit_distance.us_per_call", us_per_call(ted));
  layers.Set("nlp.parse_question.us_per_call", us_per_call(parse));
  layers.Set("nlp.parse_fail_frac", Ratio(parse_failures, probed));
  layers.Set("rdf.evaluate.us_per_call", us_per_call(evaluate));
  layers.Set("rdf.rows_per_query",
             Ratio(rows, static_cast<double>(evaluate.count)));
  // Shares of TemplateQa::Answer's time, from the same stages re-run.
  layers.Set("share.nlp.align_tokens", Ratio(align.self_s, answer.self_s));
  layers.Set("share.nlp.tree_edit_distance", Ratio(ted.self_s, answer.self_s));
  layers.Set("share.nlp.parse_question", Ratio(parse.self_s, answer.self_s));
  layers.Set("share.rdf.evaluate", Ratio(evaluate.self_s, answer.self_s));

  SetTraceMetrics(probes, spans, &layers);
  if (!options.trace_out.empty() && !spans.WriteChromeTrace(options.trace_out)) {
    result.Note("could not write " + options.trace_out);
  }
  layers.Emit(&result);
  return result;
}

}  // namespace perfbench
