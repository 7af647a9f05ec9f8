#include <algorithm>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/join.h"
#include "nlp/semantic_graph.h"
#include "nlp/uncertain_builder.h"
#include "sparql/parser.h"
#include "templates/baselines.h"
#include "templates/qa.h"
#include "templates/template.h"
#include "test_util.h"
#include "util/metrics.h"
#include "workload/knowledge_base.h"
#include "workload/question_gen.h"

#ifndef SIMJ_TEST_GOLDEN_DIR
#define SIMJ_TEST_GOLDEN_DIR "tests/golden"
#endif

namespace simj::tmpl {
namespace {

// A miniature world shared by the tests: the paper's running example
// (politicians, artists, universities) with one ambiguous entity phrase.
class TemplateFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    politician = dict.Intern("Politician");
    artist = dict.Intern("Artist");
    university = dict.Intern("University");
    company = dict.Intern("Company");
    type = dict.Intern("type");
    grad = dict.Intern("graduatedFrom");

    cit_u = dict.Intern("CIT_University");
    cit_c = dict.Intern("CIT_Group");
    harvard = dict.Intern("Harvard_University");
    obama = dict.Intern("Obama");
    warhol = dict.Intern("Warhol");

    lexicon.AddClassPhrase("politician",
                           nlp::ClassLink{politician, politician});
    lexicon.AddClassPhrase("artist", nlp::ClassLink{artist, artist});
    lexicon.AddRelationPhrase("graduated from",
                              nlp::PredicateLink{grad, 0.9});
    lexicon.AddEntityPhrase("cit", nlp::EntityLink{cit_u, university, 0.8});
    lexicon.AddEntityPhrase("cit", nlp::EntityLink{cit_c, company, 0.2});
    lexicon.AddEntityPhrase("harvard",
                            nlp::EntityLink{harvard, university, 1.0});

    store.Add(obama, type, politician);
    store.Add(warhol, type, artist);
    store.Add(obama, grad, cit_u);
    store.Add(warhol, grad, harvard);

    // Make the SPARQL side: "SELECT ?x WHERE { ?x type Artist . ?x
    // graduatedFrom Harvard_University }".
    auto parsed = sparql::ParseSparql(
        "SELECT ?x WHERE { ?x type Artist . ?x graduatedFrom "
        "Harvard_University . }",
        dict);
    ASSERT_TRUE(parsed.ok());
    query = *std::move(parsed);
    resolver = [this](rdf::TermId term) {
      return term == harvard ? university
                             : (term == cit_u ? university
                                              : graph::kInvalidLabel);
    };
    query_graph = sparql::BuildQueryGraph(query, dict, &resolver);

    // The NLQ side: "Which politician graduated from CIT?".
    auto parsed_question =
        nlp::ParseQuestion("Which politician graduated from CIT?", lexicon);
    ASSERT_TRUE(parsed_question.ok());
    question = *std::move(parsed_question);
    auto built = nlp::BuildUncertainGraph(question, lexicon, dict);
    ASSERT_TRUE(built.ok());
    question_graph = *std::move(built);
  }

  // Runs the join on the single pair and returns the mapping.
  std::vector<int> JoinMapping(int num_threads = 1) {
    core::SimJParams params;
    params.tau = 1;
    params.alpha = 0.7;
    params.num_threads = num_threads;
    core::JoinResult joined = core::SimJoin({query_graph.graph},
                                            {question_graph.graph}, params,
                                            dict);
    EXPECT_EQ(joined.pairs.size(), 1u);
    return joined.pairs.empty() ? std::vector<int>{} : joined.pairs[0].mapping;
  }

  graph::LabelDictionary dict;
  nlp::Lexicon lexicon;
  rdf::TripleStore store;
  graph::LabelId politician, artist, university, company, type, grad;
  rdf::TermId cit_u, cit_c, harvard, obama, warhol;
  sparql::ParsedQuery query;
  std::function<graph::LabelId(rdf::TermId)> resolver;
  sparql::QueryGraph query_graph;
  nlp::ParsedQuestion question;
  nlp::UncertainQuestionGraph question_graph;
};

TEST_F(TemplateFixture, GeneratesPaperStyleTemplate) {
  std::vector<int> mapping = JoinMapping();
  ASSERT_FALSE(mapping.empty());
  StatusOr<Template> t = GenerateTemplate(query, query_graph, question,
                                          question_graph, mapping, dict);
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  EXPECT_EQ(t->num_slots(), 2);
  // "which <_> graduated from <_>" (Fig. 4d).
  EXPECT_EQ(t->NlPattern(), "which <slot0> graduated from <slot1>");
  std::string pattern_text = sparql::ToSparqlText(t->pattern, dict);
  EXPECT_NE(pattern_text.find("type __slot0"), std::string::npos);
  EXPECT_NE(pattern_text.find("graduatedFrom __slot1"), std::string::npos);
  // Slot kinds: class slot for the wh-class, entity slot for CIT.
  EXPECT_EQ(t->slots[0].kind, SlotKind::kClass);
  EXPECT_EQ(t->slots[1].kind, SlotKind::kEntity);
  EXPECT_EQ(t->slots[1].expected_type, university);
}

// A parallel join freezes the dictionary only while it runs: template
// generation afterwards interns its slot labels (__slotK) as usual.
TEST_F(TemplateFixture, GeneratesTemplateAfterParallelJoin) {
  std::vector<int> mapping = JoinMapping(/*num_threads=*/2);
  ASSERT_FALSE(mapping.empty());
  EXPECT_FALSE(dict.frozen());
  StatusOr<Template> t = GenerateTemplate(query, query_graph, question,
                                          question_graph, mapping, dict);
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  EXPECT_EQ(t->NlPattern(), "which <slot0> graduated from <slot1>");
}

TEST_F(TemplateFixture, StoreDeduplicates) {
  std::vector<int> mapping = JoinMapping();
  StatusOr<Template> t1 = GenerateTemplate(query, query_graph, question,
                                           question_graph, mapping, dict);
  StatusOr<Template> t2 = GenerateTemplate(query, query_graph, question,
                                           question_graph, mapping, dict);
  ASSERT_TRUE(t1.ok());
  ASSERT_TRUE(t2.ok());
  TemplateStore template_store;
  EXPECT_TRUE(template_store.Add(*std::move(t1), dict));
  EXPECT_FALSE(template_store.Add(*std::move(t2), dict));
  EXPECT_EQ(template_store.size(), 1);
}

TEST_F(TemplateFixture, TemplateQaAnswersFreshQuestion) {
  std::vector<int> mapping = JoinMapping();
  StatusOr<Template> t = GenerateTemplate(query, query_graph, question,
                                          question_graph, mapping, dict);
  ASSERT_TRUE(t.ok());
  TemplateStore template_store;
  template_store.Add(*std::move(t), dict);

  TemplateQa qa(&template_store, &lexicon, &store, &dict);
  // Fresh question, different class and entity than the template's source.
  StatusOr<QaAnswer> answer = qa.Answer("Which artist graduated from Harvard?");
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  ASSERT_EQ(answer->rows.size(), 1u);
  EXPECT_EQ(answer->rows[0][0], warhol);
  EXPECT_EQ(answer->template_index, 0);
  EXPECT_DOUBLE_EQ(answer->matching_proportion, 1.0);
}

TEST_F(TemplateFixture, ExpectedTypeDisambiguatesEntitySlot) {
  // "CIT" top-links to the university; the template's expected type keeps
  // it there even though the raw top-1 would be right anyway — so flip the
  // lexicon to make top-1 the company and check the template still picks
  // the university.
  nlp::Lexicon flipped;
  flipped.AddClassPhrase("politician", nlp::ClassLink{politician, politician});
  flipped.AddClassPhrase("artist", nlp::ClassLink{artist, artist});
  flipped.AddRelationPhrase("graduated from", nlp::PredicateLink{grad, 0.9});
  flipped.AddEntityPhrase("cit", nlp::EntityLink{cit_c, company, 0.7});
  flipped.AddEntityPhrase("cit", nlp::EntityLink{cit_u, university, 0.3});

  std::vector<int> mapping = JoinMapping();
  StatusOr<Template> t = GenerateTemplate(query, query_graph, question,
                                          question_graph, mapping, dict);
  ASSERT_TRUE(t.ok());
  TemplateStore template_store;
  template_store.Add(*std::move(t), dict);

  TemplateQa qa(&template_store, &flipped, &store, &dict);
  StatusOr<QaAnswer> answer = qa.Answer("Which politician graduated from CIT?");
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  ASSERT_EQ(answer->rows.size(), 1u);
  EXPECT_EQ(answer->rows[0][0], obama);
}

TEST_F(TemplateFixture, NoTemplateMatchFails) {
  TemplateStore empty_store;
  TemplateQa qa(&empty_store, &lexicon, &store, &dict);
  EXPECT_FALSE(qa.Answer("Which politician graduated from CIT?").ok());
}

TEST_F(TemplateFixture, PhiThresholdRejectsPartialMatches) {
  std::vector<int> mapping = JoinMapping();
  StatusOr<Template> t = GenerateTemplate(query, query_graph, question,
                                          question_graph, mapping, dict);
  ASSERT_TRUE(t.ok());
  TemplateStore template_store;
  template_store.Add(*std::move(t), dict);
  TemplateQa qa(&template_store, &lexicon, &store, &dict);

  std::string long_question =
      "Which politician graduated from CIT and was elected somewhere in a "
      "landslide twice?";
  QaOptions strict;
  strict.min_matching_proportion = 0.95;
  EXPECT_FALSE(qa.Answer(long_question, strict).ok());
  QaOptions lenient;
  lenient.min_matching_proportion = 0.3;
  StatusOr<QaAnswer> answer = qa.Answer(long_question, lenient);
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_LT(answer->matching_proportion, 0.95);
}

TEST_F(TemplateFixture, DirectBaselineAnswers) {
  StatusOr<QaAnswer> answer = DirectGraphQa(
      "Which politician graduated from CIT?", lexicon, store, dict);
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  ASSERT_EQ(answer->rows.size(), 1u);
  EXPECT_EQ(answer->rows[0][0], obama);
}

TEST_F(TemplateFixture, GreedyBaselineLacksTypeConstraint) {
  StatusOr<QaAnswer> direct = DirectGraphQa(
      "Which artist graduated from Harvard?", lexicon, store, dict);
  StatusOr<QaAnswer> greedy = JointGreedyQa(
      "Which artist graduated from Harvard?", lexicon, store, dict);
  ASSERT_TRUE(direct.ok());
  ASSERT_TRUE(greedy.ok());
  // Both find Warhol; the greedy query has no type pattern.
  EXPECT_EQ(direct->rows, greedy->rows);
  EXPECT_GT(direct->executed.patterns.size(),
            greedy->executed.patterns.size());
}

TEST_F(TemplateFixture, StoreCountsSupport) {
  std::vector<int> mapping = JoinMapping();
  StatusOr<Template> t1 = GenerateTemplate(query, query_graph, question,
                                           question_graph, mapping, dict);
  StatusOr<Template> t2 = GenerateTemplate(query, query_graph, question,
                                           question_graph, mapping, dict);
  ASSERT_TRUE(t1.ok());
  ASSERT_TRUE(t2.ok());
  TemplateStore template_store;
  template_store.Add(*std::move(t1), dict);
  template_store.Add(*std::move(t2), dict);
  ASSERT_EQ(template_store.size(), 1);
  EXPECT_EQ(template_store.templates()[0].support_count, 2);
}

TEST_F(TemplateFixture, SerializationRoundTripsAndStillAnswers) {
  std::vector<int> mapping = JoinMapping();
  StatusOr<Template> t = GenerateTemplate(query, query_graph, question,
                                          question_graph, mapping, dict);
  ASSERT_TRUE(t.ok());
  t->support_simp = 0.8;
  t->support_ged = 1;
  TemplateStore original;
  original.Add(*std::move(t), dict);

  std::string text = SerializeTemplates(original, dict);
  StatusOr<TemplateStore> reloaded = ParseTemplates(text, dict);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  ASSERT_EQ(reloaded->size(), 1);
  const Template& round = reloaded->templates()[0];
  EXPECT_EQ(round.NlPattern(), original.templates()[0].NlPattern());
  EXPECT_EQ(round.slots.size(), original.templates()[0].slots.size());
  EXPECT_EQ(round.slots[1].expected_type, university);
  EXPECT_EQ(round.tree.size(), original.templates()[0].tree.size());
  EXPECT_NEAR(round.support_simp, 0.8, 1e-9);

  // The reloaded store must answer questions identically.
  TemplateQa qa(&*reloaded, &lexicon, &store, &dict);
  StatusOr<QaAnswer> answer = qa.Answer("Which artist graduated from Harvard?");
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  ASSERT_EQ(answer->rows.size(), 1u);
  EXPECT_EQ(answer->rows[0][0], warhol);
}

TEST_F(TemplateFixture, TiesBreakTowardHigherSupport) {
  // Two templates that align equally well with the question; the one with
  // more workload support must win. Build them by hand: identical NL
  // patterns, different SPARQL (one uses a bogus predicate).
  std::vector<int> mapping = JoinMapping();
  StatusOr<Template> good = GenerateTemplate(query, query_graph, question,
                                             question_graph, mapping, dict);
  ASSERT_TRUE(good.ok());
  Template bogus = *good;
  bogus.pattern.patterns[1].predicate = dict.Intern("unrelatedPredicate");

  TemplateStore template_store;
  // The bogus template enters first (so index order would favor it) but
  // the good one gets re-added for extra support.
  template_store.Add(bogus, dict);
  template_store.Add(*good, dict);
  template_store.Add(*std::move(good), dict);
  ASSERT_EQ(template_store.size(), 2);
  ASSERT_GT(template_store.templates()[1].support_count,
            template_store.templates()[0].support_count);

  TemplateQa qa(&template_store, &lexicon, &store, &dict);
  StatusOr<QaAnswer> answer = qa.Answer("Which politician graduated from CIT?");
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_EQ(answer->template_index, 1);  // the supported template
  ASSERT_EQ(answer->rows.size(), 1u);
  EXPECT_EQ(answer->rows[0][0], obama);
}

TEST(TemplateParseTest, RejectsMalformedInput) {
  graph::LabelDictionary dict;
  EXPECT_FALSE(ParseTemplates("TEMPLATE\nNL which x\nEND\n", dict).ok());
  EXPECT_FALSE(ParseTemplates("END\n", dict).ok());
  EXPECT_FALSE(ParseTemplates("TEMPLATE\nGARBAGE\nEND\n", dict).ok());
  EXPECT_FALSE(ParseTemplates("TEMPLATE\nNL a\n", dict).ok());
  StatusOr<TemplateStore> empty = ParseTemplates("", dict);
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty->size(), 0);
}

TEST(TemplateParseTest, RejectsDeeplyNestedTree) {
  graph::LabelDictionary dict;
  std::string tree;
  for (int i = 0; i < 100000; ++i) tree += "(\"x\" ";
  tree += std::string(100000, ')');
  StatusOr<TemplateStore> parsed =
      ParseTemplates("TEMPLATE\nTREE " + tree + "\nEND\n", dict);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(parsed.status().message().find("nested deeper"),
            std::string::npos)
      << parsed.status().ToString();
}

TEST(TemplateParseTest, RejectsUnknownSlotKind) {
  graph::LabelDictionary dict;
  StatusOr<TemplateStore> parsed =
      ParseTemplates("TEMPLATE\nSLOT literal -\nEND\n", dict);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(parsed.status().message().find("unknown SLOT kind 'literal'"),
            std::string::npos)
      << parsed.status().ToString();
}

TEST(TemplateParseTest, RejectsNonNumericSupport) {
  graph::LabelDictionary dict;
  for (const char* support : {"x 0.5 1", "2 high 1", "2 0.5 1.5", "2 0.5 1x",
                              "99999999999 0.5 1"}) {
    StatusOr<TemplateStore> parsed = ParseTemplates(
        std::string("TEMPLATE\nSUPPORT ") + support + "\nEND\n", dict);
    ASSERT_FALSE(parsed.ok()) << support;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << support;
    EXPECT_NE(parsed.status().message().find("SUPPORT fields"),
              std::string::npos)
        << parsed.status().ToString();
  }
}

// A template whose slot markers are exercised by the decoder: two SLOT
// lines, so markers 0 and 1 are valid.
std::string TemplateText(const std::string& nl, const std::string& object) {
  return "TEMPLATE\nNL " + nl + "\nSPARQL SELECT ?x WHERE { ?x type __slot0 . ?x "
         "graduatedFrom " + object + " . }\nSLOT class -\nSLOT entity -\nEND\n";
}

void ExpectRejectedMarker(const std::string& text, const std::string& marker) {
  graph::LabelDictionary dict;
  StatusOr<TemplateStore> parsed = ParseTemplates(text, dict);
  ASSERT_FALSE(parsed.ok()) << marker;
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << marker;
  EXPECT_NE(parsed.status().message().find("slot marker '" + marker + "'"),
            std::string::npos)
      << parsed.status().ToString();
}

TEST(TemplateParseTest, AcceptsWellFormedSlotMarkers) {
  graph::LabelDictionary dict;
  StatusOr<TemplateStore> parsed = ParseTemplates(
      TemplateText("which <slot0> graduated from <slot1>", "__slot1"), dict);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->size(), 1);
  EXPECT_EQ(parsed->templates()[0].slot_of_token,
            (std::vector<int>{-1, 0, -1, -1, 1}));
}

TEST(TemplateParseTest, RejectsOutOfRangeSlotMarker) {
  ExpectRejectedMarker(
      TemplateText("which <slot0> graduated from <slot2>", "__slot1"),
      "<slot2>");
  ExpectRejectedMarker(
      TemplateText("which <slot0> graduated from <slot1>", "__slot2"),
      "__slot2");
  // Far past int: std::atoi on this was undefined behaviour.
  ExpectRejectedMarker(
      TemplateText("which <slot0> graduated from <slot99999999999999999999>",
                   "__slot1"),
      "<slot99999999999999999999>");
}

TEST(TemplateParseTest, RejectsNonNumericSlotMarker) {
  ExpectRejectedMarker(
      TemplateText("which <slot0> graduated from <slotx>", "__slot1"),
      "<slotx>");
  ExpectRejectedMarker(
      TemplateText("which <slot0> graduated from <slot-1>", "__slot1"),
      "<slot-1>");
  ExpectRejectedMarker(
      TemplateText("which <slot0> graduated from <slot1>", "__slot1b"),
      "__slot1b");
}

TEST(TemplateParseTest, RejectsBareSlotMarker) {
  // A bare marker used to bind slot 0 silently.
  ExpectRejectedMarker(
      TemplateText("which <slot0> graduated from <slot>", "__slot1"),
      "<slot>");
  ExpectRejectedMarker(
      TemplateText("which <slot0> graduated from <slot1>", "__slot"),
      "__slot");
}

TEST(ScoreAnswerTest, Cases) {
  std::vector<std::vector<rdf::TermId>> gold = {{1}, {2}};
  PrfScore perfect = ScoreAnswer(gold, {{1}, {2}});
  EXPECT_DOUBLE_EQ(perfect.f1, 1.0);

  PrfScore half = ScoreAnswer(gold, {{1}, {3}});
  EXPECT_DOUBLE_EQ(half.precision, 0.5);
  EXPECT_DOUBLE_EQ(half.recall, 0.5);

  PrfScore nothing = ScoreAnswer(gold, {});
  EXPECT_DOUBLE_EQ(nothing.f1, 0.0);

  PrfScore both_empty = ScoreAnswer({}, {});
  EXPECT_DOUBLE_EQ(both_empty.f1, 1.0);

  PrfScore dup = ScoreAnswer(gold, {{1}, {1}, {2}});
  EXPECT_DOUBLE_EQ(dup.precision, 1.0);  // duplicates collapse
  EXPECT_DOUBLE_EQ(dup.recall, 1.0);
}


// ---------------------------------------------------------------------------
// Golden Q/A digest: templates built by a serial join over a seeded KB-42
// workload answer held-out questions, and every answer is hashed (status
// code, chosen template, phi bit pattern, tree edit distance, executed
// pattern, sorted answer rows). The digest in tests/golden/qa_digest_v1.txt
// was recorded before the answering path was optimized; a change here means
// some question is answered differently.

class QaWorld {
 public:
  QaWorld() : kb_(workload::KbConfig{.seed = 42}) {
    workload::Workload train = simj::testing::MakeSeededWorkload(
        kb_, /*seed=*/7, /*num_questions=*/200, /*distractor_queries=*/60);
    workload::JoinSides sides = workload::BuildJoinSides(kb_, train);
    core::SimJParams params;
    params.tau = 1;
    params.alpha = 0.6;
    core::JoinResult joined =
        core::SimJoin(sides.d, sides.u, params, kb_.dict());
    for (const core::MatchedPair& pair : joined.pairs) {
      StatusOr<Template> t = GenerateTemplate(
          train.sparql_queries[pair.q_index], sides.d_graphs[pair.q_index],
          sides.u_parsed[pair.g_index], sides.u_graphs[pair.g_index],
          pair.mapping, kb_.dict());
      if (t.ok()) store_.Add(*std::move(t), kb_.dict());
    }
    workload::Workload test = simj::testing::MakeSeededWorkload(
        kb_, /*seed=*/8, /*num_questions=*/200);
    for (const workload::QuestionInstance& question : test.questions) {
      questions_.push_back(question.text);
    }
    // Odd inputs: empty, punctuation only, and two questions run together.
    questions_.push_back("");
    questions_.push_back("?");
    questions_.push_back(test.questions.front().text + " " +
                         test.questions.back().text);
  }

  workload::KnowledgeBase& kb() { return kb_; }
  const TemplateStore& store() const { return store_; }
  const std::vector<std::string>& questions() const { return questions_; }

 private:
  workload::KnowledgeBase kb_;
  TemplateStore store_;
  std::vector<std::string> questions_;
};

// Built once: the join dominates the cost of every test below.
QaWorld& SharedQaWorld() {
  static QaWorld world;
  return world;
}

void HashAnswer(const StatusOr<QaAnswer>& answer,
                const graph::LabelDictionary& dict,
                simj::testing::Fnv1a* h) {
  h->I64(static_cast<int64_t>(answer.status().code()));
  if (!answer.ok()) return;
  h->I64(answer->template_index);
  h->F64(answer->matching_proportion);
  h->I64(answer->tree_edit_distance);
  h->Str(sparql::ToSparqlText(answer->executed, dict));
  std::vector<std::vector<std::string>> rows;
  for (const std::vector<rdf::TermId>& row : answer->rows) {
    std::vector<std::string>& names = rows.emplace_back();
    for (rdf::TermId term : row) names.push_back(dict.Name(term));
  }
  std::sort(rows.begin(), rows.end());
  h->I64(static_cast<int64_t>(rows.size()));
  for (const std::vector<std::string>& row : rows) {
    h->I64(static_cast<int64_t>(row.size()));
    for (const std::string& name : row) h->Str(name);
  }
}

std::string QaDigest(const TemplateQa& qa, QaWorld& world) {
  simj::testing::Fnv1a h;
  h.I64(static_cast<int64_t>(world.questions().size()));
  for (const std::string& question : world.questions()) {
    HashAnswer(qa.Answer(question), world.kb().dict(), &h);
  }
  return h.Hex();
}

TEST(QaDigestTest, MatchesTheRecordedDigest) {
  const std::map<std::string, std::string> golden =
      simj::testing::ReadGoldenDigests(std::string(SIMJ_TEST_GOLDEN_DIR) +
                                       "/qa_digest_v1.txt");
  ASSERT_TRUE(golden.count("kb42") == 1)
      << "no digest for kb42 in qa_digest_v1.txt";
  QaWorld& world = SharedQaWorld();
  ASSERT_GT(world.store().size(), 10);
  workload::KnowledgeBase& kb = world.kb();

  TemplateQa built(&world.store(), &kb.lexicon(), &kb.store(), &kb.dict());
  EXPECT_EQ(QaDigest(built, world), golden.at("kb42")) << "built store";

  StatusOr<TemplateStore> reloaded =
      ParseTemplates(SerializeTemplates(world.store(), kb.dict()), kb.dict());
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  ASSERT_EQ(reloaded->size(), world.store().size());
  TemplateQa round(&*reloaded, &kb.lexicon(), &kb.store(), &kb.dict());
  EXPECT_EQ(QaDigest(round, world), golden.at("kb42"))
      << "after a serialize/parse round trip";
}

// Every question that tokenizes either aligns a template or skips it on
// tree size, and computes a tree distance only for aligned templates.
TEST(TemplateQaTest, CountersAccountForEveryTemplate) {
  QaWorld& world = SharedQaWorld();
  workload::KnowledgeBase& kb = world.kb();
  TemplateQa qa(&world.store(), &kb.lexicon(), &kb.store(), &kb.dict());
  metrics::Registry& registry = metrics::Registry::Global();
  metrics::Counter& aligned =
      registry.GetCounter("simj_qa_templates_aligned_total");
  metrics::Counter& skipped =
      registry.GetCounter("simj_qa_templates_ted_skipped_total");
  metrics::Counter& ted_calls = registry.GetCounter("simj_qa_ted_calls_total");
  const int64_t aligned_before = aligned.Value();
  const int64_t skipped_before = skipped.Value();
  const int64_t ted_before = ted_calls.Value();
  int64_t tokenized = 0;
  for (const std::string& question : world.questions()) {
    StatusOr<QaAnswer> answer = qa.Answer(question);
    if (answer.status().message() != "empty question") ++tokenized;
  }
  const int64_t aligned_delta = aligned.Value() - aligned_before;
  const int64_t skipped_delta = skipped.Value() - skipped_before;
  EXPECT_EQ(aligned_delta + skipped_delta, tokenized * world.store().size());
  EXPECT_GT(skipped_delta, 0);
  EXPECT_LE(ted_calls.Value() - ted_before, aligned_delta);
}

// Answer keeps its alignment and tree-distance tables in thread-local
// scratch; threads sharing one TemplateQa must not see each other's.
TEST(TemplateQaTest, ConcurrentAnswersMatchSerial) {
  QaWorld& world = SharedQaWorld();
  workload::KnowledgeBase& kb = world.kb();
  TemplateQa qa(&world.store(), &kb.lexicon(), &kb.store(), &kb.dict());
  const std::vector<std::string>& questions = world.questions();
  auto digest_of = [&](size_t k) {
    simj::testing::Fnv1a h;
    HashAnswer(qa.Answer(questions[k]), kb.dict(), &h);
    return h.Hex();
  };
  std::vector<std::string> serial;
  for (size_t k = 0; k < questions.size(); ++k) serial.push_back(digest_of(k));

  constexpr int kThreads = 4;
  std::vector<std::vector<std::string>> got(
      kThreads, std::vector<std::string>(questions.size()));
  std::vector<std::thread> threads;
  for (int w = 0; w < kThreads; ++w) {
    threads.emplace_back([&, w] {
      // Each thread starts at a different question, so the threads hold
      // tables of different sizes at any moment.
      const size_t n = questions.size();
      for (size_t step = 0; step < n; ++step) {
        size_t k = (step + static_cast<size_t>(w) * n / kThreads) % n;
        got[w][k] = digest_of(k);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int w = 0; w < kThreads; ++w) {
    for (size_t k = 0; k < questions.size(); ++k) {
      EXPECT_EQ(got[w][k], serial[k]) << "thread " << w << " question " << k;
    }
  }
}

}  // namespace
}  // namespace simj::tmpl
