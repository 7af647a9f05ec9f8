#include <bit>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <limits>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "graph/label.h"
#include "nlp/dependency.h"
#include "nlp/lexicon.h"
#include "nlp/semantic_graph.h"
#include "nlp/uncertain_builder.h"
#include "util/rng.h"

namespace simj::nlp {
namespace {

class NlpFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    politician = dict.Intern("Politician");
    actor = dict.Intern("Actor");
    university = dict.Intern("University");
    company = dict.Intern("Company");
    city = dict.Intern("City");
    grad = dict.Intern("graduatedFrom");
    born = dict.Intern("birthPlace");
    located = dict.Intern("locatedIn");
    cit_u = dict.Intern("CIT_University");
    cit_c = dict.Intern("CIT_Group");
    springfield = dict.Intern("Springfield_City");

    lexicon.AddClassPhrase("politician", ClassLink{politician, politician});
    lexicon.AddClassPhrase("actor", ClassLink{actor, actor});
    lexicon.AddClassPhrase("city", ClassLink{city, city});
    lexicon.AddRelationPhrase("graduated from", PredicateLink{grad, 0.9});
    lexicon.AddRelationPhrase("born in", PredicateLink{born, 0.9});
    lexicon.AddRelationPhrase("located in", PredicateLink{located, 0.9});
    lexicon.AddEntityPhrase("cit", EntityLink{cit_u, university, 0.8});
    lexicon.AddEntityPhrase("cit", EntityLink{cit_c, company, 0.2});
    lexicon.AddEntityPhrase("springfield", EntityLink{springfield, city, 1.0});
  }

  graph::LabelDictionary dict;
  Lexicon lexicon;
  graph::LabelId politician, actor, university, company, city;
  graph::LabelId grad, born, located;
  rdf::TermId cit_u, cit_c, springfield;
};

TEST_F(NlpFixture, LexiconSortsByConfidence) {
  const std::vector<EntityLink>* links = lexicon.FindEntity("CIT");
  ASSERT_NE(links, nullptr);
  ASSERT_EQ(links->size(), 2u);
  EXPECT_EQ((*links)[0].entity, cit_u);
  EXPECT_GT((*links)[0].confidence, (*links)[1].confidence);
}

TEST_F(NlpFixture, MaxRelationTokensTracksLongestPhrase) {
  EXPECT_EQ(lexicon.max_relation_tokens(), 2);
}

TEST(NormalizeTest, LowercasesAndStripsPunctuation) {
  EXPECT_EQ(NormalizeQuestion("Which Politician graduated from CIT?"),
            (std::vector<std::string>{"which", "politician", "graduated",
                                      "from", "cit"}));
}

TEST_F(NlpFixture, ParsesSimpleQuestion) {
  auto parsed = ParseQuestion("Which politician graduated from CIT?", lexicon);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->wh_argument, 0);
  ASSERT_EQ(parsed->graph.arguments.size(), 2u);
  EXPECT_TRUE(parsed->graph.arguments[0].is_variable);
  EXPECT_EQ(parsed->graph.arguments[0].phrase, "politician");
  EXPECT_EQ(parsed->graph.arguments[1].phrase, "cit");
  ASSERT_EQ(parsed->graph.relations.size(), 1u);
  EXPECT_EQ(parsed->graph.relations[0].phrase, "graduated from");
}

TEST_F(NlpFixture, ParsesStarQuestion) {
  auto parsed = ParseQuestion(
      "Which politician graduated from CIT and born in Springfield?",
      lexicon);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->graph.relations.size(), 2u);
  // Both relations attach to the wh-argument.
  EXPECT_EQ(parsed->graph.relations[0].arg1, 0);
  EXPECT_EQ(parsed->graph.relations[1].arg1, 0);
}

TEST_F(NlpFixture, ParsesChainQuestion) {
  auto parsed = ParseQuestion(
      "Which politician born in the city that located in Springfield?",
      lexicon);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->graph.relations.size(), 2u);
  // Second relation attaches to the chain intermediate ("city").
  int intermediate = parsed->graph.relations[0].arg2;
  EXPECT_TRUE(parsed->graph.arguments[intermediate].is_variable);
  EXPECT_EQ(parsed->graph.arguments[intermediate].phrase, "city");
  EXPECT_EQ(parsed->graph.relations[1].arg1, intermediate);
}

TEST_F(NlpFixture, PluralClassPhrasesResolve) {
  EXPECT_NE(lexicon.FindClass("politicians"), nullptr);
  EXPECT_NE(lexicon.FindClass("cities"), nullptr);
  EXPECT_EQ(lexicon.FindClass("cities")->label, city);
  EXPECT_EQ(lexicon.FindClass("politicianss"), nullptr);

  auto parsed =
      ParseQuestion("Give me all politicians born in Springfield?", lexicon);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->graph.arguments[0].phrase, "politicians");
}

TEST_F(NlpFixture, ParsesGiveMeAllHead) {
  auto parsed =
      ParseQuestion("Give me all actor born in Springfield?", lexicon);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->graph.arguments[0].phrase, "actor");
}

TEST_F(NlpFixture, ParsesWhoHeadWithoutClass) {
  auto parsed = ParseQuestion("Who graduated from CIT?", lexicon);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(parsed->graph.arguments[0].phrase.empty());
}

TEST_F(NlpFixture, ToleratesCopulaBeforeRelation) {
  lexicon.AddRelationPhrase("married to",
                            PredicateLink{dict.Intern("spouse"), 0.9});
  auto parsed =
      ParseQuestion("Which actor is married to Springfield?", lexicon);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->graph.relations[0].phrase, "married to");
}

TEST_F(NlpFixture, FailsOnUnknownRelation) {
  auto parsed = ParseQuestion("Which politician frobnicated CIT?", lexicon);
  EXPECT_FALSE(parsed.ok());
}

TEST_F(NlpFixture, FailsOnUnlinkableArgument) {
  auto parsed =
      ParseQuestion("Which politician graduated from Nowhere?", lexicon);
  EXPECT_FALSE(parsed.ok());
}

TEST_F(NlpFixture, TrapPhraseWithConnectorFailsNaturally) {
  // "harold and maude" is one entity, but the parser segments at "and" —
  // the paper's own failure example.
  lexicon.AddEntityPhrase("harold and maude",
                          EntityLink{dict.Intern("Harold_and_Maude"),
                                     dict.Intern("Film"), 1.0});
  auto parsed =
      ParseQuestion("Which actor born in harold and maude?", lexicon);
  EXPECT_FALSE(parsed.ok());
}

TEST_F(NlpFixture, BuildsUncertainGraph) {
  auto parsed = ParseQuestion("Which politician graduated from CIT?", lexicon);
  ASSERT_TRUE(parsed.ok());
  auto ugraph = BuildUncertainGraph(*parsed, lexicon, dict);
  ASSERT_TRUE(ugraph.ok()) << ugraph.status().ToString();
  // Vertices: ?x, Politician (class), CIT (uncertain). Edges: type, grad.
  EXPECT_EQ(ugraph->graph.num_vertices(), 3);
  EXPECT_EQ(ugraph->graph.num_edges(), 2);
  EXPECT_EQ(ugraph->wh_vertex, 0);
  EXPECT_TRUE(ugraph->vertex_is_variable[0]);
  const auto& alts = ugraph->graph.alternatives(2);
  ASSERT_EQ(alts.size(), 2u);
  EXPECT_EQ(alts[0].label, university);
  EXPECT_NEAR(alts[0].prob, 0.8, 1e-9);
  EXPECT_EQ(ugraph->graph.NumPossibleWorlds(), 2);
}

TEST_F(NlpFixture, UncertainGraphUsesTopPredicate) {
  // Give "graduated from" a competing predicate with higher confidence.
  graph::LabelId studied = dict.Intern("studiedAt");
  lexicon.AddRelationPhrase("graduated from", PredicateLink{studied, 0.95});
  auto parsed = ParseQuestion("Which politician graduated from CIT?", lexicon);
  ASSERT_TRUE(parsed.ok());
  auto ugraph = BuildUncertainGraph(*parsed, lexicon, dict);
  ASSERT_TRUE(ugraph.ok());
  bool found = false;
  for (const graph::Edge& e : ugraph->graph.edges()) {
    if (e.label == studied) found = true;
  }
  EXPECT_TRUE(found);
}

TEST_F(NlpFixture, DependencyTreeShape) {
  auto parsed = ParseQuestion(
      "Which politician graduated from CIT and born in Springfield?",
      lexicon);
  ASSERT_TRUE(parsed.ok());
  DepTree tree = BuildQuestionTree(*parsed);
  // Nodes: 3 arguments + 2 relations.
  EXPECT_EQ(tree.size(), 5);
  // Root is the wh-argument and governs both relation nodes.
  EXPECT_EQ(tree.nodes[tree.root].label, "politician");
  EXPECT_EQ(tree.nodes[tree.root].children.size(), 2u);
}

TEST_F(NlpFixture, SlottedTreeReplacesPhrases) {
  auto parsed = ParseQuestion("Which politician graduated from CIT?", lexicon);
  ASSERT_TRUE(parsed.ok());
  DepTree tree = BuildQuestionTree(*parsed);
  DepTree slotted = SlottedTree(tree, {"politician", "cit"});
  int slots = 0;
  for (const DepTree::Node& node : slotted.nodes) {
    if (node.label == kSlotMarker) ++slots;
  }
  EXPECT_EQ(slots, 2);
  // Slotted tree matches the original at zero cost (slots are free).
  EXPECT_EQ(TreeEditDistance(tree, slotted), 0);
  // And matches a differently-instantiated question equally well.
  auto other = ParseQuestion("Which actor graduated from CIT?", lexicon);
  ASSERT_TRUE(other.ok());
  EXPECT_EQ(TreeEditDistance(BuildQuestionTree(*other), slotted), 0);
}

TEST(NormalizeTest, EdgeCases) {
  EXPECT_TRUE(NormalizeQuestion("").empty());
  EXPECT_TRUE(NormalizeQuestion("?!.,").empty());
  EXPECT_EQ(NormalizeQuestion("  A  B  "),
            (std::vector<std::string>{"a", "b"}));
}

TEST(TreeEditDistanceTest, IdenticalTreesAreZero) {
  DepTree t;
  t.nodes = {{"a", {1, 2}}, {"b", {}}, {"c", {}}};
  t.root = 0;
  EXPECT_EQ(TreeEditDistance(t, t), 0);
}

TEST(TreeEditDistanceTest, SingleRename) {
  DepTree a;
  a.nodes = {{"a", {1}}, {"b", {}}};
  a.root = 0;
  DepTree b = a;
  b.nodes[1].label = "x";
  EXPECT_EQ(TreeEditDistance(a, b), 1);
}

TEST(TreeEditDistanceTest, InsertionCostsOne) {
  DepTree a;
  a.nodes = {{"a", {}}};
  a.root = 0;
  DepTree b;
  b.nodes = {{"a", {1}}, {"b", {}}};
  b.root = 0;
  EXPECT_EQ(TreeEditDistance(a, b), 1);
  EXPECT_EQ(TreeEditDistance(b, a), 1);
}

TEST(TreeEditDistanceTest, SlotMatchesAnyLabel) {
  DepTree a;
  a.nodes = {{"a", {1}}, {kSlotMarker, {}}};
  a.root = 0;
  DepTree b;
  b.nodes = {{"a", {1}}, {"anything", {}}};
  b.root = 0;
  EXPECT_EQ(TreeEditDistance(a, b), 0);
}

TEST(TreeEditDistanceTest, MetricPropertiesOnRandomTrees) {
  Rng rng(31);
  auto random_tree = [&](int n) {
    DepTree t;
    for (int i = 0; i < n; ++i) {
      t.nodes.push_back(
          {std::string(1, static_cast<char>('a' + rng.Uniform(0, 3))), {}});
      if (i > 0) {
        int parent = static_cast<int>(rng.Uniform(0, i - 1));
        t.nodes[parent].children.push_back(i);
      }
    }
    t.root = 0;
    return t;
  };
  for (int trial = 0; trial < 30; ++trial) {
    DepTree x = random_tree(static_cast<int>(rng.Uniform(1, 6)));
    DepTree y = random_tree(static_cast<int>(rng.Uniform(1, 6)));
    DepTree z = random_tree(static_cast<int>(rng.Uniform(1, 6)));
    int xy = TreeEditDistance(x, y);
    EXPECT_EQ(xy, TreeEditDistance(y, x));
    EXPECT_EQ(TreeEditDistance(x, x), 0);
    EXPECT_LE(xy, TreeEditDistance(x, z) + TreeEditDistance(z, y));
    EXPECT_LE(std::abs(x.size() - y.size()), xy);
    EXPECT_LE(xy, x.size() + y.size());
  }
  // TemplateQa skips a template when the tree sizes alone differ by more
  // than the best distance so far; that needs the size-difference bound to
  // hold with free slot relabels too, on trees large enough to reuse and
  // regrow the distance tables.
  for (int trial = 0; trial < 200; ++trial) {
    DepTree x = random_tree(static_cast<int>(rng.Uniform(1, 14)));
    DepTree y = random_tree(static_cast<int>(rng.Uniform(1, 14)));
    for (DepTree::Node& node : y.nodes) {
      if (rng.Bernoulli(0.3)) node.label = kSlotMarker;
    }
    int xy = TreeEditDistance(x, y);
    EXPECT_EQ(xy, TreeEditDistance(y, x));
    EXPECT_GE(xy, std::abs(x.size() - y.size()));
    EXPECT_LE(xy, x.size() + y.size());
  }
}

TEST_F(NlpFixture, FuzzedQuestionsNeverCrash) {
  Rng rng(77);
  const char* words[] = {"which", "who",   "give",      "me",   "all",
                         "that",  "and",   "politician", "city", "cit",
                         "from",  "born",  "in",        "graduated",
                         "located", "the", "is",        "?",    "springfield"};
  for (int trial = 0; trial < 500; ++trial) {
    std::string question;
    int tokens = static_cast<int>(rng.Uniform(0, 10));
    for (int t = 0; t < tokens; ++t) {
      question += words[rng.Uniform(0, std::size(words) - 1)];
      question += ' ';
    }
    StatusOr<ParsedQuestion> parsed = ParseQuestion(question, lexicon);
    if (parsed.ok()) {
      // Anything that parses must survive the downstream pipeline.
      StatusOr<UncertainQuestionGraph> graph =
          BuildUncertainGraph(*parsed, lexicon, dict);
      if (graph.ok()) {
        EXPECT_GT(graph->graph.num_vertices(), 0);
        EXPECT_GT(graph->graph.TotalMass(), 0.0);
      }
      DepTree tree = BuildQuestionTree(*parsed);
      EXPECT_GE(tree.root, 0);
      EXPECT_EQ(TreeEditDistance(tree, tree), 0);
    }
  }
}

TEST(AlignTokensTest, ExactMatchHasZeroCost) {
  auto alignment = AlignTokens({"which", "actor"}, 0, {"which", "actor"});
  ASSERT_TRUE(alignment.has_value());
  EXPECT_EQ(alignment->cost, 0);
  EXPECT_DOUBLE_EQ(alignment->matching_proportion, 1.0);
}

TEST(AlignTokensTest, SlotCapturesMultiwordPhrase) {
  auto alignment =
      AlignTokens({"which", "<slot0>", "graduated", "from", "<slot1>"}, 2,
                  {"which", "famous", "politician", "graduated", "from",
                   "cit"});
  ASSERT_TRUE(alignment.has_value());
  EXPECT_EQ(alignment->cost, 0);
  EXPECT_EQ(alignment->slot_phrases[0], "famous politician");
  EXPECT_EQ(alignment->slot_phrases[1], "cit");
  EXPECT_DOUBLE_EQ(alignment->matching_proportion, 1.0);
}

TEST(AlignTokensTest, InsertionsLowerPhi) {
  // The tail "and married to someone" cannot be absorbed by the slot
  // (slots capture at most 3 tokens), so it costs insertions and phi drops.
  auto alignment = AlignTokens(
      {"which", "<slot0>", "born", "in", "<slot1>"}, 2,
      {"which", "actor", "born", "in", "paris", "and", "married", "to",
       "someone"});
  ASSERT_TRUE(alignment.has_value());
  EXPECT_GT(alignment->cost, 0);
  EXPECT_LT(alignment->matching_proportion, 1.0);
  EXPECT_EQ(alignment->slot_phrases[0], "actor");
}

TEST(AlignTokensTest, SlotMustCaptureSomething) {
  EXPECT_FALSE(AlignTokens({"<slot0>"}, 1, {}).has_value());
}

TEST(AlignTokensTest, ValidatorRestrictsSlotSpans) {
  std::function<bool(const std::string&)> only_paris =
      [](const std::string& span) { return span == "paris"; };
  auto alignment =
      AlignTokens({"born", "in", "<slot0>"}, 1,
                  {"born", "in", "paris", "france"}, &only_paris);
  ASSERT_TRUE(alignment.has_value());
  EXPECT_EQ(alignment->slot_phrases[0], "paris");
  EXPECT_EQ(alignment->cost, 1);  // "france" inserted

  std::function<bool(const std::string&)> nothing =
      [](const std::string&) { return false; };
  // With no valid span the slot must be deleted (cost) or the alignment
  // rejected when the slot never captures.
  EXPECT_FALSE(AlignTokens({"born", "in", "<slot0>"}, 1,
                           {"born", "in", "paris"}, &nothing)
                   .has_value());
}

TEST(AlignTokensTest, SubstitutionCost) {
  auto alignment = AlignTokens({"which", "actor"}, 0, {"which", "singer"});
  ASSERT_TRUE(alignment.has_value());
  EXPECT_EQ(alignment->cost, 1);
}

// The alignment DP as it was before it read per-question span tables: it
// rebuilds every slot span as a string and asks the validator per DP cell.
// Kept here as the reference the table-driven AlignTokens must reproduce.
namespace reference {

bool IsSlotToken(const std::string& token) {
  return token.starts_with("<slot") && token.ends_with(">");
}

std::optional<TokenAlignment> AlignTokens(
    const std::vector<std::string>& template_tokens, int num_slots,
    const std::vector<std::string>& question_tokens,
    const std::function<bool(const std::string&)>* slot_validator) {
  const int t = static_cast<int>(template_tokens.size());
  const int q = static_cast<int>(question_tokens.size());
  constexpr int kInf = std::numeric_limits<int>::max() / 4;

  enum Move : uint8_t { kNone, kMatch, kSlot, kSubst, kDelete, kInsert };
  struct Cell {
    int cost = kInf;
    int matches = -1;
    Move move = kNone;
    int consumed = 0;
  };
  std::vector<std::vector<Cell>> dp(t + 1, std::vector<Cell>(q + 1));
  dp[0][0].cost = 0;
  dp[0][0].matches = 0;

  auto relax = [](Cell& cell, int cost, int matches, Move move,
                  int consumed) {
    if (cost < cell.cost ||
        (cost == cell.cost && matches > cell.matches) ||
        (cost == cell.cost && matches == cell.matches && move < cell.move)) {
      cell.cost = cost;
      cell.matches = matches;
      cell.move = move;
      cell.consumed = consumed;
    }
  };

  for (int i = 0; i <= t; ++i) {
    for (int j = 0; j <= q; ++j) {
      if (dp[i][j].cost >= kInf) continue;
      int cost = dp[i][j].cost;
      int matches = dp[i][j].matches;
      if (i < t) {
        if (IsSlotToken(template_tokens[i])) {
          constexpr int kMaxSlotTokens = 3;
          std::string span;
          for (int consume = 1;
               consume <= kMaxSlotTokens && j + consume <= q; ++consume) {
            if (!span.empty()) span += ' ';
            span += question_tokens[j + consume - 1];
            if (slot_validator != nullptr && !(*slot_validator)(span)) {
              continue;
            }
            relax(dp[i + 1][j + consume], cost, matches, kSlot, consume);
          }
        } else if (j < q) {
          if (template_tokens[i] == question_tokens[j]) {
            relax(dp[i + 1][j + 1], cost, matches + 1, kMatch, 0);
          } else {
            relax(dp[i + 1][j + 1], cost + 1, matches, kSubst, 0);
          }
        }
        relax(dp[i + 1][j], cost + 1, matches, kDelete, 0);
      }
      if (j < q) relax(dp[i][j + 1], cost + 1, matches, kInsert, 0);
    }
  }

  if (dp[t][q].cost >= kInf) return std::nullopt;

  TokenAlignment result;
  result.cost = dp[t][q].cost;
  result.slot_phrases.assign(num_slots, "");
  int covered = 0;
  int i = t;
  int j = q;
  while (i > 0 || j > 0) {
    const Cell& cell = dp[i][j];
    switch (cell.move) {
      case kMatch:
        ++covered;
        --i;
        --j;
        break;
      case kSubst:
        --i;
        --j;
        break;
      case kSlot: {
        std::string phrase;
        for (int k = j - cell.consumed; k < j; ++k) {
          if (!phrase.empty()) phrase += ' ';
          phrase += question_tokens[k];
        }
        covered += cell.consumed;
        const std::string& marker = template_tokens[i - 1];
        int slot_index =
            std::atoi(marker.substr(5, marker.size() - 6).c_str());
        if (slot_index >= 0 && slot_index < num_slots) {
          result.slot_phrases[slot_index] = phrase;
        }
        j -= cell.consumed;
        --i;
        break;
      }
      case kDelete:
        --i;
        break;
      case kInsert:
        --j;
        break;
      case kNone:
        ADD_FAILURE() << "reference backtrack reached an unset cell";
        return std::nullopt;
    }
  }
  for (const std::string& phrase : result.slot_phrases) {
    if (phrase.empty()) return std::nullopt;
  }
  result.matching_proportion =
      q == 0 ? 0.0 : static_cast<double>(covered) / static_cast<double>(q);
  return result;
}

}  // namespace reference

void ExpectSameAlignment(const std::optional<TokenAlignment>& got,
                         const std::optional<TokenAlignment>& want,
                         const std::string& context) {
  ASSERT_EQ(got.has_value(), want.has_value()) << context;
  if (!want.has_value()) return;
  EXPECT_EQ(got->cost, want->cost) << context;
  EXPECT_EQ(std::bit_cast<uint64_t>(got->matching_proportion),
            std::bit_cast<uint64_t>(want->matching_proportion))
      << context;
  EXPECT_EQ(got->slot_phrases, want->slot_phrases) << context;
}

TEST(AlignTokensTest, MatchesStringSpanReferenceOnRandomInputs) {
  Rng rng(2024);
  // A four-word vocabulary makes repeated tokens and accidental matches
  // common; questions up to 9 tokens leave spans longer than a slot takes.
  const std::vector<std::string> words = {"a", "b", "c", "d"};
  int compared = 0;
  int aligned = 0;
  for (int trial = 0; trial < 400; ++trial) {
    std::vector<std::string> question;
    int q = trial == 0 ? 0 : static_cast<int>(rng.Uniform(0, 9));
    for (int k = 0; k < q; ++k) {
      question.push_back(words[rng.Uniform(0, words.size() - 1)]);
    }

    // Validators: everything, nothing, or a random subset of the spans.
    std::set<std::string> accepted;
    for (int j = 0; j < q; ++j) {
      std::string span;
      for (int len = 1; len <= kMaxSlotTokens && j + len <= q; ++len) {
        if (!span.empty()) span += ' ';
        span += question[j + len - 1];
        if (rng.Bernoulli(0.5)) accepted.insert(span);
      }
    }
    std::function<bool(const std::string&)> nothing =
        [](const std::string&) { return false; };
    std::function<bool(const std::string&)> subset =
        [&accepted](const std::string& span) {
          return accepted.contains(span);
        };
    const std::function<bool(const std::string&)>* validators[] = {
        nullptr, &nothing, &subset};

    for (const auto* validator : validators) {
      // One table per question serves every template, as in TemplateQa.
      SlotSpanTable spans(question, validator);
      for (int rep = 0; rep < 4; ++rep) {
        int num_slots = static_cast<int>(rng.Uniform(0, 3));
        std::vector<std::string> tmpl;
        int literals = static_cast<int>(rng.Uniform(0, 6));
        for (int k = 0; k < literals; ++k) {
          tmpl.push_back(words[rng.Uniform(0, words.size() - 1)]);
        }
        std::vector<int> order;
        for (int k = 0; k < num_slots; ++k) order.push_back(k);
        rng.Shuffle(order);
        for (int k : order) {
          tmpl.insert(tmpl.begin() + rng.Uniform(0, tmpl.size()),
                      "<slot" + std::to_string(k) + ">");
        }
        std::string context = "trial " + std::to_string(trial) +
                              " template '" + testing::PrintToString(tmpl) +
                              "' question '" +
                              testing::PrintToString(question) + "'";
        std::optional<TokenAlignment> want =
            reference::AlignTokens(tmpl, num_slots, question, validator);
        ExpectSameAlignment(
            AlignTokens(tmpl, SlotIndexPerToken(tmpl, num_slots), num_slots,
                        question, spans),
            want, context + " (table)");
        ExpectSameAlignment(AlignTokens(tmpl, num_slots, question, validator),
                            want, context + " (validator)");
        ++compared;
        if (want.has_value()) ++aligned;
      }
    }
  }
  // Both outcomes must be well represented for the comparison to mean much.
  EXPECT_GT(aligned, compared / 4);
  EXPECT_LT(aligned, compared);
}

TEST(SlotIndexOfTest, AcceptsOnlyWholeNumbersBelowTheSlotCount) {
  EXPECT_EQ(SlotIndexOf("<slot0>", "<slot", ">", 2), 0);
  EXPECT_EQ(SlotIndexOf("<slot1>", "<slot", ">", 2), 1);
  EXPECT_EQ(SlotIndexOf("__slot1", "__slot", "", 2), 1);
  for (const char* bad : {"<slot2>", "<slot>", "<slot-1>", "<slot+1>",
                          "<slotx>", "<slot1x>", "<slot 1>", "slot1",
                          "<slot99999999999999999999>"}) {
    EXPECT_EQ(SlotIndexOf(bad, "<slot", ">", 2), -1) << bad;
  }
  EXPECT_EQ(SlotIndexOf("__slot", "__slot", "", 2), -1);
}

}  // namespace
}  // namespace simj::nlp
