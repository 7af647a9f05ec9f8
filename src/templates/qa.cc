#include "templates/qa.h"

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <limits>
#include <optional>
#include <set>

#include "nlp/dependency.h"
#include "nlp/semantic_graph.h"
#include "util/metrics.h"

namespace simj::tmpl {

namespace {

struct Candidate {
  int index = -1;
  nlp::TokenAlignment alignment;
  int ted = std::numeric_limits<int>::max();
  int support = 0;

  // Smaller is better: tree distance first, then alignment cost, then
  // larger coverage, then stronger workload support (templates regenerated
  // by many matched pairs are more trustworthy).
  bool BetterThan(const Candidate& other) const {
    if (ted != other.ted) return ted < other.ted;
    if (alignment.cost != other.alignment.cost) {
      return alignment.cost < other.alignment.cost;
    }
    if (alignment.matching_proportion != other.alignment.matching_proportion) {
      return alignment.matching_proportion >
             other.alignment.matching_proportion;
    }
    return support > other.support;
  }
};

// Per-question counts of the template loop, added once per Answer call.
struct QaMetrics {
  metrics::Counter& templates_aligned;
  metrics::Counter& templates_ted_skipped;
  metrics::Counter& ted_calls;

  static const QaMetrics& Get() {
    static QaMetrics* m = [] {
      metrics::Registry& r = metrics::Registry::Global();
      return new QaMetrics{  // simj-lint: allow(new) leaky singleton
          r.GetCounter("simj_qa_templates_aligned_total"),
          r.GetCounter("simj_qa_templates_ted_skipped_total"),
          r.GetCounter("simj_qa_ted_calls_total"),
      };
    }();
    return *m;
  }
};

}  // namespace

StatusOr<QaAnswer> TemplateQa::Answer(const std::string& question,
                                      const QaOptions& options) const {
  std::vector<std::string> tokens = nlp::NormalizeQuestion(question);
  if (tokens.empty()) return InvalidArgumentError("empty question");

  // Dependency tree of the incoming question, when it parses.
  std::optional<nlp::DepTree> question_tree;
  StatusOr<nlp::ParsedQuestion> parsed = nlp::ParseQuestion(question, *lexicon_);
  if (parsed.ok()) question_tree = nlp::BuildQuestionTree(*parsed);

  // Slots may only capture phrases the lexicon can link. One lexicon pass
  // over the question's short spans serves every template.
  std::function<bool(const std::string&)> linkable =
      [this](const std::string& span) {
        return lexicon_->FindEntity(span) != nullptr ||
               lexicon_->FindClass(span) != nullptr;
      };
  const nlp::SlotSpanTable spans(tokens, &linkable);

  int64_t aligned = 0;
  int64_t ted_skipped = 0;
  int64_t ted_calls = 0;
  std::optional<Candidate> best;
  for (int i = 0; i < templates_->size(); ++i) {
    const Template& t = templates_->templates()[i];
    // Unit insert/delete costs make the tree distance at least the size
    // difference, and a larger distance never beats `best` (BetterThan
    // compares it first), so this template cannot be chosen.
    if (question_tree.has_value() && best.has_value() &&
        std::abs(question_tree->size() - t.tree.size()) > best->ted) {
      ++ted_skipped;
      continue;
    }
    ++aligned;
    std::optional<nlp::TokenAlignment> alignment = nlp::AlignTokens(
        t.nl_tokens, t.slot_of_token, t.num_slots(), tokens, spans);
    if (!alignment.has_value()) continue;
    if (alignment->matching_proportion <
        options.min_matching_proportion - 1e-9) {
      continue;
    }
    Candidate candidate;
    candidate.index = i;
    candidate.alignment = *std::move(alignment);
    candidate.support = t.support_count;
    if (question_tree.has_value()) {
      ++ted_calls;
      candidate.ted = nlp::TreeEditDistance(*question_tree, t.tree);
    }
    if (!best.has_value() || candidate.BetterThan(*best)) {
      best = std::move(candidate);
    }
  }
  const QaMetrics& metrics = QaMetrics::Get();
  metrics.templates_aligned.Add(aligned);
  metrics.templates_ted_skipped.Add(ted_skipped);
  metrics.ted_calls.Add(ted_calls);
  if (!best.has_value()) {
    return NotFoundError("no template matches the question");
  }

  const Template& chosen = templates_->templates()[best->index];

  // Resolve each slot phrase to a term.
  std::vector<rdf::TermId> slot_terms(chosen.num_slots(),
                                      graph::kInvalidLabel);
  for (int k = 0; k < chosen.num_slots(); ++k) {
    const std::string& phrase = best->alignment.slot_phrases[k];
    const Slot& slot = chosen.slots[k];
    if (slot.kind == SlotKind::kClass) {
      const nlp::ClassLink* link = lexicon_->FindClass(phrase);
      if (link == nullptr) {
        return NotFoundError("no class for slot phrase '" + phrase + "'");
      }
      slot_terms[k] = link->class_term;
      continue;
    }
    const std::vector<nlp::EntityLink>* links = lexicon_->FindEntity(phrase);
    if (links == nullptr || links->empty()) {
      return NotFoundError("no entity for slot phrase '" + phrase + "'");
    }
    // Prefer the most confident candidate of the expected class — this is
    // where the workload evidence baked into the template pays off.
    const nlp::EntityLink* pick = nullptr;
    for (const nlp::EntityLink& link : *links) {
      if (link.type_label == slot.expected_type) {
        pick = &link;
        break;
      }
    }
    if (pick == nullptr) pick = &links->front();
    slot_terms[k] = pick->entity;
  }

  // Instantiate the pattern.
  QaAnswer answer;
  answer.executed = chosen.pattern;
  for (rdf::TriplePattern& pattern : answer.executed.patterns) {
    for (rdf::TermId* field : {&pattern.subject, &pattern.predicate,
                               &pattern.object}) {
      int slot_index = nlp::SlotIndexOf(dict_->Name(*field), "__slot", "",
                                        chosen.num_slots());
      if (slot_index >= 0) *field = slot_terms[slot_index];
    }
  }
  answer.template_index = best->index;
  answer.matching_proportion = best->alignment.matching_proportion;
  answer.tree_edit_distance =
      best->ted == std::numeric_limits<int>::max() ? -1 : best->ted;
  answer.rows = store_->Evaluate(answer.executed.ToBgp(), *dict_);
  return answer;
}

PrfScore ScoreAnswer(const std::vector<std::vector<rdf::TermId>>& gold,
                     const std::vector<std::vector<rdf::TermId>>& answer) {
  PrfScore score;
  if (gold.empty() && answer.empty()) {
    score.precision = score.recall = score.f1 = 1.0;
    return score;
  }
  if (gold.empty() || answer.empty()) return score;
  std::set<std::vector<rdf::TermId>> gold_set(gold.begin(), gold.end());
  std::set<std::vector<rdf::TermId>> answer_set(answer.begin(), answer.end());
  int correct = 0;
  for (const auto& row : answer_set) {
    if (gold_set.contains(row)) ++correct;
  }
  score.precision = static_cast<double>(correct) /
                    static_cast<double>(answer_set.size());
  score.recall =
      static_cast<double>(correct) / static_cast<double>(gold_set.size());
  if (score.precision + score.recall > 0) {
    score.f1 = 2 * score.precision * score.recall /
               (score.precision + score.recall);
  }
  return score;
}

}  // namespace simj::tmpl
