// Templates and their generation from similar graph pairs (paper
// Section 2.1, Step 3).
//
// A template pairs a natural-language pattern (question tokens with
// "<slotK>" markers) with a SPARQL pattern (a ParsedQuery whose slotted
// terms are "__slotK") plus the slot mapping between them. It is built from
// a SimJ result pair: the GED vertex mapping aligns concrete
// entities/classes on the SPARQL side with phrases on the question side;
// each aligned concrete pair becomes a slot.

#ifndef SIMJ_TEMPLATES_TEMPLATE_H_
#define SIMJ_TEMPLATES_TEMPLATE_H_

#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "graph/label.h"
#include "nlp/dependency.h"
#include "nlp/semantic_graph.h"
#include "nlp/uncertain_builder.h"
#include "sparql/parser.h"
#include "util/status.h"

namespace simj::tmpl {

enum class SlotKind {
  kEntity,  // filled by entity linking
  kClass,   // filled by class phrase lookup (e.g. the wh-class)
};

struct Slot {
  SlotKind kind = SlotKind::kEntity;
  // Class label the workload pair had at this position; used as a
  // disambiguation hint when filling the slot.
  graph::LabelId expected_type = graph::kInvalidLabel;
};

struct Template {
  // Natural-language pattern, normalized tokens with "<slotK>" markers.
  std::vector<std::string> nl_tokens;
  // Slot index of each NL token (-1 for a literal token), filled in by
  // TemplateStore::Add so answering never re-parses the markers.
  std::vector<int> slot_of_token;
  // SPARQL pattern with "__slotK" placeholder terms.
  sparql::ParsedQuery pattern;
  std::vector<Slot> slots;
  // Dependency tree of the NL pattern (slot nodes carry nlp::kSlotMarker).
  nlp::DepTree tree;

  // Provenance: the pair that generated this template, plus how many
  // distinct matched pairs regenerated it (its workload support).
  double support_simp = 0.0;
  int support_ged = -1;
  int support_count = 1;
  std::string source_question;

  int num_slots() const { return static_cast<int>(slots.size()); }
  std::string NlPattern() const;
  std::string CanonicalKey(const graph::LabelDictionary& dict) const;
};

// Builds a template from a matched pair:
//   `query`/`query_graph`  — the SPARQL side (D),
//   `question`/`question_graph` — the NLQ side (U),
//   `mapping`              — q-vertex -> g-vertex from the GED computation.
// Every mapped pair of concrete vertices (non-variable on both sides)
// becomes a slot. Fails when a slotted phrase cannot be located in the
// question tokens.
StatusOr<Template> GenerateTemplate(
    const sparql::ParsedQuery& query, const sparql::QueryGraph& query_graph,
    const nlp::ParsedQuestion& question,
    const nlp::UncertainQuestionGraph& question_graph,
    const std::vector<int>& mapping, graph::LabelDictionary& dict);

// Deduplicating template collection. Re-adding an existing template bumps
// its support count (and keeps the strongest SimP evidence).
class TemplateStore {
 public:
  // Returns true when the template was new. Fills in t.slot_of_token.
  bool Add(Template t, const graph::LabelDictionary& dict);

  const std::vector<Template>& templates() const { return templates_; }
  int size() const { return static_cast<int>(templates_.size()); }

 private:
  std::vector<Template> templates_;
  std::unordered_map<std::string, int> index_by_key_;
};

// Text persistence for template stores: a readable line-oriented format
// that round-trips through ParseTemplates (the dependency tree included),
// so template libraries can be shipped separately from the workloads that
// produced them. ParseTemplates rejects a template whose NL markers or
// SPARQL placeholders are not "<slotK>" / "__slotK" with K below its number
// of SLOT lines.
std::string SerializeTemplates(const TemplateStore& store,
                               const graph::LabelDictionary& dict);
StatusOr<TemplateStore> ParseTemplates(std::string_view text,
                                       graph::LabelDictionary& dict);

}  // namespace simj::tmpl

#endif  // SIMJ_TEMPLATES_TEMPLATE_H_
