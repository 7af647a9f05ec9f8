// Synthetic knowledge base with controlled ambiguity.
//
// Substitute for DBpedia + the entity-linking / paraphrasing tooling the
// paper consumes (see DESIGN.md): a schema of classes and predicates with
// domain/range typing, entities with surface phrases (a tunable fraction of
// phrases is shared across entities of different classes — the "Michael
// Jordan" effect), relation phrases with tunable top-1 accuracy (a wrong
// predicate may outrank the right one), facts stored in an rdf::TripleStore,
// and an nlp::Lexicon exposing the confidence-scored links.

#ifndef SIMJ_WORKLOAD_KNOWLEDGE_BASE_H_
#define SIMJ_WORKLOAD_KNOWLEDGE_BASE_H_

#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "graph/label.h"
#include "nlp/lexicon.h"
#include "rdf/triple_store.h"
#include "util/rng.h"

namespace simj::workload {

struct KbConfig {
  uint64_t seed = 42;
  int num_classes = 12;
  int num_predicates = 16;
  int entities_per_class = 30;
  // Fraction of entities whose phrase is shared with an entity of another
  // class (entity-linking ambiguity).
  double entity_phrase_ambiguity = 0.45;
  // Fraction of entities with a shared phrase whose *top* candidate is the
  // wrong entity.
  double entity_top1_error = 0.5;
  // Probability that a relation phrase's top candidate is the correct
  // predicate.
  double relation_top1_accuracy = 0.65;
  // Small chance of "trap" phrases containing connector words, which the
  // rule-based parser genuinely cannot segment ("Harold and Maude").
  double trap_phrase_fraction = 0.02;
  // Expected facts per entity (excluding the type triple).
  double facts_per_entity = 3.0;
  // Restrict to the music & movies slice (the paper's MM workload).
  bool closed_domain = false;
};

class KnowledgeBase {
 public:
  struct ClassInfo {
    rdf::TermId term = graph::kInvalidLabel;
    std::string name;
    std::string phrase;  // lexicon class phrase, lowercase
  };
  struct PredicateInfo {
    rdf::TermId term = graph::kInvalidLabel;
    std::string name;
    int domain_class = -1;
    int range_class = -1;
    std::vector<std::string> phrases;
  };
  struct EntityInfo {
    rdf::TermId term = graph::kInvalidLabel;
    int class_index = -1;
    std::string phrase;
  };
  struct Fact {
    int predicate_index = -1;
    int object_entity = -1;  // index into entities()
  };

  explicit KnowledgeBase(const KbConfig& config);

  KnowledgeBase(const KnowledgeBase&) = delete;
  KnowledgeBase& operator=(const KnowledgeBase&) = delete;

  graph::LabelDictionary& dict() { return dict_; }
  const graph::LabelDictionary& dict() const { return dict_; }
  const rdf::TripleStore& store() const { return store_; }
  const nlp::Lexicon& lexicon() const { return lexicon_; }

  rdf::TermId type_predicate() const { return type_predicate_; }

  const std::vector<ClassInfo>& classes() const { return classes_; }
  const std::vector<PredicateInfo>& predicates() const { return predicates_; }
  const std::vector<EntityInfo>& entities() const { return entities_; }

  // Facts whose subject is entity `entity_index`.
  const std::vector<Fact>& FactsOf(int entity_index) const {
    return facts_of_entity_[entity_index];
  }

  // Class label of an entity term, or kInvalidLabel for non-entities. This
  // is the resolver the typed query graphs use ("Harvard_University" is
  // joined as "University").
  graph::LabelId TypeLabelOf(rdf::TermId term) const;
  std::function<graph::LabelId(rdf::TermId)> TypeResolver() const;

 private:
  void BuildSchema(const KbConfig& config, Rng& rng);
  void BuildEntities(const KbConfig& config, Rng& rng);
  void BuildFacts(const KbConfig& config, Rng& rng);

  graph::LabelDictionary dict_;
  rdf::TripleStore store_;
  nlp::Lexicon lexicon_;
  rdf::TermId type_predicate_ = graph::kInvalidLabel;

  std::vector<ClassInfo> classes_;
  std::vector<PredicateInfo> predicates_;
  std::vector<EntityInfo> entities_;
  std::vector<std::vector<int>> entities_of_class_;
  std::vector<std::vector<int>> predicates_of_domain_;
  std::vector<std::vector<Fact>> facts_of_entity_;
  std::unordered_map<rdf::TermId, int> entity_index_of_term_;
};

}  // namespace simj::workload

#endif  // SIMJ_WORKLOAD_KNOWLEDGE_BASE_H_
