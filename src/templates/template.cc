#include "templates/template.h"

#include <algorithm>
#include <charconv>
#include <system_error>
#include <unordered_map>

#include "util/strings.h"

namespace simj::tmpl {

namespace {

// Replaces the token span matching `phrase` (already normalized) in
// `tokens` with `marker`. Returns false when the phrase does not occur.
bool ReplacePhrase(std::vector<std::string>& tokens,
                   const std::string& phrase, const std::string& marker) {
  std::vector<std::string> phrase_tokens = SplitWhitespace(phrase);
  if (phrase_tokens.empty()) return false;
  for (size_t i = 0; i + phrase_tokens.size() <= tokens.size(); ++i) {
    bool match = true;
    for (size_t k = 0; k < phrase_tokens.size(); ++k) {
      if (tokens[i + k] != phrase_tokens[k]) {
        match = false;
        break;
      }
    }
    if (match) {
      tokens.erase(tokens.begin() + static_cast<int>(i),
                   tokens.begin() + static_cast<int>(i + phrase_tokens.size()));
      tokens.insert(tokens.begin() + static_cast<int>(i), marker);
      return true;
    }
  }
  return false;
}

}  // namespace

std::string Template::NlPattern() const { return Join(nl_tokens, " "); }

std::string Template::CanonicalKey(const graph::LabelDictionary& dict) const {
  return NlPattern() + " | " + sparql::ToSparqlText(pattern, dict);
}

StatusOr<Template> GenerateTemplate(
    const sparql::ParsedQuery& query, const sparql::QueryGraph& query_graph,
    const nlp::ParsedQuestion& question,
    const nlp::UncertainQuestionGraph& question_graph,
    const std::vector<int>& mapping, graph::LabelDictionary& dict) {
  if (mapping.size() != static_cast<size_t>(query_graph.graph.num_vertices())) {
    return InvalidArgumentError("mapping size does not match query graph");
  }

  Template out;
  out.nl_tokens = question.tokens;
  out.pattern = query;
  out.source_question = Join(question.tokens, " ");

  // term -> slot index (a term slotted once is slotted everywhere).
  std::unordered_map<rdf::TermId, int> slot_of_term;
  std::vector<std::string> slot_phrases;

  for (int u = 0; u < query_graph.graph.num_vertices(); ++u) {
    int v = mapping[u];
    if (v < 0 || v >= question_graph.graph.num_vertices()) continue;
    rdf::TermId term = query_graph.vertex_terms[u];
    if (dict.IsWildcard(term)) continue;
    if (question_graph.vertex_is_variable[v]) continue;
    const std::string& phrase = question_graph.vertex_phrases[v];
    if (phrase.empty()) continue;
    if (slot_of_term.contains(term)) continue;

    int slot_index = out.num_slots();
    Slot slot;
    // A vertex whose only incident edges are `type` edges into it acts as a
    // class position; entity vertices carry candidate entity links.
    slot.kind = question_graph.vertex_entities[v].empty() ? SlotKind::kClass
                                                          : SlotKind::kEntity;
    slot.expected_type = query_graph.graph.vertex_label(u);

    std::string marker = "<slot" + std::to_string(slot_index) + ">";
    if (!ReplacePhrase(out.nl_tokens, phrase, marker)) {
      return NotFoundError("slot phrase '" + phrase +
                           "' not found in question tokens");
    }
    out.slots.push_back(slot);
    slot_of_term.emplace(term, slot_index);
    slot_phrases.push_back(phrase);
  }

  // Rewrite the SPARQL pattern with slot placeholder terms. The SPARQL-side
  // placeholder is "__slotK" (no angle brackets, so serialized patterns
  // re-parse cleanly); the NL-side marker stays "<slotK>".
  for (rdf::TriplePattern& pattern : out.pattern.patterns) {
    for (rdf::TermId* field : {&pattern.subject, &pattern.object}) {
      auto it = slot_of_term.find(*field);
      if (it != slot_of_term.end()) {
        // += form dodges the GCC 12 -Wrestrict false positive (PR105651).
        std::string slot_name = "__slot";
        slot_name += std::to_string(it->second);
        *field = dict.Intern(slot_name);
      }
    }
  }

  // Dependency tree of the slotted question.
  out.tree = nlp::SlottedTree(nlp::BuildQuestionTree(question), slot_phrases);
  return out;
}

bool TemplateStore::Add(Template t, const graph::LabelDictionary& dict) {
  std::string key = t.CanonicalKey(dict);
  auto it = index_by_key_.find(key);
  if (it != index_by_key_.end()) {
    Template& existing = templates_[it->second];
    ++existing.support_count;
    existing.support_simp = std::max(existing.support_simp, t.support_simp);
    return false;
  }
  index_by_key_.emplace(std::move(key),
                        static_cast<int>(templates_.size()));
  t.slot_of_token = nlp::SlotIndexPerToken(t.nl_tokens, t.num_slots());
  templates_.push_back(std::move(t));
  return true;
}

namespace {

// Dependency trees serialize as pre-order s-expressions with quoted
// labels: ("which" ("graduated from" ("<slot>")))
void AppendTree(const nlp::DepTree& tree, int node, std::string& out) {
  out += "(\"";
  for (char c : tree.nodes[node].label) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  out += '"';
  for (int child : tree.nodes[node].children) {
    out += ' ';
    AppendTree(tree, child, out);
  }
  out += ')';
}

// Bounds the recursion of ParseTreeNode: far deeper than any question's
// dependency tree, far shallower than the stack.
constexpr int kMaxTreeDepth = 256;

StatusOr<int> ParseTreeNode(std::string_view text, size_t& pos,
                            nlp::DepTree* tree, int depth = 1) {
  if (depth > kMaxTreeDepth) {
    return InvalidArgumentError("tree nested deeper than " +
                                std::to_string(kMaxTreeDepth));
  }
  auto skip_space = [&] {
    while (pos < text.size() && text[pos] == ' ') ++pos;
  };
  skip_space();
  if (pos >= text.size() || text[pos] != '(') {
    return InvalidArgumentError("expected '(' in tree");
  }
  ++pos;
  skip_space();
  if (pos >= text.size() || text[pos] != '"') {
    return InvalidArgumentError("expected quoted label in tree");
  }
  ++pos;
  std::string label;
  while (pos < text.size() && text[pos] != '"') {
    if (text[pos] == '\\' && pos + 1 < text.size()) ++pos;
    label += text[pos++];
  }
  if (pos >= text.size()) return InvalidArgumentError("unterminated label");
  ++pos;  // closing quote
  int node = tree->size();
  tree->nodes.push_back(nlp::DepTree::Node{std::move(label), {}});
  skip_space();
  while (pos < text.size() && text[pos] == '(') {
    StatusOr<int> child = ParseTreeNode(text, pos, tree, depth + 1);
    if (!child.ok()) return child.status();
    tree->nodes[node].children.push_back(*child);
    skip_space();
  }
  if (pos >= text.size() || text[pos] != ')') {
    return InvalidArgumentError("expected ')' in tree");
  }
  ++pos;
  return node;
}

// Checks that every slot marker in `t` names one of its slots: NL tokens
// starting "<slot" must be "<slotK>" and SPARQL terms starting "__slot"
// must be "__slotK", with K a whole number below t.num_slots().
Status CheckSlotMarkers(const Template& t,
                        const graph::LabelDictionary& dict) {
  auto bad = [&](const std::string& marker) {
    return InvalidArgumentError("slot marker '" + marker +
                                "' does not name one of the " +
                                std::to_string(t.num_slots()) + " SLOT lines");
  };
  for (const std::string& token : t.nl_tokens) {
    if (StartsWith(token, "<slot") &&
        nlp::SlotIndexOf(token, "<slot", ">", t.num_slots()) < 0) {
      return bad(token);
    }
  }
  for (const rdf::TriplePattern& pattern : t.pattern.patterns) {
    for (rdf::TermId term :
         {pattern.subject, pattern.predicate, pattern.object}) {
      const std::string& name = dict.Name(term);
      if (StartsWith(name, "__slot") &&
          nlp::SlotIndexOf(name, "__slot", "", t.num_slots()) < 0) {
        return bad(name);
      }
    }
  }
  return Status::Ok();
}

// Parses all of `field` as a T; false on anything else.
template <typename T>
bool ParseNumber(const std::string& field, T* out) {
  const char* end = field.data() + field.size();
  auto [ptr, ec] = std::from_chars(field.data(), end, *out);
  return ec == std::errc() && ptr == end;
}

}  // namespace

std::string SerializeTemplates(const TemplateStore& store,
                               const graph::LabelDictionary& dict) {
  std::string out;
  for (const Template& t : store.templates()) {
    out += "TEMPLATE\n";
    out += "NL " + t.NlPattern() + "\n";
    out += "SPARQL " + sparql::ToSparqlText(t.pattern, dict) + "\n";
    for (const Slot& slot : t.slots) {
      out += "SLOT ";
      out += slot.kind == SlotKind::kEntity ? "entity" : "class";
      out += ' ';
      out += slot.expected_type == graph::kInvalidLabel
                 ? "-"
                 : dict.Name(slot.expected_type);
      out += '\n';
    }
    if (t.tree.root >= 0) {
      out += "TREE ";
      AppendTree(t.tree, t.tree.root, out);
      out += '\n';
    }
    out += "SUPPORT " + std::to_string(t.support_count) + " " +
           std::to_string(t.support_simp) + " " +
           std::to_string(t.support_ged) + "\n";
    out += "SOURCE " + t.source_question + "\n";
    out += "END\n";
  }
  return out;
}

StatusOr<TemplateStore> ParseTemplates(std::string_view text,
                                       graph::LabelDictionary& dict) {
  TemplateStore store;
  Template current;
  bool in_template = false;

  size_t begin = 0;
  int line_number = 0;
  while (begin <= text.size()) {
    size_t end = text.find('\n', begin);
    if (end == std::string_view::npos) end = text.size();
    std::string line(StripWhitespace(text.substr(begin, end - begin)));
    begin = end + 1;
    ++line_number;
    if (line.empty()) continue;

    auto fail = [&](const std::string& what) {
      return InvalidArgumentError("line " + std::to_string(line_number) +
                                  ": " + what);
    };

    if (line == "TEMPLATE") {
      if (in_template) return fail("nested TEMPLATE");
      current = Template();
      in_template = true;
    } else if (line == "END") {
      if (!in_template) return fail("END without TEMPLATE");
      if (current.nl_tokens.empty() || current.pattern.patterns.empty()) {
        return fail("template missing NL or SPARQL");
      }
      if (Status markers = CheckSlotMarkers(current, dict); !markers.ok()) {
        return fail(markers.message());
      }
      store.Add(std::move(current), dict);
      in_template = false;
    } else if (StartsWith(line, "NL ")) {
      current.nl_tokens = SplitWhitespace(line.substr(3));
    } else if (StartsWith(line, "SPARQL ")) {
      StatusOr<sparql::ParsedQuery> query =
          sparql::ParseSparql(line.substr(7), dict);
      if (!query.ok()) return fail(query.status().message());
      current.pattern = *std::move(query);
    } else if (StartsWith(line, "SLOT ")) {
      std::vector<std::string> parts = SplitWhitespace(line.substr(5));
      if (parts.size() != 2) return fail("SLOT needs kind and type");
      Slot slot;
      if (parts[0] == "entity") {
        slot.kind = SlotKind::kEntity;
      } else if (parts[0] == "class") {
        slot.kind = SlotKind::kClass;
      } else {
        return fail("unknown SLOT kind '" + parts[0] + "'");
      }
      slot.expected_type =
          parts[1] == "-" ? graph::kInvalidLabel : dict.Intern(parts[1]);
      current.slots.push_back(slot);
    } else if (StartsWith(line, "TREE ")) {
      std::string_view expr = StripWhitespace(line).substr(5);
      size_t pos = 0;
      nlp::DepTree tree;
      StatusOr<int> root = ParseTreeNode(expr, pos, &tree);
      if (!root.ok()) return fail(root.status().message());
      tree.root = *root;
      current.tree = std::move(tree);
    } else if (StartsWith(line, "SUPPORT ")) {
      std::vector<std::string> parts = SplitWhitespace(line.substr(8));
      if (parts.size() != 3) return fail("SUPPORT needs three fields");
      if (!ParseNumber(parts[0], &current.support_count) ||
          !ParseNumber(parts[1], &current.support_simp) ||
          !ParseNumber(parts[2], &current.support_ged)) {
        return fail("SUPPORT fields must be numbers");
      }
    } else if (StartsWith(line, "SOURCE ")) {
      current.source_question = line.substr(7);
    } else {
      return fail("unrecognized line '" + line + "'");
    }
  }
  if (in_template) return InvalidArgumentError("unterminated TEMPLATE");
  return store;
}

}  // namespace simj::tmpl
