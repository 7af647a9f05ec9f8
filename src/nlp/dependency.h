// Syntactic dependency trees and tree edit distance (paper Section 2.2).
//
// The paper aligns a new question to a template's natural-language part by
// parsing both into dependency trees (Stanford parser in the paper, a
// deterministic shallow parser here — the tree shape is derived from the
// semantic relations) and finding the template with minimum tree edit
// distance. Slot filling then maps question phrases onto the template's
// slots; we do that with a token-level alignment DP that also yields the
// paper's matching proportion phi.

#ifndef SIMJ_NLP_DEPENDENCY_H_
#define SIMJ_NLP_DEPENDENCY_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "nlp/semantic_graph.h"

namespace simj::nlp {

// Token that matches any label/token at zero cost in trees and alignments.
inline constexpr const char* kSlotMarker = "<slot>";

struct DepTree {
  struct Node {
    std::string label;
    std::vector<int> children;
  };
  std::vector<Node> nodes;
  int root = -1;

  int size() const { return static_cast<int>(nodes.size()); }
};

// Deterministic dependency tree over the parsed question: the wh-argument
// is the root; each relation phrase depends on its first argument and
// governs its second.
DepTree BuildQuestionTree(const ParsedQuestion& question);

// Copy of `tree` with every node whose label appears in `slot_phrases`
// relabeled to kSlotMarker (the template side of the alignment).
DepTree SlottedTree(const DepTree& tree,
                    const std::vector<std::string>& slot_phrases);

// Zhang-Shasha ordered tree edit distance with unit costs; relabeling to or
// from kSlotMarker is free.
int TreeEditDistance(const DepTree& a, const DepTree& b);

struct TokenAlignment {
  // Edit cost outside slots (substitutions + insertions + deletions).
  int cost = 0;
  // phi: fraction of question tokens covered by the template (exact
  // matches plus slot-consumed tokens).
  double matching_proportion = 0.0;
  // Question phrase captured by each slot, indexed by slot number.
  std::vector<std::string> slot_phrases;
};

// A slot captures a short phrase (entity phrases are at most a few tokens);
// longer spans must pay as insertions, so partial matches genuinely lower
// phi.
inline constexpr int kMaxSlotTokens = 3;

// The question side of the alignment, computed once per question: which
// spans of 1..kMaxSlotTokens question tokens a slot may capture.
class SlotSpanTable {
 public:
  // Every span is capturable when `accepts` is null; otherwise a span is
  // capturable when `accepts` returns true for its tokens joined by ' '.
  SlotSpanTable(const std::vector<std::string>& question_tokens,
                const std::function<bool(const std::string&)>* accepts);

  // Whether the `len` tokens starting at token `j` form a capturable span
  // (1 <= len <= kMaxSlotTokens, j + len <= number of tokens).
  bool Capturable(int j, int len) const {
    return (mask_[j] >> (len - 1)) & 1u;
  }

 private:
  std::vector<uint8_t> mask_;  // bit len-1 of mask_[j]
};

// K when `token` is `prefix` + K + `suffix` with K a whole decimal number
// below `num_slots`, else -1. Templates spell slot K as "<slotK>" in their
// NL tokens and as "__slotK" in their SPARQL pattern.
int SlotIndexOf(std::string_view token, std::string_view prefix,
                std::string_view suffix, int num_slots);

// The template side: for each template token its slot index K when the
// token is a marker "<slotK>" with 0 <= K < num_slots, else -1 (a literal
// token).
std::vector<int> SlotIndexPerToken(
    const std::vector<std::string>& template_tokens, int num_slots);

// Aligns template tokens against question tokens. A token with a slot index
// in `slot_of_token` is a slot: it consumes one to kMaxSlotTokens question
// tokens at zero cost, and only spans `spans` marks capturable. Every other
// token is matched, substituted, deleted or inserted at unit cost. Ties in
// edit cost are broken toward more exact token matches, which keeps slot
// spans tight. Returns std::nullopt when no valid alignment exists or some
// slot captures nothing.
std::optional<TokenAlignment> AlignTokens(
    const std::vector<std::string>& template_tokens,
    const std::vector<int>& slot_of_token, int num_slots,
    const std::vector<std::string>& question_tokens,
    const SlotSpanTable& spans);

// One-shot form of the above: builds the slot indices from the "<slotK>"
// markers and the span table from `slot_validator` (null accepts every
// span). TemplateQa passes a lexicon lookup, so slots only capture linkable
// phrases; callers aligning many templates against one question should
// build the table once and use the overload above.
std::optional<TokenAlignment> AlignTokens(
    const std::vector<std::string>& template_tokens, int num_slots,
    const std::vector<std::string>& question_tokens,
    const std::function<bool(const std::string&)>* slot_validator = nullptr);

}  // namespace simj::nlp

#endif  // SIMJ_NLP_DEPENDENCY_H_
