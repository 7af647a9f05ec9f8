#include "nlp/dependency.h"

#include <algorithm>
#include <charconv>
#include <limits>
#include <system_error>

#include "util/check.h"
#include "util/strings.h"

namespace simj::nlp {

namespace {

bool IsSlotToken(const std::string& token) {
  return StartsWith(token, "<slot") && EndsWith(token, ">");
}

int RenameCost(const std::string& a, const std::string& b) {
  if (a == b) return 0;
  if (a == kSlotMarker || b == kSlotMarker) return 0;
  if (IsSlotToken(a) || IsSlotToken(b)) return 0;
  return 1;
}

// Zhang-Shasha preprocessing: postorder labels, leftmost-leaf indices and
// keyroots (all 1-based).
struct ZsTree {
  std::vector<const std::string*> labels;  // [1..n], into the DepTree
  std::vector<int> lml;                    // [1..n]
  std::vector<int> keyroots;
};

void ZsDfs(const DepTree& tree, int node, ZsTree& out, int& counter,
           std::vector<int>& lml_of_node) {
  int leftmost = -1;
  for (int child : tree.nodes[node].children) {
    ZsDfs(tree, child, out, counter, lml_of_node);
    if (leftmost == -1) leftmost = lml_of_node[child];
  }
  ++counter;
  lml_of_node[node] = leftmost == -1 ? counter : leftmost;
  out.labels[counter] = &tree.nodes[node].label;
  out.lml[counter] = lml_of_node[node];
}

ZsTree BuildZsTree(const DepTree& tree) {
  ZsTree out;
  int n = tree.size();
  out.labels.resize(n + 1);
  out.lml.resize(n + 1);
  if (n == 0) return out;
  std::vector<int> lml_of_node(n, 0);
  int counter = 0;
  ZsDfs(tree, tree.root, out, counter, lml_of_node);
  SIMJ_CHECK_EQ(counter, n);
  // Keyroots: for each distinct leftmost-leaf value, the largest postorder
  // index carrying it.
  std::vector<int> last_with_lml(n + 1, 0);
  for (int i = 1; i <= n; ++i) last_with_lml[out.lml[i]] = i;
  for (int i = 1; i <= n; ++i) {
    if (last_with_lml[out.lml[i]] == i) out.keyroots.push_back(i);
  }
  return out;
}

}  // namespace

DepTree BuildQuestionTree(const ParsedQuestion& question) {
  const SemanticQueryGraph& sq = question.graph;
  DepTree tree;
  // One node per argument, one per relation.
  std::vector<int> arg_node(sq.arguments.size());
  for (size_t i = 0; i < sq.arguments.size(); ++i) {
    std::string label = sq.arguments[i].phrase;
    if (label.empty()) label = "wh";
    arg_node[i] = tree.size();
    tree.nodes.push_back(DepTree::Node{label, {}});
  }
  for (const SemanticQueryGraph::Relation& rel : sq.relations) {
    int rel_node = tree.size();
    tree.nodes.push_back(DepTree::Node{rel.phrase, {}});
    tree.nodes[arg_node[rel.arg1]].children.push_back(rel_node);
    tree.nodes[rel_node].children.push_back(arg_node[rel.arg2]);
  }
  tree.root = question.wh_argument >= 0 ? arg_node[question.wh_argument] : 0;
  return tree;
}

DepTree SlottedTree(const DepTree& tree,
                    const std::vector<std::string>& slot_phrases) {
  DepTree out = tree;
  for (DepTree::Node& node : out.nodes) {
    for (const std::string& phrase : slot_phrases) {
      if (node.label == phrase) {
        node.label = kSlotMarker;
        break;
      }
    }
  }
  return out;
}

int TreeEditDistance(const DepTree& a, const DepTree& b) {
  const int n = a.size();
  const int m = b.size();
  if (n == 0) return m;
  if (m == 0) return n;
  ZsTree ta = BuildZsTree(a);
  ZsTree tb = BuildZsTree(b);

  // td is (n+1) x (m+1); fd is at most that large for every keyroot pair.
  // Both live in per-thread scratch that keeps its capacity across calls.
  thread_local std::vector<int> td;
  thread_local std::vector<int> fd;
  const int td_cols = m + 1;
  td.assign(static_cast<size_t>(n + 1) * td_cols, 0);
  fd.resize(td.size());

  for (int k1 : ta.keyroots) {
    for (int k2 : tb.keyroots) {
      int l1 = ta.lml[k1];
      int l2 = tb.lml[k2];
      int rows = k1 - l1 + 2;
      int cols = k2 - l2 + 2;
      auto f = [cols](int di, int dj) -> int& { return fd[di * cols + dj]; };
      f(0, 0) = 0;
      for (int di = 1; di < rows; ++di) f(di, 0) = f(di - 1, 0) + 1;
      for (int dj = 1; dj < cols; ++dj) f(0, dj) = f(0, dj - 1) + 1;
      for (int di = 1; di < rows; ++di) {
        int i = l1 + di - 1;
        for (int dj = 1; dj < cols; ++dj) {
          int j = l2 + dj - 1;
          int& tree_dist = td[i * td_cols + j];
          if (ta.lml[i] == l1 && tb.lml[j] == l2) {
            f(di, dj) = std::min(
                {f(di - 1, dj) + 1, f(di, dj - 1) + 1,
                 f(di - 1, dj - 1) +
                     RenameCost(*ta.labels[i], *tb.labels[j])});
            tree_dist = f(di, dj);
          } else {
            int pi = ta.lml[i] - l1;  // forest prefix before subtree of i
            int pj = tb.lml[j] - l2;
            f(di, dj) = std::min(
                {f(di - 1, dj) + 1, f(di, dj - 1) + 1, f(pi, pj) + tree_dist});
          }
        }
      }
    }
  }
  return td[n * td_cols + m];
}

int SlotIndexOf(std::string_view token, std::string_view prefix,
                std::string_view suffix, int num_slots) {
  if (token.size() <= prefix.size() + suffix.size() ||
      !token.starts_with(prefix) || !token.ends_with(suffix)) {
    return -1;
  }
  std::string_view digits = token.substr(
      prefix.size(), token.size() - prefix.size() - suffix.size());
  if (digits.front() < '0' || digits.front() > '9') return -1;
  int index = -1;
  auto [ptr, ec] =
      std::from_chars(digits.data(), digits.data() + digits.size(), index);
  if (ec != std::errc() || ptr != digits.data() + digits.size()) return -1;
  return index < num_slots ? index : -1;
}

SlotSpanTable::SlotSpanTable(
    const std::vector<std::string>& question_tokens,
    const std::function<bool(const std::string&)>* accepts)
    : mask_(question_tokens.size(), 0) {
  const int q = static_cast<int>(question_tokens.size());
  for (int j = 0; j < q; ++j) {
    std::string span;
    for (int len = 1; len <= kMaxSlotTokens && j + len <= q; ++len) {
      if (!span.empty()) span += ' ';
      span += question_tokens[j + len - 1];
      if (accepts == nullptr || (*accepts)(span)) {
        mask_[j] |= static_cast<uint8_t>(1u << (len - 1));
      }
    }
  }
}

std::vector<int> SlotIndexPerToken(
    const std::vector<std::string>& template_tokens, int num_slots) {
  std::vector<int> slot_of_token;
  slot_of_token.reserve(template_tokens.size());
  for (const std::string& token : template_tokens) {
    slot_of_token.push_back(SlotIndexOf(token, "<slot", ">", num_slots));
  }
  return slot_of_token;
}

std::optional<TokenAlignment> AlignTokens(
    const std::vector<std::string>& template_tokens,
    const std::vector<int>& slot_of_token, int num_slots,
    const std::vector<std::string>& question_tokens,
    const SlotSpanTable& spans) {
  SIMJ_CHECK_EQ(slot_of_token.size(), template_tokens.size());
  const int t = static_cast<int>(template_tokens.size());
  const int q = static_cast<int>(question_tokens.size());
  constexpr int kInf = std::numeric_limits<int>::max() / 4;

  // Moves, in preference order on full ties.
  enum Move : uint8_t { kNone, kMatch, kSlot, kSubst, kDelete, kInsert };
  struct Cell {
    int cost = kInf;
    int matches = -1;  // exact token matches along the best path
    Move move = kNone;
    uint8_t consumed = 0;  // for kSlot: question tokens consumed
  };
  // Row-major (t+1) x (q+1) table in per-thread scratch that keeps its
  // capacity across calls.
  thread_local std::vector<Cell> dp;
  const int width = q + 1;
  dp.assign(static_cast<size_t>(t + 1) * width, Cell());
  auto at = [width](int i, int j) -> Cell& { return dp[i * width + j]; };
  at(0, 0).cost = 0;
  at(0, 0).matches = 0;

  // Lower cost wins; on ties, more exact matches (tighter slot spans and
  // better phi); on full ties, the earlier move in the enum.
  auto relax = [](Cell& cell, int cost, int matches, Move move,
                  int consumed) {
    if (cost < cell.cost ||
        (cost == cell.cost && matches > cell.matches) ||
        (cost == cell.cost && matches == cell.matches && move < cell.move)) {
      cell.cost = cost;
      cell.matches = matches;
      cell.move = move;
      cell.consumed = static_cast<uint8_t>(consumed);
    }
  };

  for (int i = 0; i <= t; ++i) {
    const bool is_slot = i < t && slot_of_token[i] >= 0;
    for (int j = 0; j <= q; ++j) {
      const Cell& here = at(i, j);
      if (here.cost >= kInf) continue;
      const int cost = here.cost;
      const int matches = here.matches;
      if (i < t) {
        if (is_slot) {
          for (int consume = 1;
               consume <= kMaxSlotTokens && j + consume <= q; ++consume) {
            if (spans.Capturable(j, consume)) {
              relax(at(i + 1, j + consume), cost, matches, kSlot, consume);
            }
          }
        } else if (j < q) {
          if (template_tokens[i] == question_tokens[j]) {
            relax(at(i + 1, j + 1), cost, matches + 1, kMatch, 0);
          } else {
            relax(at(i + 1, j + 1), cost + 1, matches, kSubst, 0);
          }
        }
        relax(at(i + 1, j), cost + 1, matches, kDelete, 0);
      }
      if (j < q) relax(at(i, j + 1), cost + 1, matches, kInsert, 0);
    }
  }

  if (at(t, q).cost >= kInf) return std::nullopt;

  // Backtrack: collect slot phrases and coverage.
  TokenAlignment result;
  result.cost = at(t, q).cost;
  result.slot_phrases.assign(num_slots, "");
  int covered = 0;
  int i = t;
  int j = q;
  while (i > 0 || j > 0) {
    const Cell& cell = at(i, j);
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
        std::string& phrase = result.slot_phrases[slot_of_token[i - 1]];
        phrase.clear();
        for (int k = j - cell.consumed; k < j; ++k) {
          if (!phrase.empty()) phrase += ' ';
          phrase += question_tokens[k];
        }
        covered += cell.consumed;
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
        SIMJ_CHECK(false);
    }
  }
  for (const std::string& phrase : result.slot_phrases) {
    if (phrase.empty()) return std::nullopt;  // a slot captured nothing
  }
  result.matching_proportion =
      q == 0 ? 0.0 : static_cast<double>(covered) / static_cast<double>(q);
  return result;
}

std::optional<TokenAlignment> AlignTokens(
    const std::vector<std::string>& template_tokens, int num_slots,
    const std::vector<std::string>& question_tokens,
    const std::function<bool(const std::string&)>* slot_validator) {
  return AlignTokens(template_tokens,
                     SlotIndexPerToken(template_tokens, num_slots), num_slots,
                     question_tokens,
                     SlotSpanTable(question_tokens, slot_validator));
}

}  // namespace simj::nlp
