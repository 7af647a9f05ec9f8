#include "graph/label.h"

#include <algorithm>

namespace simj::graph {

LabelId LabelDictionary::Intern(std::string_view name) {
  auto it = index_.find(std::string(name));
  if (it != index_.end()) return it->second;
  // Inserting while frozen would race with concurrent join workers.
  SIMJ_CHECK(!frozen());
  LabelId id = static_cast<LabelId>(names_.size());
  names_.emplace_back(name);
  is_wildcard_.push_back(!name.empty() && name.front() == '?');
  index_.emplace(names_.back(), id);
  return id;
}

LabelId LabelDictionary::Find(std::string_view name) const {
  auto it = index_.find(std::string(name));
  return it == index_.end() ? kInvalidLabel : it->second;
}

namespace {

// The wildcard part of both MatchableLabelCount forms, so the matching rule
// exists once: given `exact` matched pairs of equal non-wildcard labels and
// each side's wildcards and unmatched non-wildcards, returns the total
// matching size. Wildcards first soak up the other side's unmatched
// non-wildcards, then pair with each other; that is optimal, since a
// wildcard-wildcard pair spends two flexible items on one match.
int AddWildcardMatches(int exact, int wildcards_a, int unmatched_a,
                       int wildcards_b, int unmatched_b) {
  int m1 = std::min(wildcards_a, unmatched_b);
  int m2 = std::min(wildcards_b, unmatched_a);
  int m3 = std::min(wildcards_a - m1, wildcards_b - m2);
  return exact + m1 + m2 + m3;
}

}  // namespace

int MatchableLabelCount(const LabelCounts& a, const LabelCounts& b,
                        const LabelDictionary& dict) {
  // Exact matches between identical non-wildcard labels, then wildcards
  // soak up the leftovers (AddWildcardMatches).
  int exact = 0;
  int rem_a_nonwild = 0;
  int wild_a = 0;
  for (const auto& [label, count] : a) {
    if (dict.IsWildcard(label)) {
      wild_a += count;
      continue;
    }
    auto it = b.find(label);
    int matched = 0;
    if (it != b.end() && !dict.IsWildcard(it->first)) {
      matched = std::min(count, it->second);
    }
    exact += matched;
    rem_a_nonwild += count - matched;
  }
  int rem_b_nonwild = 0;
  int wild_b = 0;
  for (const auto& [label, count] : b) {
    if (dict.IsWildcard(label)) {
      wild_b += count;
      continue;
    }
    auto it = a.find(label);
    int matched = 0;
    if (it != a.end()) matched = std::min(count, it->second);
    rem_b_nonwild += count - matched;
  }
  return AddWildcardMatches(exact, wild_a, rem_a_nonwild, wild_b,
                            rem_b_nonwild);
}

int MatchableLabelCount(std::span<const LabelRun> a, int wildcards_a,
                        std::span<const LabelRun> b, int wildcards_b) {
  int exact = 0;
  int total_a = 0;
  int total_b = 0;
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i].label < b[j].label) {
      total_a += a[i++].count;
    } else if (b[j].label < a[i].label) {
      total_b += b[j++].count;
    } else {
      exact += std::min(a[i].count, b[j].count);
      total_a += a[i++].count;
      total_b += b[j++].count;
    }
  }
  for (; i < a.size(); ++i) total_a += a[i].count;
  for (; j < b.size(); ++j) total_b += b[j].count;
  return AddWildcardMatches(exact, wildcards_a, total_a - exact, wildcards_b,
                            total_b - exact);
}

int MatchableLabelCount(std::span<const int> a, int wildcards_a,
                        std::span<const int> b, int wildcards_b) {
  SIMJ_DCHECK_EQ(a.size(), b.size());
  int exact = 0;
  int total_a = 0;
  int total_b = 0;
  for (size_t l = 0; l < a.size(); ++l) {
    exact += std::min(a[l], b[l]);
    total_a += a[l];
    total_b += b[l];
  }
  return AddWildcardMatches(exact, wildcards_a, total_a - exact, wildcards_b,
                            total_b - exact);
}

}  // namespace simj::graph
