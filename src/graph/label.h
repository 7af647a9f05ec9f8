// Label interning shared by every graph in a join.
//
// Vertex and edge labels are interned strings. Labels whose name starts with
// '?' are *wildcards* (the paper's variable vertices): a wildcard substitutes
// against any label at zero cost, both in graph edit distance and in common
// label counting.

#ifndef SIMJ_GRAPH_LABEL_H_
#define SIMJ_GRAPH_LABEL_H_

#include <atomic>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/check.h"

namespace simj::graph {

using LabelId = int32_t;
inline constexpr LabelId kInvalidLabel = -1;

// Bidirectional string <-> LabelId map. One dictionary must be shared by all
// graphs that participate in the same join. Interning is NOT thread-safe;
// the parallel join freezes the dictionary for its duration (ScopedFreeze)
// so workers can only read it (lookups on a frozen dictionary are safe from
// any thread). Interning a label that is already present stays legal while
// frozen; inserting a new one trips a SIMJ_CHECK.
//
// Two kinds of freeze: Freeze() is permanent, while ScopedFreeze holds the
// dictionary frozen only while it lives. Scoped freezes nest through a
// depth count, so overlapping joins keep the dictionary frozen until the
// last of them ends, and a dictionary frozen by Freeze() stays frozen.
//
// Concurrency contract (DESIGN.md §11): this class is intentionally
// lock-free — it uses a freeze protocol instead of a simj::Mutex. The
// release-stores that freeze pair with the acquire-loads in frozen(): every
// intern happens-before the freeze, and the freeze happens-before any
// cross-thread lookup (the joining thread freezes before fanning out, and
// thread creation itself provides the needed synchronization for workers
// that never call frozen()). There is no guarded state for the
// thread-safety analysis to check here; the invariant is temporal
// (single-writer phase, then read-only phase), which the SIMJ_CHECK in
// Intern enforces dynamically.
class LabelDictionary {
 public:
  LabelDictionary() = default;
  LabelDictionary(const LabelDictionary&) = delete;
  LabelDictionary& operator=(const LabelDictionary&) = delete;
  LabelDictionary(LabelDictionary&& other) noexcept { *this = std::move(other); }
  LabelDictionary& operator=(LabelDictionary&& other) noexcept {
    if (this != &other) {
      index_ = std::move(other.index_);
      names_ = std::move(other.names_);
      is_wildcard_ = std::move(other.is_wildcard_);
      frozen_.store(other.frozen_.load(std::memory_order_relaxed),
                    std::memory_order_relaxed);
      freeze_depth_.store(other.freeze_depth_.load(std::memory_order_relaxed),
                          std::memory_order_relaxed);
    }
    return *this;
  }

  // Returns the id for `name`, interning it on first use.
  LabelId Intern(std::string_view name);

  // Forbids interning new labels from here on, making the dictionary safe
  // for concurrent reads. Permanent and idempotent; `const` like the scoped
  // freeze, which read paths holding a const reference take.
  void Freeze() const { frozen_.store(true, std::memory_order_release); }
  bool frozen() const {
    return frozen_.load(std::memory_order_acquire) ||
           freeze_depth_.load(std::memory_order_acquire) > 0;
  }

  // Returns the id for `name` or kInvalidLabel if never interned.
  LabelId Find(std::string_view name) const;

  const std::string& Name(LabelId id) const {
    SIMJ_CHECK(id >= 0 && id < static_cast<LabelId>(names_.size()));
    return names_[id];
  }

  // True when the label is a variable/wildcard ("?x", "?person", ...).
  bool IsWildcard(LabelId id) const {
    SIMJ_CHECK(id >= 0 && id < static_cast<LabelId>(is_wildcard_.size()));
    return is_wildcard_[id];
  }

  // True when `a` can substitute for `b` at zero cost: equal ids or either
  // side is a wildcard.
  bool Matches(LabelId a, LabelId b) const {
    return a == b || IsWildcard(a) || IsWildcard(b);
  }

  int size() const { return static_cast<int>(names_.size()); }

 private:
  std::unordered_map<std::string, LabelId> index_;
  std::vector<std::string> names_;
  std::vector<bool> is_wildcard_;
  mutable std::atomic<bool> frozen_{false};
  // Live ScopedFreezes.
  mutable std::atomic<int> freeze_depth_{0};

  friend class ScopedFreeze;
};

// Holds `dict` frozen for the lifetime of the object (one join). The
// dictionary becomes writable again when the last live ScopedFreeze ends,
// unless Freeze() made it permanently read-only.
class ScopedFreeze {
 public:
  explicit ScopedFreeze(const LabelDictionary& dict) : dict_(dict) {
    dict_.freeze_depth_.fetch_add(1, std::memory_order_acq_rel);
  }
  ~ScopedFreeze() {
    dict_.freeze_depth_.fetch_sub(1, std::memory_order_acq_rel);
  }
  ScopedFreeze(const ScopedFreeze&) = delete;
  ScopedFreeze& operator=(const ScopedFreeze&) = delete;

 private:
  const LabelDictionary& dict_;
};

// Multiset of labels, used for the label-multiset and CSS bounds.
using LabelCounts = std::unordered_map<LabelId, int>;

// Size of a maximum matching between two label multisets where a pair
// matches iff the labels are equal or at least one side is a wildcard.
// This generalizes |multiset intersection| to wildcard labels and is what
// the paper's lambda_V / lambda_E quantities become in our setting.
[[nodiscard]] int MatchableLabelCount(const LabelCounts& a, const LabelCounts& b,
                        const LabelDictionary& dict);

// `count` copies of one non-wildcard label.
struct LabelRun {
  LabelId label = kInvalidLabel;
  int count = 0;
};

// MatchableLabelCount over label multisets given as runs of non-wildcard
// labels, ascending by label with one run per label, plus the number of
// wildcards on each side: a merge, no dictionary and no hashing.
[[nodiscard]] int MatchableLabelCount(std::span<const LabelRun> a,
                                      int wildcards_a,
                                      std::span<const LabelRun> b,
                                      int wildcards_b);

// MatchableLabelCount over dense count arrays of equal size: a[l] and b[l]
// count the non-wildcard label with dense id l, and each side's wildcards
// are counted apart. A loop over the ids, no dictionary and no hashing.
[[nodiscard]] int MatchableLabelCount(std::span<const int> a, int wildcards_a,
                                      std::span<const int> b,
                                      int wildcards_b);

}  // namespace simj::graph

#endif  // SIMJ_GRAPH_LABEL_H_
