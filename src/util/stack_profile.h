// Sampled-stack core shared by the CPU profiler (util/profiler) and the
// heap profiler (util/heap_profiler). The front ends keep only what
// differs — how a raw stack is captured (SIGPROF ring vs. operator new
// countdown) and what is counted per stack — and route everything else
// through here (DESIGN.md §12):
//
//   * the thread-name registry both front ends label stacks from, fed by
//     trace::SetThisThreadName through NoteThisThread;
//   * the symbolizer (dladdr + demangling, cached per address) that turns
//     raw leaf-first frames into root-first names at drain time;
//   * folding a drained batch per (thread, frames), merging shipped
//     worker batches, and turning cumulative loss counters into per-drain
//     deltas;
//   * the per-label remote sections a coordinator accumulates and the
//     sorted section list Stop returns, with this process as
//     "coordinator";
//   * the deterministic JSON and folded-text emitters.
//
// A front end describes its record once with a schema struct:
//
//   struct Schema {
//     using Section = ...;  // {label, batch}; batch has `stacks`
//     static constexpr const char* kName = "...";  // JSON "schema" value
//     static constexpr std::array<Field<Stack>, N> kStackFields;
//     static constexpr std::array<Field<Batch>, M> kBatchFields;
//     static constexpr bool kTotalsSumStacks;
//   };
//
// kStackFields are the per-stack counters (JSON keys and folded-text
// columns, in order); kBatchFields are the per-batch counters (loss
// accounting). Section and record totals are the batch fields, preceded
// by the stack fields summed when kTotalsSumStacks is set. The shard wire
// codec (dist/worker.cc) walks the same two lists.

#ifndef SIMJ_UTIL_STACK_PROFILE_H_
#define SIMJ_UTIL_STACK_PROFILE_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "util/strings.h"

namespace simj::stackprof {

// One named int64 counter of a stack or batch struct.
template <typename T>
struct Field {
  const char* name;
  int64_t T::*member;
};

// --- Thread-name registry ---------------------------------------------------

// The calling thread's kernel tid (the key of the name registry).
int ThisTid();

// Registers the calling thread's name for sample attribution in both
// profilers, then runs the hook installed by SetThreadNotedHook (outside
// the registry lock). Safe any time; re-registering renames. The name goes
// when the thread exits, or, if a capture is armed then, when the last
// armed capture ends (its drain still labels the thread's samples).
void NoteThisThread(const std::string& name);

// Called after every NoteThisThread. The CPU profiler installs one to arm
// a timer for threads named while a capture runs.
void SetThreadNotedHook(void (*hook)(int tid, const std::string& name));

// Snapshot of the registry (tid -> name). A snapshot rather than a locked
// lookup, so a front end may label stacks under its own mutex without
// nesting the registry lock inside it.
std::map<int, std::string> ThreadNames();

// Drops a registration whose thread has exited.
void ForgetThread(int tid);

// Bracket a CPU or heap capture armed in this process; EndCapture follows
// the capture's final drain. Call both outside the heap profiler's table
// lock: the registry lock is held across allocations, which take it.
void BeginCapture();
void EndCapture();

// The cleaned registered name of `tid`, or "tid-N".
std::string ThreadLabel(const std::map<int, std::string>& names, int tid);

// --- Symbolization -----------------------------------------------------------

// Rewrites a symbol or thread name so it cannot break the folded-stack
// line structure (space separates the counters, semicolon the frames).
std::string CleanFrameToken(const std::string& name);

// Caching address -> cleaned symbol resolver. Not thread-safe: each front
// end owns one under its own mutex. (One shared, separately locked cache
// would nest its lock against the heap profiler's table lock in both
// orders, since symbolization allocates.)
class Symbolizer {
 public:
  const std::string& Name(const void* addr);
  // Symbolizes `depth` leaf-first frames and returns them root-first;
  // an empty stack becomes {"[truncated]"}.
  std::vector<std::string> RootFirst(void* const* leaf_first, int depth);

 private:
  std::map<const void*, std::string> names_;
};

// --- Loss accounting ---------------------------------------------------------

// Turns a cumulative loss counter into per-drain deltas, so each loss of a
// capture is reported by exactly one drained batch.
class LossDelta {
 public:
  // Starts a capture: losses counted so far belong to earlier captures.
  void Rebase(int64_t cumulative) { seen_ = cumulative; }
  // The losses since the previous Take (or Rebase).
  int64_t Take(int64_t cumulative) {
    return cumulative - std::exchange(seen_, cumulative);
  }

 private:
  int64_t seen_ = 0;
};

// --- Batches and sections ----------------------------------------------------

// Orders stacks by (thread, frames).
struct StackLess {
  template <typename Stack>
  bool operator()(const Stack& a, const Stack& b) const {
    if (a.thread != b.thread) return a.thread < b.thread;
    return a.frames < b.frames;
  }
};

// Sorts stacks by (thread, frames) and folds duplicates by adding every
// stack field.
template <typename Schema, typename Stack>
void NormalizeStacks(std::vector<Stack>* stacks) {
  std::sort(stacks->begin(), stacks->end(), StackLess());
  std::vector<Stack> folded;
  folded.reserve(stacks->size());
  for (Stack& stack : *stacks) {
    if (!folded.empty() && folded.back().thread == stack.thread &&
        folded.back().frames == stack.frames) {
      for (const auto& field : Schema::kStackFields) {
        folded.back().*field.member += stack.*field.member;
      }
    } else {
      folded.push_back(std::move(stack));
    }
  }
  *stacks = std::move(folded);
}

// Adds `other` into `into`: batch fields summed, stacks folded.
template <typename Schema, typename Batch>
void MergeBatch(const Batch& other, Batch* into) {
  for (const auto& field : Schema::kBatchFields) {
    into->*field.member += other.*field.member;
  }
  into->stacks.insert(into->stacks.end(), other.stacks.begin(),
                      other.stacks.end());
  NormalizeStacks<Schema>(&into->stacks);
}

// One counter of one batch: a batch field as stored, a stack field summed
// over the batch's stacks.
template <typename Batch>
int64_t BatchSum(const Batch& batch, int64_t Batch::*member) {
  return batch.*member;
}
template <typename Batch, typename Stack>
int64_t BatchSum(const Batch& batch, int64_t Stack::*member) {
  int64_t total = 0;
  for (const Stack& stack : batch.stacks) total += stack.*member;
  return total;
}

// One counter summed over every section.
template <typename Section, typename T>
int64_t Total(const std::vector<Section>& sections, int64_t T::*member) {
  int64_t total = 0;
  for (const Section& section : sections) {
    total += BatchSum(section.batch, member);
  }
  return total;
}

// Worker-shipped batches merged per label. Not thread-safe: the front end
// guards it with its own mutex.
template <typename Section>
class RemoteSections {
 public:
  using Batch = decltype(Section::batch);

  void Accumulate(const std::string& label, const Batch& batch) {
    remote_[label].MergeFrom(batch);
  }
  void Discard() { remote_.clear(); }

  // A finished capture's sections sorted by label: `local` as
  // "coordinator" plus every accumulated remote section, which are
  // consumed.
  std::vector<Section> Take(const Batch& local) {
    Accumulate("coordinator", local);
    std::vector<Section> sections;
    for (auto& [label, batch] : remote_) {
      sections.push_back({label, std::move(batch)});
    }
    remote_.clear();
    return sections;
  }

 private:
  std::map<std::string, Batch> remote_;
};

// --- Emitters ----------------------------------------------------------------

namespace internal {

inline void AppendCounter(const char* name, int64_t value, std::string* out) {
  *out += std::string(",\"") + name + "\":" + std::to_string(value);
}

// Appends piecewise: GCC 12's -Wrestrict misfires on `"lit" + string&&`.
inline void AppendQuoted(const std::string& text, std::string* out) {
  *out += '"';
  *out += JsonEscape(text);
  *out += '"';
}

// Appends `,"name":sum(member)` for every total of the schema.
template <typename Schema, typename Sum>
void AppendTotals(const Sum& sum, std::string* out) {
  if constexpr (Schema::kTotalsSumStacks) {
    for (const auto& field : Schema::kStackFields) {
      AppendCounter(field.name, sum(field.member), out);
    }
  }
  for (const auto& field : Schema::kBatchFields) {
    AppendCounter(field.name, sum(field.member), out);
  }
}

// Sections sorted by label, stacks by (thread, frames): emitters accept
// hand-built profiles in any order.
template <typename Section>
std::vector<Section> Sorted(std::vector<Section> sections) {
  std::sort(sections.begin(), sections.end(),
            [](const Section& a, const Section& b) {
              return a.label < b.label;
            });
  for (Section& section : sections) {
    std::sort(section.batch.stacks.begin(), section.batch.stacks.end(),
              StackLess());
  }
  return sections;
}

}  // namespace internal

// Deterministic single-line JSON record, newline-terminated: the schema
// name, the front end's preformatted `header` fields, the record totals,
// then sections sorted by label with stacks sorted by (thread, frames).
template <typename Schema>
std::string ProfileJson(const std::string& header,
                        const std::vector<typename Schema::Section>& sections) {
  std::string out = std::string("{\"schema\":\"") + Schema::kName + "\",";
  out += header;
  internal::AppendTotals<Schema>(
      [&](auto member) { return Total(sections, member); }, &out);
  out += ",\"sections\":[";
  const char* section_sep = "";
  for (const auto& section : internal::Sorted(sections)) {
    out += section_sep;
    section_sep = ",";
    out += "{\"label\":";
    internal::AppendQuoted(section.label, &out);
    internal::AppendTotals<Schema>(
        [&](auto member) { return BatchSum(section.batch, member); }, &out);
    out += ",\"stacks\":[";
    const char* stack_sep = "";
    for (const auto& stack : section.batch.stacks) {
      out += stack_sep;
      stack_sep = ",";
      out += "{\"thread\":";
      internal::AppendQuoted(stack.thread, &out);
      for (const auto& field : Schema::kStackFields) {
        internal::AppendCounter(field.name, stack.*field.member, &out);
      }
      out += ",\"frames\":[";
      const char* frame_sep = "";
      for (const std::string& frame : stack.frames) {
        out += frame_sep;
        frame_sep = ",";
        internal::AppendQuoted(frame, &out);
      }
      out += "]}";
    }
    out += "]}";
  }
  out += "]}\n";
  return out;
}

// Brendan-Gregg folded text: one "label;thread;root;...;leaf c1 c2 ..."
// line per stack, one column per stack field, tokens cleaned so the
// trailing counters always parse.
template <typename Schema>
std::string FoldedText(const std::vector<typename Schema::Section>& sections) {
  std::string out;
  for (const auto& section : internal::Sorted(sections)) {
    const std::string label = CleanFrameToken(section.label);
    for (const auto& stack : section.batch.stacks) {
      out += label + ";" + CleanFrameToken(stack.thread);
      for (const std::string& frame : stack.frames) {
        out += ';';
        out += CleanFrameToken(frame);
      }
      for (const auto& field : Schema::kStackFields) {
        out += ' ';
        out += std::to_string(stack.*field.member);
      }
      out += '\n';
    }
  }
  return out;
}

}  // namespace simj::stackprof

#endif  // SIMJ_UTIL_STACK_PROFILE_H_
