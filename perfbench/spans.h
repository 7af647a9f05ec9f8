// In-memory spans recorded by the benchmark around its calls into the
// library's public functions.
//
// Each span has a name, a start, an end and a parent span; spans of one
// join pair or one question share an id. Spans stay in memory until the
// run ends, when WriteChromeTrace may dump them. Recording is
// single-threaded: the benchmark only records from its main thread.
#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class SpanRecorder {
 public:
  static constexpr int kNoParent = -1;

  struct Span {
    const char* name = nullptr;  // string literal, never freed
    uint64_t id = 0;
    int parent = kNoParent;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
  };

  struct NameStats {
    int64_t count = 0;
    double total_s = 0.0;  // inclusive duration
    double self_s = 0.0;   // duration minus the time its children cover
    std::vector<double> durations_s;
  };

  // A disabled recorder records nothing; Begin returns kNoParent.
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  int Begin(const char* name, uint64_t id, int parent = kNoParent);
  void End(int index);
  // Renames a recorded span, e.g. once the call's outcome is known.
  void Rename(int index, const char* name) {
    if (index != kNoParent) spans_[index].name = name;
  }
  size_t size() const { return spans_.size(); }

  // Per span name: count, inclusive and self time. Children of one span
  // never overlap (recording is single-threaded), so self time is the
  // duration minus the sum of the children's durations.
  std::map<std::string, NameStats> Summarize() const;

  // Chrome trace-event JSON ("X" events, one track), written at run end.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  static int64_t NowNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  bool enabled_;
  std::vector<Span> spans_;
};

// RAII span; a no-op when the recorder is disabled.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& recorder, const char* name, uint64_t id,
             int parent = SpanRecorder::kNoParent)
      : recorder_(recorder), index_(recorder.Begin(name, id, parent)) {}
  ~ScopedSpan() { recorder_.End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int index() const { return index_; }

 private:
  SpanRecorder& recorder_;
  int index_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
