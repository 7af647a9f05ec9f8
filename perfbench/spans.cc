#include "spans.h"

#include <cstdio>

namespace perfbench {

int SpanRecorder::Begin(const char* name, uint64_t id, int parent) {
  if (!enabled_) return kNoParent;
  spans_.push_back(Span{name, id, parent, NowNs(), 0});
  return static_cast<int>(spans_.size()) - 1;
}

void SpanRecorder::End(int index) {
  if (index == kNoParent) return;
  spans_[index].end_ns = NowNs();
}

std::map<std::string, SpanRecorder::NameStats> SpanRecorder::Summarize()
    const {
  std::vector<double> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[i] = 1e-9 * static_cast<double>(spans_[i].end_ns - spans_[i].start_ns);
  }
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (span.parent != kNoParent) {
      self[span.parent] -=
          1e-9 * static_cast<double>(span.end_ns - span.start_ns);
    }
  }
  std::map<std::string, NameStats> stats;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    NameStats& s = stats[span.name];
    double duration = 1e-9 * static_cast<double>(span.end_ns - span.start_ns);
    ++s.count;
    s.total_s += duration;
    s.self_s += self[i];
    s.durations_s.push_back(duration);
  }
  return stats;
}

bool SpanRecorder::WriteChromeTrace(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fprintf(out, "{\"traceEvents\":[\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                 "\"span\":%zu,\"parent\":%d}}\n",
                 i == 0 ? "" : ",", s.name, 1e-3 * (s.start_ns - origin),
                 1e-3 * (s.end_ns - s.start_ns),
                 static_cast<unsigned long long>(s.id), i, s.parent);
  }
  std::fprintf(out, "]}\n");
  return std::fclose(out) == 0;
}

}  // namespace perfbench
