#include "dist/worker.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>

#include "core/join.h"
#include "util/check.h"
#include "util/log.h"

namespace simj::dist {

const char* TransportName(Transport transport) {
  switch (transport) {
    case Transport::kThread:
      return "thread";
    case Transport::kProcess:
      return "process";
  }
  return "unknown";
}

namespace {

// ---------------------------------------------------------------------------
// Wire codec (DESIGN.md §9). Every frame type has one field visitor: a
// template over the two codecs below, so each field is listed once.
// ByteWriter appends each visited field; ByteReader fills it from the
// frame. Fixed-width little-endian scalars; the reader is bounds-checked
// and reports corruption through ok() instead of crashing on a torn frame.

class ByteWriter {
 public:
  template <typename T>
  void Num(const T& v) {
    static_assert(std::is_arithmetic_v<T> && !std::is_same_v<T, bool>);
    // Little-endian hosts only (the child is a fork of this very process,
    // so parent and child always agree on representation).
    buf_.append(reinterpret_cast<const char*>(&v), sizeof(v));
  }
  void Bool(const bool& v) { Num(static_cast<uint8_t>(v ? 1 : 0)); }
  void Stage(const core::PruneStage& v) { Num(static_cast<int32_t>(v)); }
  void Str(const std::string& s) {
    Num(static_cast<int32_t>(s.size()));
    buf_.append(s);
  }
  // The element count of a sequence the visitor then walks.
  template <typename T>
  void Count(const std::vector<T>& v, size_t /*min_bytes*/) {
    Num(static_cast<int32_t>(v.size()));
  }
  // Decoding checkpoint; nothing fails on the write side.
  void Section(const char* /*name*/) {}
  std::string Take() { return std::move(buf_); }

 private:
  std::string buf_;
};

class ByteReader {
 public:
  explicit ByteReader(const std::string& buf) : buf_(buf) {}

  template <typename T>
  void Num(T& v) {
    static_assert(std::is_arithmetic_v<T> && !std::is_same_v<T, bool>);
    if (!ok_ || buf_.size() - pos_ < sizeof(v)) {
      ok_ = false;
      return;
    }
    std::memcpy(&v, buf_.data() + pos_, sizeof(v));
    pos_ += sizeof(v);
  }
  // Only the bytes the writer emits are accepted: 0/1 for a bool, a
  // declared enumerator for a PruneStage.
  void Bool(bool& v) {
    uint8_t byte = 0;
    Num(byte);
    if (byte > 1) ok_ = false;
    v = byte == 1;
  }
  void Stage(core::PruneStage& v) {
    int32_t stage = 0;
    Num(stage);
    if (stage < 0 ||
        stage > static_cast<int32_t>(core::PruneStage::kProbabilistic)) {
      ok_ = false;
      return;
    }
    v = static_cast<core::PruneStage>(stage);
  }
  void Str(std::string& s) {
    const size_t n = ReadCount(1);
    if (!ok_) return;
    s = buf_.substr(pos_, n);
    pos_ += n;
  }
  // Sizes `v` from the element count; every count is bounded by the bytes
  // left before any resize can act on it.
  template <typename T>
  void Count(std::vector<T>& v, size_t min_bytes) {
    v.resize(ReadCount(min_bytes));
  }
  // Ends a named section of the frame: the first section that ends with
  // the reader failed names the corruption.
  void Section(const char* name) {
    if (!ok_ && failed_section_ == nullptr) failed_section_ = name;
  }
  const char* failed_section() const { return failed_section_; }
  bool AtEnd() const { return ok_ && pos_ == buf_.size(); }

 private:
  // Reads an element count; each element takes at least `min_bytes`, so a
  // count the frame cannot hold is corruption. A failed reader reads 0.
  size_t ReadCount(size_t min_bytes) {
    int32_t n = 0;
    Num(n);
    if (!ok_ || n < 0 ||
        static_cast<size_t>(n) > (buf_.size() - pos_) / min_bytes) {
      ok_ = false;
      return 0;
    }
    return static_cast<size_t>(n);
  }

  const std::string& buf_;
  size_t pos_ = 0;
  bool ok_ = true;
  const char* failed_section_ = nullptr;
};

// Request: shard id + fault to honor + trace context + the pair list.
// heap_sample_bytes was appended last (additive; the child is a fork of
// this binary, so encoder and decoder change together).
template <typename IO, typename ShardT, typename FaultT, typename ContextT>
void VisitRequest(IO& io, ShardT& shard, FaultT& fault, ContextT& span_ctx) {
  io.Num(shard.shard_id);
  io.Num(fault.delay_ms);
  io.Num(fault.die_after_pairs);
  io.Bool(span_ctx.collect);
  io.Num(span_ctx.trace_id);
  io.Num(span_ctx.parent_span_id);
  io.Num(span_ctx.profile_hz);
  io.Count(shard.pairs, 2 * sizeof(int32_t));
  for (auto& [qi, gi] : shard.pairs) {
    io.Num(qi);
    io.Num(gi);
  }
  io.Num(span_ctx.heap_sample_bytes);
}

// Minimum encoded sizes, for bounding decoded counts.
constexpr size_t kPairMinBytes =
    4 * sizeof(int32_t) + sizeof(double);  // + mapping entries
constexpr size_t kExplainMinBytes = 6 * sizeof(int32_t) + 3 * sizeof(uint8_t) +
                                    3 * sizeof(double) + 2 * sizeof(int64_t);
constexpr size_t kSlowPairMinBytes = sizeof(double) + kExplainMinBytes;
constexpr size_t kSpanMinBytes = 2 * sizeof(int32_t) + 2 * sizeof(double) +
                                 2 * sizeof(uint64_t);  // + name bytes

template <typename IO, typename Stats>
void VisitStats(IO& io, Stats& s) {
  io.Num(s.total_pairs);
  io.Num(s.pruned_structural);
  io.Num(s.pruned_count_bound);
  io.Num(s.pruned_probabilistic);
  io.Num(s.candidates);
  io.Num(s.results);
  io.Num(s.css_bound_calls);
  io.Num(s.verify.worlds_enumerated);
  io.Num(s.verify.worlds_pruned_by_bound);
  io.Num(s.verify.worlds_accepted_by_upper_bound);
  io.Num(s.verify.ged_calls);
  io.Num(s.verify.ged_aborted);
  io.Num(s.pruning_cpu_seconds);
  io.Num(s.verification_cpu_seconds);
}

template <typename IO, typename Pair>
void VisitPair(IO& io, Pair& p) {
  io.Num(p.q_index);
  io.Num(p.g_index);
  io.Num(p.similarity_probability);
  io.Num(p.best_world_ged);
  io.Count(p.mapping, sizeof(int32_t));
  for (auto& m : p.mapping) io.Num(m);
  io.Section("mapping");
}

template <typename IO, typename Explain>
void VisitExplain(IO& io, Explain& e) {
  io.Num(e.q_index);
  io.Num(e.g_index);
  io.Stage(e.pruned_by);
  io.Bool(e.accepted);
  io.Num(e.css_lower_bound);
  io.Num(e.simp_upper_bound);
  io.Num(e.live_groups);
  io.Num(e.live_mass);
  io.Num(e.simp_probability);
  io.Bool(e.early_accept);
  io.Bool(e.early_reject);
  io.Num(e.worlds_enumerated);
  io.Num(e.ged_calls);
  io.Num(e.best_world_ged);
}

// tid/pid are not shipped: the coordinator re-files shipped spans under
// the worker's process lane.
template <typename IO, typename Span>
void VisitSpan(IO& io, Span& span) {
  io.Str(span.name);
  io.Str(span.category);
  io.Num(span.ts_us);
  io.Num(span.dur_us);
  io.Num(span.trace_id);
  io.Num(span.parent_span_id);
}

// A profiler batch (prof::SampleBatch or heapprof::HeapBatch), laid out by
// its schema: the batch fields, then per stack the thread, the stack
// fields and the frames. Frames ship symbolized — a child's addresses
// mean nothing to the parent, so symbolization cannot be deferred across
// the pipe.
template <typename Schema, typename IO, typename Batch>
void VisitBatch(IO& io, Batch& batch, const char* section) {
  for (const auto& field : Schema::kBatchFields) io.Num(batch.*field.member);
  constexpr size_t kStackMinBytes =
      2 * sizeof(int32_t) + Schema::kStackFields.size() * sizeof(int64_t);
  io.Count(batch.stacks, kStackMinBytes);
  for (auto& stack : batch.stacks) {
    io.Str(stack.thread);
    for (const auto& field : Schema::kStackFields) io.Num(stack.*field.member);
    io.Count(stack.frames, sizeof(int32_t));
    for (auto& frame : stack.frames) io.Str(frame);
  }
  io.Section(section);
}

// The response frame. The profiler batches are empty unless the request
// carried profile_hz or heap_sample_bytes > 0; heap counters are deltas
// since the worker's previous drain. The heap batch is the last section.
template <typename IO, typename Result>
void VisitResult(IO& io, Result& result) {
  io.Num(result.shard_id);
  VisitStats(io, result.stats);
  io.Count(result.pairs, kPairMinBytes);
  io.Section("pair count");
  for (auto& pair : result.pairs) VisitPair(io, pair);
  io.Count(result.explains, kExplainMinBytes);
  io.Section("explain count");
  for (auto& explain : result.explains) VisitExplain(io, explain);
  io.Section("explain");
  io.Count(result.slow_pairs, kSlowPairMinBytes);
  io.Section("slow pair count");
  for (auto& slow : result.slow_pairs) {
    io.Num(slow.elapsed_ms);
    VisitExplain(io, slow.explain);
  }
  io.Section("slow pair");
  io.Count(result.spans, kSpanMinBytes);
  io.Section("span count");
  for (auto& span : result.spans) VisitSpan(io, span);
  VisitBatch<prof::ProfileSchema>(io, result.profile, "profile batch");
  VisitBatch<heapprof::HeapSchema>(io, result.heap, "heap batch");
}

}  // namespace

std::string EncodeResult(const ShardResult& result) {
  ByteWriter w;
  VisitResult(w, result);
  return w.Take();
}

StatusOr<ShardResult> DecodeResult(const std::string& frame) {
  ByteReader r(frame);
  ShardResult result;
  VisitResult(r, result);
  if (!r.AtEnd()) {
    const char* section = r.failed_section();
    return InternalError(std::string("shard response corrupt (") +
                         (section != nullptr ? section : "trailing bytes") +
                         ")");
  }
  return result;
}

namespace {

// The one shard executor: every shard runs here, on a dispatch thread or
// in a forked child. Sleeps for the injected delay. An injected death
// evaluates the prefix (its published counts stand, exactly as a crashed
// worker's side effects would), discards what it captured and fails.
// Otherwise evaluates every pair, tags the captured spans with the
// attempt's trace context and ships the pending profiler batches: a forked
// child owns its whole profiler and drains every thread, a dispatch thread
// only its own.
StatusOr<ShardResult> ExecuteShard(const WorkerContext& ctx, int worker_index,
                                   const Shard& shard, const FaultSpec& fault,
                                   const SpanContext& span_ctx,
                                   bool drain_all_threads) {
  if (fault.delay_ms > 0.0) {
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(fault.delay_ms));
  }
  // The capture works regardless of a forked child's inherited enabled_
  // snapshot; timestamps stay on the parent's timeline because
  // steady_clock is machine-wide and epoch_ survives fork().
  trace::Tracer& tracer = trace::Tracer::Global();
  if (span_ctx.collect) tracer.BeginThreadCapture();
  core::JoinResult evaluated;
  ShardResult result;
  if (fault.die_after_pairs >= 0) {
    const size_t prefix = std::min(shard.pairs.size(),
                                   static_cast<size_t>(fault.die_after_pairs));
    const std::vector<std::pair<int, int>> partial(
        shard.pairs.begin(), shard.pairs.begin() + static_cast<long>(prefix));
    core::EvaluatePairList(*ctx.d, *ctx.u, *ctx.summaries, *ctx.params,
                           *ctx.dict, partial, worker_index, &evaluated,
                           &result.slow_pairs);
    if (span_ctx.collect) (void)tracer.EndThreadCapture();
    // Only the thread transport's message reaches the coordinator (as the
    // requeue detail): a dying child exits without responding.
    return InternalError("injected death: thread worker abandoned shard " +
                         std::to_string(shard.shard_id) + " after " +
                         std::to_string(prefix) + " pairs");
  }
  core::EvaluatePairList(*ctx.d, *ctx.u, *ctx.summaries, *ctx.params,
                         *ctx.dict, shard.pairs, worker_index, &evaluated,
                         &result.slow_pairs);
  result.shard_id = shard.shard_id;
  result.stats = evaluated.stats;
  result.pairs = std::move(evaluated.pairs);
  result.explains = std::move(evaluated.explains);
  if (span_ctx.collect) {
    result.spans = tracer.EndThreadCapture();
    for (trace::TraceEvent& span : result.spans) {
      span.trace_id = span_ctx.trace_id;
      span.parent_span_id = span_ctx.parent_span_id;
    }
  }
  if (span_ctx.profile_hz > 0 && prof::ProfilingActive()) {
    result.profile = drain_all_threads ? prof::DrainAllThreadsBatch()
                                       : prof::DrainThisThreadBatch();
  }
  if (span_ctx.heap_sample_bytes > 0 && heapprof::HeapProfilingActive()) {
    result.heap = drain_all_threads ? heapprof::DrainAllThreadsBatch()
                                    : heapprof::DrainThisThreadBatch();
  }
  return result;
}

// Child-side serve loop: read a request frame, run the executor, respond;
// exit cleanly on EOF. An injected death _exit()s without responding, so
// the parent observes EOF mid-conversation. The child runs against its
// inherited memory snapshot with sanitized params: no logging (its pairs
// over the budget ship in the response for the coordinator to log), no
// progress lines and no extra threads — it must never touch locks a parent
// thread might have held at fork time.
int ServeShards(WorkerContext ctx, int request_fd, int response_fd) {
  core::SimJParams params = *ctx.params;
  params.num_threads = 1;
  params.progress_every = 0;
  ctx.params = &params;
  for (;;) {
    StatusOr<std::string> frame = subprocess::ReadFrame(request_fd);
    if (!frame.ok()) {
      // Clean EOF = coordinator shut us down; anything else is a torn pipe.
      return frame.status().code() == StatusCode::kNotFound ? 0 : 2;
    }
    Shard shard;
    FaultSpec fault;
    SpanContext span_ctx;
    ByteReader reader(frame.value());
    VisitRequest(reader, shard, fault, span_ctx);
    if (!reader.AtEnd()) return 2;
    // The coordinator's captures cannot see this process: run our own
    // profilers at the requested settings, arming on first sight (the
    // inherited parent state is stale post-fork; the atfork handler cleared
    // the heap profiler's, StartProfiling resets the CPU one) and disarming
    // when the coordinator's capture ends — the final drain already shipped
    // with the last profiled response, so the residual is discardable.
    if (span_ctx.profile_hz > 0 && !prof::ProfilingActive()) {
      prof::NoteThisThread("serve");
      Status armed =
          prof::StartProfiling(prof::ProfileOptions{span_ctx.profile_hz});
      if (!armed.ok()) {
        SIMJ_LOG(WARN) << "shard child profiler: " << armed.ToString();
      }
    } else if (span_ctx.profile_hz == 0 && prof::ProfilingActive()) {
      SIMJ_IGNORE_STATUS(prof::StopProfiling().status());
    }
    if (span_ctx.heap_sample_bytes > 0 && !heapprof::HeapProfilingActive()) {
      heapprof::NoteThisThread("serve");
      Status armed = heapprof::StartHeapProfiling(
          heapprof::HeapProfileOptions{span_ctx.heap_sample_bytes});
      if (!armed.ok()) {
        SIMJ_LOG(WARN) << "shard child heap profiler: " << armed.ToString();
      }
    } else if (span_ctx.heap_sample_bytes == 0 &&
               heapprof::HeapProfilingActive()) {
      SIMJ_IGNORE_STATUS(heapprof::StopHeapProfiling().status());
    }
    StatusOr<ShardResult> result =
        ExecuteShard(ctx, /*worker_index=*/0, shard, fault, span_ctx,
                     /*drain_all_threads=*/true);
    if (!result.ok()) return 3;  // died mid-shard without responding
    if (!subprocess::WriteFrame(response_fd, EncodeResult(result.value()))
             .ok()) {
      return 2;
    }
  }
}

}  // namespace

ShardWorker::ShardWorker(const WorkerContext& ctx, int worker_index,
                         Transport transport)
    : ctx_(ctx), worker_index_(worker_index) {
  SIMJ_CHECK(ctx.d != nullptr && ctx.u != nullptr &&
             ctx.summaries != nullptr && ctx.params != nullptr &&
             ctx.dict != nullptr);
  if (transport != Transport::kProcess) return;
  child_.emplace();  // not running yet: Restart() only spawns
  Status spawned = Restart();
  if (!spawned.ok()) {
    SIMJ_LOG(ERROR) << "dist: spawning process worker " << worker_index
                    << " failed (" << spawned.ToString()
                    << "); degrading this slot to the thread transport";
    child_.reset();
  }
}

StatusOr<ShardResult> ShardWorker::RunShard(const Shard& shard,
                                            const FaultSpec& fault,
                                            const SpanContext& span_ctx) {
  if (!child_.has_value()) {
    return ExecuteShard(ctx_, worker_index_, shard, fault, span_ctx,
                        /*drain_all_threads=*/false);
  }
  if (!child_->running()) {
    return FailedPreconditionError("process worker " +
                                   std::to_string(worker_index_) +
                                   " has no live child");
  }
  ByteWriter request;
  VisitRequest(request, shard, fault, span_ctx);
  Status status = subprocess::WriteFrame(child_->request_fd(), request.Take());
  if (!status.ok()) return status;
  StatusOr<std::string> response = subprocess::ReadFrame(child_->response_fd());
  if (!response.ok()) {
    // EOF here means the child died mid-shard (injected or real).
    return InternalError("process worker " + std::to_string(worker_index_) +
                         " died on shard " + std::to_string(shard.shard_id) +
                         ": " + response.status().message());
  }
  StatusOr<ShardResult> result = DecodeResult(response.value());
  if (result.ok() && result.value().shard_id != shard.shard_id) {
    return InternalError("shard response id mismatch: sent " +
                         std::to_string(shard.shard_id) + ", got " +
                         std::to_string(result.value().shard_id));
  }
  return result;
}

Status ShardWorker::Restart() {
  if (!child_.has_value()) return Status::Ok();
  child_->Kill();
  (void)child_->Wait();
  const WorkerContext ctx = ctx_;
  StatusOr<subprocess::ChildProcess> child = subprocess::ChildProcess::Spawn(
      [ctx](int request_fd, int response_fd) {
        return ServeShards(ctx, request_fd, response_fd);
      });
  if (!child.ok()) return child.status();
  *child_ = std::move(child).value();
  return Status::Ok();
}

}  // namespace simj::dist
