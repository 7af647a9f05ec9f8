#include "dist/worker.h"

#include <chrono>
#include <cstdint>
#include <cstring>
#include <string>
#include <thread>
#include <utility>

#include "core/join.h"
#include "util/check.h"
#include "util/log.h"
#include "util/subprocess.h"

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

void SleepMs(double ms) {
  if (ms <= 0.0) return;
  std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
}

// ---------------------------------------------------------------------------
// Wire codec (DESIGN.md §9). Fixed-width little-endian scalars appended to a
// std::string; the reader is bounds-checked and reports corruption through
// ok() instead of crashing on a torn frame.

class ByteWriter {
 public:
  void U8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void I32(int32_t v) { Raw(&v, sizeof(v)); }
  void I64(int64_t v) { Raw(&v, sizeof(v)); }
  void U64(uint64_t v) { Raw(&v, sizeof(v)); }
  void F64(double v) { Raw(&v, sizeof(v)); }
  void Str(const std::string& s) {
    I32(static_cast<int32_t>(s.size()));
    buf_.append(s);
  }
  std::string Take() { return std::move(buf_); }

 private:
  void Raw(const void* p, size_t n) {
    // Little-endian hosts only (the child is a fork of this very process,
    // so parent and child always agree on representation).
    buf_.append(static_cast<const char*>(p), n);
  }
  std::string buf_;
};

class ByteReader {
 public:
  explicit ByteReader(const std::string& buf) : buf_(buf) {}

  uint8_t U8() {
    uint8_t v = 0;
    Raw(&v, sizeof(v));
    return v;
  }
  int32_t I32() {
    int32_t v = 0;
    Raw(&v, sizeof(v));
    return v;
  }
  int64_t I64() {
    int64_t v = 0;
    Raw(&v, sizeof(v));
    return v;
  }
  uint64_t U64() {
    uint64_t v = 0;
    Raw(&v, sizeof(v));
    return v;
  }
  double F64() {
    double v = 0;
    Raw(&v, sizeof(v));
    return v;
  }
  std::string Str() {
    const size_t n = static_cast<size_t>(Count(1));
    if (!ok_) return std::string();
    std::string s = buf_.substr(pos_, n);
    pos_ += n;
    return s;
  }
  // Reads an element count and bounds it by the bytes left: each element
  // takes at least `min_bytes`, so a count the frame cannot hold is
  // corruption — rejected here, before any reserve() can act on it.
  int32_t Count(size_t min_bytes) {
    const int32_t n = I32();
    if (!ok_ || n < 0 ||
        static_cast<size_t>(n) > (buf_.size() - pos_) / min_bytes) {
      ok_ = false;
      return 0;
    }
    return n;
  }
  bool ok() const { return ok_; }
  bool AtEnd() const { return ok_ && pos_ == buf_.size(); }

 private:
  void Raw(void* p, size_t n) {
    if (!ok_ || buf_.size() - pos_ < n) {
      ok_ = false;
      return;
    }
    std::memcpy(p, buf_.data() + pos_, n);
    pos_ += n;
  }
  const std::string& buf_;
  size_t pos_ = 0;
  bool ok_ = true;
};

// Request: shard id + fault to honor + trace context + the pair list.
std::string EncodeRequest(const Shard& shard, const FaultSpec& fault,
                          const SpanContext& span_ctx) {
  ByteWriter w;
  w.I32(shard.shard_id);
  w.F64(fault.delay_ms);
  w.I32(fault.die_after_pairs);
  w.U8(span_ctx.collect ? 1 : 0);
  w.U64(span_ctx.trace_id);
  w.U64(span_ctx.parent_span_id);
  w.I32(span_ctx.profile_hz);
  w.I32(static_cast<int32_t>(shard.pairs.size()));
  for (const auto& [qi, gi] : shard.pairs) {
    w.I32(qi);
    w.I32(gi);
  }
  // Additive field, appended last so the frame prefix is unchanged (the
  // child is a fork of this binary: encoder and decoder change together).
  w.I64(span_ctx.heap_sample_bytes);
  return w.Take();
}

struct Request {
  int shard_id = -1;
  FaultSpec fault;
  SpanContext span_ctx;
  std::vector<std::pair<int, int>> pairs;
};

bool DecodeRequest(const std::string& frame, Request* out) {
  ByteReader r(frame);
  out->shard_id = r.I32();
  out->fault.delay_ms = r.F64();
  out->fault.die_after_pairs = r.I32();
  out->span_ctx.collect = r.U8() != 0;
  out->span_ctx.trace_id = r.U64();
  out->span_ctx.parent_span_id = r.U64();
  out->span_ctx.profile_hz = r.I32();
  out->pairs.resize(static_cast<size_t>(r.Count(2 * sizeof(int32_t))));
  for (auto& [qi, gi] : out->pairs) {
    qi = r.I32();
    gi = r.I32();
  }
  out->span_ctx.heap_sample_bytes = r.I64();
  return r.AtEnd();
}

// Minimum encoded sizes, for bounding decoded counts (ByteReader::Count).
constexpr size_t kPairMinBytes =
    4 * sizeof(int32_t) + sizeof(double);  // + mapping entries
constexpr size_t kExplainMinBytes = 6 * sizeof(int32_t) + 3 * sizeof(uint8_t) +
                                    3 * sizeof(double) + 2 * sizeof(int64_t);
constexpr size_t kSpanMinBytes = 2 * sizeof(int32_t) + 2 * sizeof(double) +
                                 2 * sizeof(uint64_t);  // + name bytes

// A profiler batch (prof::SampleBatch or heapprof::HeapBatch), laid out by
// its schema: the batch fields, then per stack the thread, the stack
// fields and the frames. Frames ship symbolized — a child's addresses
// mean nothing to the parent, so symbolization cannot be deferred across
// the pipe.
template <typename Schema, typename Batch>
void EncodeBatch(const Batch& batch, ByteWriter* w) {
  for (const auto& field : Schema::kBatchFields) w->I64(batch.*field.member);
  w->I32(static_cast<int32_t>(batch.stacks.size()));
  for (const auto& stack : batch.stacks) {
    w->Str(stack.thread);
    for (const auto& field : Schema::kStackFields) w->I64(stack.*field.member);
    w->I32(static_cast<int32_t>(stack.frames.size()));
    for (const std::string& frame : stack.frames) w->Str(frame);
  }
}

// A failed read leaves the reader !ok(), after which every count reads as
// 0, so one check at the end covers the whole batch.
template <typename Schema, typename Batch>
Status DecodeBatch(const char* what, ByteReader* r, Batch* batch) {
  for (const auto& field : Schema::kBatchFields) {
    batch->*field.member = r->I64();
  }
  constexpr size_t kStackMinBytes =
      2 * sizeof(int32_t) + Schema::kStackFields.size() * sizeof(int64_t);
  batch->stacks.resize(static_cast<size_t>(r->Count(kStackMinBytes)));
  for (auto& stack : batch->stacks) {
    stack.thread = r->Str();
    for (const auto& field : Schema::kStackFields) {
      stack.*field.member = r->I64();
    }
    stack.frames.resize(static_cast<size_t>(r->Count(sizeof(int32_t))));
    for (std::string& frame : stack.frames) frame = r->Str();
  }
  if (!r->ok()) {
    return InternalError(std::string("shard response corrupt (") + what +
                         " batch)");
  }
  return Status::Ok();
}

}  // namespace

std::string EncodeResult(const ShardResult& result) {
  ByteWriter w;
  w.I32(result.shard_id);
  const core::JoinStats& s = result.stats;
  w.I64(s.total_pairs);
  w.I64(s.pruned_structural);
  w.I64(s.pruned_probabilistic);
  w.I64(s.candidates);
  w.I64(s.results);
  w.I64(s.verify.worlds_enumerated);
  w.I64(s.verify.worlds_pruned_by_bound);
  w.I64(s.verify.worlds_accepted_by_upper_bound);
  w.I64(s.verify.ged_calls);
  w.I64(s.verify.ged_aborted);
  w.F64(s.pruning_cpu_seconds);
  w.F64(s.verification_cpu_seconds);
  w.I32(static_cast<int32_t>(result.pairs.size()));
  for (const core::MatchedPair& p : result.pairs) {
    w.I32(p.q_index);
    w.I32(p.g_index);
    w.F64(p.similarity_probability);
    w.I32(p.best_world_ged);
    w.I32(static_cast<int32_t>(p.mapping.size()));
    for (int m : p.mapping) w.I32(m);
  }
  w.I32(static_cast<int32_t>(result.explains.size()));
  for (const core::PairExplain& e : result.explains) {
    w.I32(e.q_index);
    w.I32(e.g_index);
    w.I32(static_cast<int32_t>(e.pruned_by));
    w.U8(e.accepted ? 1 : 0);
    w.I32(e.css_lower_bound);
    w.F64(e.simp_upper_bound);
    w.I32(e.live_groups);
    w.F64(e.live_mass);
    w.F64(e.simp_probability);
    w.U8(e.early_accept ? 1 : 0);
    w.U8(e.early_reject ? 1 : 0);
    w.I64(e.worlds_enumerated);
    w.I64(e.ged_calls);
    w.I32(e.best_world_ged);
  }
  // Span batch (empty unless the request asked to collect). tid/pid are
  // not shipped: the coordinator re-files shipped spans under the worker's
  // process lane.
  w.I32(static_cast<int32_t>(result.spans.size()));
  for (const trace::TraceEvent& span : result.spans) {
    w.Str(span.name);
    w.Str(span.category);
    w.F64(span.ts_us);
    w.F64(span.dur_us);
    w.U64(span.trace_id);
    w.U64(span.parent_span_id);
  }
  // Profiler batches (empty unless the request carried profile_hz or
  // heap_sample_bytes > 0). Heap counters are deltas since this worker's
  // previous drain. The heap batch was appended last (additive).
  EncodeBatch<prof::ProfileSchema>(result.profile, &w);
  EncodeBatch<heapprof::HeapSchema>(result.heap, &w);
  return w.Take();
}

StatusOr<ShardResult> DecodeResult(const std::string& frame) {
  ByteReader r(frame);
  ShardResult result;
  result.shard_id = r.I32();
  core::JoinStats& s = result.stats;
  s.total_pairs = r.I64();
  s.pruned_structural = r.I64();
  s.pruned_probabilistic = r.I64();
  s.candidates = r.I64();
  s.results = r.I64();
  s.verify.worlds_enumerated = r.I64();
  s.verify.worlds_pruned_by_bound = r.I64();
  s.verify.worlds_accepted_by_upper_bound = r.I64();
  s.verify.ged_calls = r.I64();
  s.verify.ged_aborted = r.I64();
  s.pruning_cpu_seconds = r.F64();
  s.verification_cpu_seconds = r.F64();
  // Every count is bounded by ByteReader::Count before it sizes a vector.
  result.pairs.resize(static_cast<size_t>(r.Count(kPairMinBytes)));
  if (!r.ok()) return InternalError("shard response corrupt (pair count)");
  for (core::MatchedPair& p : result.pairs) {
    p.q_index = r.I32();
    p.g_index = r.I32();
    p.similarity_probability = r.F64();
    p.best_world_ged = r.I32();
    p.mapping.resize(static_cast<size_t>(r.Count(sizeof(int32_t))));
    if (!r.ok()) return InternalError("shard response corrupt (mapping)");
    for (int& m : p.mapping) m = r.I32();
  }
  result.explains.resize(static_cast<size_t>(r.Count(kExplainMinBytes)));
  if (!r.ok()) return InternalError("shard response corrupt (explain count)");
  for (core::PairExplain& e : result.explains) {
    e.q_index = r.I32();
    e.g_index = r.I32();
    e.pruned_by = static_cast<core::PruneStage>(r.I32());
    e.accepted = r.U8() != 0;
    e.css_lower_bound = r.I32();
    e.simp_upper_bound = r.F64();
    e.live_groups = r.I32();
    e.live_mass = r.F64();
    e.simp_probability = r.F64();
    e.early_accept = r.U8() != 0;
    e.early_reject = r.U8() != 0;
    e.worlds_enumerated = r.I64();
    e.ged_calls = r.I64();
    e.best_world_ged = r.I32();
  }
  result.spans.resize(static_cast<size_t>(r.Count(kSpanMinBytes)));
  if (!r.ok()) return InternalError("shard response corrupt (span count)");
  for (trace::TraceEvent& span : result.spans) {
    span.name = r.Str();
    span.category = r.Str();
    span.ts_us = r.F64();
    span.dur_us = r.F64();
    span.trace_id = r.U64();
    span.parent_span_id = r.U64();
  }
  Status batch =
      DecodeBatch<prof::ProfileSchema>("profile", &r, &result.profile);
  if (!batch.ok()) return batch;
  batch = DecodeBatch<heapprof::HeapSchema>("heap", &r, &result.heap);
  if (!batch.ok()) return batch;
  if (!r.AtEnd()) {
    return InternalError("shard response corrupt (trailing bytes)");
  }
  return result;
}

namespace {

// Evaluates `pairs` into a ShardResult via the shared core evaluator.
ShardResult EvaluateShardPairs(const WorkerContext& ctx,
                               const core::SimJParams& params, int shard_id,
                               const std::vector<std::pair<int, int>>& pairs,
                               int worker_index) {
  core::JoinResult r;
  core::EvaluatePairList(*ctx.d, *ctx.u, *ctx.summaries, params, *ctx.dict,
                         pairs, worker_index, &r);
  ShardResult out;
  out.shard_id = shard_id;
  out.stats = r.stats;
  out.pairs = std::move(r.pairs);
  out.explains = std::move(r.explains);
  return out;
}

// Stamps the attempt's trace context onto every captured span.
void TagSpans(std::vector<trace::TraceEvent>* spans,
              const SpanContext& span_ctx) {
  for (trace::TraceEvent& span : *spans) {
    span.trace_id = span_ctx.trace_id;
    span.parent_span_id = span_ctx.parent_span_id;
  }
}

// ---------------------------------------------------------------------------
// Thread transport.

class ThreadWorker final : public ShardWorker {
 public:
  ThreadWorker(const WorkerContext& ctx, int worker_index)
      : ctx_(ctx), worker_index_(worker_index) {}

  StatusOr<ShardResult> RunShard(const Shard& shard, const FaultSpec& fault,
                                 const SpanContext& span_ctx) override {
    trace::Tracer& tracer = trace::Tracer::Global();
    SleepMs(fault.delay_ms);
    if (fault.die_after_pairs >= 0) {
      // Die mid-shard: evaluate the prefix (its registry increments stand,
      // exactly as a crashed worker's side effects would), then abandon
      // the shard without returning the partial result.
      const size_t prefix = std::min(shard.pairs.size(),
                                     static_cast<size_t>(fault.die_after_pairs));
      const std::vector<std::pair<int, int>> partial(
          shard.pairs.begin(),
          shard.pairs.begin() + static_cast<long>(prefix));
      if (span_ctx.collect) tracer.BeginThreadCapture();
      (void)EvaluateShardPairs(ctx_, *ctx_.params, shard.shard_id, partial,
                               worker_index_);
      // A dying worker ships nothing: discard the partial capture, exactly
      // as the process transport's child dies without responding.
      if (span_ctx.collect) (void)tracer.EndThreadCapture();
      return InternalError("injected death: thread worker abandoned shard " +
                           std::to_string(shard.shard_id) + " after " +
                           std::to_string(prefix) + " pairs");
    }
    if (span_ctx.collect) tracer.BeginThreadCapture();
    ShardResult result = EvaluateShardPairs(ctx_, *ctx_.params, shard.shard_id,
                                            shard.pairs, worker_index_);
    if (span_ctx.collect) {
      result.spans = tracer.EndThreadCapture();
      TagSpans(&result.spans, span_ctx);
    }
    if (span_ctx.profile_hz > 0 && prof::ProfilingActive()) {
      // Ship this dispatch thread's samples so the thread transport files
      // them under "worker-N", symmetric with a forked child's section.
      result.profile = prof::DrainThisThreadBatch();
    }
    if (span_ctx.heap_sample_bytes > 0 && heapprof::HeapProfilingActive()) {
      // Likewise for heap entries: deltas since this thread's last drain.
      result.heap = heapprof::DrainThisThreadBatch();
    }
    return result;
  }

  Status Restart() override { return Status::Ok(); }
  bool counts_in_process() const override { return true; }
  Transport transport() const override { return Transport::kThread; }

 private:
  const WorkerContext ctx_;
  const int worker_index_;
};

// ---------------------------------------------------------------------------
// Process transport.

// Child-side serve loop: read a request frame, evaluate, respond; exit
// cleanly on EOF. An injected death _exit()s without responding, so the
// parent observes EOF mid-conversation. The child runs against its
// inherited memory snapshot with sanitized params: no logging, watchdogs,
// progress, or extra threads — it must never touch locks a parent thread
// might have held at fork time.
int ServeShards(const WorkerContext& ctx, int request_fd, int response_fd) {
  core::SimJParams params = *ctx.params;
  params.num_threads = 1;
  params.slow_pair_log_ms = 0.0;
  params.stall_warn_ms = 0.0;
  params.progress_every = 0;
  for (;;) {
    StatusOr<std::string> frame = subprocess::ReadFrame(request_fd);
    if (!frame.ok()) {
      // Clean EOF = coordinator shut us down; anything else is a torn pipe.
      return frame.status().code() == StatusCode::kNotFound ? 0 : 2;
    }
    Request request;
    if (!DecodeRequest(frame.value(), &request)) return 2;
    // The coordinator's capture cannot see this process: run our own
    // profiler at the requested frequency, arming on first sight (the
    // inherited parent state is stale post-fork; StartProfiling resets
    // it) and disarming when the coordinator's capture ends.
    if (request.span_ctx.profile_hz > 0 && !prof::ProfilingActive()) {
      prof::NoteThisThread("serve");
      Status armed = prof::StartProfiling(
          prof::ProfileOptions{request.span_ctx.profile_hz});
      if (!armed.ok()) {
        SIMJ_LOG(WARN) << "shard child profiler: " << armed.ToString();
      }
    } else if (request.span_ctx.profile_hz == 0 && prof::ProfilingActive()) {
      // The capture window closed; the final drain already shipped with the
      // last profiled response, so the residual profile is discardable.
      SIMJ_IGNORE_STATUS(prof::StopProfiling().status());
    }
    // Same arm/disarm contract for the heap capture. The atfork handler
    // cleared the parent's armed state in this child, so HeapProfilingActive
    // is false until we arm our own.
    if (request.span_ctx.heap_sample_bytes > 0 &&
        !heapprof::HeapProfilingActive()) {
      heapprof::NoteThisThread("serve");
      Status armed = heapprof::StartHeapProfiling(
          heapprof::HeapProfileOptions{request.span_ctx.heap_sample_bytes});
      if (!armed.ok()) {
        SIMJ_LOG(WARN) << "shard child heap profiler: " << armed.ToString();
      }
    } else if (request.span_ctx.heap_sample_bytes == 0 &&
               heapprof::HeapProfilingActive()) {
      SIMJ_IGNORE_STATUS(heapprof::StopHeapProfiling().status());
    }
    SleepMs(request.fault.delay_ms);
    if (request.fault.die_after_pairs >= 0) {
      const size_t prefix =
          std::min(request.pairs.size(),
                   static_cast<size_t>(request.fault.die_after_pairs));
      const std::vector<std::pair<int, int>> partial(
          request.pairs.begin(),
          request.pairs.begin() + static_cast<long>(prefix));
      (void)EvaluateShardPairs(ctx, params, request.shard_id, partial,
                               /*worker_index=*/0);
      return 3;  // _exit(3): died mid-shard without responding
    }
    // The capture works regardless of the inherited enabled_ snapshot (the
    // fork may land with tracing on or off in the parent); timestamps stay
    // on the parent's timeline because steady_clock is machine-wide and
    // epoch_ survives fork().
    if (request.span_ctx.collect) trace::Tracer::Global().BeginThreadCapture();
    ShardResult result = EvaluateShardPairs(
        ctx, params, request.shard_id, request.pairs, /*worker_index=*/0);
    if (request.span_ctx.collect) {
      result.spans = trace::Tracer::Global().EndThreadCapture();
      TagSpans(&result.spans, request.span_ctx);
    }
    if (request.span_ctx.profile_hz > 0 && prof::ProfilingActive()) {
      // Single-threaded serve loop, but drain every ring anyway so
      // nothing is stranded if the evaluator ever grows helper threads.
      result.profile = prof::DrainAllThreadsBatch();
    }
    if (request.span_ctx.heap_sample_bytes > 0 &&
        heapprof::HeapProfilingActive()) {
      result.heap = heapprof::DrainAllThreadsBatch();
    }
    Status status =
        subprocess::WriteFrame(response_fd, EncodeResult(result));
    if (!status.ok()) return 2;
  }
}

class ProcessWorker final : public ShardWorker {
 public:
  ProcessWorker(const WorkerContext& ctx, int worker_index)
      : ctx_(ctx), worker_index_(worker_index) {}

  Status SpawnChild() {
    const WorkerContext ctx = ctx_;
    StatusOr<subprocess::ChildProcess> child = subprocess::ChildProcess::Spawn(
        [ctx](int request_fd, int response_fd) {
          return ServeShards(ctx, request_fd, response_fd);
        });
    if (!child.ok()) return child.status();
    child_ = std::move(child).value();
    return Status::Ok();
  }

  StatusOr<ShardResult> RunShard(const Shard& shard, const FaultSpec& fault,
                                 const SpanContext& span_ctx) override {
    if (!child_.running()) {
      return FailedPreconditionError("process worker " +
                                     std::to_string(worker_index_) +
                                     " has no live child");
    }
    Status status = subprocess::WriteFrame(
        child_.request_fd(), EncodeRequest(shard, fault, span_ctx));
    if (!status.ok()) return status;
    StatusOr<std::string> response = subprocess::ReadFrame(child_.response_fd());
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

  Status Restart() override {
    child_.Kill();
    (void)child_.Wait();
    return SpawnChild();
  }

  bool counts_in_process() const override { return false; }
  Transport transport() const override { return Transport::kProcess; }

 private:
  const WorkerContext ctx_;
  const int worker_index_;
  subprocess::ChildProcess child_;
};

}  // namespace

std::unique_ptr<ShardWorker> MakeThreadWorker(const WorkerContext& ctx,
                                              int worker_index) {
  SIMJ_CHECK(ctx.d != nullptr && ctx.u != nullptr && ctx.params != nullptr &&
             ctx.dict != nullptr);
  return std::make_unique<ThreadWorker>(ctx, worker_index);
}

StatusOr<std::unique_ptr<ShardWorker>> MakeProcessWorker(
    const WorkerContext& ctx, int worker_index) {
  SIMJ_CHECK(ctx.d != nullptr && ctx.u != nullptr && ctx.params != nullptr &&
             ctx.dict != nullptr);
  auto worker = std::make_unique<ProcessWorker>(ctx, worker_index);
  Status status = worker->SpawnChild();
  if (!status.ok()) return status;
  return std::unique_ptr<ShardWorker>(std::move(worker));
}

}  // namespace simj::dist
