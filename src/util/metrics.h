// Process-wide metrics for the join pipeline: named counters, gauges and
// fixed-bucket latency histograms.
//
// The hot path is one relaxed atomic add: every counter/histogram keeps an
// array of cache-line-aligned per-thread shards, each thread hashes to a
// fixed shard (thread-local slot assigned on first use), and readers merge
// the shards on Snapshot(). There are no locks anywhere on the write path;
// the registry mutex is only taken on metric creation and snapshot.
//
// Metrics are created on first use and live for the process lifetime, so
// call sites may cache references:
//
//   static metrics::Counter& requeues =
//       metrics::Registry::Global().GetCounter("simj_dist_shards_requeued_total");
//   requeues.Increment();
//
//   static metrics::Histogram& lat =
//       metrics::Registry::Global().GetHistogram("simj_verify_pair_seconds");
//   { metrics::ScopedLatency t(lat); ... }
//
// Histogram buckets are powers of two in nanoseconds (bucket i holds
// durations in [2^(i-1), 2^i) ns), which makes the bucket index a single
// bit_width and covers 1 ns .. ~2.4 h in kHistogramBuckets buckets.
// Registry::ExpositionText() renders everything in the Prometheus text
// format; ResetForTesting() zeroes values without invalidating cached
// references.

#ifndef SIMJ_UTIL_METRICS_H_
#define SIMJ_UTIL_METRICS_H_

#include <atomic>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "util/sync.h"
#include "util/timer.h"

namespace simj::metrics {

// Shard count per metric. Threads are assigned round-robin, so with more
// live threads than shards some threads share a shard — still correct
// (shards are atomic), just contended.
inline constexpr int kShardCount = 16;

// Fixed bucket count for every histogram. Last bucket is the overflow
// (+Inf) bucket; the largest finite upper bound is 2^(kHistogramBuckets-2)
// ns ~ 2.4 hours.
inline constexpr int kHistogramBuckets = 44;

// Stable per-thread shard slot in [0, kShardCount).
int ThisThreadShard();

// Prometheus label-value escaping: backslash, double quote, and newline
// become \\, \" and \n (the exposition-format rules). Exposed for tests.
std::string EscapeLabelValue(const std::string& value);

// Builds a fully-qualified metric name `family{k1="v1",k2="v2"}` with the
// label values escaped; with no labels returns `family` unchanged. The
// result is the registry key, so two label sets of the same family are two
// independent metrics that the exposition writer groups under one # TYPE
// line:
//
//   Registry::Global()
//       .GetGauge(LabeledName("simj_build_info", {{"git_sha", sha}}))
//       .Set(1.0);
std::string LabeledName(
    const std::string& family,
    const std::vector<std::pair<std::string, std::string>>& labels);

// Splits a registry key produced by LabeledName back into its family and
// the inner label list (no braces; empty when unlabeled). Used by the
// exposition writer to emit # TYPE per family and to splice `le=` into
// histogram bucket series. Exposed for tests.
void SplitMetricName(const std::string& name, std::string* family,
                     std::string* labels);

// Index of the bucket holding a duration of `seconds` (clamped to the
// overflow bucket). Exposed for tests.
int BucketIndexForSeconds(double seconds);

// Exclusive upper bound of bucket `index` in seconds (+Inf for the last
// bucket). Exposed for tests and the exposition writer.
double BucketUpperBoundSeconds(int index);

// Inclusive lower bound of bucket `index` in seconds (0 for bucket 0).
double BucketLowerBoundSeconds(int index);

class Counter {
 public:
  explicit Counter(std::string name) : name_(std::move(name)) {}
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  const std::string& name() const { return name_; }

  void Add(int64_t delta) {
    shards_[ThisThreadShard()].value.fetch_add(delta,
                                               std::memory_order_relaxed);
  }
  void Increment() { Add(1); }

  // Merged value across shards. Exact once writers have quiesced; during
  // concurrent writes it is a valid point-in-time lower bound.
  int64_t Value() const;

  void ResetForTesting();

 private:
  struct alignas(64) Shard {
    std::atomic<int64_t> value{0};
  };
  std::string name_;
  Shard shards_[kShardCount];
};

// Gauges are set-to-current-value metrics (worker counts, sizes); they are
// not sharded. The join's group-fanout UpdateMax runs once per candidate
// pair; it is a relaxed load that stores only on a new peak.
class Gauge {
 public:
  explicit Gauge(std::string name) : name_(std::move(name)) {}
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  const std::string& name() const { return name_; }
  void Set(double value) { value_.store(value, std::memory_order_relaxed); }
  double Value() const { return value_.load(std::memory_order_relaxed); }

  // Monotonic high-water update: keeps the larger of the stored and given
  // values. Lock-free and safe from any thread; the common no-raise case
  // is a single relaxed load.
  void UpdateMax(double value) {
    double current = value_.load(std::memory_order_relaxed);
    while (value > current &&
           !value_.compare_exchange_weak(current, value,
                                         std::memory_order_relaxed)) {
    }
  }

  void ResetForTesting() { Set(0.0); }

 private:
  std::string name_;
  std::atomic<double> value_{0.0};
};

// Merged view of one histogram; also the unit of snapshot merging.
struct HistogramSnapshot {
  std::vector<int64_t> bucket_counts;  // size kHistogramBuckets
  int64_t count = 0;
  double sum_seconds = 0.0;

  // Quantile estimate (q in [0, 1]) by linear interpolation inside the
  // bucket holding the target rank. Returns 0 when empty; the overflow
  // bucket reports its lower bound.
  double Quantile(double q) const;
};

class Histogram {
 public:
  explicit Histogram(std::string name) : name_(std::move(name)) {}
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  const std::string& name() const { return name_; }

  void Observe(double seconds) {
    Shard& shard = shards_[ThisThreadShard()];
    shard.buckets[BucketIndexForSeconds(seconds)].fetch_add(
        1, std::memory_order_relaxed);
    // Sum in integer nanoseconds so a relaxed add suffices (no CAS loop).
    shard.sum_nanos.fetch_add(static_cast<int64_t>(seconds * 1e9),
                              std::memory_order_relaxed);
  }

  HistogramSnapshot Snapshot() const;
  void ResetForTesting();

 private:
  struct alignas(64) Shard {
    std::atomic<int64_t> buckets[kHistogramBuckets] = {};
    std::atomic<int64_t> sum_nanos{0};
  };
  std::string name_;
  Shard shards_[kShardCount];
};

// Point-in-time view of every metric in a registry. Mergeable (counters
// and histogram buckets add, gauges keep the latest non-default value), and
// the merge is associative — asserted by tests.
struct MetricsSnapshot {
  std::map<std::string, int64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSnapshot> histograms;
};

MetricsSnapshot MergeSnapshots(const MetricsSnapshot& a,
                               const MetricsSnapshot& b);

class Registry {
 public:
  static Registry& Global();

  // Create-on-first-use; the returned reference is valid for the process
  // lifetime (metrics are never destroyed or re-created).
  Counter& GetCounter(const std::string& name);
  Gauge& GetGauge(const std::string& name);
  Histogram& GetHistogram(const std::string& name);

  MetricsSnapshot Snapshot() const;

  // Registers a description for a metric family, emitted as a `# HELP
  // family text` line (before the family's `# TYPE` line) in
  // ExpositionText(). Keyed by bare family name — one help string covers
  // every label set of the family. Re-registering replaces the text;
  // families without help get no HELP line. Survives ResetForTesting()
  // (help is registration state, not a value).
  void SetHelp(const std::string& family, const std::string& help);

  // Prometheus text exposition of the current snapshot. Histogram bucket
  // series are cumulative and trimmed to the populated range plus +Inf.
  // Families registered via SetHelp lead with their `# HELP` line.
  std::string ExpositionText() const;

  // Zeroes every value without invalidating references handed out by the
  // getters (cached `static Counter&`s keep working).
  void ResetForTesting();

 private:
  Registry() = default;

  // Leaf lock (nothing else is acquired under it); taken only on metric
  // creation and snapshot — never on the sharded-atomic write path.
  mutable Mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_
      SIMJ_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_ SIMJ_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_
      SIMJ_GUARDED_BY(mu_);
  std::map<std::string, std::string> help_ SIMJ_GUARDED_BY(mu_);
};

// Prometheus HELP-text escaping: backslash and newline become \\ and \n
// (quotes are NOT escaped in HELP lines, unlike label values). Exposed for
// tests.
std::string EscapeHelpText(const std::string& text);

// Renders any snapshot (e.g. a merged one) in the exposition format.
// `help` maps family name -> description; pass nothing for no HELP lines
// (a merged snapshot has no registry to ask).
std::string ExpositionText(const MetricsSnapshot& snapshot);
std::string ExpositionText(const MetricsSnapshot& snapshot,
                           const std::map<std::string, std::string>& help);

// Observes the elapsed wall time of a scope into a histogram.
class ScopedLatency {
 public:
  explicit ScopedLatency(Histogram& histogram) : histogram_(histogram) {}
  ~ScopedLatency() { histogram_.Observe(timer_.ElapsedSeconds()); }
  ScopedLatency(const ScopedLatency&) = delete;
  ScopedLatency& operator=(const ScopedLatency&) = delete;

 private:
  Histogram& histogram_;
  WallTimer timer_;
};

}  // namespace simj::metrics

#endif  // SIMJ_UTIL_METRICS_H_
