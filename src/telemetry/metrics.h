// Engine-wide metrics registry: the "where do time and bytes actually go"
// substrate underneath the per-query profiles (PAPER §4.2 lets users see
// per-operator times; systems serving interactive analytics additionally
// attribute every query to cache hits vs. disk — PowerDrill-style).
//
// Design constraints, in order:
//  1. An increment on the hot path must be a handful of nanoseconds: one
//     relaxed atomic add on a per-thread shard, no locks, no allocation.
//  2. Reads are rare (exposition) and may be O(shards).
//  3. Metric objects live forever once registered, so instrumentation
//     sites cache a `Counter&` in a function-local static and never touch
//     the registry map again.
//
// Instrumentation sites sit OUTSIDE per-row loops — once per scan, per
// task, per file operation — so the counters-only path costs <2% on the
// selection workloads (measured by bench_telemetry, E12).
#ifndef GEOCOL_TELEMETRY_METRICS_H_
#define GEOCOL_TELEMETRY_METRICS_H_

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace geocol {
namespace telemetry {

/// Kill switch for every metric write (relaxed load per update). Exists so
/// bench_telemetry can measure the instrumentation overhead; production
/// leaves it on.
void SetMetricsEnabled(bool enabled);
bool MetricsEnabled();

/// Monotonic counter, sharded by thread to keep concurrent increments off
/// a shared cache line. Value() sums the shards (monotone but not a
/// consistent snapshot across *different* counters).
class Counter {
 public:
  static constexpr size_t kShards = 16;

  void Increment(uint64_t delta = 1) {
    if (!MetricsEnabled()) return;
    shards_[ShardIndex()].value.fetch_add(delta, std::memory_order_relaxed);
  }

  uint64_t Value() const {
    uint64_t sum = 0;
    for (const Shard& s : shards_) sum += s.value.load(std::memory_order_relaxed);
    return sum;
  }

  void Reset() {
    for (Shard& s : shards_) s.value.store(0, std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Shard {
    std::atomic<uint64_t> value{0};
  };
  /// Stable per-thread slot (assigned on first use, round-robin).
  static size_t ShardIndex();

  Shard shards_[kShards];
};

/// Last-write-wins instantaneous value (queue depth, dispatch level).
class Gauge {
 public:
  void Set(int64_t v) {
    if (MetricsEnabled()) value_.store(v, std::memory_order_relaxed);
  }
  void Add(int64_t delta) {
    if (MetricsEnabled()) value_.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// HDR-style log-linear histogram. Values 0..31 land in exact unit-width
/// buckets; from 32 up, each power-of-two octave [2^m, 2^(m+1)) splits
/// into 32 linear sub-buckets of width 2^(m-5). A recorded value v lands
/// in a bucket whose inclusive upper bound R satisfies
///
///     v <= R   and   R - v < 2^(m-5) <= v / 32,
///
/// so quantiles read back from bucket upper bounds never under-report and
/// overshoot by at most 3.125% (1/32) relative — exactly 0 for v < 32.
/// Covering all of int64 takes (62 - 5 + 2) * 32 = 1888 buckets (~15 KiB
/// of relaxed atomics per histogram, paid once per registered name);
/// Observe() stays a bit-scan plus three relaxed atomic adds.
class Histogram {
 public:
  static constexpr int kSubBucketBits = 5;
  static constexpr size_t kSubBuckets = size_t{1} << kSubBucketBits;  // 32
  /// Octaves m = 5..62 plus the exact 0..31 region (one octave's worth).
  static constexpr size_t kNumBuckets = (62 - kSubBucketBits + 2) * kSubBuckets;

  Histogram() = default;
  /// `first_bound` is accepted for source compatibility with the old
  /// power-of-4 layout and ignored: the log-linear layout is fixed.
  explicit Histogram(int64_t /*first_bound*/) {}

  /// Bucket index for `value` (negative values clamp to 0).
  static size_t BucketIndexFor(int64_t value);

  /// Inclusive upper bound of bucket `i`; INT64_MAX past the end.
  static int64_t BucketUpperBoundFor(size_t i);

  void Observe(int64_t value) {
    if (!MetricsEnabled()) return;
    buckets_[BucketIndexFor(value)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
  }

  /// Upper bound of the bucket holding the rank-ceil(q*N) observation —
  /// the exact quantile of the recorded distribution rounded up to its
  /// bucket bound (error contract in the class comment). Returns 0 when
  /// empty; q is clamped to [0, 1].
  int64_t ValueAtQuantile(double q) const;

  uint64_t BucketCount(size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  uint64_t Count() const { return count_.load(std::memory_order_relaxed); }
  int64_t Sum() const { return sum_.load(std::memory_order_relaxed); }

  void Reset() {
    for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
  }

 private:
  std::atomic<uint64_t> buckets_[kNumBuckets] = {};
  std::atomic<uint64_t> count_{0};
  std::atomic<int64_t> sum_{0};
};

/// Process-global, name-keyed registry. Get* registers on first use and
/// returns a reference that stays valid for the life of the process, so
/// instrumentation sites do the map lookup exactly once:
///
///   static telemetry::Counter& c =
///       telemetry::MetricsRegistry::Global().GetCounter(
///           "geocol_imprint_scans_total");
///   c.Increment();
class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  Counter& GetCounter(const std::string& name);
  Gauge& GetGauge(const std::string& name);
  /// `first_bound` only applies on first registration.
  Histogram& GetHistogram(const std::string& name, int64_t first_bound = 1000);

  /// Prometheus text exposition format: `# HELP` + `# TYPE` per metric,
  /// histograms as sparse cumulative _bucket series (only non-empty
  /// boundaries plus +Inf) with _sum/_count.
  std::string RenderPrometheus() const;

  /// {"counters": {...}, "gauges": {...}, "histograms": {...}} where each
  /// histogram carries count/sum, p50/p90/p99/p999, and its non-empty
  /// buckets.
  std::string RenderJson() const;

  /// Zeroes every registered metric (tests and benchmarks only).
  void ResetAll();

 private:
  MetricsRegistry() = default;

  mutable std::mutex mu_;  ///< guards the maps, not the metric values
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// Escapes a Prometheus label value: backslash, double quote and newline
/// become \\, \" and \n per the text exposition format.
std::string EscapeLabelValue(const std::string& value);

/// Appends `s` to `out` as a quoted JSON string: double quote, backslash,
/// \n, \t and \r get their short escapes, other bytes below 0x20 become
/// \u00XX, and every other byte (UTF-8 included) passes through.
void AppendJsonString(std::string* out, const std::string& s);

/// One-line operator summary built from the registry: bytes read, CRC
/// verifies, imprint hit rate. Printed by `geocol verify` and the bench
/// binaries on exit when GEOCOL_METRICS=1.
std::string SummaryLine();

/// Prints SummaryLine() to `out` iff the GEOCOL_METRICS env var is "1".
void MaybePrintSummary(std::FILE* out);

/// Registers an atexit hook that dumps RenderJson() to `path` (the bench
/// binaries' `--metrics <path>` flag).
void WriteMetricsJsonAtExit(std::string path);

}  // namespace telemetry
}  // namespace geocol

/// Declares a function-local static reference bound to the named counter;
/// usable as a statement inside any function.
#define GEOCOL_METRIC_COUNTER(var, name)             \
  static ::geocol::telemetry::Counter& var =         \
      ::geocol::telemetry::MetricsRegistry::Global().GetCounter(name)

#define GEOCOL_METRIC_GAUGE(var, name)               \
  static ::geocol::telemetry::Gauge& var =           \
      ::geocol::telemetry::MetricsRegistry::Global().GetGauge(name)

#define GEOCOL_METRIC_HISTOGRAM(var, name)           \
  static ::geocol::telemetry::Histogram& var =       \
      ::geocol::telemetry::MetricsRegistry::Global().GetHistogram(name)

#endif  // GEOCOL_TELEMETRY_METRICS_H_
