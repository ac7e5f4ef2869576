#include "telemetry/metrics.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdarg>
#include <cstdlib>
#include <limits>

namespace geocol {
namespace telemetry {

namespace {

std::atomic<bool> g_metrics_enabled{true};

/// Round-robin shard assignment: cheap, stable per thread, and spreads
/// concurrent writers across cache lines even when thread ids collide.
std::atomic<size_t> g_next_shard{0};

void AppendFormat(std::string* out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

void AppendFormat(std::string* out, const char* fmt, ...) {
  char buf[256];
  va_list ap;
  va_start(ap, fmt);
  int n = std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  if (n > 0) out->append(buf, std::min<size_t>(static_cast<size_t>(n), sizeof(buf) - 1));
}

}  // namespace

void SetMetricsEnabled(bool enabled) {
  g_metrics_enabled.store(enabled, std::memory_order_relaxed);
}

bool MetricsEnabled() {
  return g_metrics_enabled.load(std::memory_order_relaxed);
}

size_t Counter::ShardIndex() {
  thread_local size_t slot =
      g_next_shard.fetch_add(1, std::memory_order_relaxed) % kShards;
  return slot;
}

size_t Histogram::BucketIndexFor(int64_t value) {
  uint64_t v = value < 0 ? 0 : static_cast<uint64_t>(value);
  if (v < kSubBuckets) return static_cast<size_t>(v);
  // msb >= kSubBucketBits here; the top kSubBucketBits+1 bits pick the
  // octave and its linear sub-bucket.
  const int msb = 63 - __builtin_clzll(v);
  const size_t sub =
      static_cast<size_t>((v >> (msb - kSubBucketBits)) & (kSubBuckets - 1));
  return static_cast<size_t>(msb - kSubBucketBits + 1) * kSubBuckets + sub;
}

int64_t Histogram::BucketUpperBoundFor(size_t i) {
  if (i >= kNumBuckets) return std::numeric_limits<int64_t>::max();
  if (i < kSubBuckets) return static_cast<int64_t>(i);
  const uint64_t octave = i / kSubBuckets + (kSubBucketBits - 1);
  const uint64_t sub = i % kSubBuckets;
  // 2^62-octave max: the +1 sub-bucket end minus one stays <= INT64_MAX.
  const uint64_t upper = (uint64_t{1} << octave) +
                         (sub + 1) * (uint64_t{1} << (octave - kSubBucketBits)) -
                         1;
  return static_cast<int64_t>(upper);
}

int64_t Histogram::ValueAtQuantile(double q) const {
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Snapshot the buckets once and derive the total from the snapshot, so
  // a concurrent Observe cannot leave rank > walked-total.
  std::vector<uint64_t> snap(kNumBuckets);
  uint64_t total = 0;
  for (size_t i = 0; i < kNumBuckets; ++i) {
    snap[i] = buckets_[i].load(std::memory_order_relaxed);
    total += snap[i];
  }
  if (total == 0) return 0;
  uint64_t rank = static_cast<uint64_t>(
      std::ceil(q * static_cast<double>(total)));
  if (rank < 1) rank = 1;
  if (rank > total) rank = total;
  uint64_t cumulative = 0;
  for (size_t i = 0; i < kNumBuckets; ++i) {
    cumulative += snap[i];
    if (cumulative >= rank) return BucketUpperBoundFor(i);
  }
  return BucketUpperBoundFor(kNumBuckets - 1);
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();  // never destroyed
  return *registry;
}

Counter& MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot.reset(new Counter());
  return *slot;
}

Gauge& MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot.reset(new Gauge());
  return *slot;
}

Histogram& MetricsRegistry::GetHistogram(const std::string& name,
                                         int64_t first_bound) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot.reset(new Histogram(first_bound));
  return *slot;
}

namespace {

/// HELP text for the exposition format. Well-known metrics get a curated
/// line; everything else a generic one (scrapers only require presence +
/// escaping, but the core series deserve real descriptions).
const char* MetricHelp(const std::string& name) {
  static const std::map<std::string, const char*>* kHelp =
      new std::map<std::string, const char*>{
          {"geocol_queries_total", "Spatial selection queries executed."},
          {"geocol_query_nanos",
           "Engine-level query latency in nanoseconds."},
          {"geocol_sql_wall_nanos",
           "End-to-end SQL statement wall time (parse+plan+execute), ns."},
          {"geocol_io_read_bytes_total",
           "Bytes read from column storage files."},
          {"geocol_io_write_bytes_total",
           "Bytes written to column storage files."},
          {"geocol_crc_chunk_verifies_total",
           "CRC32C chunk verifications performed on read."},
          {"geocol_imprint_scans_total", "Column imprint scans executed."},
          {"geocol_chunk_faults_total",
           "Chunk-cache misses that faulted a chunk from disk."},
          {"geocol_chunk_cache_hits_total", "Chunk-cache hits."},
          {"geocol_chunk_fault_us",
           "Latency of a single chunk fault (read+verify+decode), us."},
          {"geocol_shards_scanned_total",
           "Shards answered by a routed query (scanned or covered)."},
          {"geocol_shards_pruned_total",
           "Shards skipped by bbox pruning before any scan."},
          {"geocol_shards_covered_total",
           "Shards answered via the bbox-as-zonemap covered shortcut."},
          {"geocol_flight_events_total",
           "Query events appended to the flight recorder."},
          {"geocol_flight_bytes_total",
           "Bytes appended to the flight-recorder log."},
          {"geocol_flight_rotations_total",
           "Flight-recorder log rotations."},
          {"geocol_flight_append_errors_total",
           "Flight-recorder append failures (recording degraded)."},
      };
  auto it = kHelp->find(name);
  return it != kHelp->end() ? it->second
                            : "GeoColumn engine metric (auto-registered).";
}

}  // namespace

std::string EscapeLabelValue(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

void AppendJsonString(std::string* out, const std::string& s) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\t': *out += "\\t"; break;
      case '\r': *out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

std::string MetricsRegistry::RenderPrometheus() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  for (const auto& kv : counters_) {
    AppendFormat(&out, "# HELP %s %s\n", kv.first.c_str(),
                 MetricHelp(kv.first));
    AppendFormat(&out, "# TYPE %s counter\n", kv.first.c_str());
    AppendFormat(&out, "%s %" PRIu64 "\n", kv.first.c_str(),
                 kv.second->Value());
  }
  for (const auto& kv : gauges_) {
    AppendFormat(&out, "# HELP %s %s\n", kv.first.c_str(),
                 MetricHelp(kv.first));
    AppendFormat(&out, "# TYPE %s gauge\n", kv.first.c_str());
    AppendFormat(&out, "%s %" PRId64 "\n", kv.first.c_str(),
                 kv.second->Value());
  }
  for (const auto& kv : histograms_) {
    const Histogram& h = *kv.second;
    AppendFormat(&out, "# HELP %s %s\n", kv.first.c_str(),
                 MetricHelp(kv.first));
    AppendFormat(&out, "# TYPE %s histogram\n", kv.first.c_str());
    // Sparse cumulative series: 1888 log-linear buckets are mostly empty,
    // so emit a boundary only where the count advances, plus +Inf.
    uint64_t cumulative = 0;
    for (size_t i = 0; i < Histogram::kNumBuckets; ++i) {
      uint64_t c = h.BucketCount(i);
      if (c == 0) continue;
      cumulative += c;
      AppendFormat(&out, "%s_bucket{le=\"%s\"} %" PRIu64 "\n",
                   kv.first.c_str(),
                   EscapeLabelValue(
                       std::to_string(Histogram::BucketUpperBoundFor(i)))
                       .c_str(),
                   cumulative);
    }
    AppendFormat(&out, "%s_bucket{le=\"+Inf\"} %" PRIu64 "\n",
                 kv.first.c_str(), cumulative);
    AppendFormat(&out, "%s_sum %" PRId64 "\n", kv.first.c_str(), h.Sum());
    AppendFormat(&out, "%s_count %" PRIu64 "\n", kv.first.c_str(), h.Count());
  }
  return out;
}

std::string MetricsRegistry::RenderJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& kv : counters_) {
    if (!first) out += ",";
    first = false;
    out += "\n    ";
    AppendJsonString(&out, kv.first);
    AppendFormat(&out, ": %" PRIu64, kv.second->Value());
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"gauges\": {";
  first = true;
  for (const auto& kv : gauges_) {
    if (!first) out += ",";
    first = false;
    out += "\n    ";
    AppendJsonString(&out, kv.first);
    AppendFormat(&out, ": %" PRId64, kv.second->Value());
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"histograms\": {";
  first = true;
  for (const auto& kv : histograms_) {
    const Histogram& h = *kv.second;
    if (!first) out += ",";
    first = false;
    out += "\n    ";
    AppendJsonString(&out, kv.first);
    out += ": {\"count\": ";
    AppendFormat(&out, "%" PRIu64 ", \"sum\": %" PRId64, h.Count(), h.Sum());
    AppendFormat(&out,
                 ", \"p50\": %" PRId64 ", \"p90\": %" PRId64
                 ", \"p99\": %" PRId64 ", \"p999\": %" PRId64,
                 h.ValueAtQuantile(0.50), h.ValueAtQuantile(0.90),
                 h.ValueAtQuantile(0.99), h.ValueAtQuantile(0.999));
    out += ", \"buckets\": [";
    bool first_bucket = true;
    for (size_t i = 0; i < Histogram::kNumBuckets; ++i) {
      uint64_t c = h.BucketCount(i);
      if (c == 0) continue;
      if (!first_bucket) out += ", ";
      first_bucket = false;
      AppendFormat(&out, "{\"le\": %" PRId64 ", \"count\": %" PRIu64 "}",
                   Histogram::BucketUpperBoundFor(i), c);
    }
    out += "]}";
  }
  out += first ? "}\n" : "\n  }\n";
  out += "}\n";
  return out;
}

void MetricsRegistry::ResetAll() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& kv : counters_) kv.second->Reset();
  for (auto& kv : gauges_) kv.second->Reset();
  for (auto& kv : histograms_) kv.second->Reset();
}

std::string SummaryLine() {
  MetricsRegistry& reg = MetricsRegistry::Global();
  uint64_t bytes_read = reg.GetCounter("geocol_io_read_bytes_total").Value();
  uint64_t bytes_written = reg.GetCounter("geocol_io_write_bytes_total").Value();
  uint64_t crc = reg.GetCounter("geocol_crc_chunk_verifies_total").Value();
  uint64_t hits = reg.GetCounter("geocol_imprint_cache_hits_total").Value();
  uint64_t misses = reg.GetCounter("geocol_imprint_cache_misses_total").Value();
  uint64_t scans = reg.GetCounter("geocol_imprint_scans_total").Value();
  uint64_t queries = reg.GetCounter("geocol_queries_total").Value();
  double hit_rate =
      (hits + misses) > 0 ? 100.0 * static_cast<double>(hits) /
                                static_cast<double>(hits + misses)
                          : 0.0;
  std::string out;
  AppendFormat(&out,
               "[telemetry] queries=%" PRIu64 " imprint_scans=%" PRIu64
               " imprint_hit_rate=%.1f%% io_read=%.2f MiB io_write=%.2f MiB"
               " crc_verifies=%" PRIu64,
               queries, scans, hit_rate,
               static_cast<double>(bytes_read) / (1024.0 * 1024.0),
               static_cast<double>(bytes_written) / (1024.0 * 1024.0), crc);
  return out;
}

void MaybePrintSummary(std::FILE* out) {
  const char* env = std::getenv("GEOCOL_METRICS");
  if (env == nullptr || std::string(env) != "1") return;
  std::fprintf(out, "%s\n", SummaryLine().c_str());
}

namespace {
std::string* g_metrics_json_path = nullptr;

void DumpMetricsJson() {
  if (g_metrics_json_path == nullptr) return;
  std::FILE* f = std::fopen(g_metrics_json_path->c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "telemetry: cannot write %s\n",
                 g_metrics_json_path->c_str());
    return;
  }
  std::string json = MetricsRegistry::Global().RenderJson();
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
}
}  // namespace

void WriteMetricsJsonAtExit(std::string path) {
  if (g_metrics_json_path == nullptr) {
    g_metrics_json_path = new std::string(std::move(path));
    std::atexit(DumpMetricsJson);
  } else {
    *g_metrics_json_path = std::move(path);
  }
}

}  // namespace telemetry
}  // namespace geocol
