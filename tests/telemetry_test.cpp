// Telemetry tests: metrics registry exactness under concurrency, histogram
// bucket boundaries, exposition formats, span trees (nesting, critical
// path, Append adoption), engine instrumentation (EXPLAIN ANALYZE span
// attributes vs. registry counters), Chrome trace export, and the trace
// ring. Counter assertions use deltas — the registry is process-global and
// shared with every other test in the binary.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/profile.h"
#include "core/spatial_engine.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"
#include "util/rng.h"

namespace geocol {
namespace {

using telemetry::Counter;
using telemetry::Gauge;
using telemetry::Histogram;
using telemetry::MetricsRegistry;

TEST(MetricsTest, ConcurrentCountersSumExactly) {
  Counter& c = MetricsRegistry::Global().GetCounter("test_concurrent_total");
  const uint64_t before = c.Value();
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 100000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&c] {
      for (uint64_t i = 0; i < kPerThread; ++i) c.Increment();
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(c.Value() - before, kThreads * kPerThread);
}

TEST(MetricsTest, CounterDeltaIncrements) {
  Counter& c = MetricsRegistry::Global().GetCounter("test_delta_total");
  const uint64_t before = c.Value();
  c.Increment(41);
  c.Increment();
  EXPECT_EQ(c.Value() - before, 42u);
}

TEST(MetricsTest, GetCounterReturnsSameObject) {
  Counter& a = MetricsRegistry::Global().GetCounter("test_same_total");
  Counter& b = MetricsRegistry::Global().GetCounter("test_same_total");
  EXPECT_EQ(&a, &b);
}

TEST(MetricsTest, DisabledUpdatesAreDropped) {
  Counter& c = MetricsRegistry::Global().GetCounter("test_disabled_total");
  const uint64_t before = c.Value();
  telemetry::SetMetricsEnabled(false);
  c.Increment(100);
  telemetry::SetMetricsEnabled(true);
  EXPECT_EQ(c.Value(), before);
  c.Increment(1);
  EXPECT_EQ(c.Value() - before, 1u);
}

TEST(MetricsTest, GaugeSetAndAdd) {
  Gauge& g = MetricsRegistry::Global().GetGauge("test_depth");
  g.Set(7);
  EXPECT_EQ(g.Value(), 7);
  g.Add(-3);
  EXPECT_EQ(g.Value(), 4);
  g.Set(0);
}

TEST(MetricsTest, HistogramBucketLayout) {
  // Exact unit buckets below 32.
  for (int64_t v = 0; v < 32; ++v) {
    EXPECT_EQ(Histogram::BucketIndexFor(v), static_cast<size_t>(v));
    EXPECT_EQ(Histogram::BucketUpperBoundFor(static_cast<size_t>(v)), v);
  }
  // First log-linear octave: [32, 64) in unit-wide sub-buckets still.
  EXPECT_EQ(Histogram::BucketIndexFor(32), 32u);
  EXPECT_EQ(Histogram::BucketUpperBoundFor(32), 32);
  EXPECT_EQ(Histogram::BucketIndexFor(63), 63u);
  // Negative values clamp to bucket 0.
  EXPECT_EQ(Histogram::BucketIndexFor(-5), 0u);
  // The full int64 range maps inside the table, including the extremes.
  EXPECT_LT(Histogram::BucketIndexFor(std::numeric_limits<int64_t>::max()),
            Histogram::kNumBuckets);
  EXPECT_EQ(Histogram::BucketUpperBoundFor(Histogram::kNumBuckets - 1),
            std::numeric_limits<int64_t>::max());
}

TEST(MetricsTest, HistogramBoundContractAcrossMagnitudes) {
  // For every value: it maps into a bucket whose inclusive upper bound is
  // >= the value and overshoots by at most value/32 (the documented
  // relative-error contract, exact below 32).
  Rng rng(7);
  for (int i = 0; i < 200000; ++i) {
    int64_t v = static_cast<int64_t>(rng.Next() >> (rng.Uniform(63) + 1));
    size_t idx = Histogram::BucketIndexFor(v);
    ASSERT_LT(idx, Histogram::kNumBuckets);
    int64_t upper = Histogram::BucketUpperBoundFor(idx);
    ASSERT_GE(upper, v);
    ASSERT_LE(upper - v, v / 32) << "v=" << v;
    // Bucket bounds are monotone: the previous bucket ends below v.
    if (idx > 0) ASSERT_LT(Histogram::BucketUpperBoundFor(idx - 1), v);
  }
}

namespace {

/// Exact quantile of `sorted` (rank = ceil(q*N), 1-based).
int64_t ExactQuantile(const std::vector<int64_t>& sorted, double q) {
  size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  if (rank < 1) rank = 1;
  return sorted[rank - 1];
}

/// Asserts the documented contract: reported >= exact, overshoot <= 1/32
/// relative (exact for values below 32).
void ExpectQuantileWithinBound(Histogram& h, const std::vector<int64_t>& data,
                               double q) {
  std::vector<int64_t> sorted = data;
  std::sort(sorted.begin(), sorted.end());
  const int64_t exact = ExactQuantile(sorted, q);
  const int64_t reported = h.ValueAtQuantile(q);
  EXPECT_GE(reported, exact) << "q=" << q;
  EXPECT_LE(reported - exact, exact / 32) << "q=" << q << " exact=" << exact;
}

void FillAndCheckQuantiles(const char* name,
                           const std::vector<int64_t>& data) {
  Histogram& h = MetricsRegistry::Global().GetHistogram(name);
  h.Reset();
  for (int64_t v : data) h.Observe(v);
  for (double q : {0.0, 0.5, 0.9, 0.99, 0.999, 1.0}) {
    ExpectQuantileWithinBound(h, data, q);
  }
}

}  // namespace

TEST(MetricsTest, HistogramQuantilesConstantDistribution) {
  FillAndCheckQuantiles("test_quant_const_nanos",
                        std::vector<int64_t>(10000, 123456));
}

TEST(MetricsTest, HistogramQuantilesBimodalDistribution) {
  // Fast path at ~100ns, slow path at ~50ms: p50 must report the fast
  // mode, p99 the slow one, neither smeared by bucketing.
  std::vector<int64_t> data;
  for (int i = 0; i < 9000; ++i) data.push_back(100 + (i % 7));
  for (int i = 0; i < 1000; ++i) data.push_back(50000000 + i * 13);
  FillAndCheckQuantiles("test_quant_bimodal_nanos", data);
}

TEST(MetricsTest, HistogramQuantilesHeavyTailDistribution) {
  // Pareto-ish tail spanning six orders of magnitude.
  Rng rng(42);
  std::vector<int64_t> data;
  for (int i = 0; i < 50000; ++i) {
    double u = rng.NextDouble();
    if (u < 1e-6) u = 1e-6;
    data.push_back(static_cast<int64_t>(1000.0 / std::pow(u, 1.5)));
  }
  FillAndCheckQuantiles("test_quant_pareto_nanos", data);
}

TEST(MetricsTest, HistogramQuantileEmptyAndClamped) {
  Histogram& h = MetricsRegistry::Global().GetHistogram("test_quant_empty");
  h.Reset();
  EXPECT_EQ(h.ValueAtQuantile(0.99), 0);
  h.Observe(77);
  EXPECT_EQ(h.ValueAtQuantile(-1.0), 77);  // clamped to q=0
  EXPECT_EQ(h.ValueAtQuantile(2.0), 77);   // clamped to q=1
}

TEST(MetricsTest, ConcurrentHistogramCountsExactly) {
  // TSan-covered: concurrent Observe against one histogram must stay
  // race-free and lose no samples; quantiles stay inside the recorded
  // value range.
  Histogram& h = MetricsRegistry::Global().GetHistogram("test_conc_nanos");
  h.Reset();
  constexpr int kThreads = 4;
  constexpr int kPerThread = 50000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i) h.Observe(t * 1000 + 1);
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(h.Count(), uint64_t{kThreads} * kPerThread);
  EXPECT_GE(h.ValueAtQuantile(0.5), 1);
  EXPECT_LE(h.ValueAtQuantile(1.0), 3001 + 3001 / 32);
}

TEST(MetricsTest, PrometheusRendering) {
  MetricsRegistry::Global().GetCounter("test_prom_total").Increment(5);
  MetricsRegistry::Global().GetGauge("test_prom_gauge").Set(3);
  MetricsRegistry::Global().GetHistogram("test_prom_nanos").Observe(1500);
  std::string text = MetricsRegistry::Global().RenderPrometheus();
  EXPECT_NE(text.find("# HELP test_prom_total"), std::string::npos);
  EXPECT_NE(text.find("# TYPE test_prom_total counter"), std::string::npos);
  EXPECT_NE(text.find("test_prom_total"), std::string::npos);
  EXPECT_NE(text.find("# TYPE test_prom_gauge gauge"), std::string::npos);
  EXPECT_NE(text.find("# TYPE test_prom_nanos histogram"), std::string::npos);
  EXPECT_NE(text.find("test_prom_nanos_bucket{le=\""), std::string::npos);
  EXPECT_NE(text.find("test_prom_nanos_bucket{le=\"+Inf\"}"),
            std::string::npos);
  EXPECT_NE(text.find("test_prom_nanos_sum"), std::string::npos);
  EXPECT_NE(text.find("test_prom_nanos_count"), std::string::npos);
}

TEST(MetricsTest, PrometheusGoldenOutput) {
  // Byte-exact golden blocks for one counter and one histogram. The
  // bucket bounds pin the HDR layout: 5 -> exact bucket, 100 -> bucket
  // ending at 101, 1000000 -> bucket ending at 1015807.
  MetricsRegistry::Global().GetCounter("zz_golden_total").Increment(7);
  Histogram& h = MetricsRegistry::Global().GetHistogram("zz_golden_nanos");
  h.Reset();
  h.Observe(5);
  h.Observe(100);
  h.Observe(1000000);
  std::string text = MetricsRegistry::Global().RenderPrometheus();
  const char* kCounterGolden =
      "# HELP zz_golden_total GeoColumn engine metric (auto-registered).\n"
      "# TYPE zz_golden_total counter\n"
      "zz_golden_total 7\n";
  const char* kHistogramGolden =
      "# HELP zz_golden_nanos GeoColumn engine metric (auto-registered).\n"
      "# TYPE zz_golden_nanos histogram\n"
      "zz_golden_nanos_bucket{le=\"5\"} 1\n"
      "zz_golden_nanos_bucket{le=\"101\"} 2\n"
      "zz_golden_nanos_bucket{le=\"1015807\"} 3\n"
      "zz_golden_nanos_bucket{le=\"+Inf\"} 3\n"
      "zz_golden_nanos_sum 1000105\n"
      "zz_golden_nanos_count 3\n";
  EXPECT_NE(text.find(kCounterGolden), std::string::npos) << text;
  EXPECT_NE(text.find(kHistogramGolden), std::string::npos) << text;
}

TEST(MetricsTest, EscapeLabelValue) {
  EXPECT_EQ(telemetry::EscapeLabelValue("plain"), "plain");
  EXPECT_EQ(telemetry::EscapeLabelValue("a\"b"), "a\\\"b");
  EXPECT_EQ(telemetry::EscapeLabelValue("a\\b"), "a\\\\b");
  EXPECT_EQ(telemetry::EscapeLabelValue("a\nb"), "a\\nb");
}

TEST(MetricsTest, AppendJsonString) {
  auto json = [](const std::string& s) {
    std::string out = "[";
    telemetry::AppendJsonString(&out, s);
    return out;
  };
  EXPECT_EQ(json("plain"), "[\"plain\"");
  EXPECT_EQ(json("a\"b"), "[\"a\\\"b\"");
  EXPECT_EQ(json("a\\b"), "[\"a\\\\b\"");
  EXPECT_EQ(json("a\nb\tc\rd"), "[\"a\\nb\\tc\\rd\"");
  EXPECT_EQ(json(std::string("a\x01" "b")), "[\"a\\u0001b\"");
  // UTF-8 (here "é" and "€") passes through byte for byte.
  EXPECT_EQ(json("caf\xc3\xa9 \xe2\x82\xac"), "[\"caf\xc3\xa9 \xe2\x82\xac\"");
}

TEST(MetricsTest, JsonRendering) {
  MetricsRegistry::Global().GetCounter("test_json_total").Increment();
  std::string json = MetricsRegistry::Global().RenderJson();
  EXPECT_EQ(json.front(), '{');
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"test_json_total\""), std::string::npos);
}

TEST(MetricsTest, SummaryLineMentionsCoreCounters) {
  std::string line = telemetry::SummaryLine();
  EXPECT_NE(line.find("[telemetry]"), std::string::npos);
  EXPECT_NE(line.find("queries="), std::string::npos);
  EXPECT_NE(line.find("imprint_scans="), std::string::npos);
  EXPECT_NE(line.find("io_read="), std::string::npos);
}

// ---------------------------------------------------------------- spans

TEST(ProfileTest, OpenCloseBuildsTree) {
  QueryProfile p;
  int32_t root = p.OpenSpan("query");
  int32_t child = p.Add("filter.x", 1000, 100, 10);
  p.CloseSpan(100, 10);
  ASSERT_EQ(p.operators().size(), 2u);
  EXPECT_EQ(p.operators()[root].parent, -1);
  EXPECT_EQ(p.operators()[child].parent, root);
  EXPECT_EQ(p.operators()[root].rows_in, 100u);
  EXPECT_EQ(p.operators()[root].rows_out, 10u);
}

TEST(ProfileTest, NestedSpans) {
  QueryProfile p;
  int32_t a = p.OpenSpan("a");
  int32_t b = p.OpenSpan("b");
  int32_t leaf = p.Add("leaf", 10, 1, 1);
  p.CloseSpan();
  p.CloseSpan();
  EXPECT_EQ(p.operators()[a].parent, -1);
  EXPECT_EQ(p.operators()[b].parent, a);
  EXPECT_EQ(p.operators()[leaf].parent, b);
}

TEST(ProfileTest, TotalNanosCountsLeavesOnly) {
  QueryProfile p;
  p.OpenSpan("wrapper");
  p.AddSpanAt("leaf1", 0, 1000, 0, 0);
  p.AddSpanAt("leaf2", 1000, 2000, 0, 0);
  p.CloseSpan();
  // The wrapper's own duration covers the leaves; only leaves count.
  EXPECT_EQ(p.TotalNanos(), 3000);
}

TEST(ProfileTest, CriticalPathMergesOverlaps) {
  QueryProfile p;
  // Two concurrent roots [0, 1000) and [500, 1500): union = 1500, sum 2000.
  p.AddSpanAt("x", 0, 1000, 0, 0);
  p.AddSpanAt("y", 500, 1000, 0, 0);
  EXPECT_EQ(p.TotalNanos(), 2000);
  EXPECT_EQ(p.CriticalPathNanos(), 1500);
}

TEST(ProfileTest, CriticalPathWithGap) {
  QueryProfile p;
  p.AddSpanAt("a", 0, 100, 0, 0);
  p.AddSpanAt("b", 500, 100, 0, 0);  // disjoint: gap is not covered
  EXPECT_EQ(p.CriticalPathNanos(), 200);
}

TEST(ProfileTest, AppendAdoptsIntoOpenSpan) {
  QueryProfile branch;
  branch.AddSpanAt("branch.op", 0, 100, 5, 3);

  QueryProfile main;
  int32_t filter = main.OpenSpan("filter");
  main.Append(branch);
  main.CloseSpan();
  ASSERT_EQ(main.operators().size(), 2u);
  EXPECT_EQ(main.operators()[1].name, "branch.op");
  EXPECT_EQ(main.operators()[1].parent, filter);
}

TEST(ProfileTest, AttrsRenderInToString) {
  QueryProfile p;
  int32_t s = p.Add("filter.imprints.x", 1000000, 100, 10);
  p.AddAttr(s, "cachelines_probed", uint64_t{42});
  p.AddAttr(s, "false_positive_rate", 0.125);
  std::string text = p.ToString();
  EXPECT_NE(text.find("cachelines_probed=42"), std::string::npos);
  EXPECT_NE(text.find("false_positive_rate="), std::string::npos);
  EXPECT_NE(text.find("TOTAL (sum)"), std::string::npos);
  EXPECT_NE(text.find("WALL (critical path)"), std::string::npos);
}

TEST(ProfileTest, ClearRebasesEpoch) {
  QueryProfile p;
  p.Add("op", 10, 1, 1);
  p.Clear();
  EXPECT_TRUE(p.empty());
  EXPECT_EQ(p.TotalNanos(), 0);
  EXPECT_EQ(p.CriticalPathNanos(), 0);
}

// ------------------------------------------------- engine instrumentation

std::shared_ptr<FlatTable> MakeTable(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> xs(n), ys(n);
  for (size_t i = 0; i < n; ++i) {
    xs[i] = rng.UniformDouble(0, 1000);
    ys[i] = rng.UniformDouble(0, 1000);
  }
  auto t = std::make_shared<FlatTable>("pc");
  EXPECT_TRUE(t->AddColumn(Column::FromVector("x", xs)).ok());
  EXPECT_TRUE(t->AddColumn(Column::FromVector("y", ys)).ok());
  return t;
}

uint64_t AttrSum(const QueryProfile& p, const std::string& key) {
  uint64_t sum = 0;
  for (const OperatorProfile& op : p.operators()) {
    for (const auto& kv : op.attrs) {
      if (kv.first == key) sum += std::stoull(kv.second);
    }
  }
  return sum;
}

TEST(EngineTelemetryTest, SpanAttributesMatchCounterDeltas) {
  auto table = MakeTable(50000, 7);
  EngineOptions opts;
  opts.num_threads = 1;
  SpatialQueryEngine eng(table, opts);

  // Warm the imprint cache so the measured query does scans only.
  ASSERT_TRUE(eng.SelectInBox(Box(0, 0, 10, 10)).ok());

  MetricsRegistry& reg = MetricsRegistry::Global();
  const uint64_t scans0 =
      reg.GetCounter("geocol_imprint_scans_total").Value();
  const uint64_t probed0 =
      reg.GetCounter("geocol_imprint_cachelines_probed_total").Value();
  const uint64_t checked0 =
      reg.GetCounter("geocol_imprint_values_checked_total").Value();
  const uint64_t blocks0 =
      reg.GetCounter("geocol_imprint_blocks_visited_total").Value();
  const uint64_t visited0 =
      reg.GetCounter("geocol_imprint_lines_visited_total").Value();
  const uint64_t selected0 =
      reg.GetCounter("geocol_imprint_rows_selected_total").Value();
  const uint64_t queries0 = reg.GetCounter("geocol_queries_total").Value();

  auto res = eng.SelectInBox(Box(100, 100, 400, 500));
  ASSERT_TRUE(res.ok());

  EXPECT_EQ(reg.GetCounter("geocol_imprint_scans_total").Value() - scans0,
            1u);  // one conjunctive scan over x and y
  EXPECT_EQ(reg.GetCounter("geocol_queries_total").Value() - queries0, 1u);

  // EXPLAIN ANALYZE's span attributes must agree with `geocol metrics`:
  // the per-span numbers sum to exactly the registry counter deltas.
  EXPECT_EQ(AttrSum(res->profile, "cachelines_probed"),
            reg.GetCounter("geocol_imprint_cachelines_probed_total").Value() -
                probed0);
  EXPECT_EQ(AttrSum(res->profile, "values_checked"),
            reg.GetCounter("geocol_imprint_values_checked_total").Value() -
                checked0);
  EXPECT_EQ(AttrSum(res->profile, "blocks_visited"),
            reg.GetCounter("geocol_imprint_blocks_visited_total").Value() -
                blocks0);
  EXPECT_EQ(AttrSum(res->profile, "lines_visited"),
            reg.GetCounter("geocol_imprint_lines_visited_total").Value() -
                visited0);
  EXPECT_GT(AttrSum(res->profile, "lines_visited"), 0u);
  EXPECT_EQ(AttrSum(res->profile, "rows_selected"),
            reg.GetCounter("geocol_imprint_rows_selected_total").Value() -
                selected0);
}

TEST(EngineTelemetryTest, FilterIsOneRootSpan) {
  auto table = MakeTable(30000, 8);
  EngineOptions opts;
  opts.num_threads = 4;  // exercise the morsel-parallel merge path
  SpatialQueryEngine eng(table, opts);
  auto res = eng.SelectInBox(Box(50, 50, 600, 600));
  ASSERT_TRUE(res.ok());

  // x and y are filtered by one conjunctive scan: a single root span (the
  // cold imprint build before it is a span of its own).
  int filter_spans = 0;
  for (const auto& op : res->profile.operators()) {
    if (op.name.rfind("filter", 0) != 0 || op.name == "filter.build") continue;
    ++filter_spans;
    EXPECT_EQ(op.name, "filter.imprints");
    EXPECT_EQ(op.parent, -1);
  }
  EXPECT_EQ(filter_spans, 1);
  EXPECT_GT(res->profile.CriticalPathNanos(), 0);
}

// ------------------------------------------------------------ trace export

TEST(TraceTest, ChromeTraceShape) {
  QueryProfile p;
  int32_t root = p.OpenSpan("query");
  p.AddSpanAt("filter.imprints.x", 10, 500, 100, 10, "mask");
  p.AddAttr(1, "cachelines_probed", uint64_t{3});
  p.CloseSpan(100, 10);
  (void)root;

  std::string json = telemetry::ProfileToChromeTrace(p, "test query");
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"filter.imprints.x\""), std::string::npos);
  EXPECT_NE(json.find("\"cachelines_probed\""), std::string::npos);
  EXPECT_NE(json.find("\"pid\""), std::string::npos);
  EXPECT_NE(json.find("\"tid\""), std::string::npos);
  // Balanced braces/brackets (cheap well-formedness proxy).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

TEST(TraceTest, JsonlOneObjectPerSpan) {
  QueryProfile p;
  p.Add("a", 10, 1, 1);
  p.Add("b", 20, 2, 2);
  std::string jsonl = telemetry::ProfileToJsonl(p, "q");
  size_t lines = std::count(jsonl.begin(), jsonl.end(), '\n');
  EXPECT_EQ(lines, 2u);
  EXPECT_EQ(jsonl.front(), '{');
}

}  // namespace
}  // namespace geocol
