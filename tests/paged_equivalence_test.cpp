// Differential paged-vs-resident suite (DESIGN.md §14): the same seeded
// workload runs through a SpatialQueryEngine over the resident open of a
// persisted table (the oracle) and over its paged open — GCL2 raw and
// GPC1 chunk-compressed — for every {thread count} x {SIMD level} x
// {chunk-cache budget} configuration. Row ids, imprint/refine counters
// and aggregate values must be bit-identical everywhere: demand paging is
// an execution detail, never an answer detail.
//
// Also here: the eviction-under-concurrency hammer (many threads scanning
// under a budget far below the working set) and the fault-injection sweep
// (a torn read or flipped bit at every fallible operation of a paged scan
// must produce a clean error or a correct answer — never a wrong one).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <set>
#include <thread>
#include <vector>

#include "cache/chunk_cache.h"
#include "columns/column_file.h"
#include "columns/paged_column.h"
#include "columns/sharded_table.h"
#include "core/shard_router.h"
#include "core/imprint_scan.h"
#include "core/spatial_engine.h"
#include "geom/geometry.h"
#include "gis/catalog.h"
#include "simd/dispatch.h"
#include "sql/session.h"
#include "telemetry/metrics.h"
#include "util/fault_injection.h"
#include "util/fd_cache.h"
#include "util/rng.h"
#include "util/tempdir.h"

namespace geocol {
namespace {

// 100k rows spans four 256 KiB chunks per double column, so paged scans
// cross several chunk seams and a tiny budget actually evicts.
constexpr size_t kRows = 100000;
constexpr double kWorld = 1000.0;

std::shared_ptr<FlatTable> MakeTable(size_t n, uint64_t seed) {
  Rng rng(seed);
  Box extent(0, 0, kWorld, kWorld);
  std::vector<double> xs(n), ys(n), zs(n);
  std::vector<uint8_t> cls(n);
  std::vector<uint16_t> intensity(n);
  for (size_t i = 0; i < n; ++i) {
    double cx = (i % 5) * extent.width() / 5.0;
    double cy = (i % 7) * extent.height() / 7.0;
    xs[i] = std::clamp(cx + rng.UniformDouble(0, extent.width() / 6.0),
                       extent.min_x, extent.max_x);
    ys[i] = std::clamp(cy + rng.UniformDouble(0, extent.height() / 8.0),
                       extent.min_y, extent.max_y);
    zs[i] = rng.UniformDouble(-5, 40);
    cls[i] = static_cast<uint8_t>(rng.Uniform(10));
    intensity[i] = static_cast<uint16_t>(rng.Uniform(256));
  }
  auto t = std::make_shared<FlatTable>("pc");
  EXPECT_TRUE(t->AddColumn(Column::FromVector("x", xs)).ok());
  EXPECT_TRUE(t->AddColumn(Column::FromVector("y", ys)).ok());
  EXPECT_TRUE(t->AddColumn(Column::FromVector("z", zs)).ok());
  EXPECT_TRUE(t->AddColumn(Column::FromVector("classification", cls)).ok());
  EXPECT_TRUE(t->AddColumn(Column::FromVector("intensity", intensity)).ok());
  return t;
}

struct WorkloadQuery {
  Geometry geometry{Box(0, 0, 1, 1)};
  double buffer = 0.0;
  std::vector<AttributeRange> thematic;
  bool aggregate = false;
  AggKind kind = AggKind::kAvg;
  std::string agg_column;
};

std::vector<WorkloadQuery> MakeWorkload(uint64_t seed, size_t count) {
  Rng rng(seed);
  std::vector<WorkloadQuery> queries;
  for (size_t i = 0; i < count; ++i) {
    WorkloadQuery q;
    if (rng.NextBool(0.6)) {
      double x = rng.UniformDouble(0, kWorld * 0.8);
      double y = rng.UniformDouble(0, kWorld * 0.8);
      q.geometry = Geometry(Box(x, y, x + rng.UniformDouble(1, kWorld * 0.3),
                                y + rng.UniformDouble(1, kWorld * 0.3)));
    } else {
      Point c{rng.UniformDouble(kWorld * 0.2, kWorld * 0.8),
              rng.UniformDouble(kWorld * 0.2, kWorld * 0.8)};
      int n = 3 + static_cast<int>(rng.Uniform(8));
      Polygon p;
      for (int j = 0; j < n; ++j) {
        double a = 2 * M_PI * j / n;
        double r = rng.UniformDouble(kWorld * 0.05, kWorld * 0.25);
        p.shell.points.push_back(
            {c.x + r * std::cos(a), c.y + r * std::sin(a)});
      }
      q.geometry = Geometry(std::move(p));
    }
    if (rng.NextBool(0.5)) {
      q.thematic.push_back({"classification",
                            static_cast<double>(rng.Uniform(6)),
                            static_cast<double>(4 + rng.Uniform(6))});
    }
    if (rng.NextBool(0.4)) {
      q.aggregate = true;
      q.kind = static_cast<AggKind>(rng.Uniform(5));
      q.agg_column = rng.NextBool() ? "z" : "intensity";
    }
    queries.push_back(std::move(q));
  }
  return queries;
}

bool SameBits(double a, double b) {
  uint64_t ba, bb;
  std::memcpy(&ba, &a, sizeof(ba));
  std::memcpy(&bb, &b, sizeof(bb));
  return ba == bb;
}

void ExpectFilterStatsEq(const ImprintScanStats& a, const ImprintScanStats& b,
                         const char* what) {
  EXPECT_EQ(a.lines_total, b.lines_total) << what;
  EXPECT_EQ(a.lines_candidate, b.lines_candidate) << what;
  EXPECT_EQ(a.lines_full, b.lines_full) << what;
  EXPECT_EQ(a.values_checked, b.values_checked) << what;
  EXPECT_EQ(a.rows_selected, b.rows_selected) << what;
  EXPECT_EQ(a.rows_full, b.rows_full) << what;
}

struct SimdLevelGuard {
  ~SimdLevelGuard() { simd::SetSimdLevel(simd::MaxSupportedSimdLevel()); }
};

/// Restores the process-wide chunk-cache budget and contents on exit so
/// budget experiments here never leak into other tests in this binary.
struct ChunkCacheGuard {
  uint64_t saved = cache::ChunkCache::Global().budget_bytes();
  ~ChunkCacheGuard() {
    cache::ChunkCache::Global().SetBudget(saved);
    cache::ChunkCache::Global().Clear();
  }
};

struct PagedConfig {
  uint32_t threads;
  simd::SimdLevel level;
  uint64_t budget_bytes;  ///< 0 = leave the (large) default
};

std::vector<PagedConfig> Configs() {
  // A 1 MiB budget is below one 256 KiB chunk per cache shard, so most
  // inserts drop and scans continuously re-fault — the degraded mode must
  // still answer identically. 1 GiB never evicts.
  constexpr uint64_t kTiny = 1ull << 20;
  constexpr uint64_t kUnbounded = 1ull << 30;
  std::vector<PagedConfig> configs = {
      {1, simd::SimdLevel::kScalar, kTiny},
      {1, simd::SimdLevel::kScalar, kUnbounded},
      {3, simd::SimdLevel::kScalar, kTiny},
      {3, simd::SimdLevel::kScalar, kUnbounded},
  };
  if (simd::MaxSupportedSimdLevel() != simd::SimdLevel::kScalar) {
    configs.push_back({1, simd::MaxSupportedSimdLevel(), kTiny});
    configs.push_back({1, simd::MaxSupportedSimdLevel(), kUnbounded});
    configs.push_back({3, simd::MaxSupportedSimdLevel(), kTiny});
    configs.push_back({3, simd::MaxSupportedSimdLevel(), kUnbounded});
  }
  return configs;
}

TEST(PagedEquivalenceTest, PagedMatchesResidentAcrossThreadsSimdBudgets) {
  SimdLevelGuard simd_guard;
  ChunkCacheGuard cache_guard;
  TempDir dir("paged-eq");
  auto source = MakeTable(kRows, 17);
  ASSERT_TRUE(WriteTableDir(*source, dir.File("raw")).ok());
  ASSERT_TRUE(
      WriteChunkedCompressedTableDir(*source, dir.File("gpc")).ok());
  auto workload = MakeWorkload(4321, 16);

  for (const PagedConfig& cfg : Configs()) {
    SCOPED_TRACE(testing::Message()
                 << "threads=" << cfg.threads
                 << " simd=" << simd::SimdLevelName(cfg.level)
                 << " budget=" << (cfg.budget_bytes >> 20) << "MiB");
    simd::SetSimdLevel(cfg.level);
    cache::ChunkCache::Global().SetBudget(cfg.budget_bytes);
    cache::ChunkCache::Global().Clear();

    EngineOptions opts;
    opts.num_threads = cfg.threads;

    // Oracle: the resident open of the same files, same config.
    auto resident = ReadTableDir(dir.File("raw"));
    ASSERT_TRUE(resident.ok()) << resident.status().ToString();
    SpatialQueryEngine oracle(std::make_shared<FlatTable>(std::move(*resident)),
                              opts);

    for (const char* sub : {"raw", "gpc"}) {
      SCOPED_TRACE(testing::Message() << "format=" << sub);
      auto paged = ReadTableDirPaged(dir.File(sub));
      ASSERT_TRUE(paged.ok()) << paged.status().ToString();
      for (const ColumnPtr& col : paged->columns()) {
        ASSERT_TRUE(col->paged());
      }
      SpatialQueryEngine engine(std::make_shared<FlatTable>(std::move(*paged)),
                                opts);

      // Under the tiny budget every insert drops, so each GPC1 fault
      // re-decompresses its chunk — the degraded mode is ~20x slower per
      // query than raw. Cover it with a strided subset so every
      // config x format cell stays tested without dominating the suite.
      const size_t stride =
          (cfg.budget_bytes < (4ull << 20) && std::strcmp(sub, "gpc") == 0)
              ? 3
              : 1;
      for (size_t i = 0; i < workload.size(); i += stride) {
        SCOPED_TRACE(testing::Message() << "query " << i);
        const WorkloadQuery& q = workload[i];
        auto want = oracle.Select(q.geometry, q.buffer, q.thematic);
        ASSERT_TRUE(want.ok()) << want.status().ToString();
        auto got = engine.Select(q.geometry, q.buffer, q.thematic);
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        // The headline contract: identical row ids AND identical pruning
        // counters — the paged tier reads exactly the cachelines the
        // resident tier reads, it just faults them from disk.
        EXPECT_EQ(got->row_ids, want->row_ids);
        ExpectFilterStatsEq(got->filter, want->filter, "filter");
        if (q.aggregate) {
          auto want_v = oracle.Aggregate(q.geometry, q.buffer, q.thematic,
                                         q.agg_column, q.kind);
          auto got_v = engine.Aggregate(q.geometry, q.buffer, q.thematic,
                                        q.agg_column, q.kind);
          ASSERT_TRUE(want_v.ok());
          ASSERT_TRUE(got_v.ok()) << got_v.status().ToString();
          EXPECT_TRUE(SameBits(*got_v, *want_v))
              << *got_v << " vs " << *want_v;
        }
      }
    }
  }
}

// Many threads scanning a paged table whose working set is far above the
// chunk-cache budget: every pin must observe the exact bytes written, no
// matter how often its chunk is concurrently evicted or its insert is
// dropped. Values encode their row index, so one wrong, stale or torn
// chunk is caught immediately.
TEST(PagedEquivalenceTest, EvictionUnderConcurrencyNeverServesWrongBytes) {
  ChunkCacheGuard cache_guard;
  TempDir dir("paged-hammer");
  const size_t n = 1 << 18;  // 8 chunks of doubles
  {
    std::vector<double> v(n);
    for (size_t i = 0; i < n; ++i) v[i] = static_cast<double>(i);
    FlatTable t("hammer");
    ASSERT_TRUE(t.AddColumn(Column::FromVector("v", v)).ok());
    ASSERT_TRUE(WriteTableDir(t, dir.File("t")).ok());
  }
  // Budget below two chunks total: concurrent scans fight over what
  // little fits, so evictions and dropped inserts happen constantly.
  cache::ChunkCache::Global().SetBudget(1 << 19);
  cache::ChunkCache::Global().Clear();

  auto paged = ReadTableDirPaged(dir.File("t"));
  ASSERT_TRUE(paged.ok()) << paged.status().ToString();
  ColumnPtr col = paged->column("v");
  ASSERT_TRUE(col->paged());

  std::atomic<int> failures{0};
  auto worker = [&](uint64_t seed) {
    Rng rng(seed);
    const size_t chunk_rows = col->chunk_rows();
    const size_t chunks = col->num_chunks();
    for (int iter = 0; iter < 60; ++iter) {
      size_t c = rng.Uniform(static_cast<uint32_t>(chunks));
      auto pin = col->PinChunk(c);
      if (!pin.ok()) {
        ++failures;
        return;
      }
      const double* vals = pin->values<double>();
      for (size_t k = 0; k < pin->row_count; ++k) {
        if (vals[k] != static_cast<double>(c * chunk_rows + k)) {
          ++failures;
          return;
        }
      }
      // Interleave whole-column scans so pins, faults and evictions
      // overlap across threads.
      if (iter % 8 == 0) {
        BitVector rows;
        Status st = FullScanRangeSelect(*col, 1000.0, 2000.0, &rows);
        if (!st.ok() || rows.Count() != 1001) {
          ++failures;
          return;
        }
      }
    }
  };
  std::vector<std::thread> threads;
  for (uint64_t t = 0; t < 8; ++t) threads.emplace_back(worker, t + 1);
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);

  cache::ChunkCache::Stats stats = cache::ChunkCache::Global().GetStats();
  EXPECT_LE(stats.bytes, cache::ChunkCache::Global().budget_bytes());
}

// Arms one storage fault at every fallible operation of a paged scan in
// turn — flipped bit, short read, hard EIO — and requires a clean error
// or a bit-correct answer every time. A transient EINTR must be absorbed
// by the positioned-read retry and still answer correctly.
TEST(PagedEquivalenceTest, FaultSweepNeverReturnsWrongAnswers) {
  ChunkCacheGuard cache_guard;
  TempDir dir("paged-faults");
  const size_t n = 1 << 17;  // 4 chunks of doubles
  std::vector<double> v(n);
  Rng rng(5);
  for (size_t i = 0; i < n; ++i) v[i] = rng.UniformDouble(0, 100);
  {
    FlatTable t("faulty");
    ASSERT_TRUE(t.AddColumn(Column::FromVector("v", v)).ok());
    ASSERT_TRUE(WriteTableDir(t, dir.File("raw")).ok());
    ASSERT_TRUE(WriteChunkedCompressedTableDir(t, dir.File("gpc")).ok());
  }

  // Reference result from the resident open.
  BitVector want;
  {
    auto resident = ReadTableDir(dir.File("raw"));
    ASSERT_TRUE(resident.ok());
    ASSERT_TRUE(
        FullScanRangeSelect(*resident->column("v"), 25.0, 75.0, &want).ok());
  }

  auto& fi = FaultInjector::Global();
  for (const char* sub : {"raw", "gpc"}) {
    SCOPED_TRACE(testing::Message() << "format=" << sub);
    auto paged = ReadTableDirPaged(dir.File(sub));
    ASSERT_TRUE(paged.ok()) << paged.status().ToString();
    ColumnPtr col = paged->column("v");

    auto run_scan = [&]() -> Result<uint64_t> {
      // Cold caches every run so each attempt re-opens and re-faults —
      // otherwise only the first run would touch the disk at all.
      cache::ChunkCache::Global().Clear();
      FdCache::Global().Clear();
      BitVector rows;
      GEOCOL_RETURN_NOT_OK(FullScanRangeSelect(*col, 25.0, 75.0, &rows));
      if (!(rows == want)) {
        return Status::Internal("scan returned WRONG bits under fault");
      }
      return rows.Count();
    };

    fi.StartCounting();
    auto clean = run_scan();
    uint64_t total_ops = fi.StopCounting();
    ASSERT_TRUE(clean.ok()) << clean.status().ToString();
    ASSERT_GT(total_ops, 0u);

    uint64_t errors = 0;
    for (uint64_t k = 1; k <= total_ops; ++k) {
      {
        SCOPED_TRACE(testing::Message() << "bitflip at op " << k);
        fi.ArmBitFlip(k, 37, 5);
        auto r = run_scan();
        fi.Disarm();
        // Either the armed op was not a payload read (clean answer), or
        // the CRC check catches the flip (clean error). run_scan already
        // failed the test if wrong bits came back.
        if (!r.ok()) {
          ++errors;
          EXPECT_EQ(r.status().ToString().find("WRONG"), std::string::npos)
              << r.status().ToString();
        }
      }
      {
        SCOPED_TRACE(testing::Message() << "short read at op " << k);
        fi.ArmShortRead(k, 16);
        auto r = run_scan();
        fi.Disarm();
        if (!r.ok()) {
          EXPECT_EQ(r.status().ToString().find("WRONG"), std::string::npos)
              << r.status().ToString();
        }
      }
      {
        SCOPED_TRACE(testing::Message() << "crash at op " << k);
        fi.ArmCrashAtOp(k);
        auto r = run_scan();
        fi.Disarm();
        // Every op from k on fails: the scan cannot produce a result.
        EXPECT_FALSE(r.ok());
        EXPECT_EQ(r.status().ToString().find("WRONG"), std::string::npos)
            << r.status().ToString();
      }
    }
    // Sanity: the bit flips did land on payload reads at least once.
    EXPECT_GT(errors, 0u);

    // One transient EINTR per op must be invisible: the bounded retry in
    // PreadExact absorbs it and the scan still answers bit-identically.
    for (uint64_t k = 1; k <= total_ops; ++k) {
      fi.ArmTransientErrors(k, 1);
      auto r = run_scan();
      fi.Disarm();
      EXPECT_TRUE(r.ok()) << "op " << k << ": " << r.status().ToString();
    }
  }
}

// Paged columns are a read-only tier: every mutating entry point must
// refuse cleanly rather than assert or scribble.
// ORDER BY and projection over a paged sharded table read values in
// ascending row order, batched per shard run: each chunk a column touches
// is faulted once, not once per comparison or per row. With a cache that
// admits no 256 KiB chunk every pin is a fault, so the chunk-fault counter
// counts pins: the statement may fault z once per chunk its selected rows
// span (the sort keys) and x, y and z once per chunk its shown rows span.
TEST(PagedEquivalenceTest, ShardedOrderByProjectionFaultsEachChunkOnce) {
  ChunkCacheGuard cache_guard;
  TempDir tmp("paged_orderby");
  auto source = MakeTable(kRows, 91);
  ShardingOptions so;
  so.num_shards = 2;
  auto sharded = ShardedTable::Create(*source, so);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  ASSERT_TRUE(WriteShardedTableDir(**sharded, tmp.File("sharded")).ok());
  auto paged = ReadShardedTableDir(tmp.File("sharded"),
                                   /*verify_checksums=*/true, /*paged=*/true);
  ASSERT_TRUE(paged.ok()) << paged.status().ToString();
  cache::ChunkCache::Global().SetBudget(1ull << 20);
  cache::ChunkCache::Global().Clear();

  EngineOptions eo;
  eo.num_threads = 1;
  Catalog catalog;
  ASSERT_TRUE(catalog.AddShardedPointCloud("pc", *paged, eo).ok());
  sql::SessionOptions sopts;
  sopts.record_flight = false;
  sql::Session session(&catalog, sopts);
  const std::string where = " FROM pc WHERE z BETWEEN 10 AND 10.4";
  constexpr size_t kShown = 50;
  ASSERT_TRUE(session.Execute("SELECT COUNT(*)" + where).ok());  // imprints

  // The selected rows, their z keys, and the chunks they and the shown
  // (first kShown by z, stable) rows span.
  auto router = catalog.GetRouter("pc");
  ASSERT_TRUE(router.ok());
  std::shared_ptr<const ShardsView> view = (*router)->Pin();
  auto extent = view->Extent();
  ASSERT_TRUE(extent.ok());
  auto sel = view->Select(Geometry(*extent), 0.0, {{"z", 10, 10.4}});
  ASSERT_TRUE(sel.ok());
  ASSERT_GT(sel->row_ids.size(), kShown);
  ASSERT_LE(sel->row_ids.size(), 1024u);  // one value-access block
  auto z = view->Columns("z");
  ASSERT_TRUE(z.ok());
  auto chunk_of = [&](uint64_t r) {
    const size_t s = view->ShardOf(r);
    return std::make_pair(s, (r - view->bases[s]) / (*z)[s]->chunk_rows());
  };
  std::vector<std::pair<double, uint64_t>> keyed;
  std::set<std::pair<size_t, uint64_t>> selected_chunks, shown_chunks;
  for (uint64_t r : sel->row_ids) {
    const size_t s = view->ShardOf(r);
    keyed.push_back({(*z)[s]->GetDouble(r - view->bases[s]), r});
    selected_chunks.insert(chunk_of(r));
  }
  std::stable_sort(keyed.begin(), keyed.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });
  for (size_t i = 0; i < kShown; ++i) {
    shown_chunks.insert(chunk_of(keyed[i].second));
  }
  ASSERT_GE(selected_chunks.size(), 4u);  // both shards, several chunks

  auto faults = [] {
    return telemetry::MetricsRegistry::Global()
        .GetCounter("geocol_chunk_faults_total")
        .Value();
  };
  uint64_t before = faults();
  ASSERT_TRUE(session.Execute("SELECT COUNT(*)" + where).ok());
  const uint64_t filter_faults = faults() - before;
  before = faults();
  auto rs = session.Execute("SELECT x, y, z" + where + " ORDER BY z LIMIT " +
                            std::to_string(kShown));
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_EQ(faults() - before - filter_faults,
            selected_chunks.size() + 3 * shown_chunks.size());
  ASSERT_EQ(rs->num_rows(), kShown);
  for (size_t i = 0; i < kShown; ++i) {
    EXPECT_EQ(rs->rows[i][2].number, keyed[i].first) << i;
  }
}

TEST(PagedEquivalenceTest, MutationPathsRejectPagedColumns) {
  TempDir dir("paged-ro");
  auto source = MakeTable(8192, 3);
  ASSERT_TRUE(WriteTableDir(*source, dir.File("t")).ok());
  auto paged = ReadTableDirPaged(dir.File("t"));
  ASSERT_TRUE(paged.ok());

  std::vector<uint64_t> perm(paged->num_rows());
  for (size_t i = 0; i < perm.size(); ++i) perm[i] = perm.size() - 1 - i;
  EXPECT_FALSE(paged->PermuteRows(perm).ok());

  ShardingOptions so;
  so.num_shards = 2;
  EXPECT_FALSE(ShardedTable::Create(*paged, so).ok());

  double one = 1.0;
  EXPECT_FALSE(Column::CloneAppend(paged->column("z"), &one, 1).ok());
}

}  // namespace
}  // namespace geocol
