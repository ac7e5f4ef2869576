// ShardedTable / ShardRouter unit suite: builder properties (Hilbert
// ordering, contiguity, bbox tightness), degenerate inputs, crash-safe
// persistence (fault-injection sweep over WriteShardedTableDir), the
// shard-layout ingredient of the query result cache key (re-shard and
// single-shard mutation invalidate by construction), the pruning
// telemetry counters, and the EXPLAIN ANALYZE shard footer.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "cache/query_cache.h"
#include "columns/column_file.h"
#include "columns/sharded_table.h"
#include "core/shard_router.h"
#include "gis/catalog.h"
#include "sfc/hilbert.h"
#include "sql/session.h"
#include "telemetry/metrics.h"
#include "util/fault_injection.h"
#include "util/rng.h"
#include "util/tempdir.h"

namespace geocol {
namespace {

std::shared_ptr<FlatTable> MakeTable(size_t n, uint64_t seed,
                                     const Box& extent) {
  Rng rng(seed);
  std::vector<double> xs(n), ys(n), zs(n);
  std::vector<uint8_t> cls(n);
  for (size_t i = 0; i < n; ++i) {
    xs[i] = rng.UniformDouble(extent.min_x, extent.max_x);
    ys[i] = rng.UniformDouble(extent.min_y, extent.max_y);
    zs[i] = rng.UniformDouble(-5, 40);
    cls[i] = static_cast<uint8_t>(rng.Uniform(10));
  }
  auto t = std::make_shared<FlatTable>("pc");
  EXPECT_TRUE(t->AddColumn(Column::FromVector("x", xs)).ok());
  EXPECT_TRUE(t->AddColumn(Column::FromVector("y", ys)).ok());
  EXPECT_TRUE(t->AddColumn(Column::FromVector("z", zs)).ok());
  EXPECT_TRUE(t->AddColumn(Column::FromVector("classification", cls)).ok());
  return t;
}

TEST(ShardedTableTest, BuilderSplitsHilbertOrderedContiguously) {
  auto source = MakeTable(5000, 3, Box(0, 0, 100, 100));
  ShardingOptions so;
  so.num_shards = 8;
  auto sharded = ShardedTable::Create(*source, so);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();

  EXPECT_EQ((*sharded)->num_shards(), 8u);
  EXPECT_EQ((*sharded)->num_rows(), 5000u);

  // Bases are contiguous and shard sizes near-equal.
  uint64_t base = 0;
  for (size_t i = 0; i < (*sharded)->num_shards(); ++i) {
    const ShardSlice& s = (*sharded)->shard(i);
    EXPECT_EQ(s.base, base);
    EXPECT_GE(s.table->num_rows(), 5000u / 8);
    EXPECT_LE(s.table->num_rows(), 5000u / 8 + 1);
    base += s.table->num_rows();
    EXPECT_EQ((*sharded)->ShardIndexOf(s.base), i);
    EXPECT_EQ((*sharded)->ShardIndexOf(base - 1), i);
  }
  EXPECT_EQ(base, 5000u);

  // Concatenated shard rows are Hilbert-nondecreasing, every point lies
  // inside its shard's bbox, and consecutive shards do not interleave on
  // the curve.
  const Box extent = (*sharded)->extent();
  uint64_t prev_key = 0;
  for (size_t i = 0; i < (*sharded)->num_shards(); ++i) {
    const ShardSlice& s = (*sharded)->shard(i);
    auto x = s.table->GetColumn("x");
    auto y = s.table->GetColumn("y");
    ASSERT_TRUE(x.ok() && y.ok());
    for (uint64_t r = 0; r < s.table->num_rows(); ++r) {
      double px = (*x)->GetDouble(r), py = (*y)->GetDouble(r);
      EXPECT_TRUE(s.bbox.Contains(Point{px, py}))
          << "shard " << i << " row " << r;
      uint64_t key = HilbertEncodeScaled(px, py, extent, so.hilbert_order);
      EXPECT_GE(key, prev_key) << "shard " << i << " row " << r;
      prev_key = key;
    }
  }
}

TEST(ShardedTableTest, DegenerateInputs) {
  // K > rows: clamps to one shard per row.
  auto tiny = MakeTable(3, 5, Box(0, 0, 10, 10));
  ShardingOptions many;
  many.num_shards = 64;
  auto s = ShardedTable::Create(*tiny, many);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ((*s)->num_shards(), 3u);
  EXPECT_EQ((*s)->num_rows(), 3u);

  // Single-point table.
  auto single = MakeTable(1, 6, Box(5, 5, 5, 5));
  auto s1 = ShardedTable::Create(*single, many);
  ASSERT_TRUE(s1.ok());
  EXPECT_EQ((*s1)->num_shards(), 1u);
  ShardRouter r1(*s1);
  auto sel = r1.SelectInBox(Box(0, 0, 10, 10));
  ASSERT_TRUE(sel.ok());
  EXPECT_EQ(sel->row_ids.size(), 1u);

  // Zero-extent table (all points identical): keys all equal, stable sort
  // keeps source order, queries still work.
  const size_t n = 100;
  std::vector<double> xs(n, 42.0), ys(n, 17.0), zs(n);
  for (size_t i = 0; i < n; ++i) zs[i] = static_cast<double>(i);
  auto flat = std::make_shared<FlatTable>("flat");
  ASSERT_TRUE(flat->AddColumn(Column::FromVector("x", xs)).ok());
  ASSERT_TRUE(flat->AddColumn(Column::FromVector("y", ys)).ok());
  ASSERT_TRUE(flat->AddColumn(Column::FromVector("z", zs)).ok());
  ShardingOptions so;
  so.num_shards = 4;
  auto sz = ShardedTable::Create(*flat, so);
  ASSERT_TRUE(sz.ok()) << sz.status().ToString();
  EXPECT_EQ((*sz)->num_shards(), 4u);
  EXPECT_TRUE((*sz)->extent().empty() ||
              ((*sz)->extent().width() == 0 && (*sz)->extent().height() == 0));
  // Source order preserved: global row g holds z == g.
  uint64_t g = 0;
  for (size_t i = 0; i < (*sz)->num_shards(); ++i) {
    auto z = (*sz)->shard(i).table->GetColumn("z");
    ASSERT_TRUE(z.ok());
    for (uint64_t r = 0; r < (*sz)->shard(i).table->num_rows(); ++r, ++g) {
      EXPECT_EQ((*z)->GetDouble(r), static_cast<double>(g));
    }
  }
  ShardRouter rz(*sz);
  auto all = rz.SelectInBox(Box(40, 15, 45, 20));
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->row_ids.size(), n);

  // Empty table: single empty shard, empty selections.
  auto empty = std::make_shared<FlatTable>("empty");
  ASSERT_TRUE(
      empty->AddColumn(Column::FromVector("x", std::vector<double>{})).ok());
  ASSERT_TRUE(
      empty->AddColumn(Column::FromVector("y", std::vector<double>{})).ok());
  auto se = ShardedTable::Create(*empty, so);
  ASSERT_TRUE(se.ok()) << se.status().ToString();
  EXPECT_EQ((*se)->num_shards(), 1u);
  EXPECT_EQ((*se)->num_rows(), 0u);
  ShardRouter re(*se);
  auto none = re.SelectInBox(Box(0, 0, 1, 1));
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none->row_ids.empty());
}

TEST(ShardedTableTest, PersistRoundTripPreservesLayoutAndAnswers) {
  TempDir tmp("sharded-roundtrip");
  auto source = MakeTable(4000, 9, Box(0, 0, 500, 500));
  ShardingOptions so;
  so.num_shards = 6;
  auto built = ShardedTable::Create(*source, so);
  ASSERT_TRUE(built.ok());

  const std::string dir = tmp.path() + "/t";
  ASSERT_TRUE(WriteShardedTableDir(**built, dir).ok());
  EXPECT_TRUE(IsShardedTableDir(dir));

  auto loaded = ReadShardedTableDir(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)->generation(), 1u);
  EXPECT_EQ((*loaded)->num_shards(), (*built)->num_shards());
  EXPECT_EQ((*loaded)->num_rows(), (*built)->num_rows());
  EXPECT_EQ((*loaded)->x_column(), "x");
  for (size_t i = 0; i < (*built)->num_shards(); ++i) {
    EXPECT_EQ((*loaded)->shard(i).base, (*built)->shard(i).base);
    EXPECT_EQ((*loaded)->shard(i).table->num_rows(),
              (*built)->shard(i).table->num_rows());
    EXPECT_EQ((*loaded)->shard(i).bbox.min_x, (*built)->shard(i).bbox.min_x);
    EXPECT_EQ((*loaded)->shard(i).bbox.max_y, (*built)->shard(i).bbox.max_y);
    EXPECT_FALSE((*loaded)->shard(i).dir.empty());
  }

  // Same answers through the loaded layout.
  ShardRouter mem(*built), disk(*loaded);
  Box q(100, 100, 260, 240);
  auto a = mem.SelectInBox(q);
  auto b = disk.SelectInBox(q);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->row_ids, b->row_ids);

  // Rewrite bumps the generation; the layouts referenced by successive
  // manifests never share shard directories.
  auto m1 = ReadShardedTableManifest(dir);
  ASSERT_TRUE(m1.ok());
  ASSERT_TRUE(WriteShardedTableDir(**built, dir).ok());
  auto m2 = ReadShardedTableManifest(dir);
  ASSERT_TRUE(m2.ok());
  EXPECT_EQ(m2->generation, m1->generation + 1);
  for (const auto& s1 : m1->shards) {
    for (const auto& s2 : m2->shards) EXPECT_NE(s1.dirname, s2.dirname);
  }
}

// Crash sweep over the whole persistence step: at every injectable crash
// point the directory must read back as either the previous committed
// layout or (only when the crash hits after the manifest swap) the new
// one — never a mix, never a torn manifest.
TEST(ShardedTableTest, CrashSweepLeavesOldOrNewLayout) {
  auto source = MakeTable(600, 13, Box(0, 0, 100, 100));
  ShardingOptions a;
  a.num_shards = 3;
  auto first = ShardedTable::Create(*source, a);
  ASSERT_TRUE(first.ok());
  ShardingOptions b;
  b.num_shards = 5;
  auto second = ShardedTable::Create(*source, b);
  ASSERT_TRUE(second.ok());

  auto& fi = FaultInjector::Global();

  // Count the fallible ops of the initial write and of the re-shard.
  TempDir clean("sharded-clean");
  ASSERT_TRUE(WriteShardedTableDir(**first, clean.path() + "/t").ok());
  fi.StartCounting();
  ASSERT_TRUE(WriteShardedTableDir(**second, clean.path() + "/t").ok());
  const uint64_t reshard_ops = fi.StopCounting();
  ASSERT_GT(reshard_ops, 0u);

  TempDir fresh("sharded-fresh");
  fi.StartCounting();
  ASSERT_TRUE(WriteShardedTableDir(**first, fresh.path() + "/i").ok());
  const uint64_t initial_ops = fi.StopCounting();

  // Initial write: after any crash the dir is either not a sharded table
  // yet, or holds the complete new layout.
  const uint64_t initial_step = std::max<uint64_t>(1, initial_ops / 23);
  for (uint64_t k = 1; k <= initial_ops; k += initial_step) {
    TempDir tmp("sharded-crash-i");
    const std::string dir = tmp.path() + "/t";
    fi.ArmCrashAtOp(k);
    Status st = WriteShardedTableDir(**first, dir);
    fi.Disarm();
    if (st.ok()) continue;  // crash landed after the commit point
    if (!IsShardedTableDir(dir)) continue;  // never published: old state
    auto loaded = ReadShardedTableDir(dir);
    ASSERT_TRUE(loaded.ok()) << "op " << k << ": " << loaded.status().ToString();
    EXPECT_EQ((*loaded)->num_shards(), 3u) << "op " << k;
    EXPECT_EQ((*loaded)->num_rows(), 600u) << "op " << k;
  }

  // Re-shard (K=3 -> K=5) over a committed layout: old or new, never
  // mixed, at every crash point.
  const uint64_t reshard_step = std::max<uint64_t>(1, reshard_ops / 23);
  for (uint64_t k = 1; k <= reshard_ops; k += reshard_step) {
    TempDir tmp("sharded-crash-r");
    const std::string dir = tmp.path() + "/t";
    ASSERT_TRUE(WriteShardedTableDir(**first, dir).ok());
    fi.ArmCrashAtOp(k);
    Status st = WriteShardedTableDir(**second, dir);
    fi.Disarm();
    auto loaded = ReadShardedTableDir(dir);
    ASSERT_TRUE(loaded.ok()) << "op " << k << ": " << loaded.status().ToString();
    const size_t shards = (*loaded)->num_shards();
    EXPECT_TRUE(shards == 3u || shards == 5u) << "op " << k;
    if (st.ok()) {
      EXPECT_EQ(shards, 5u) << "op " << k;
    }
    EXPECT_EQ((*loaded)->num_rows(), 600u) << "op " << k;
    // The surviving layout answers queries.
    ShardRouter router(*loaded);
    auto sel = router.SelectInBox(Box(10, 10, 60, 60));
    ASSERT_TRUE(sel.ok()) << "op " << k;
  }
}

// The router's cache key embeds the shard layout (layout id, generation,
// per-shard column epochs): an exact repeat hits, while re-sharding or
// mutating any single shard invalidates by construction.
TEST(ShardRouterTest, CacheKeyTracksShardLayoutAndEpochs) {
  auto source = MakeTable(3000, 21, Box(0, 0, 200, 200));
  auto cache = std::make_shared<cache::QueryResultCache>();

  EngineOptions opts;
  opts.num_threads = 1;
  opts.cache.budget_bytes = 4ull << 20;
  opts.cache.instance = cache;

  ShardingOptions so;
  so.num_shards = 4;
  auto sharded = ShardedTable::Create(*source, so);
  ASSERT_TRUE(sharded.ok());
  ShardRouter router(*sharded, opts);

  const Box q(20, 20, 150, 140);
  auto cold = router.SelectInBox(q);
  ASSERT_TRUE(cold.ok());
  ASSERT_TRUE(router.SelectInBox(q).ok());  // second sighting: admitted
  const uint64_t h0 = cache->Stats().tier[0].hits;
  auto warm = router.SelectInBox(q);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(cache->Stats().tier[0].hits, h0 + 1);
  EXPECT_EQ(warm->row_ids, cold->row_ids);
  // The replay is visible in the profile as a cache.hit span.
  ASSERT_FALSE(warm->profile.operators().empty());
  EXPECT_EQ(warm->profile.operators()[0].name, "cache.hit");

  // Re-shard: a different layout (even over identical data) must miss.
  ShardingOptions so2;
  so2.num_shards = 8;
  auto resharded = ShardedTable::Create(*source, so2);
  ASSERT_TRUE(resharded.ok());
  ShardRouter router2(*resharded, opts);
  const uint64_t h1 = cache->Stats().tier[0].hits;
  auto miss = router2.SelectInBox(q);
  ASSERT_TRUE(miss.ok());
  EXPECT_EQ(cache->Stats().tier[0].hits, h1);
  EXPECT_EQ(miss->row_ids, cold->row_ids);

  // Mutating one shard's x column (epoch bump, identical bytes) must
  // invalidate every cached selection of the first router.
  (void)(*sharded)->shard(2).table->GetColumn("x").value()->BeginRawUpdate();
  const uint64_t h2 = cache->Stats().tier[0].hits;
  auto after = router.SelectInBox(q);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(cache->Stats().tier[0].hits, h2);
  EXPECT_EQ(after->row_ids, cold->row_ids);

  // Aggregates re-aggregate over the cached selection: the third run of
  // the selection hits, and an epoch bump of the aggregated column in any
  // one shard leaves the selection cached while the value is recomputed
  // from the shard's current column.
  auto v1 = router.Aggregate(Geometry(q), 0, {}, "z", AggKind::kSum);
  ASSERT_TRUE(v1.ok());
  ASSERT_TRUE(router.Aggregate(Geometry(q), 0, {}, "z", AggKind::kSum).ok());
  const uint64_t a0 = cache->Stats().tier[0].hits;
  auto v2 = router.Aggregate(Geometry(q), 0, {}, "z", AggKind::kSum);
  ASSERT_TRUE(v2.ok());
  EXPECT_EQ(cache->Stats().tier[0].hits, a0 + 1);
  EXPECT_EQ(*v1, *v2);
  (void)(*sharded)->shard(0).table->GetColumn("z").value()->BeginRawUpdate();
  const uint64_t a1 = cache->Stats().tier[0].hits;
  auto v3 = router.Aggregate(Geometry(q), 0, {}, "z", AggKind::kSum);
  ASSERT_TRUE(v3.ok());
  EXPECT_EQ(cache->Stats().tier[0].hits, a1 + 1);
  EXPECT_EQ(*v1, *v3);
  EXPECT_EQ(cache->Stats().tier[2].hits + cache->Stats().tier[2].misses, 0u);
}

// Appending rows to the LAST shard (bases stay valid) is the supported
// in-place growth path: the appended point is immediately visible and
// previously cached selections are not replayed.
TEST(ShardRouterTest, AppendToLastShardInvalidatesAndIsVisible) {
  auto source = MakeTable(2000, 33, Box(0, 0, 100, 100));
  auto cache = std::make_shared<cache::QueryResultCache>();
  EngineOptions opts;
  opts.num_threads = 1;
  opts.cache.budget_bytes = 4ull << 20;
  opts.cache.instance = cache;

  ShardingOptions so;
  so.num_shards = 3;
  auto sharded = ShardedTable::Create(*source, so);
  ASSERT_TRUE(sharded.ok());
  ShardRouter router(*sharded, opts);

  ShardSlice& last = (*sharded)->shards().back();
  // A point inside the last shard's bbox, so its (fixed) pruning bounds
  // still admit it.
  const double px = (last.bbox.min_x + last.bbox.max_x) / 2;
  const double py = (last.bbox.min_y + last.bbox.max_y) / 2;
  const Box q(px - 1, py - 1, px + 1, py + 1);

  auto before = router.SelectInBox(q);
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(router.SelectInBox(q).ok());  // admit
  auto cached = router.SelectInBox(q);  // prove the hit
  ASSERT_TRUE(cached.ok());
  EXPECT_EQ(cache->Stats().tier[0].hits, 1u);

  for (const ColumnPtr& col : last.table->columns()) {
    if (col->name() == "x") {
      double v = px;
      col->AppendRaw(&v, 1);
    } else if (col->name() == "y") {
      double v = py;
      col->AppendRaw(&v, 1);
    } else if (col->name() == "z") {
      double v = 1.0;
      col->AppendRaw(&v, 1);
    } else {
      uint8_t v = 2;
      col->AppendRaw(&v, 1);
    }
  }

  auto after = router.SelectInBox(q);
  ASSERT_TRUE(after.ok());
  // No stale replay, and exactly the appended row joined the result.
  EXPECT_EQ(cache->Stats().tier[0].hits, 1u);
  EXPECT_EQ(after->row_ids.size(), before->row_ids.size() + 1);
  const uint64_t appended_global =
      last.base + last.table->num_rows() - 1;
  EXPECT_TRUE(std::find(after->row_ids.begin(), after->row_ids.end(),
                        appended_global) != after->row_ids.end());
}

TEST(ShardRouterTest, PruningCountersAndSpans) {
  auto source = MakeTable(4000, 17, Box(0, 0, 400, 400));
  ShardingOptions so;
  so.num_shards = 8;
  auto sharded = ShardedTable::Create(*source, so);
  ASSERT_TRUE(sharded.ok());
  ShardRouter router(*sharded);

  auto& reg = telemetry::MetricsRegistry::Global();
  const uint64_t scanned0 = reg.GetCounter("geocol_shards_scanned_total").Value();
  const uint64_t pruned0 = reg.GetCounter("geocol_shards_pruned_total").Value();

  // A small viewport in one corner cannot touch all 8 Hilbert shards.
  auto sel = router.SelectInBox(Box(0, 0, 30, 30));
  ASSERT_TRUE(sel.ok());
  const uint64_t scanned =
      reg.GetCounter("geocol_shards_scanned_total").Value() - scanned0;
  const uint64_t pruned =
      reg.GetCounter("geocol_shards_pruned_total").Value() - pruned0;
  EXPECT_EQ(scanned + pruned, 8u);
  EXPECT_GE(pruned, 1u) << "corner viewport should prune some shards";

  // Span tree: one shard.route root carrying the counts, one shard.scan
  // child per scanned shard.
  int route_spans = 0;
  uint64_t scan_spans = 0;
  for (const auto& op : sel->profile.operators()) {
    if (op.name == "shard.route") {
      ++route_spans;
      bool have_total = false;
      for (const auto& [k, v] : op.attrs) {
        if (k == "shards_total") {
          have_total = true;
          EXPECT_EQ(v, "8");
        }
        if (k == "shards_scanned") {
          EXPECT_EQ(v, std::to_string(scanned));
        }
        if (k == "shards_pruned") {
          EXPECT_EQ(v, std::to_string(pruned));
        }
      }
      EXPECT_TRUE(have_total);
    }
    if (op.name == "shard.scan") ++scan_spans;
  }
  EXPECT_EQ(route_spans, 1);
  EXPECT_EQ(scan_spans, scanned);

  // Full-extent query scans everything.
  auto all = router.SelectInBox(Box(0, 0, 400, 400));
  ASSERT_TRUE(all.ok());
  const uint64_t scanned_all =
      reg.GetCounter("geocol_shards_scanned_total").Value() - scanned0 -
      scanned;
  EXPECT_EQ(scanned_all, 8u);
  EXPECT_EQ(all->row_ids.size(), 4000u);
}

TEST(ShardRouterTest, ExplainAnalyzeShowsShardFooter) {
  auto source = MakeTable(3000, 27, Box(0, 0, 300, 300));
  ShardingOptions so;
  so.num_shards = 6;
  auto sharded = ShardedTable::Create(*source, so);
  ASSERT_TRUE(sharded.ok());
  (*sharded)->set_name("pc");

  Catalog catalog;
  ASSERT_TRUE(catalog.AddShardedPointCloud("pc", *sharded).ok());
  sql::Session session(&catalog);

  auto rs = session.Execute(
      "EXPLAIN ANALYZE SELECT COUNT(*) FROM pc WHERE "
      "ST_Within(pt, 'BOX(10 10, 60 60)')");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  std::string all;
  for (const auto& row : rs->rows) {
    for (const auto& v : row) all += v.ToString() + "\n";
  }
  EXPECT_NE(all.find("sharded point cloud (6 Hilbert shards"),
            std::string::npos)
      << all;
  EXPECT_NE(all.find("shard.route"), std::string::npos) << all;
  EXPECT_NE(all.find("shards: scanned "), std::string::npos) << all;
  EXPECT_NE(all.find(" pruned)"), std::string::npos) << all;

  // Plain EXPLAIN mentions the scatter-gather step without executing.
  auto ex = session.Execute("EXPLAIN SELECT COUNT(*) FROM pc");
  ASSERT_TRUE(ex.ok());
  std::string plan;
  for (const auto& row : ex->rows) {
    for (const auto& v : row) plan += v.ToString() + "\n";
  }
  EXPECT_NE(plan.find("bbox-prune shards against query window"),
            std::string::npos)
      << plan;

  // NEAR on a sharded table is rejected as unsupported, not misexecuted.
  Catalog with_layer;
  ASSERT_TRUE(with_layer.AddShardedPointCloud("pc", *sharded).ok());
  auto layer = std::make_shared<VectorLayer>("roads");
  VectorFeature f;
  f.id = 1;
  f.feature_class = 12210;
  f.geometry = Geometry(Box(0, 0, 10, 10));
  layer->Add(std::move(f));
  ASSERT_TRUE(with_layer.AddLayer(layer).ok());
  sql::Session s2(&with_layer);
  auto near = s2.Execute("SELECT COUNT(*) FROM pc WHERE NEAR(roads, 12210, 5)");
  EXPECT_FALSE(near.ok());
  EXPECT_EQ(near.status().code(), StatusCode::kUnsupported);
}

TEST(ShardRouterTest, SqlProjectionAndOrderByOverShards) {
  auto source = MakeTable(2500, 41, Box(0, 0, 250, 250));
  ShardingOptions so;
  so.num_shards = 5;
  auto sharded = ShardedTable::Create(*source, so);
  ASSERT_TRUE(sharded.ok());
  (*sharded)->set_name("pc");

  // Oracle: flat engine over the K = 1 sorted table.
  ShardingOptions one;
  one.num_shards = 1;
  auto sorted = ShardedTable::Create(*source, one);
  ASSERT_TRUE(sorted.ok());

  Catalog sharded_cat, flat_cat;
  ASSERT_TRUE(sharded_cat.AddShardedPointCloud("pc", *sharded).ok());
  ASSERT_TRUE(
      flat_cat.AddPointCloud("pc", (*sorted)->shard(0).table).ok());
  sql::Session a(&sharded_cat), b(&flat_cat);

  const char* queries[] = {
      "SELECT x, y, z FROM pc WHERE ST_Within(pt, 'BOX(30 30, 170 150)') "
      "ORDER BY z DESC LIMIT 40",
      "SELECT AVG(z), MIN(z), MAX(z), COUNT(*) FROM pc WHERE "
      "classification BETWEEN 2 AND 7",
      "SELECT SUM(z) FROM pc",
  };
  for (const char* q : queries) {
    SCOPED_TRACE(q);
    auto ra = a.Execute(q);
    auto rb = b.Execute(q);
    ASSERT_TRUE(ra.ok()) << ra.status().ToString();
    ASSERT_TRUE(rb.ok()) << rb.status().ToString();
    EXPECT_EQ(ra->columns, rb->columns);
    ASSERT_EQ(ra->rows.size(), rb->rows.size());
    for (size_t i = 0; i < ra->rows.size(); ++i) {
      ASSERT_EQ(ra->rows[i].size(), rb->rows[i].size());
      for (size_t c = 0; c < ra->rows[i].size(); ++c) {
        EXPECT_TRUE(ra->rows[i][c] == rb->rows[i][c])
            << "row " << i << " col " << c << ": "
            << ra->rows[i][c].ToString() << " vs "
            << rb->rows[i][c].ToString();
      }
    }
  }
}

}  // namespace
}  // namespace geocol
