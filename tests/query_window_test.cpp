// The query window fold (core/query_window.h): ranges on x/y narrow the
// geometry envelope, so the filter scans x and y once and shard pruning and
// the covered-shard shortcut see BETWEEN viewports.
//
// The differential suite checks every execution front end — the flat
// engine (serial and pooled), a live snapshot after a commit, and the shard
// router at K in {1, 4, 16} over resident and paged shards — against a
// fold-free oracle: a row-by-row loop that runs one full scan per range
// (x/y ranges included, each on its own), ANDs them, and tests the spatial
// predicate on GetDouble values. It never calls MakeQueryWindow, so a fold
// that dropped, widened or mis-clamped a range shows up as a row diff.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "columns/sharded_table.h"
#include "core/imprint_scan.h"
#include "core/live_table.h"
#include "core/query_window.h"
#include "core/shard_router.h"
#include "core/spatial_engine.h"
#include "core/table_appender.h"
#include "geom/predicates.h"
#include "gis/catalog.h"
#include "sql/session.h"
#include "telemetry/metrics.h"
#include "util/rng.h"
#include "util/tempdir.h"

namespace geocol {
namespace {

constexpr double kWorld = 1000.0;
constexpr double kInf = std::numeric_limits<double>::infinity();
const double kNaN = std::nan("");

std::shared_ptr<FlatTable> MakeTable(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> xs(n), ys(n), zs(n);
  std::vector<uint8_t> cls(n);
  std::vector<uint16_t> intensity(n);
  for (size_t i = 0; i < n; ++i) {
    // Clustered so Hilbert shard bboxes separate and pruning has work.
    const double cx = (i % 5) * kWorld / 5.0;
    const double cy = (i % 7) * kWorld / 7.0;
    xs[i] = std::min(kWorld, cx + rng.UniformDouble(0, kWorld / 6.0));
    ys[i] = std::min(kWorld, cy + rng.UniformDouble(0, kWorld / 8.0));
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

struct Query {
  std::string what;
  Geometry geometry;
  double buffer = 0.0;
  std::vector<AttributeRange> ranges;
};

Geometry Extent() { return Geometry(Box(0, 0, kWorld, kWorld)); }

Polygon Hexagon(Point c, double r) {
  Polygon p;
  for (int j = 0; j < 6; ++j) {
    const double a = 2 * M_PI * j / 6;
    p.shell.points.push_back({c.x + r * std::cos(a), c.y + r * std::sin(a)});
  }
  return p;
}

std::vector<Query> MakeQueries() {
  std::vector<Query> q;
  // BETWEEN-only viewports over the extent, as the SQL executor plans them.
  Rng rng(5);
  for (int i = 0; i < 6; ++i) {
    const double x = rng.UniformDouble(0, kWorld * 0.8);
    const double y = rng.UniformDouble(0, kWorld * 0.8);
    const double s = rng.UniformDouble(10, kWorld * 0.3);
    q.push_back({"viewport " + std::to_string(i), Extent(), 0.0,
                 {{"x", x, x + s}, {"y", y, y + s}}});
  }
  q.push_back({"x only", Extent(), 0.0, {{"x", 120, 480}}});
  q.push_back({"y only", Extent(), 0.0, {{"y", 610, 905}}});
  q.push_back({"two x ranges", Extent(), 0.0,
               {{"x", 100, 600}, {"y", 50, 700}, {"x", 300, 900}}});
  // Inverted, outside the extent, and infinite bounds.
  q.push_back({"inverted x", Extent(), 0.0, {{"x", 500, 400}}});
  q.push_back({"inverted y", Extent(), 0.0, {{"x", 0, 900}, {"y", 9, 8}}});
  q.push_back({"inverted classification", Extent(), 0.0,
               {{"x", 0, 900}, {"classification", 6, 2}}});
  q.push_back({"x beyond extent", Extent(), 0.0, {{"x", 2000, 3000}}});
  q.push_back({"x below extent", Extent(), 0.0, {{"x", -500, -100}}});
  q.push_back({"x unbounded", Extent(), 0.0, {{"x", -kInf, kInf}}});
  q.push_back({"half-open", Extent(), 0.0, {{"x", -kInf, 450}, {"y", 300, kInf}}});
  q.push_back({"whole extent as ranges", Extent(), 0.0,
               {{"x", 0, kWorld}, {"y", 0, kWorld}}});
  // Geometry plus x/y ranges.
  q.push_back({"box ∩ x", Geometry(Box(150, 100, 700, 650)), 0.0,
               {{"x", 400, 900}}});
  q.push_back({"box ∩ disjoint x", Geometry(Box(150, 100, 300, 650)), 0.0,
               {{"x", 400, 900}}});
  q.push_back({"polygon + x", Geometry(Hexagon({450, 420}, 220)), 0.0,
               {{"x", 300, 520}}});
  LineString line;
  line.points = {{100, 120}, {520, 640}, {880, 300}};
  q.push_back({"dwithin + y", Geometry(line), 35.0, {{"y", 200, 560}}});
  q.push_back({"box dwithin + y", Geometry(Box(200, 200, 600, 600)), 40.0,
               {{"y", 150, 420}}});
  q.push_back({"x/y + classification", Extent(), 0.0,
               {{"x", 100, 700}, {"classification", 2, 6}, {"y", 150, 800}}});
  q.push_back({"box + x + intensity", Geometry(Box(0, 0, 800, 800)), 0.0,
               {{"intensity", 40, 200}, {"x", 250, 750}}});
  // NaN bounds are only reachable through the C++ API.
  q.push_back({"nan x lo", Extent(), 0.0, {{"x", kNaN, 500}}});
  q.push_back({"nan y hi", Extent(), 0.0, {{"y", 100, kNaN}}});
  q.push_back({"nan classification", Extent(), 0.0,
               {{"x", 0, 500}, {"classification", kNaN, 4}}});
  return q;
}

/// Fold-free oracle over `table`: every range is a separate full scan
/// (x/y ranges included), ANDed, then the spatial predicate per row.
std::vector<uint64_t> Oracle(const FlatTable& table, const Query& q) {
  const size_t n = table.num_rows();
  std::vector<uint8_t> keep(n, 1);
  for (const AttributeRange& r : q.ranges) {
    BitVector sel;
    EXPECT_TRUE(FullScanRangeSelect(*table.column(r.column), r.lo, r.hi, &sel)
                    .ok());
    for (size_t i = 0; i < n; ++i) keep[i] &= sel.Get(i) ? 1 : 0;
  }
  const Column& xc = *table.column("x");
  const Column& yc = *table.column("y");
  std::vector<uint64_t> rows;
  for (size_t i = 0; i < n; ++i) {
    if (keep[i] == 0) continue;
    const Point p{xc.GetDouble(i), yc.GetDouble(i)};
    const bool spatial = q.buffer > 0 ? GeometryDWithin(q.geometry, p, q.buffer)
                                      : GeometryContainsPoint(q.geometry, p);
    if (spatial) rows.push_back(i);
  }
  return rows;
}

void CheckEngine(SpatialQueryEngine& engine, const FlatTable& table,
                 const std::vector<Query>& queries) {
  for (const Query& q : queries) {
    SCOPED_TRACE(q.what);
    auto sel = engine.Select(q.geometry, q.buffer, q.ranges);
    ASSERT_TRUE(sel.ok()) << sel.status().ToString();
    EXPECT_EQ(sel->row_ids, Oracle(table, q));
  }
}

TEST(QueryWindowTest, FoldIsExactAndFlagsEmptyWindows) {
  const std::vector<AttributeRange> ranges = {
      {"x", 10, 50}, {"classification", 2, 4}, {"y", -kInf, 30}, {"x", 20, 90}};
  QueryWindow w = MakeQueryWindow(Geometry(Box(0, 0, 40, 40)), 0.0, ranges,
                                  "x", "y");
  EXPECT_FALSE(w.empty);
  EXPECT_EQ(w.envelope, Box(20, 0, 40, 30));
  EXPECT_EQ(w.coverage, Box(20, 0, 40, 30));
  ASSERT_EQ(w.residual.size(), 1u);
  EXPECT_EQ(w.residual[0].column, "classification");

  // A buffer widens the filter envelope but not the coverage box.
  w = MakeQueryWindow(Geometry(Box(0, 0, 40, 40)), 5.0, {{"x", -kInf, 30}},
                      "x", "y");
  EXPECT_EQ(w.envelope, Box(-5, -5, 30, 45));
  EXPECT_EQ(w.coverage, Box(0, 0, 30, 40));

  // Non-box geometries have no coverage box.
  LineString line;
  line.points = {{0, 0}, {10, 10}};
  w = MakeQueryWindow(Geometry(line), 1.0, {}, "x", "y");
  EXPECT_TRUE(w.coverage.empty());
  EXPECT_FALSE(w.empty);

  // Custom coordinate names: "x" is then an ordinary column.
  w = MakeQueryWindow(Geometry(Box(0, 0, 40, 40)), 0.0, {{"x", 10, 20}},
                      "east", "north");
  EXPECT_EQ(w.envelope, Box(0, 0, 40, 40));
  EXPECT_EQ(w.residual.size(), 1u);

  const Geometry box(Box(0, 0, 40, 40));
  EXPECT_TRUE(MakeQueryWindow(box, 0.0, {{"x", 50, 60}}, "x", "y").empty);
  EXPECT_TRUE(MakeQueryWindow(box, 0.0, {{"y", 9, 8}}, "x", "y").empty);
  EXPECT_TRUE(MakeQueryWindow(box, 0.0, {{"z", 9, 8}}, "x", "y").empty);
  EXPECT_TRUE(MakeQueryWindow(box, 0.0, {{"x", kNaN, 8}}, "x", "y").empty);
  EXPECT_TRUE(MakeQueryWindow(box, 0.0, {{"z", 1, kNaN}}, "x", "y").empty);
  EXPECT_TRUE(MakeQueryWindow(Geometry(Box()), 0.0, {}, "x", "y").empty);
  EXPECT_FALSE(MakeQueryWindow(box, 0.0, {{"x", 40, 40}}, "x", "y").empty);
}

TEST(QueryWindowTest, FlatAndLiveMatchFoldFreeOracle) {
  auto table = MakeTable(20000, 7);
  const std::vector<Query> queries = MakeQueries();
  for (uint32_t threads : {1u, 3u}) {
    SCOPED_TRACE(testing::Message() << "flat threads=" << threads);
    EngineOptions opts;
    opts.num_threads = threads;
    SpatialQueryEngine engine(table, opts);
    CheckEngine(engine, *table, queries);
  }

  // A live snapshot one commit past its base: appended columns, stitched
  // imprints.
  LiveTableOptions lopts;
  lopts.engine.num_threads = 2;
  auto live = LiveTable::Create(MakeTable(15000, 8), lopts);
  ASSERT_TRUE(live.ok()) << live.status().ToString();
  {
    // Build the base imprints before the commit so the next epoch extends
    // them incrementally.
    auto warm = (*live)->Pin().engine->Select(Extent(), 0.0, {{"x", 1, 2}});
    ASSERT_TRUE(warm.ok());
  }
  TableAppender app(*live);
  ASSERT_TRUE(app.StageBatch(*MakeTable(5000, 9)).ok());
  ASSERT_TRUE(app.Commit().ok());
  EpochSnapshot snap = (*live)->Pin();
  ASSERT_EQ(snap.epoch, 1u);
  SCOPED_TRACE("live");
  CheckEngine(*snap.engine, *snap.table, queries);
}

TEST(QueryWindowTest, ShardedResidentAndPagedMatchFoldFreeOracle) {
  auto source = MakeTable(20000, 11);
  const std::vector<Query> queries = MakeQueries();
  ShardingOptions one;
  one.num_shards = 1;
  auto sorted = ShardedTable::Create(*source, one);
  ASSERT_TRUE(sorted.ok());
  const FlatTable& oracle_table = *(*sorted)->shard(0).table;

  TempDir dir("query-window");
  for (uint32_t k : {1u, 4u, 16u}) {
    ShardingOptions so;
    so.num_shards = k;
    auto sharded = ShardedTable::Create(*source, so);
    ASSERT_TRUE(sharded.ok());
    const std::string sub = dir.File("k" + std::to_string(k));
    ASSERT_TRUE(WriteShardedTableDir(**sharded, sub).ok());
    auto paged = ReadShardedTableDir(sub, true, /*paged=*/true);
    ASSERT_TRUE(paged.ok()) << paged.status().ToString();
    for (bool use_paged : {false, true}) {
      SCOPED_TRACE(testing::Message() << "K=" << k << " paged=" << use_paged);
      EngineOptions opts;
      opts.num_threads = 2;
      ShardRouter router(use_paged ? *paged : *sharded, opts);
      for (const Query& q : queries) {
        SCOPED_TRACE(q.what);
        auto sel = router.Select(q.geometry, q.buffer, q.ranges);
        ASSERT_TRUE(sel.ok()) << sel.status().ToString();
        EXPECT_EQ(sel->row_ids, Oracle(oracle_table, q));
      }
    }
  }
}

struct ShardCounts {
  uint64_t scanned = 0, pruned = 0, covered = 0;
};

ShardCounts CountersNow() {
  auto& reg = telemetry::MetricsRegistry::Global();
  return {reg.GetCounter("geocol_shards_scanned_total").Value(),
          reg.GetCounter("geocol_shards_pruned_total").Value(),
          reg.GetCounter("geocol_shards_covered_total").Value()};
}

ShardCounts Delta(const ShardCounts& a, const ShardCounts& b) {
  return {b.scanned - a.scanned, b.pruned - a.pruned, b.covered - a.covered};
}

TEST(QueryWindowTest, BetweenViewportPrunesAndCoversLikeTheEqualBox) {
  auto source = MakeTable(20000, 13);
  ShardingOptions so;
  so.num_shards = 16;
  auto sharded = ShardedTable::Create(*source, so);
  ASSERT_TRUE(sharded.ok());
  EngineOptions opts;
  opts.num_threads = 1;
  ShardRouter router(*sharded, opts);

  Rng rng(17);
  for (int i = 0; i < 8; ++i) {
    const double x = rng.UniformDouble(0, kWorld * 0.7);
    const double y = rng.UniformDouble(0, kWorld * 0.7);
    const double s = rng.UniformDouble(20, kWorld * 0.3);
    const ShardCounts c0 = CountersNow();
    auto as_box = router.Select(Geometry(Box(x, y, x + s, y + s)), 0.0, {});
    const ShardCounts c1 = CountersNow();
    auto as_ranges =
        router.Select(Extent(), 0.0, {{"x", x, x + s}, {"y", y, y + s}});
    const ShardCounts c2 = CountersNow();
    ASSERT_TRUE(as_box.ok() && as_ranges.ok());
    EXPECT_EQ(as_ranges->row_ids, as_box->row_ids);
    const ShardCounts box_work = Delta(c0, c1), range_work = Delta(c1, c2);
    EXPECT_EQ(range_work.scanned, box_work.scanned) << "viewport " << i;
    EXPECT_EQ(range_work.pruned, box_work.pruned) << "viewport " << i;
    EXPECT_EQ(range_work.covered, box_work.covered) << "viewport " << i;
  }

  // A window that contains a shard's bbox answers it without a scan.
  const Box bbox = router.View().shards[5]->bbox();
  const ShardCounts c0 = CountersNow();
  auto sel = router.Select(Extent(), 0.0,
                           {{"x", bbox.min_x, bbox.max_x},
                            {"y", bbox.min_y, bbox.max_y}});
  const ShardCounts work = Delta(c0, CountersNow());
  ASSERT_TRUE(sel.ok());
  EXPECT_GE(work.covered, 1u);
  bool shard5_covered = false;
  for (const auto& op : sel->profile.operators()) {
    if (op.name != "shard.covered") continue;
    for (const auto& [k, v] : op.attrs) {
      if (k == "shard" && v == "5") shard5_covered = true;
    }
  }
  EXPECT_TRUE(shard5_covered);
  ShardingOptions one;
  one.num_shards = 1;
  auto sorted = ShardedTable::Create(*source, one);
  ASSERT_TRUE(sorted.ok());
  EXPECT_EQ(sel->row_ids, Oracle(*(*sorted)->shard(0).table,
                                 {"", Extent(), 0.0,
                                  {{"x", bbox.min_x, bbox.max_x},
                                   {"y", bbox.min_y, bbox.max_y}}}));

  // Another column's range makes the window uncoverable.
  const ShardCounts d0 = CountersNow();
  ASSERT_TRUE(router
                  .Select(Extent(), 0.0,
                          {{"x", bbox.min_x, bbox.max_x},
                           {"y", bbox.min_y, bbox.max_y},
                           {"classification", 0, 9}})
                  .ok());
  EXPECT_EQ(Delta(d0, CountersNow()).covered, 0u);
}

TEST(QueryWindowTest, SqlViewportsMatchOracleOnEveryFrontEnd) {
  auto source = MakeTable(12000, 19);
  ShardingOptions one;
  one.num_shards = 1;
  auto sorted = ShardedTable::Create(*source, one);
  ASSERT_TRUE(sorted.ok());
  std::shared_ptr<FlatTable> flat = (*sorted)->shard(0).table;
  ShardingOptions so;
  so.num_shards = 16;
  auto sharded = ShardedTable::Create(*source, so);
  ASSERT_TRUE(sharded.ok());
  auto live = LiveTable::Create(flat);
  ASSERT_TRUE(live.ok());

  Catalog catalog;
  ASSERT_TRUE(catalog.AddPointCloud("flat", flat).ok());
  ASSERT_TRUE(catalog.AddShardedPointCloud("sharded", *sharded).ok());
  ASSERT_TRUE(catalog.AddLivePointCloud("live", *live).ok());
  sql::Session session(&catalog);

  const std::vector<std::string> wheres = {
      "x BETWEEN 120 AND 480 AND y BETWEEN 300 AND 640",
      // BETWEEN rejects reversed bounds; two comparisons still merge into
      // an inverted range.
      "x >= 700 AND x <= 100",
      "y >= 800",
      "x BETWEEN 0 AND 1000 AND y BETWEEN 0 AND 1000",
      "x BETWEEN 200 AND 600 AND classification BETWEEN 3 AND 3",
      "ST_Within(pt, 'BOX(100 100, 600 600)') AND x BETWEEN 400 AND 900",
  };
  const std::vector<Query> oracles = {
      {"", Extent(), 0.0, {{"x", 120, 480}, {"y", 300, 640}}},
      {"", Extent(), 0.0, {{"x", 700, 100}}},
      {"", Extent(), 0.0, {{"y", 800, kInf}}},
      {"", Extent(), 0.0, {{"x", 0, 1000}, {"y", 0, 1000}}},
      {"", Extent(), 0.0, {{"x", 200, 600}, {"classification", 3, 3}}},
      {"", Geometry(Box(100, 100, 600, 600)), 0.0, {{"x", 400, 900}}},
  };
  for (size_t i = 0; i < wheres.size(); ++i) {
    const double expected =
        static_cast<double>(Oracle(*flat, oracles[i]).size());
    for (const char* t : {"flat", "sharded", "live"}) {
      SCOPED_TRACE(std::string(t) + ": " + wheres[i]);
      auto rs = session.Execute(std::string("SELECT COUNT(*) FROM ") + t +
                                " WHERE " + wheres[i]);
      ASSERT_TRUE(rs.ok()) << rs.status().ToString();
      EXPECT_EQ(rs->rows[0][0].number, expected);
    }
  }
}

}  // namespace
}  // namespace geocol
