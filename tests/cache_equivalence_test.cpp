// Differential cache-equivalence suite: a seeded randomized workload runs
// three times through one engine — cold (every query computed, its
// sighting noted), admitting (computed again and stored) and warm (every
// query served by the cache) — and every observable of every query must
// be byte-identical between the passes AND equal to a cache-off engine:
// row ids, filter/refine statistics, and aggregate values (compared
// bit-for-bit, NaN included). The matrix covers {serial, parallel} x
// {scalar, best SIMD level}.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "core/spatial_engine.h"
#include "geom/geometry.h"
#include "simd/dispatch.h"
#include "util/rng.h"

namespace geocol {
namespace {

std::shared_ptr<FlatTable> MakeTable(size_t n, uint64_t seed,
                                     const Box& extent) {
  Rng rng(seed);
  std::vector<double> xs(n), ys(n), zs(n);
  std::vector<uint8_t> cls(n);
  std::vector<uint16_t> intensity(n);
  for (size_t i = 0; i < n; ++i) {
    xs[i] = rng.UniformDouble(extent.min_x, extent.max_x);
    ys[i] = rng.UniformDouble(extent.min_y, extent.max_y);
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

// One randomized query: spatial predicate + optional buffer + 0-2 thematic
// ranges + optionally an aggregate. Geometries are drawn from a small pool
// so repeats (tier a) and same-geometry-different-ranges (tier b) both
// occur naturally.
struct WorkloadQuery {
  Geometry geometry{Box(0, 0, 1, 1)};
  double buffer = 0.0;
  std::vector<AttributeRange> thematic;
  bool aggregate = false;
  AggKind kind = AggKind::kAvg;
  std::string agg_column;
};

Geometry RandomQueryGeometry(Rng* rng, double world) {
  switch (rng->Uniform(3)) {
    case 0: {
      double x = rng->UniformDouble(0, world * 0.8);
      double y = rng->UniformDouble(0, world * 0.8);
      return Geometry(Box(x, y, x + rng->UniformDouble(1, world * 0.3),
                          y + rng->UniformDouble(1, world * 0.3)));
    }
    case 1: {
      Point c{rng->UniformDouble(world * 0.2, world * 0.8),
              rng->UniformDouble(world * 0.2, world * 0.8)};
      int n = 3 + static_cast<int>(rng->Uniform(8));
      Polygon p;
      for (int i = 0; i < n; ++i) {
        double a = 2 * M_PI * i / n;
        double r = rng->UniformDouble(world * 0.05, world * 0.25);
        p.shell.points.push_back({c.x + r * std::cos(a), c.y + r * std::sin(a)});
      }
      return Geometry(std::move(p));
    }
    default: {
      LineString l;
      int n = 2 + static_cast<int>(rng->Uniform(4));
      for (int i = 0; i < n; ++i) {
        l.points.push_back(
            {rng->UniformDouble(0, world), rng->UniformDouble(0, world)});
      }
      return Geometry(std::move(l));
    }
  }
}

std::vector<WorkloadQuery> MakeWorkload(uint64_t seed, size_t count,
                                        double world) {
  Rng rng(seed);
  std::vector<Geometry> pool;
  std::vector<WorkloadQuery> queries;
  for (size_t i = 0; i < count; ++i) {
    WorkloadQuery q;
    // 40% of queries reuse a pooled geometry: exact repeats exercise tier
    // (a)/(c), reuse with different thematic ranges exercises tier (b).
    if (!pool.empty() && rng.NextBool(0.4)) {
      q.geometry = pool[rng.Uniform(pool.size())];
    } else {
      q.geometry = RandomQueryGeometry(&rng, world);
      pool.push_back(q.geometry);
    }
    if (q.geometry.type() == GeometryType::kLineString || rng.NextBool(0.2)) {
      q.buffer = rng.UniformDouble(0.5, world * 0.05);
    }
    int ranges = static_cast<int>(rng.Uniform(3));
    if (ranges >= 1) {
      q.thematic.push_back({"classification",
                            static_cast<double>(rng.Uniform(6)),
                            static_cast<double>(4 + rng.Uniform(6))});
    }
    if (ranges >= 2) {
      double lo = rng.UniformDouble(0, 200);
      q.thematic.push_back({"intensity", lo, lo + rng.UniformDouble(10, 80)});
    }
    if (rng.NextBool(0.3)) {
      q.aggregate = true;
      q.kind = static_cast<AggKind>(rng.Uniform(5));
      q.agg_column = rng.NextBool() ? "z" : "intensity";
    }
    queries.push_back(std::move(q));
  }
  return queries;
}

void ExpectFilterStatsEq(const ImprintScanStats& a, const ImprintScanStats& b,
                         const char* what) {
  EXPECT_EQ(a.lines_total, b.lines_total) << what;
  EXPECT_EQ(a.lines_candidate, b.lines_candidate) << what;
  EXPECT_EQ(a.lines_full, b.lines_full) << what;
  EXPECT_EQ(a.values_checked, b.values_checked) << what;
  EXPECT_EQ(a.rows_selected, b.rows_selected) << what;
  EXPECT_EQ(a.rows_full, b.rows_full) << what;
  EXPECT_EQ(a.workers, b.workers) << what;
}

void ExpectRefineStatsEq(const RefinementStats& a, const RefinementStats& b,
                         const char* what) {
  EXPECT_EQ(a.candidates, b.candidates) << what;
  EXPECT_EQ(a.accepted, b.accepted) << what;
  EXPECT_EQ(a.cells_total, b.cells_total) << what;
  EXPECT_EQ(a.cells_nonempty, b.cells_nonempty) << what;
  EXPECT_EQ(a.cells_inside, b.cells_inside) << what;
  EXPECT_EQ(a.cells_outside, b.cells_outside) << what;
  EXPECT_EQ(a.cells_boundary, b.cells_boundary) << what;
  EXPECT_EQ(a.exact_tests, b.exact_tests) << what;
  EXPECT_EQ(a.grid_cols, b.grid_cols) << what;
  EXPECT_EQ(a.grid_rows, b.grid_rows) << what;
  EXPECT_EQ(a.workers, b.workers) << what;
}

void ExpectSelectionEq(const SelectionResult& a, const SelectionResult& b,
                       const char* what) {
  EXPECT_EQ(a.row_ids, b.row_ids) << what;
  ExpectFilterStatsEq(a.filter, b.filter, what);
  ExpectRefineStatsEq(a.refine, b.refine, what);
}

// Bitwise double equality: distinguishes -0.0 from 0.0 and treats equal
// NaN payloads as equal — the cache must replay the exact stored bits.
bool SameBits(double a, double b) {
  uint64_t ba, bb;
  std::memcpy(&ba, &a, sizeof(ba));
  std::memcpy(&bb, &b, sizeof(bb));
  return ba == bb;
}

struct EngineConfig {
  uint32_t threads;
  simd::SimdLevel level;
};

std::vector<EngineConfig> Configs() {
  std::vector<EngineConfig> configs = {{1, simd::SimdLevel::kScalar},
                                       {3, simd::SimdLevel::kScalar}};
  if (simd::MaxSupportedSimdLevel() != simd::SimdLevel::kScalar) {
    configs.push_back({1, simd::MaxSupportedSimdLevel()});
    configs.push_back({3, simd::MaxSupportedSimdLevel()});
  }
  return configs;
}

// Restores the default kernel dispatch when a test scope exits.
struct SimdLevelGuard {
  ~SimdLevelGuard() { simd::SetSimdLevel(simd::MaxSupportedSimdLevel()); }
};

TEST(CacheEquivalenceTest, ColdAndWarmPassesMatchCacheOffEngine) {
  SimdLevelGuard guard;
  auto workload = MakeWorkload(1234, 36, 1000.0);
  for (const EngineConfig& cfg : Configs()) {
    SCOPED_TRACE(testing::Message() << "threads=" << cfg.threads << " simd="
                                    << simd::SimdLevelName(cfg.level));
    simd::SetSimdLevel(cfg.level);
    auto table = MakeTable(20000, 7, Box(0, 0, 1000, 1000));

    EngineOptions off;
    off.num_threads = cfg.threads;
    SpatialQueryEngine oracle(table, off);

    EngineOptions on = off;
    on.cache.budget_bytes = 64ull << 20;
    on.cache.instance = std::make_shared<cache::QueryResultCache>();
    SpatialQueryEngine cached(table, on);

    // Pass 1 (cold: sightings noted), pass 2 (admitting) and pass 3
    // (warm) results, compared against the cache-off oracle query by query.
    for (int pass = 0; pass < 3; ++pass) {
      for (size_t i = 0; i < workload.size(); ++i) {
        const WorkloadQuery& q = workload[i];
        SCOPED_TRACE(testing::Message() << "pass=" << pass << " query=" << i);
        if (q.aggregate) {
          auto got = cached.Aggregate(q.geometry, q.buffer, q.thematic,
                                      q.agg_column, q.kind);
          auto want = oracle.Aggregate(q.geometry, q.buffer, q.thematic,
                                       q.agg_column, q.kind);
          ASSERT_TRUE(got.ok()) << got.status().ToString();
          ASSERT_TRUE(want.ok()) << want.status().ToString();
          EXPECT_TRUE(SameBits(*got, *want))
              << "aggregate " << *got << " != " << *want;
        } else {
          auto got = cached.Select(q.geometry, q.buffer, q.thematic);
          auto want = oracle.Select(q.geometry, q.buffer, q.thematic);
          ASSERT_TRUE(got.ok()) << got.status().ToString();
          ASSERT_TRUE(want.ok()) << want.status().ToString();
          ExpectSelectionEq(*got, *want, "cached vs oracle");
        }
      }
    }
    // The warm pass must actually have been served by the cache.
    cache::CacheStats stats = on.cache.instance->Stats();
    EXPECT_GT(stats.TotalHits(), 0u);
    EXPECT_GT(stats.tier[static_cast<size_t>(cache::Tier::kSelection)].hits,
              0u);
  }
}

// An exact repeat must collapse to a single cache.hit span carrying the
// cache_hit=selection attribute EXPLAIN ANALYZE renders.
TEST(CacheEquivalenceTest, HitProfileRecordsCacheHitSpan) {
  auto table = MakeTable(5000, 9, Box(0, 0, 100, 100));
  EngineOptions on;
  on.num_threads = 1;
  on.cache.budget_bytes = 16ull << 20;
  on.cache.instance = std::make_shared<cache::QueryResultCache>();
  SpatialQueryEngine eng(table, on);
  Polygon poly;
  poly.shell.points = {{10, 10}, {90, 20}, {70, 80}, {20, 60}};
  Geometry g(poly);

  std::vector<uint64_t> cold_rows;
  for (int i = 0; i < 2; ++i) {  // first sighting, then admission
    auto cold = eng.SelectInGeometry(g);
    ASSERT_TRUE(cold.ok());
    for (const auto& op : cold->profile.operators()) {
      EXPECT_NE(op.name, "cache.hit");
    }
    cold_rows = cold->row_ids;
  }

  auto warm = eng.SelectInGeometry(g);
  ASSERT_TRUE(warm.ok());
  ASSERT_EQ(warm->profile.operators().size(), 1u);
  const auto& op = warm->profile.operators()[0];
  EXPECT_EQ(op.name, "cache.hit");
  ASSERT_EQ(op.attrs.size(), 1u);
  EXPECT_EQ(op.attrs[0].first, "cache_hit");
  EXPECT_EQ(op.attrs[0].second, "selection");
  EXPECT_EQ(warm->row_ids, cold_rows);
}

// Budget 0 must leave the engine entirely detached from the cache: no
// lookups, no inserts, no stats movement in a bound instance.
TEST(CacheEquivalenceTest, ZeroBudgetNeverTouchesCache) {
  auto table = MakeTable(5000, 10, Box(0, 0, 100, 100));
  EngineOptions opts;
  opts.num_threads = 1;
  opts.cache.budget_bytes = 0;
  opts.cache.instance = std::make_shared<cache::QueryResultCache>();
  SpatialQueryEngine eng(table, opts);
  Polygon poly;
  poly.shell.points = {{10, 10}, {90, 20}, {70, 80}, {20, 60}};
  Geometry g(poly);
  ASSERT_TRUE(eng.SelectInGeometry(g).ok());
  ASSERT_TRUE(eng.SelectInGeometry(g).ok());
  cache::CacheStats stats = opts.cache.instance->Stats();
  EXPECT_EQ(stats.TotalHits() + stats.TotalMisses(), 0u);
  EXPECT_EQ(stats.bytes_used, 0u);
  EXPECT_EQ(eng.result_cache(), nullptr);
}

}  // namespace
}  // namespace geocol
