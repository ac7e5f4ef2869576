// Differential shard-equivalence suite: the same seeded workload runs
// through a ShardRouter at K in {1, 4, 16} shards and through a single
// SpatialQueryEngine over the Hilbert-sorted flat table (the oracle), for
// every {thread count} x {SIMD level} configuration. Global row ids and
// aggregate values must be bit-identical everywhere; filter/refine stats
// must match the oracle verbatim at K = 1 (for K > 1 per-shard imprints
// cover different cacheline populations, so only the answers — not the
// counters — are reproducible; the merged counters are checked for the
// deterministic field-wise sum instead by comparing across router
// configurations).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "columns/sharded_table.h"
#include "core/shard_router.h"
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
    // Clustered, not uniform: most points huddle around a few centres so
    // shard bboxes separate and pruning actually exercises.
    double cx = (i % 5) * extent.width() / 5.0 + extent.min_x;
    double cy = (i % 7) * extent.height() / 7.0 + extent.min_y;
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

// Geometries are drawn inside the table extent so every query envelope
// intersects at least one shard bbox — required for the K = 1 verbatim
// stats check (a fully pruned K = 1 router returns zero stats where the
// unsharded engine would still have scanned imprints).
std::vector<WorkloadQuery> MakeWorkload(uint64_t seed, size_t count,
                                        double world) {
  Rng rng(seed);
  std::vector<WorkloadQuery> queries;
  for (size_t i = 0; i < count; ++i) {
    WorkloadQuery q;
    switch (rng.Uniform(3)) {
      case 0: {
        double x = rng.UniformDouble(0, world * 0.8);
        double y = rng.UniformDouble(0, world * 0.8);
        q.geometry = Geometry(Box(x, y, x + rng.UniformDouble(1, world * 0.3),
                                  y + rng.UniformDouble(1, world * 0.3)));
        break;
      }
      case 1: {
        Point c{rng.UniformDouble(world * 0.2, world * 0.8),
                rng.UniformDouble(world * 0.2, world * 0.8)};
        int n = 3 + static_cast<int>(rng.Uniform(8));
        Polygon p;
        for (int j = 0; j < n; ++j) {
          double a = 2 * M_PI * j / n;
          double r = rng.UniformDouble(world * 0.05, world * 0.25);
          p.shell.points.push_back(
              {c.x + r * std::cos(a), c.y + r * std::sin(a)});
        }
        q.geometry = Geometry(std::move(p));
        break;
      }
      default: {
        LineString l;
        int n = 2 + static_cast<int>(rng.Uniform(4));
        for (int j = 0; j < n; ++j) {
          l.points.push_back(
              {rng.UniformDouble(0, world), rng.UniformDouble(0, world)});
        }
        q.geometry = Geometry(std::move(l));
        q.buffer = rng.UniformDouble(0.5, world * 0.05);
        break;
      }
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
    if (rng.NextBool(0.4)) {
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
}

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

struct SimdLevelGuard {
  ~SimdLevelGuard() { simd::SetSimdLevel(simd::MaxSupportedSimdLevel()); }
};

constexpr double kWorld = 1000.0;

// One query's observables as seen through a router or an engine.
struct Observed {
  std::vector<uint64_t> row_ids;
  bool aggregate = false;
  double agg_value = 0.0;
  ImprintScanStats filter;
  RefinementStats refine;
};

TEST(ShardEquivalenceTest, RouterMatchesSortedEngineAcrossKThreadsSimd) {
  SimdLevelGuard guard;
  auto source = MakeTable(20000, 7, Box(0, 0, kWorld, kWorld));
  auto workload = MakeWorkload(1234, 30, kWorld);

  for (const EngineConfig& cfg : Configs()) {
    SCOPED_TRACE(testing::Message() << "threads=" << cfg.threads << " simd="
                                    << simd::SimdLevelName(cfg.level));
    simd::SetSimdLevel(cfg.level);

    // Oracle: one engine over the K = 1 shard — the Hilbert-sorted flat
    // table itself. Global row ids of any router are defined against this
    // row order.
    ShardingOptions one;
    one.num_shards = 1;
    auto sorted = ShardedTable::Create(*source, one);
    ASSERT_TRUE(sorted.ok()) << sorted.status().ToString();
    EngineOptions opts;
    opts.num_threads = cfg.threads;
    SpatialQueryEngine oracle((*sorted)->shard(0).table, opts);

    std::vector<Observed> expected;
    for (const WorkloadQuery& q : workload) {
      Observed o;
      auto sel = oracle.Select(q.geometry, q.buffer, q.thematic);
      ASSERT_TRUE(sel.ok()) << sel.status().ToString();
      o.row_ids = sel->row_ids;
      o.filter = sel->filter;
      o.refine = sel->refine;
      if (q.aggregate) {
        auto v = oracle.Aggregate(q.geometry, q.buffer, q.thematic,
                                  q.agg_column, q.kind);
        ASSERT_TRUE(v.ok()) << v.status().ToString();
        o.aggregate = true;
        o.agg_value = *v;
      }
      expected.push_back(std::move(o));
    }

    for (uint32_t k : {1u, 4u, 16u}) {
      SCOPED_TRACE(testing::Message() << "K=" << k);
      ShardingOptions so;
      so.num_shards = k;
      auto sharded = ShardedTable::Create(*source, so);
      ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
      ShardRouter router(*sharded, opts);
      for (size_t i = 0; i < workload.size(); ++i) {
        SCOPED_TRACE(testing::Message() << "query " << i);
        const WorkloadQuery& q = workload[i];
        auto sel = router.Select(q.geometry, q.buffer, q.thematic);
        ASSERT_TRUE(sel.ok()) << sel.status().ToString();
        // The headline contract: merged global row ids are bit-identical
        // to the unsharded engine over the sorted table, at every K,
        // thread count and SIMD level.
        EXPECT_EQ(sel->row_ids, expected[i].row_ids);
        if (k == 1) {
          // A single shard IS the sorted table; stats pass through
          // verbatim.
          ExpectFilterStatsEq(sel->filter, expected[i].filter, "filter");
          ExpectRefineStatsEq(sel->refine, expected[i].refine, "refine");
        }
        if (q.aggregate) {
          auto v = router.Aggregate(q.geometry, q.buffer, q.thematic,
                                    q.agg_column, q.kind);
          ASSERT_TRUE(v.ok()) << v.status().ToString();
          EXPECT_TRUE(SameBits(*v, expected[i].agg_value))
              << *v << " vs " << expected[i].agg_value;
        }
      }
    }
  }
}

// The merged K > 1 stats are deterministic: every configuration (thread
// count, SIMD level) of the same K produces the same field-wise sums.
TEST(ShardEquivalenceTest, MergedStatsDeterministicAcrossConfigs) {
  SimdLevelGuard guard;
  auto source = MakeTable(12000, 11, Box(0, 0, kWorld, kWorld));
  auto workload = MakeWorkload(99, 12, kWorld);
  ShardingOptions so;
  so.num_shards = 4;
  auto sharded = ShardedTable::Create(*source, so);
  ASSERT_TRUE(sharded.ok());

  std::vector<Observed> baseline;
  bool first = true;
  for (const EngineConfig& cfg : Configs()) {
    SCOPED_TRACE(testing::Message() << "threads=" << cfg.threads << " simd="
                                    << simd::SimdLevelName(cfg.level));
    simd::SetSimdLevel(cfg.level);
    EngineOptions opts;
    opts.num_threads = cfg.threads;
    ShardRouter router(*sharded, opts);
    for (size_t i = 0; i < workload.size(); ++i) {
      const WorkloadQuery& q = workload[i];
      auto sel = router.Select(q.geometry, q.buffer, q.thematic);
      ASSERT_TRUE(sel.ok());
      if (first) {
        Observed o;
        o.row_ids = sel->row_ids;
        o.filter = sel->filter;
        o.refine = sel->refine;
        baseline.push_back(std::move(o));
      } else {
        SCOPED_TRACE(testing::Message() << "query " << i);
        EXPECT_EQ(sel->row_ids, baseline[i].row_ids);
        ExpectFilterStatsEq(sel->filter, baseline[i].filter, "filter");
        ExpectRefineStatsEq(sel->refine, baseline[i].refine, "refine");
      }
    }
    first = false;
  }
}

}  // namespace
}  // namespace geocol
