// End-to-end engine tests: the two-step executor against the full-scan
// oracle, thematic pushdown, aggregates, profiles, and ablation toggles.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <thread>
#include <vector>

#include "baselines/full_scan.h"
#include "core/spatial_engine.h"
#include "geom/wkt.h"
#include "util/rng.h"
#include "util/thread_pool.h"

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

TEST(SpatialEngineTest, BoxSelectMatchesOracle) {
  auto table = MakeTable(30000, 91, Box(0, 0, 1000, 1000));
  SpatialQueryEngine eng(table);
  Box q(100, 100, 300, 400);
  auto res = eng.SelectInBox(q);
  ASSERT_TRUE(res.ok());
  auto oracle = FullScanSelectBox(*table, q);
  ASSERT_TRUE(oracle.ok());
  EXPECT_EQ(res->row_ids, *oracle);
  EXPECT_GT(res->count(), 0u);
}

TEST(SpatialEngineTest, PolygonSelectMatchesOracle) {
  auto table = MakeTable(30000, 92, Box(0, 0, 1000, 1000));
  SpatialQueryEngine eng(table);
  Polygon poly;
  poly.shell.points = {{100, 100}, {900, 200}, {700, 800}, {200, 600}};
  Geometry g(poly);
  auto res = eng.SelectInGeometry(g);
  ASSERT_TRUE(res.ok());
  auto oracle = FullScanSelect(*table, g);
  ASSERT_TRUE(oracle.ok());
  EXPECT_EQ(res->row_ids, *oracle);
}

TEST(SpatialEngineTest, DWithinMatchesOracle) {
  auto table = MakeTable(20000, 93, Box(0, 0, 1000, 1000));
  SpatialQueryEngine eng(table);
  LineString road;
  road.points = {{0, 500}, {400, 520}, {1000, 480}};
  Geometry g(road);
  auto res = eng.SelectWithinDistance(g, 25.0);
  ASSERT_TRUE(res.ok());
  auto oracle = FullScanSelect(*table, g, 25.0);
  ASSERT_TRUE(oracle.ok());
  EXPECT_EQ(res->row_ids, *oracle);
  EXPECT_FALSE(res->row_ids.empty());
}

TEST(SpatialEngineTest, NegativeDistanceRejected) {
  auto table = MakeTable(100, 94, Box(0, 0, 10, 10));
  SpatialQueryEngine eng(table);
  EXPECT_FALSE(eng.SelectWithinDistance(Geometry(Point{5, 5}), -1).ok());
}

TEST(SpatialEngineTest, ThematicPredicatesNarrowSelection) {
  auto table = MakeTable(30000, 95, Box(0, 0, 1000, 1000));
  SpatialQueryEngine eng(table);
  Geometry g(Box(0, 0, 1000, 1000));
  auto all = eng.Select(g, 0.0, {});
  ASSERT_TRUE(all.ok());
  auto veg = eng.Select(g, 0.0, {{"classification", 3, 5}});
  ASSERT_TRUE(veg.ok());
  EXPECT_LT(veg->count(), all->count());
  // Verify against a manual filter.
  ColumnPtr cls = table->column("classification");
  std::vector<uint64_t> expected;
  for (uint64_t r : all->row_ids) {
    double c = cls->GetDouble(r);
    if (c >= 3 && c <= 5) expected.push_back(r);
  }
  EXPECT_EQ(veg->row_ids, expected);
}

TEST(SpatialEngineTest, ConjunctiveThematicRanges) {
  auto table = MakeTable(20000, 96, Box(0, 0, 100, 100));
  SpatialQueryEngine eng(table);
  auto res = eng.Select(Geometry(Box(0, 0, 100, 100)), 0.0,
                        {{"classification", 2, 2}, {"intensity", 100, 200}});
  ASSERT_TRUE(res.ok());
  ColumnPtr cls = table->column("classification");
  ColumnPtr inten = table->column("intensity");
  for (uint64_t r : res->row_ids) {
    EXPECT_EQ(cls->GetInt64(r), 2);
    EXPECT_GE(inten->GetInt64(r), 100);
    EXPECT_LE(inten->GetInt64(r), 200);
  }
}

TEST(SpatialEngineTest, UnknownThematicColumnRejected) {
  auto table = MakeTable(100, 97, Box(0, 0, 10, 10));
  SpatialQueryEngine eng(table);
  EXPECT_EQ(eng.Select(Geometry(Box(0, 0, 1, 1)), 0.0, {{"bogus", 0, 1}})
                .status()
                .code(),
            StatusCode::kNotFound);
}

TEST(SpatialEngineTest, AggregatesMatchManualComputation) {
  auto table = MakeTable(10000, 98, Box(0, 0, 100, 100));
  SpatialQueryEngine eng(table);
  Geometry g(Box(10, 10, 60, 60));
  auto sel = eng.SelectInGeometry(g);
  ASSERT_TRUE(sel.ok());
  ColumnPtr z = table->column("z");
  double sum = 0;
  for (uint64_t r : sel->row_ids) sum += z->GetDouble(r);

  auto count = eng.Aggregate(g, 0.0, {}, "z", AggKind::kCount);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, sel->count());
  auto avg = eng.Aggregate(g, 0.0, {}, "z", AggKind::kAvg);
  ASSERT_TRUE(avg.ok());
  EXPECT_NEAR(*avg, sum / sel->count(), 1e-9);
  auto mn = eng.Aggregate(g, 0.0, {}, "z", AggKind::kMin);
  auto mx = eng.Aggregate(g, 0.0, {}, "z", AggKind::kMax);
  ASSERT_TRUE(mn.ok());
  ASSERT_TRUE(mx.ok());
  EXPECT_LE(*mn, *avg);
  EXPECT_GE(*mx, *avg);
}

TEST(SpatialEngineTest, EmptySelectionAggregates) {
  auto table = MakeTable(1000, 99, Box(0, 0, 10, 10));
  SpatialQueryEngine eng(table);
  Geometry far(Box(1000, 1000, 1001, 1001));
  auto count = eng.Aggregate(far, 0.0, {}, "z", AggKind::kCount);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 0.0);
  auto avg = eng.Aggregate(far, 0.0, {}, "z", AggKind::kAvg);
  ASSERT_TRUE(avg.ok());
  EXPECT_TRUE(std::isnan(*avg));
}

// Contract pin: AggregateRows over an empty selection returns NaN for the
// value aggregates and 0 for COUNT. The SQL layer relies on this exact
// behaviour to render NULL (executor.cpp maps empty-selection aggregates to
// Value::Null()), and the result cache stores the NaN bit pattern verbatim.
TEST(SpatialEngineTest, AggregateRowsEmptySelectionReturnsNaN) {
  auto table = MakeTable(100, 101, Box(0, 0, 10, 10));
  ColumnPtr z = table->column("z");
  const std::vector<uint64_t> empty;
  EXPECT_EQ(*AggregateRows(*z, empty, AggKind::kCount), 0.0);
  EXPECT_TRUE(std::isnan(*AggregateRows(*z, empty, AggKind::kSum)));
  EXPECT_TRUE(std::isnan(*AggregateRows(*z, empty, AggKind::kAvg)));
  EXPECT_TRUE(std::isnan(*AggregateRows(*z, empty, AggKind::kMin)));
  EXPECT_TRUE(std::isnan(*AggregateRows(*z, empty, AggKind::kMax)));
}

// Contract pin: parallel AggregateRows merges per-chunk partial sums in
// chunk order, so its SUM/AVG are bit-identical to a serial reduction that
// sums each 2^16-row chunk and then adds the partials in order. The cache
// equivalence suite depends on this — a cached aggregate computed by a
// parallel engine must compare bit-equal to a serial recomputation.
TEST(SpatialEngineTest, ParallelAggregateRowsSumsInDeterministicChunkOrder) {
  constexpr size_t kRows = size_t{1} << 17;       // >= kMinParallelAggRows
  constexpr size_t kChunk = size_t{1} << 16;      // == kAggChunkRows
  auto table = MakeTable(kRows, 102, Box(0, 0, 1000, 1000));
  ColumnPtr z = table->column("z");
  std::vector<uint64_t> rows(kRows);
  for (size_t i = 0; i < kRows; ++i) rows[i] = i;

  // Chunk-ordered serial reference.
  double ref_sum = 0.0;
  for (size_t begin = 0; begin < kRows; begin += kChunk) {
    double partial = 0.0;
    size_t end = std::min(kRows, begin + kChunk);
    for (size_t i = begin; i < end; ++i) partial += z->GetDouble(rows[i]);
    ref_sum += partial;
  }
  double ref_avg = ref_sum / static_cast<double>(kRows);

  ThreadPool pool(3);
  double par_sum = *AggregateRows(*z, rows, AggKind::kSum, &pool);
  double par_avg = *AggregateRows(*z, rows, AggKind::kAvg, &pool);
  uint64_t ref_bits, par_bits;
  std::memcpy(&ref_bits, &ref_sum, sizeof(ref_bits));
  std::memcpy(&par_bits, &par_sum, sizeof(par_bits));
  EXPECT_EQ(ref_bits, par_bits);
  std::memcpy(&ref_bits, &ref_avg, sizeof(ref_bits));
  std::memcpy(&par_bits, &par_avg, sizeof(par_bits));
  EXPECT_EQ(ref_bits, par_bits);

  // Repeated parallel runs are deterministic — thread scheduling must not
  // leak into the merge order.
  for (int repeat = 0; repeat < 3; ++repeat) {
    EXPECT_EQ(*AggregateRows(*z, rows, AggKind::kSum, &pool), par_sum);
  }
}

TEST(SpatialEngineTest, ProfileHasFilterAndRefineOperators) {
  auto table = MakeTable(5000, 100, Box(0, 0, 100, 100));
  SpatialQueryEngine eng(table);
  auto res = eng.SelectInGeometry(Geometry(Polygon::Circle({50, 50}, 20)));
  ASSERT_TRUE(res.ok());
  const auto& ops = res->profile.operators();
  ASSERT_EQ(ops.size(), 3u);
  // The first query builds the imprints, then one conjunctive imprint scan
  // over x and y, then the refinement.
  EXPECT_EQ(ops[0].name, "filter.build");
  EXPECT_EQ(ops[1].name, "filter.imprints");
  EXPECT_EQ(ops[1].parent, -1);
  bool has_refine = false;
  for (const auto& op : ops) has_refine |= op.name.rfind("refine", 0) == 0;
  EXPECT_TRUE(has_refine);
  EXPECT_GT(res->profile.TotalNanos(), 0);
  EXPECT_FALSE(res->profile.ToString().empty());
}

TEST(SpatialEngineTest, ImprintsDisabledStillCorrect) {
  auto table = MakeTable(20000, 101, Box(0, 0, 1000, 1000));
  EngineOptions opts;
  opts.use_imprints = false;
  SpatialQueryEngine eng(table, opts);
  Geometry g(Polygon::Circle({500, 500}, 200));
  auto res = eng.SelectInGeometry(g);
  ASSERT_TRUE(res.ok());
  auto oracle = FullScanSelect(*table, g);
  ASSERT_TRUE(oracle.ok());
  EXPECT_EQ(res->row_ids, *oracle);
}

TEST(SpatialEngineTest, GridDisabledStillCorrect) {
  auto table = MakeTable(20000, 102, Box(0, 0, 1000, 1000));
  EngineOptions opts;
  opts.refine.use_grid = false;
  SpatialQueryEngine eng(table, opts);
  Geometry g(Polygon::Circle({500, 500}, 200));
  auto res = eng.SelectInGeometry(g);
  ASSERT_TRUE(res.ok());
  auto oracle = FullScanSelect(*table, g);
  ASSERT_TRUE(oracle.ok());
  EXPECT_EQ(res->row_ids, *oracle);
}

TEST(SpatialEngineTest, AppendTriggersImprintRebuild) {
  auto table = MakeTable(10000, 103, Box(0, 0, 100, 100));
  SpatialQueryEngine eng(table);
  Box q(10, 10, 50, 50);
  auto before = eng.SelectInBox(q);
  ASSERT_TRUE(before.ok());
  // Append one in-range point to every column.
  table->column("x")->Append<double>(20.0);
  table->column("y")->Append<double>(20.0);
  table->column("z")->Append<double>(1.0);
  table->column("classification")->Append<uint8_t>(2);
  table->column("intensity")->Append<uint16_t>(5);
  auto after = eng.SelectInBox(q);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->count(), before->count() + 1);
  EXPECT_EQ(after->row_ids.back(), table->num_rows() - 1);
}

TEST(SpatialEngineTest, MissingCoordinateColumnsRejected) {
  auto t = std::make_shared<FlatTable>("bad");
  ASSERT_TRUE(t->AddColumn(Column::FromVector<double>("a", {1, 2})).ok());
  SpatialQueryEngine eng(t);
  EXPECT_EQ(eng.SelectInBox(Box(0, 0, 1, 1)).status().code(),
            StatusCode::kNotFound);
}

TEST(SpatialEngineTest, EmptyTableYieldsEmptyResult) {
  auto t = std::make_shared<FlatTable>(
      "empty", Schema({{"x", DataType::kFloat64}, {"y", DataType::kFloat64}}));
  SpatialQueryEngine eng(t);
  auto res = eng.SelectInBox(Box(0, 0, 1, 1));
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res->count(), 0u);
}

TEST(SpatialEngineTest, DisjointQueryBoxEmptyResult) {
  auto table = MakeTable(1000, 104, Box(0, 0, 10, 10));
  SpatialQueryEngine eng(table);
  auto res = eng.SelectInBox(Box(100, 100, 200, 200));
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res->count(), 0u);
}

TEST(SpatialEngineTest, IndexStorageReported) {
  auto table = MakeTable(50000, 105, Box(0, 0, 1000, 1000));
  SpatialQueryEngine eng(table);
  EXPECT_EQ(eng.IndexStorageBytes(), 0u);  // lazy: nothing built yet
  ASSERT_TRUE(eng.SelectInBox(Box(0, 0, 10, 10)).ok());
  EXPECT_GT(eng.IndexStorageBytes(), 0u);  // x and y imprints exist now
}

// ---------------- parallel execution ----------------

TEST(SpatialEngineTest, NumThreadsKnob) {
  auto table = MakeTable(1000, 110, Box(0, 0, 10, 10));
  EngineOptions serial;
  serial.num_threads = 1;
  EXPECT_EQ(SpatialQueryEngine(table, serial).num_effective_threads(), 1u);
  EngineOptions four;
  four.num_threads = 4;
  EXPECT_EQ(SpatialQueryEngine(table, four).num_effective_threads(), 4u);
  EngineOptions hw;  // 0 = hardware concurrency
  EXPECT_GE(SpatialQueryEngine(table, hw).num_effective_threads(), 1u);
}

TEST(SpatialEngineTest, ParallelMatchesSerialExactly) {
  // Big enough that the morsel paths (scan, build, refine) all engage.
  auto table = MakeTable(600000, 111, Box(0, 0, 1000, 1000));
  EngineOptions serial_opts;
  serial_opts.num_threads = 1;
  EngineOptions parallel_opts;
  parallel_opts.num_threads = 4;
  SpatialQueryEngine serial(table, serial_opts);
  SpatialQueryEngine parallel(table, parallel_opts);

  Geometry g(Polygon::Circle({500, 500}, 300, 32));
  auto s = serial.Select(g, 0.0, {{"classification", 2, 6}});
  auto p = parallel.Select(g, 0.0, {{"classification", 2, 6}});
  ASSERT_TRUE(s.ok());
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->row_ids, s->row_ids);

  // Merged stats equal the serial stats field for field (workers aside).
  EXPECT_EQ(p->filter.lines_total, s->filter.lines_total);
  EXPECT_EQ(p->filter.lines_candidate, s->filter.lines_candidate);
  EXPECT_EQ(p->filter.lines_full, s->filter.lines_full);
  EXPECT_EQ(p->filter.values_checked, s->filter.values_checked);
  EXPECT_EQ(p->filter.rows_selected, s->filter.rows_selected);
  EXPECT_EQ(p->filter.rows_full, s->filter.rows_full);
  EXPECT_GT(p->filter.workers, 1u);
  EXPECT_EQ(p->refine.candidates, s->refine.candidates);
  EXPECT_EQ(p->refine.accepted, s->refine.accepted);
  EXPECT_EQ(p->refine.cells_nonempty, s->refine.cells_nonempty);
  EXPECT_EQ(p->refine.cells_inside, s->refine.cells_inside);
  EXPECT_EQ(p->refine.cells_outside, s->refine.cells_outside);
  EXPECT_EQ(p->refine.cells_boundary, s->refine.cells_boundary);
  EXPECT_EQ(p->refine.exact_tests, s->refine.exact_tests);
  EXPECT_GT(p->refine.workers, 1u);

  // Operator order in the profile is canonical regardless of which branch
  // finished first.
  const auto& s_ops = s->profile.operators();
  const auto& p_ops = p->profile.operators();
  ASSERT_EQ(p_ops.size(), s_ops.size());
  for (size_t i = 0; i < s_ops.size(); ++i) {
    EXPECT_EQ(p_ops[i].name, s_ops[i].name) << "op " << i;
    EXPECT_EQ(p_ops[i].rows_out, s_ops[i].rows_out) << "op " << i;
  }
}

TEST(SpatialEngineTest, ConcurrentQueriesMatchSerialOracle) {
  // Satellite: N threads firing mixed selections and aggregates at one
  // parallel engine — including the racing first queries that trigger the
  // imprint build — must all observe the serial engine's answers.
  auto table = MakeTable(250000, 112, Box(0, 0, 1000, 1000));
  EngineOptions serial_opts;
  serial_opts.num_threads = 1;
  SpatialQueryEngine oracle(table, serial_opts);

  Geometry circle(Polygon::Circle({400, 400}, 250, 24));
  Geometry box_g(Box(100, 200, 600, 700));
  auto oracle_circle = oracle.SelectInGeometry(circle);
  auto oracle_box = oracle.SelectInGeometry(box_g);
  ASSERT_TRUE(oracle_circle.ok());
  ASSERT_TRUE(oracle_box.ok());
  auto oracle_cnt = oracle.Aggregate(circle, 0.0, {}, "z", AggKind::kCount);
  auto oracle_min = oracle.Aggregate(circle, 0.0, {}, "z", AggKind::kMin);
  auto oracle_max = oracle.Aggregate(circle, 0.0, {}, "z", AggKind::kMax);
  auto oracle_avg = oracle.Aggregate(circle, 0.0, {}, "z", AggKind::kAvg);
  ASSERT_TRUE(oracle_cnt.ok());
  ASSERT_TRUE(oracle_min.ok());
  ASSERT_TRUE(oracle_max.ok());
  ASSERT_TRUE(oracle_avg.ok());

  EngineOptions parallel_opts;
  parallel_opts.num_threads = 4;
  SpatialQueryEngine eng(table, parallel_opts);  // fresh: no imprints yet

  constexpr int kThreads = 6;
  constexpr int kIters = 3;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        switch ((t + i) % 4) {
          case 0: {
            auto r = eng.SelectInGeometry(circle);
            ASSERT_TRUE(r.ok());
            EXPECT_EQ(r->row_ids, oracle_circle->row_ids);
            break;
          }
          case 1: {
            auto r = eng.SelectInGeometry(box_g);
            ASSERT_TRUE(r.ok());
            EXPECT_EQ(r->row_ids, oracle_box->row_ids);
            break;
          }
          case 2: {
            auto c = eng.Aggregate(circle, 0.0, {}, "z", AggKind::kCount);
            auto mn = eng.Aggregate(circle, 0.0, {}, "z", AggKind::kMin);
            auto mx = eng.Aggregate(circle, 0.0, {}, "z", AggKind::kMax);
            ASSERT_TRUE(c.ok());
            ASSERT_TRUE(mn.ok());
            ASSERT_TRUE(mx.ok());
            EXPECT_EQ(*c, *oracle_cnt);   // bit-exact
            EXPECT_EQ(*mn, *oracle_min);  // bit-exact
            EXPECT_EQ(*mx, *oracle_max);  // bit-exact
            break;
          }
          default: {
            auto a = eng.Aggregate(circle, 0.0, {}, "z", AggKind::kAvg);
            ASSERT_TRUE(a.ok());
            // Chunked summation may reorder additions.
            EXPECT_NEAR(*a, *oracle_avg, 1e-9 * std::abs(*oracle_avg));
            break;
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(eng.imprint_manager().num_indexes(), 2u);  // x and y, built once
}

// Random-query equivalence sweep across geometry kinds.
class EngineOracleSweep : public ::testing::TestWithParam<int> {};

TEST_P(EngineOracleSweep, RandomGeometryAgainstOracle) {
  auto table = MakeTable(15000, 200 + GetParam(), Box(0, 0, 500, 500));
  SpatialQueryEngine eng(table);
  Rng rng(300 + GetParam());
  for (int q = 0; q < 5; ++q) {
    double cx = rng.UniformDouble(0, 500), cy = rng.UniformDouble(0, 500);
    double r = rng.UniformDouble(5, 150);
    Geometry g;
    double buffer = 0;
    switch (GetParam() % 3) {
      case 0:
        g = Geometry(Box(cx - r, cy - r, cx + r, cy + r));
        break;
      case 1:
        g = Geometry(Polygon::Circle({cx, cy}, r, 24));
        break;
      default: {
        LineString l;
        l.points = {{cx - r, cy}, {cx, cy + r / 2}, {cx + r, cy}};
        g = Geometry(l);
        buffer = r / 4;
        break;
      }
    }
    auto res = buffer > 0 ? eng.SelectWithinDistance(g, buffer)
                          : eng.SelectInGeometry(g);
    ASSERT_TRUE(res.ok());
    auto oracle = FullScanSelect(*table, g, buffer);
    ASSERT_TRUE(oracle.ok());
    EXPECT_EQ(res->row_ids, *oracle);
  }
}

INSTANTIATE_TEST_SUITE_P(Kinds, EngineOracleSweep, ::testing::Range(0, 6));

}  // namespace
}  // namespace geocol
