// Grid refinement tests: equivalence with exhaustive refinement (the core
// correctness property of §3.3), statistics, and edge cases.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "core/refinement.h"
#include "geom/wkt.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace geocol {
namespace {

struct XY {
  ColumnPtr x, y;
};

XY MakePoints(size_t n, uint64_t seed, const Box& extent) {
  Rng rng(seed);
  std::vector<double> xs(n), ys(n);
  for (size_t i = 0; i < n; ++i) {
    xs[i] = rng.UniformDouble(extent.min_x, extent.max_x);
    ys[i] = rng.UniformDouble(extent.min_y, extent.max_y);
  }
  return {Column::FromVector<double>("x", xs),
          Column::FromVector<double>("y", ys)};
}

std::vector<uint64_t> AllRows(size_t n) {
  std::vector<uint64_t> rows(n);
  std::iota(rows.begin(), rows.end(), 0);
  return rows;
}

TEST(RefinementTest, GridEqualsExhaustiveOnPolygon) {
  XY pts = MakePoints(20000, 81, Box(0, 0, 100, 100));
  Polygon poly;
  poly.shell.points = {{10, 10}, {90, 20}, {70, 80}, {20, 60}};
  Geometry g(poly);
  std::vector<uint64_t> cand = AllRows(20000);

  std::vector<uint64_t> grid_rows, exact_rows;
  RefinementStats gs, es;
  ASSERT_TRUE(GridRefine(*pts.x, *pts.y, cand, g, 0.0, RefineOptions{},
                         &grid_rows, &gs).ok());
  ASSERT_TRUE(
      ExhaustiveRefine(*pts.x, *pts.y, cand, g, 0.0, &exact_rows, &es).ok());
  EXPECT_EQ(grid_rows, exact_rows);
  EXPECT_EQ(gs.accepted, grid_rows.size());
  EXPECT_EQ(es.exact_tests, 20000u);
  // The grid must save a substantial share of exact tests.
  EXPECT_LT(gs.exact_tests, es.exact_tests / 2);
}

TEST(RefinementTest, GridEqualsExhaustiveWithBuffer) {
  XY pts = MakePoints(10000, 82, Box(0, 0, 100, 100));
  LineString road;
  road.points = {{0, 50}, {40, 55}, {100, 45}};
  Geometry g(road);
  std::vector<uint64_t> cand = AllRows(10000);
  std::vector<uint64_t> grid_rows, exact_rows;
  ASSERT_TRUE(GridRefine(*pts.x, *pts.y, cand, g, 8.0, RefineOptions{},
                         &grid_rows, nullptr).ok());
  ASSERT_TRUE(
      ExhaustiveRefine(*pts.x, *pts.y, cand, g, 8.0, &exact_rows, nullptr).ok());
  EXPECT_EQ(grid_rows, exact_rows);
  EXPECT_FALSE(grid_rows.empty());
}

TEST(RefinementTest, GridEqualsExhaustiveOnMultiPolygonWithHoles) {
  XY pts = MakePoints(15000, 83, Box(0, 0, 100, 100));
  auto g = ParseWkt(
      "MULTIPOLYGON (((5 5, 45 5, 45 45, 5 45, 5 5), "
      "(20 20, 30 20, 30 30, 20 30, 20 20)), "
      "((60 60, 95 60, 95 95, 60 95, 60 60)))");
  ASSERT_TRUE(g.ok());
  std::vector<uint64_t> cand = AllRows(15000);
  std::vector<uint64_t> grid_rows, exact_rows;
  ASSERT_TRUE(GridRefine(*pts.x, *pts.y, cand, *g, 0.0, RefineOptions{},
                         &grid_rows, nullptr).ok());
  ASSERT_TRUE(
      ExhaustiveRefine(*pts.x, *pts.y, cand, *g, 0.0, &exact_rows, nullptr).ok());
  EXPECT_EQ(grid_rows, exact_rows);
}

TEST(RefinementTest, RespectsCandidateSubset) {
  XY pts = MakePoints(1000, 84, Box(0, 0, 10, 10));
  Geometry g(Polygon::FromBox(Box(0, 0, 10, 10)));  // everything inside
  std::vector<uint64_t> cand = {5, 500};
  std::vector<uint64_t> rows;
  ASSERT_TRUE(GridRefine(*pts.x, *pts.y, cand, g, 0.0, RefineOptions{},
                         &rows, nullptr).ok());
  EXPECT_EQ(rows, (std::vector<uint64_t>{5, 500}));
}

TEST(RefinementTest, EmptyCandidatesShortCircuit) {
  XY pts = MakePoints(100, 85, Box(0, 0, 1, 1));
  std::vector<uint64_t> cand;
  std::vector<uint64_t> rows;
  RefinementStats stats;
  ASSERT_TRUE(GridRefine(*pts.x, *pts.y, cand,
                         Geometry(Polygon::FromBox(Box(0, 0, 1, 1))), 0.0,
                         RefineOptions{}, &rows, &stats).ok());
  EXPECT_TRUE(rows.empty());
  EXPECT_EQ(stats.candidates, 0u);
  EXPECT_EQ(stats.cells_nonempty, 0u);
}

TEST(RefinementTest, UseGridFalseDelegatesToExhaustive) {
  XY pts = MakePoints(5000, 86, Box(0, 0, 50, 50));
  Geometry g(Polygon::Circle({25, 25}, 10));
  std::vector<uint64_t> cand = AllRows(5000);
  RefineOptions no_grid;
  no_grid.use_grid = false;
  std::vector<uint64_t> rows;
  RefinementStats stats;
  ASSERT_TRUE(
      GridRefine(*pts.x, *pts.y, cand, g, 0.0, no_grid, &rows, &stats).ok());
  EXPECT_EQ(stats.exact_tests, 5000u);  // every candidate tested
  EXPECT_EQ(stats.cells_nonempty, 0u);
}

TEST(RefinementTest, StatsBreakdownConsistent) {
  XY pts = MakePoints(30000, 87, Box(0, 0, 100, 100));
  Geometry g(Polygon::FromBox(Box(20, 20, 80, 80)));
  std::vector<uint64_t> cand = AllRows(30000);
  std::vector<uint64_t> rows;
  RefinementStats s;
  ASSERT_TRUE(GridRefine(*pts.x, *pts.y, cand, g, 0.0, RefineOptions{},
                         &rows, &s).ok());
  EXPECT_EQ(s.candidates, 30000u);
  EXPECT_EQ(s.accepted, rows.size());
  EXPECT_EQ(s.cells_nonempty, s.cells_inside + s.cells_outside + s.cells_boundary);
  EXPECT_LE(s.cells_nonempty, s.cells_total);
  EXPECT_GT(s.cells_inside, 0u);    // a big rectangle has interior cells
  EXPECT_GT(s.cells_boundary, 0u);  // and boundary cells
  EXPECT_EQ(s.grid_cols * s.grid_rows, s.cells_total);
}

TEST(RefinementTest, MismatchedInputsRejected) {
  auto x = Column::FromVector<double>("x", {1, 2, 3});
  auto y = Column::FromVector<double>("y", {1, 2});
  std::vector<uint64_t> cand = {0, 1, 2};
  std::vector<uint64_t> rows;
  EXPECT_FALSE(GridRefine(*x, *y, cand, Geometry(Box(0, 0, 1, 1)), 0.0,
                          RefineOptions{}, &rows, nullptr).ok());
  auto y3 = Column::FromVector<double>("y", {1, 2, 3});
  std::vector<uint64_t> cand2 = {0, 3};  // row 3 is past the columns
  EXPECT_FALSE(GridRefine(*x, *y3, cand2, Geometry(Box(0, 0, 1, 1)), 0.0,
                          RefineOptions{}, &rows, nullptr).ok());
}

TEST(RefinementTest, OutputIsAscending) {
  XY pts = MakePoints(8000, 88, Box(0, 0, 100, 100));
  Geometry g(Polygon::Circle({50, 50}, 30, 48));
  std::vector<uint64_t> cand = AllRows(8000);
  std::vector<uint64_t> rows;
  ASSERT_TRUE(GridRefine(*pts.x, *pts.y, cand, g, 0.0, RefineOptions{},
                         &rows, nullptr).ok());
  EXPECT_TRUE(std::is_sorted(rows.begin(), rows.end()));
}

// A pool forks by candidate count, not table size: a sparse candidate set
// on a large table refines serially, and more than one morsel's worth of
// candidates (16,384) refines in parallel. Rows and stats equal the
// serial pass's either way.
TEST(RefinementTest, PoolForksByCandidateCount) {
  const size_t n = 200000;
  XY pts = MakePoints(n, 90, Box(0, 0, 100, 100));
  Geometry g(Polygon::Circle({50, 50}, 35, 48));
  ThreadPool pool(3);
  std::vector<uint64_t> sparse;
  for (uint64_t r = 0; r < n; r += 20) sparse.push_back(r);
  for (const std::vector<uint64_t>& cand : {sparse, AllRows(n)}) {
    std::vector<uint64_t> serial_rows, pooled_rows;
    RefinementStats serial, pooled;
    ASSERT_TRUE(GridRefine(*pts.x, *pts.y, cand, g, 0.0, RefineOptions{},
                           &serial_rows, &serial).ok());
    ASSERT_TRUE(GridRefine(*pts.x, *pts.y, cand, g, 0.0, RefineOptions{},
                           &pooled_rows, &pooled, &pool).ok());
    SCOPED_TRACE(testing::Message() << cand.size() << " candidates");
    EXPECT_EQ(pooled_rows, serial_rows);
    EXPECT_EQ(pooled.accepted, serial.accepted);
    EXPECT_EQ(pooled.cells_nonempty, serial.cells_nonempty);
    EXPECT_EQ(pooled.cells_inside, serial.cells_inside);
    EXPECT_EQ(pooled.cells_outside, serial.cells_outside);
    EXPECT_EQ(pooled.cells_boundary, serial.cells_boundary);
    EXPECT_EQ(pooled.exact_tests, serial.exact_tests);
    EXPECT_EQ(serial.workers, 1u);
    EXPECT_EQ(pooled.workers > 1, cand.size() > 16384);
  }
}

// Parameterised sweep over grid resolutions: the refinement result must be
// independent of the grid tuning.
class RefinementGridSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RefinementGridSweep, ResultIndependentOfCellTarget) {
  XY pts = MakePoints(12000, 89, Box(0, 0, 100, 100));
  Polygon poly;
  poly.shell.points = {{15, 5}, {85, 15}, {95, 85}, {40, 95}, {5, 50}};
  Geometry g(poly);
  std::vector<uint64_t> cand = AllRows(12000);
  std::vector<uint64_t> exact_rows;
  ASSERT_TRUE(
      ExhaustiveRefine(*pts.x, *pts.y, cand, g, 0.0, &exact_rows, nullptr).ok());
  RefineOptions opts;
  opts.target_points_per_cell = GetParam();
  std::vector<uint64_t> rows;
  ASSERT_TRUE(
      GridRefine(*pts.x, *pts.y, cand, g, 0.0, opts, &rows, nullptr).ok());
  EXPECT_EQ(rows, exact_rows) << "cell target " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(CellTargets, RefinementGridSweep,
                         ::testing::Values(1, 16, 64, 256, 4096, 1000000));

}  // namespace
}  // namespace geocol
