// E4 (paper §3.3): the regular-grid refinement step vs exhaustive
// per-point evaluation, as the query geometry gets more complex.
//
// Paper claim being reproduced: "The refinement can be very expensive,
// especially when the geometries are complex. Thus, checking exhaustively
// each point is not desirable. MonetDB creates a regular grid over the
// point geometries selected in the filtering step ... This allows MonetDB
// to decide whether a grid cell satisfies or not the spatial relation in a
// single step."
#include <cstdio>
#include <numeric>

#include "bench/bench_common.h"
#include "core/refinement.h"

using namespace geocol;
using namespace geocol::bench;

int main(int argc, char** argv) {
  geocol::bench::InitBench(argc, argv);
  const uint64_t n = BenchPoints(500000);
  Banner("E4: grid refinement vs exhaustive point checks (paper section 3.3)",
         "polygon complexity sweep; candidates = all survey points");

  auto table = GenerateSurvey(n);
  ColumnPtr x = table->column("x"), y = table->column("y");
  std::vector<uint64_t> candidates(x->size());
  std::iota(candidates.begin(), candidates.end(), 0);
  Box extent(x->Stats().min, y->Stats().min, x->Stats().max, y->Stats().max);
  Point center = extent.center();
  double radius = std::min(extent.width(), extent.height()) * 0.35;

  TablePrinter out({"polygon vertices", "results", "grid ms", "exhaustive ms",
                    "speedup", "exact tests", "cells in/bnd"});

  for (int vertices : {4, 16, 64, 256, 1024, 4096}) {
    Geometry g(Polygon::Circle(center, radius, vertices));

    std::vector<uint64_t> grid_rows, exact_rows;
    RefinementStats gs, es;
    double t_grid = TimeMs([&] {
      grid_rows.clear();
      RefinementStats s;
      (void)GridRefine(*x, *y, candidates, g, 0.0, RefineOptions{},
                       &grid_rows, &s);
      gs = s;
    });
    RefineOptions no_grid;
    no_grid.use_grid = false;
    double t_exact = TimeMs([&] {
      exact_rows.clear();
      RefinementStats s;
      (void)GridRefine(*x, *y, candidates, g, 0.0, no_grid, &exact_rows, &s);
      es = s;
    });
    if (grid_rows != exact_rows) {
      std::fprintf(stderr, "MISMATCH at %d vertices\n", vertices);
      return 1;
    }
    char cells[32];
    std::snprintf(cells, sizeof(cells), "%llu/%llu",
                  static_cast<unsigned long long>(gs.cells_inside),
                  static_cast<unsigned long long>(gs.cells_boundary));
    out.Row({TablePrinter::Int(vertices), TablePrinter::Int(grid_rows.size()),
             TablePrinter::Num(t_grid), TablePrinter::Num(t_exact),
             TablePrinter::Num(t_exact / t_grid) + "x",
             TablePrinter::Int(gs.exact_tests), cells});
  }

  // Second sweep: grid resolution ablation at fixed complexity.
  std::printf("\ngrid-resolution ablation (1024-vertex polygon):\n");
  TablePrinter out2({"points/cell", "grid", "grid ms", "exact tests",
                     "boundary cells"});
  Geometry g(Polygon::Circle(center, radius, 1024));
  for (uint64_t target : {16, 64, 256, 1024, 8192}) {
    RefineOptions opts;
    opts.target_points_per_cell = target;
    std::vector<uint64_t> rows;
    RefinementStats s;
    double t = TimeMs([&] {
      rows.clear();
      RefinementStats local;
      (void)GridRefine(*x, *y, candidates, g, 0.0, opts, &rows, &local);
      s = local;
    });
    char grid[32];
    std::snprintf(grid, sizeof(grid), "%ux%u", s.grid_cols, s.grid_rows);
    out2.Row({TablePrinter::Int(target), grid, TablePrinter::Num(t),
              TablePrinter::Int(s.exact_tests),
              TablePrinter::Int(s.cells_boundary)});
  }

  std::printf(
      "\nexpected shape (paper): exhaustive refinement scales with vertices x "
      "points; the grid decides\ninterior cells wholesale so only boundary-"
      "cell points pay the per-vertex cost — the gap widens\nwith polygon "
      "complexity.\n");
  return 0;
}
