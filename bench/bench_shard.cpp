// E14: Hilbert spatial sharding with bbox-pruned scatter-gather
// (DESIGN.md §12).
//
// Two workloads over the same AHN-like survey, one engine per layout:
//   viewport — an interactive client inspects small clustered viewports;
//              the router prunes every shard whose bbox misses the query
//              before any imprint work. Acceptance bar: >=3x faster than
//              the unsharded engine at the best K.
//   full     — a full-extent selection touches every shard; the scatter
//              and merge machinery must stay within 5% of the unsharded
//              engine (nothing can be pruned, so this is pure overhead).
//
// The unsharded baseline runs over the generator's native scan-line row
// order — exactly the layout a plain `geocol load` produces. The sharded
// layouts are built by ShardedTable::Create, whose Hilbert sort is part
// of the technique being measured. Per K the bench also reports what the
// layout costs to build: ShardedTable::Create and WriteShardedTableDir
// (into a fresh directory per rep), min over the reps.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench/bench_common.h"
#include "columns/sharded_table.h"
#include "core/shard_router.h"
#include "core/spatial_engine.h"
#include "util/rng.h"
#include "util/tempdir.h"

using namespace geocol;
using namespace geocol::bench;

namespace {

Box Viewport(const Box& extent, double fraction, double cx, double cy) {
  double side = std::sqrt(extent.area() * fraction);
  double x = extent.min_x + extent.width() * cx;
  double y = extent.min_y + extent.height() * cy;
  return Box(x - side / 2, y - side / 2, x + side / 2, y + side / 2);
}

/// The clustered-viewport batch: small windows around a handful of
/// hotspots, the access pattern of a map client inspecting sites.
std::vector<Box> ViewportBatch(const Box& extent) {
  std::vector<Box> batch;
  Rng rng(42);
  const double hotspots[4][2] = {
      {0.2, 0.3}, {0.7, 0.6}, {0.45, 0.8}, {0.85, 0.15}};
  for (int q = 0; q < 32; ++q) {
    const double* h = hotspots[q % 4];
    double cx = h[0] + rng.UniformDouble(-0.03, 0.03);
    double cy = h[1] + rng.UniformDouble(-0.03, 0.03);
    batch.push_back(Viewport(extent, 0.0005, cx, cy));
  }
  return batch;
}

}  // namespace

int main(int argc, char** argv) {
  geocol::bench::InitBench(argc, argv);
  const uint64_t n = BenchPoints(2000000);
  Banner("E14: Hilbert sharding (bbox-pruned scatter-gather)",
         "clustered-viewport speedup from shard pruning, full-extent overhead");

  auto table = GenerateSurvey(n);
  const Box extent = SurveyOptions(n).extent;
  std::printf("survey: %llu points\n",
              static_cast<unsigned long long>(table->num_rows()));

  const std::vector<Box> viewports = ViewportBatch(extent);
  const Box full = extent;

  auto& reg = telemetry::MetricsRegistry::Global();
  auto scanned_total = [&reg] {
    return reg.GetCounter("geocol_shards_scanned_total").Value();
  };

  TablePrinter out({"layout", "create ms", "write ms", "viewport ms",
                    "speedup", "full ms", "full ratio", "scanned/query"},
                   13);

  // Unsharded baseline.
  SpatialQueryEngine flat(table);
  uint64_t viewport_rows = 0;
  double flat_viewport = TimeMs([&] {
    viewport_rows = 0;
    for (const Box& q : viewports) {
      auto r = flat.SelectInBox(q);
      viewport_rows += r.ok() ? r->count() : 0;
    }
  });
  uint64_t full_rows = 0;
  double flat_full = TimeMs([&] {
    auto r = flat.SelectInBox(full);
    full_rows = r.ok() ? r->count() : 0;
  });
  out.Row({"unsharded", "-", "-", TablePrinter::Num(flat_viewport, 2), "1.00",
           TablePrinter::Num(flat_full, 2), "1.00", "-"});

  double best_speedup = 0.0;
  double worst_full_ratio = 0.0;

  for (uint32_t k : {1u, 4u, 16u, 64u}) {
    ShardingOptions so;
    so.num_shards = k;
    std::shared_ptr<ShardedTable> sharded;
    Status built = Status::OK();
    const double create_ms = TimeMs([&] {
      auto r = ShardedTable::Create(*table, so);
      if (r.ok()) {
        sharded = std::move(r).value();
      } else {
        built = r.status();
      }
    });
    TempDir tmp("bench-shard");
    int rep = 0;
    const double write_ms = TimeMs([&] {
      if (!built.ok()) return;
      built = WriteShardedTableDir(*sharded,
                                   tmp.File("rep" + std::to_string(rep++)));
    });
    if (!built.ok()) {
      std::fprintf(stderr, "shard build failed: %s\n",
                   built.ToString().c_str());
      return 1;
    }
    ShardRouter router(sharded);

    uint64_t rows = 0;
    double viewport_ms = TimeMs([&] {
      rows = 0;
      for (const Box& q : viewports) {
        auto r = router.SelectInBox(q);
        rows += r.ok() ? r->count() : 0;
      }
    });
    if (rows != viewport_rows) {
      std::fprintf(stderr, "viewport row mismatch at K=%u: %llu vs %llu\n", k,
                   static_cast<unsigned long long>(rows),
                   static_cast<unsigned long long>(viewport_rows));
      return 1;
    }
    uint64_t frows = 0;
    double full_ms = TimeMs([&] {
      auto r = router.SelectInBox(full);
      frows = r.ok() ? r->count() : 0;
    });
    if (frows != full_rows) {
      std::fprintf(stderr, "full row mismatch at K=%u\n", k);
      return 1;
    }
    // Average shards scanned per clustered viewport (one untimed pass, so
    // the timed reps above don't skew the counter read).
    const uint64_t s0 = scanned_total();
    for (const Box& q : viewports) (void)router.SelectInBox(q);
    double scanned_per_query =
        static_cast<double>(scanned_total() - s0) /
        static_cast<double>(viewports.size());

    best_speedup = std::max(best_speedup, flat_viewport / viewport_ms);
    worst_full_ratio = std::max(worst_full_ratio, full_ms / flat_full);
    char layout[32];
    std::snprintf(layout, sizeof(layout), "K=%u", k);
    char scanned_cell[32];
    std::snprintf(scanned_cell, sizeof(scanned_cell), "%.1f/%u",
                  scanned_per_query, k);
    out.Row({layout, TablePrinter::Num(create_ms, 1),
             TablePrinter::Num(write_ms, 1), TablePrinter::Num(viewport_ms, 2),
             TablePrinter::Num(flat_viewport / viewport_ms, 2),
             TablePrinter::Num(full_ms, 2),
             TablePrinter::Num(full_ms / flat_full, 2), scanned_cell});
  }

  std::printf(
      "\nacceptance: best-K viewport speedup %.2fx >= 3x: %s; worst "
      "full-extent ratio %.2f <= 1.05: %s\n",
      best_speedup, best_speedup >= 3.0 ? "met" : "NOT MET", worst_full_ratio,
      worst_full_ratio <= 1.05 ? "met" : "NOT MET");
  return 0;
}
