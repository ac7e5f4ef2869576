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
//
// A batch takes about a millisecond, so single timings swing with the
// host. Each rep therefore times the unsharded engine and K's router back
// to back, in alternating order, and a bar is judged on the per-rep
// ratios: the median is reported with its min–max range, and a verdict
// reads "unresolved" when that range straddles the bar.
#include <algorithm>
#include <cstdio>
#include <string>
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

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Per-rep ratios of one K and one bar.
struct Ratios {
  std::vector<double> v;
  double median() const { return Median(v); }
  double min() const { return *std::min_element(v.begin(), v.end()); }
  double max() const { return *std::max_element(v.begin(), v.end()); }
  std::string Range() const {
    return TablePrinter::Num(min(), 2) + "-" + TablePrinter::Num(max(), 2);
  }
};

/// "met" when every ratio clears the bar, "NOT MET" when none does.
const char* Verdict(bool all_clear, bool none_clear) {
  return all_clear ? "met" : none_clear ? "NOT MET" : "unresolved";
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
                    "speedup", "speedup range", "full ms", "full ratio",
                    "full range", "scanned/query"},
                   13);

  SpatialQueryEngine flat(table);
  const int reps = std::max(1, BenchReps());
  // Times one viewport batch and one full-extent selection on `select`,
  // returning the rows each found.
  auto run = [&](auto&& select, double* viewport_ms, double* full_ms,
                 uint64_t* viewport_rows, uint64_t* full_rows) {
    Timer t;
    *viewport_rows = 0;
    for (const Box& q : viewports) {
      auto r = select(q);
      *viewport_rows += r.ok() ? r->count() : 0;
    }
    *viewport_ms = t.ElapsedMillis();
    t.Restart();
    auto r = select(full);
    *full_rows = r.ok() ? r->count() : 0;
    *full_ms = t.ElapsedMillis();
  };
  auto select_flat = [&](const Box& q) { return flat.SelectInBox(q); };
  uint64_t viewport_rows = 0, full_rows = 0;
  {
    double warm_viewport, warm_full;  // warm-up; fixes the expected rows
    run(select_flat, &warm_viewport, &warm_full, &viewport_rows, &full_rows);
  }

  std::vector<double> flat_viewport_all, flat_full_all;
  std::vector<std::vector<std::string>> rows;
  bool speedup_met = false;       // some K clears 3x in every rep
  bool speedup_missed = true;     // no K clears 3x in any rep
  bool full_met = true;           // every K stays <= 1.05 in every rep
  bool full_missed = false;       // some K exceeds 1.05 in every rep
  double best_speedup = 0.0, worst_full_ratio = 0.0;
  std::string best_range, worst_range;

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
    auto select_router = [&](const Box& q) { return router.SelectInBox(q); };

    std::vector<double> router_viewport, router_full;
    Ratios speedup, full_ratio;
    double fv, ff, sv, sf;
    uint64_t fvr, ffr, svr, sfr;
    run(select_router, &sv, &sf, &svr, &sfr);  // warm-up: builds imprints
    for (int r = 0; r < reps; ++r) {
      if (r % 2 == 0) {
        run(select_flat, &fv, &ff, &fvr, &ffr);
        run(select_router, &sv, &sf, &svr, &sfr);
      } else {
        run(select_router, &sv, &sf, &svr, &sfr);
        run(select_flat, &fv, &ff, &fvr, &ffr);
      }
      if (fvr != viewport_rows || svr != viewport_rows ||
          ffr != full_rows || sfr != full_rows) {
        std::fprintf(stderr, "row mismatch at K=%u: viewport %llu/%llu vs "
                     "%llu, full %llu/%llu vs %llu\n", k,
                     static_cast<unsigned long long>(fvr),
                     static_cast<unsigned long long>(svr),
                     static_cast<unsigned long long>(viewport_rows),
                     static_cast<unsigned long long>(ffr),
                     static_cast<unsigned long long>(sfr),
                     static_cast<unsigned long long>(full_rows));
        return 1;
      }
      flat_viewport_all.push_back(fv);
      flat_full_all.push_back(ff);
      router_viewport.push_back(sv);
      router_full.push_back(sf);
      speedup.v.push_back(fv / sv);
      full_ratio.v.push_back(sf / ff);
    }
    // Average shards scanned per clustered viewport (one untimed pass, so
    // the timed reps above don't skew the counter read).
    const uint64_t s0 = scanned_total();
    for (const Box& q : viewports) (void)router.SelectInBox(q);
    double scanned_per_query =
        static_cast<double>(scanned_total() - s0) /
        static_cast<double>(viewports.size());

    speedup_met |= speedup.min() >= 3.0;
    speedup_missed &= speedup.max() < 3.0;
    full_met &= full_ratio.max() <= 1.05;
    full_missed |= full_ratio.min() > 1.05;
    if (speedup.median() > best_speedup) {
      best_speedup = speedup.median();
      best_range = speedup.Range();
    }
    if (full_ratio.median() > worst_full_ratio) {
      worst_full_ratio = full_ratio.median();
      worst_range = full_ratio.Range();
    }
    char layout[32];
    std::snprintf(layout, sizeof(layout), "K=%u", k);
    char scanned_cell[32];
    std::snprintf(scanned_cell, sizeof(scanned_cell), "%.1f/%u",
                  scanned_per_query, k);
    rows.push_back({layout, TablePrinter::Num(create_ms, 1),
                    TablePrinter::Num(write_ms, 1),
                    TablePrinter::Num(Median(router_viewport), 2),
                    TablePrinter::Num(speedup.median(), 2), speedup.Range(),
                    TablePrinter::Num(Median(router_full), 2),
                    TablePrinter::Num(full_ratio.median(), 2),
                    full_ratio.Range(), scanned_cell});
  }

  out.Row({"unsharded", "-", "-",
           TablePrinter::Num(Median(flat_viewport_all), 2), "1.00", "-",
           TablePrinter::Num(Median(flat_full_all), 2), "1.00", "-", "-"});
  for (const auto& row : rows) out.Row(row);

  std::printf(
      "\n%d alternating reps per K; median of the per-rep ratios "
      "[min-max]\n"
      "acceptance: best-K viewport speedup %.2fx [%s] >= 3x: %s; worst "
      "full-extent ratio %.2f [%s] <= 1.05: %s\n",
      reps, best_speedup, best_range.c_str(),
      Verdict(speedup_met, speedup_missed), worst_full_ratio,
      worst_range.c_str(), Verdict(full_met, full_missed));
  return 0;
}
