// E13: the epoch-aware query result cache (DESIGN.md §11).
//
// Three workloads over the same AHN-like survey:
//   repeat — an interactive client re-issues the exact same viewport
//            query; steady-state repeats are served from the cache.
//            Acceptance bar: >=5x speedup on the hit. Every selection
//            passes the admission doorkeeper on its second sighting, so
//            one untimed promoting execution sits between the timed cold
//            and warm runs.
//   pan    — a map client pans: every viewport is new, so every query
//            misses. The cache-enabled engine must stay within 2% of a
//            cache-free engine — the doorkeeper turns each one-shot miss
//            into a key build plus one fingerprint store — and the cache
//            must hold no bytes after the stream (a counted row).
//   agg    — a dashboard refreshes AVG(z) over a fixed region; repeats
//            replay the cached selection and re-aggregate its rows, so
//            the hit saves the scan and refinement but not the gather.
#include <cstdio>

#include "bench/bench_common.h"
#include "cache/query_cache.h"
#include "core/spatial_engine.h"

using namespace geocol;
using namespace geocol::bench;

namespace {

Box Viewport(const Box& extent, double fraction, double cx, double cy) {
  double side = std::sqrt(extent.area() * fraction);
  double x = extent.min_x + extent.width() * cx;
  double y = extent.min_y + extent.height() * cy;
  return Box(x - side / 2, y - side / 2, x + side / 2, y + side / 2);
}

}  // namespace

int main(int argc, char** argv) {
  geocol::bench::InitBench(argc, argv);
  const uint64_t n = BenchPoints(1000000);
  Banner("E13: query result cache (repeat / pan / aggregate)",
         "hit speedup on repeated viewports, cold overhead while panning");

  auto table = GenerateSurvey(n);
  const Box extent = SurveyOptions(n).extent;
  std::printf("survey: %llu points\n",
              static_cast<unsigned long long>(table->num_rows()));

  auto cache = std::make_shared<cache::QueryResultCache>();
  EngineOptions cached_opts;
  cached_opts.cache.budget_bytes = 256ull << 20;
  cached_opts.cache.instance = cache;
  SpatialQueryEngine cached(table, cached_opts);
  SpatialQueryEngine plain(table);  // budget 0: the pre-cache engine

  const int reps = BenchReps();
  const double fractions[3] = {0.001, 0.01, 0.05};

  // ---- Workload 1: exact repeats. Cold = first-sighting miss (cache
  // cleared before each timed run), then one untimed execution promotes
  // the entry through the doorkeeper, warm = steady-state hit.
  TablePrinter repeat_out(
      {"workload", "query", "results", "cold ms", "warm ms", "speedup"}, 12);
  for (int qi = 0; qi < 3; ++qi) {
    Box q = Viewport(extent, fractions[qi], 0.43, 0.57);
    uint64_t results = 0;
    double t_cold = 1e300, t_warm = 1e300;
    for (int rep = 0; rep < reps; ++rep) {
      cache->Clear();
      {
        Timer t;
        auto r = cached.SelectInBox(q);
        t_cold = std::min(t_cold, t.ElapsedMillis());
        results = r.ok() ? r->count() : 0;
      }
      (void)cached.SelectInBox(q);  // promotes past the doorkeeper
      {
        Timer t;
        (void)cached.SelectInBox(q);
        t_warm = std::min(t_warm, t.ElapsedMillis());
      }
    }
    char label[16];
    std::snprintf(label, sizeof(label), "V%d %.3g%%", qi + 1,
                  fractions[qi] * 100);
    repeat_out.Row({"repeat", label, TablePrinter::Int(results),
                    TablePrinter::Num(t_cold, 3), TablePrinter::Num(t_warm, 3),
                    TablePrinter::Num(t_warm > 0 ? t_cold / t_warm : 0.0, 1)});
  }

  // ---- Workload 2: panning. Every viewport in the sweep is distinct, so
  // the cached engine misses on all of them; measure the full sweep against
  // the cache-free engine.
  constexpr int kPanSteps = 16;
  TablePrinter pan_out(
      {"workload", "query", "results", "cache ms", "plain ms", "overhead"},
      12);
  {
    uint64_t results = 0;
    double t_cache = 1e300, t_plain = 1e300;
    for (int rep = 0; rep < reps; ++rep) {
      cache->Clear();
      {
        Timer t;
        for (int s = 0; s < kPanSteps; ++s) {
          Box q = Viewport(extent, 0.01, 0.1 + 0.05 * s, 0.3 + 0.02 * s);
          auto r = cached.SelectInBox(q);
          results += r.ok() ? r->count() : 0;
        }
        t_cache = std::min(t_cache, t.ElapsedMillis());
      }
      {
        Timer t;
        for (int s = 0; s < kPanSteps; ++s) {
          Box q = Viewport(extent, 0.01, 0.1 + 0.05 * s, 0.3 + 0.02 * s);
          (void)plain.SelectInBox(q);
        }
        t_plain = std::min(t_plain, t.ElapsedMillis());
      }
    }
    pan_out.Row({"pan", "16 x 1%", TablePrinter::Int(results / (2 * reps)),
                 TablePrinter::Num(t_cache, 3), TablePrinter::Num(t_plain, 3),
                 TablePrinter::Pct(t_plain > 0 ? t_cache / t_plain - 1.0
                                               : 0.0)});
  }

  // Counted: what a never-repeating stream leaves resident. Each key is
  // sighted once, so the cache should hold fingerprints only.
  TablePrinter held_out(
      {"workload", "query", "queries", "entries", "bytes held"}, 12);
  {
    cache->Clear();
    for (int s = 0; s < kPanSteps; ++s) {
      Box q = Viewport(extent, 0.01, 0.1 + 0.05 * s, 0.3 + 0.02 * s);
      (void)cached.SelectInBox(q);
    }
    const cache::CacheStats stats = cache->Stats();
    held_out.Row({"pan-held", "16 x 1%", TablePrinter::Int(kPanSteps),
                  TablePrinter::Int(stats.tier[0].entries),
                  TablePrinter::Int(stats.bytes_used)});
  }

  // ---- Workload 3: repeated aggregate over a fixed region. As in
  // workload 1, one untimed execution admits the selection; the warm run
  // replays it and re-aggregates the replayed rows.
  TablePrinter agg_out(
      {"workload", "query", "value", "cold ms", "warm ms", "speedup"}, 12);
  {
    Box q = Viewport(extent, 0.05, 0.5, 0.5);
    Geometry g(q);
    double value = 0.0;
    double t_cold = 1e300, t_warm = 1e300;
    for (int rep = 0; rep < reps; ++rep) {
      cache->Clear();
      {
        Timer t;
        auto r = cached.Aggregate(g, 0.0, {}, "z", AggKind::kAvg);
        t_cold = std::min(t_cold, t.ElapsedMillis());
        value = r.ok() ? *r : 0.0;
      }
      (void)cached.Aggregate(g, 0.0, {}, "z", AggKind::kAvg);  // admits
      {
        Timer t;
        (void)cached.Aggregate(g, 0.0, {}, "z", AggKind::kAvg);
        t_warm = std::min(t_warm, t.ElapsedMillis());
      }
    }
    agg_out.Row({"agg", "AVG(z) 5%", TablePrinter::Num(value, 3),
                 TablePrinter::Num(t_cold, 3), TablePrinter::Num(t_warm, 3),
                 TablePrinter::Num(t_warm > 0 ? t_cold / t_warm : 0.0, 1)});
  }

  std::printf("\n%s\n", cache->StatsToString().c_str());
  std::printf(
      "expected shape: repeat speedups of 5x or more (a hit copies the\n"
      "row-id list instead of scanning imprints and refining cells); agg\n"
      "gains less, since the warm run still gathers and sums z over the\n"
      "replayed rows; pan overhead within noise (<2%%) and 0 bytes held\n"
      "after the pan stream — the doorkeeper reduces a one-shot miss to\n"
      "one key build and one fingerprint store.\n");
  return 0;
}
