// E8 (ablation): how much each design choice of the paper's architecture
// contributes. The same polygon workload runs with engine features toggled
// (imprints on/off, grid refinement on/off), against the Morton-SFC
// alternative of §2.3, and the storage section ablates the column codecs
// of §3.1.
#include <cstdio>

#include "baselines/sfc_index.h"
#include "bench/bench_common.h"
#include "columns/column_file.h"
#include "core/spatial_engine.h"
#include "util/tempdir.h"

using namespace geocol;
using namespace geocol::bench;

int main(int argc, char** argv) {
  geocol::bench::InitBench(argc, argv);
  const uint64_t n = BenchPoints(1000000);
  Banner("E8: design-choice ablation",
         "engine feature toggles + SFC alternative + column codecs");

  auto table = GenerateSurvey(n);
  Box extent(table->column("x")->Stats().min, table->column("y")->Stats().min,
             table->column("x")->Stats().max, table->column("y")->Stats().max);
  Point c = extent.center();
  double r = std::min(extent.width(), extent.height()) * 0.18;
  Geometry polygon(Polygon::Circle(c, r, 256));
  Box box(c.x - r, c.y - r, c.x + r, c.y + r);

  std::printf("survey: %llu points; query: 256-gon of radius %.0f m\n",
              static_cast<unsigned long long>(table->num_rows()), r);

  // ---- engine configuration ablation.
  struct Config {
    const char* name;
    bool imprints;
    bool grid;
  } configs[] = {
      {"imprints + grid (paper)", true, true},
      {"imprints, exhaustive refine", true, false},
      {"full scan + grid", false, true},
      {"full scan, exhaustive", false, false},
  };
  TablePrinter out({"configuration", "results", "latency ms", "vs paper"});
  double paper_ms = 0;
  for (const Config& cfg : configs) {
    EngineOptions opts;
    opts.use_imprints = cfg.imprints;
    opts.refine.use_grid = cfg.grid;
    opts.num_threads = 1;  // single-threaded, comparable with the baselines
    SpatialQueryEngine engine(table, opts);
    (void)engine.SelectInGeometry(polygon);  // warm: builds imprints
    uint64_t results = 0;
    double ms = TimeMs([&] {
      auto res = engine.SelectInGeometry(polygon);
      results = res.ok() ? res->count() : 0;
    });
    if (paper_ms == 0) paper_ms = ms;
    out.Row({cfg.name, TablePrinter::Int(results), TablePrinter::Num(ms),
             TablePrinter::Num(ms / paper_ms) + "x"});
  }

  // ---- the §2.3 alternative: Morton-sorted table + interval decomposition.
  {
    auto copy = GenerateSurvey(n);
    auto sfc = MortonSfcIndex::Build(copy.get());
    if (!sfc.ok()) return 1;
    uint64_t results = 0;
    double ms = TimeMs([&] {
      auto res = sfc->QueryBox(box);
      results = res.ok() ? res->size() : 0;
    });
    out.Row({"morton SFC index (box)", TablePrinter::Int(results),
             TablePrinter::Num(ms), TablePrinter::Num(ms / paper_ms) + "x"});
    // And the engine on the box for a like-for-like comparison.
    EngineOptions serial1;
    serial1.num_threads = 1;
    SpatialQueryEngine engine(table, serial1);
    (void)engine.SelectInBox(box);
    double ms2 = TimeMs([&] { (void)engine.SelectInBox(box); });
    out.Row({"imprints (same box)", "-", TablePrinter::Num(ms2),
             TablePrinter::Num(ms2 / paper_ms) + "x"});
  }

  // ---- column codec ablation (§3.1's RLE remark): on-disk GPC1 bytes.
  std::printf(
      "\ncolumn codec ablation (GPC1 files, codec auto-chosen per chunk; "
      "the dominant one shown):\n");
  TablePrinter codecs({"column", "codec", "raw", "compressed", "ratio"});
  TempDir dir("bench-e8");
  for (const char* name : {"x", "y", "z", "gps_time", "classification",
                           "intensity", "point_source_id", "wave_offset"}) {
    ColumnPtr col = table->column(name);
    CompressionStats stats;
    if (!WriteChunkedCompressedColumnFile(*col, dir.File(name),
                                          ColumnCodec::kAuto, &stats)
             .ok()) {
      return 1;
    }
    codecs.Row({name, ColumnCodecName(stats.codec),
                TablePrinter::Mb(stats.uncompressed_bytes),
                TablePrinter::Mb(stats.compressed_bytes),
                TablePrinter::Num(stats.Ratio()) + "x"});
  }

  std::printf(
      "\nexpected shape: dropping either technique hurts — no imprints means "
      "scanning every cache line,\nno grid means per-point exact tests "
      "against a 256-vertex polygon; the SFC index is competitive\nfor boxes "
      "but needs the physical sort and answers only box queries natively.\n");
  return 0;
}
