// E1 (paper §3.2): loading a LAS/LAZ tile archive into each system.
//
// Paper claim being reproduced: the flat-table binary loader ("for each
// property ... a binary dump of a C-array ... appended ... using COPY
// BINARY") loads the full AHN2 in < 1 day while PostgreSQL pointcloud
// needs ~1 week — roughly a 7x gap. Our harness contrasts:
//   flat+binary  — the paper's loader (dump + COPY BINARY)
//   flat+csv     — conventional CSV conversion + parsing
//   blockstore   — PG-pointcloud-style blocking + compression + R-tree
//   filestore    — LAStools: no load at all, but lassort+lasindex prep
// The binary loader runs on every core (one thread per hardware thread);
// the other rows are serial. "total s" is elapsed time; the phase columns
// are summed over the threads that ran them.
#include <algorithm>
#include <cstdio>
#include <thread>

#include "baselines/block_store.h"
#include "baselines/file_store.h"
#include "bench/bench_common.h"
#include "las/las_reader.h"
#include "loader/binary_loader.h"
#include "loader/csv_loader.h"
#include "util/tempdir.h"
#include "util/timer.h"

using namespace geocol;
using namespace geocol::bench;

int main(int argc, char** argv) {
  geocol::bench::InitBench(argc, argv);
  const uint64_t n = BenchPoints(400000);
  Banner("E1: bulk loading throughput (paper section 3.2)",
         "flat+COPY BINARY vs flat+CSV vs block store vs file-store prep");

  TempDir tmp("bench-load");
  std::string tiles = tmp.File("tiles");
  std::string scratch = tmp.File("scratch");
  if (!MakeDir(tiles).ok() || !MakeDir(scratch).ok()) return 1;

  AhnGenerator gen(SurveyOptions(n));
  {
    AhnGeneratorOptions o = gen.options();
    AhnGeneratorOptions sized = o;
    double area = std::max(o.extent.area(), 1.0);
    sized.point_density = static_cast<double>(n) / area;
    sized.scan_line_spacing = 1.0 / std::sqrt(sized.point_density);
    AhnGenerator g2(sized);
    auto tiles_written = g2.WriteTileDirectory(tiles, /*compress=*/true);
    if (!tiles_written.ok()) {
      std::fprintf(stderr, "tile generation failed\n");
      return 1;
    }
    std::printf("survey: ~%llu points in %llu LAZ tiles\n",
                static_cast<unsigned long long>(n),
                static_cast<unsigned long long>(*tiles_written));
  }

  TablePrinter table({"loader", "threads", "points", "total s", "read s",
                      "convert s", "append s", "Mpts/s", "vs binary"});
  const uint64_t hw = std::max(1u, std::thread::hardware_concurrency());

  double binary_seconds = 0;
  uint64_t points = 0;

  // ---- flat table + binary loader (the paper's approach).
  {
    BinaryLoader loader(scratch);
    LoadStats stats;
    auto t = loader.LoadDirectory(tiles, &stats);
    if (!t.ok()) return 1;
    binary_seconds = stats.TotalSeconds();
    points = stats.points;
    table.Row({"flat+binary", TablePrinter::Int(hw),
               TablePrinter::Int(stats.points),
               TablePrinter::Num(stats.TotalSeconds()),
               TablePrinter::Num(stats.read_seconds),
               TablePrinter::Num(stats.convert_seconds),
               TablePrinter::Num(stats.append_seconds),
               TablePrinter::Num(stats.PointsPerSecond() / 1e6),
               "1.00x"});
  }

  // ---- flat table + CSV round trip.
  {
    CsvLoader loader(scratch);
    LoadStats stats;
    auto t = loader.LoadDirectory(tiles, &stats);
    if (!t.ok()) return 1;
    table.Row({"flat+csv", "1", TablePrinter::Int(stats.points),
               TablePrinter::Num(stats.TotalSeconds()),
               TablePrinter::Num(stats.read_seconds),
               TablePrinter::Num(stats.convert_seconds),
               TablePrinter::Num(stats.append_seconds),
               TablePrinter::Num(stats.PointsPerSecond() / 1e6),
               TablePrinter::Num(stats.TotalSeconds() / binary_seconds) + "x"});
  }

  // ---- block store (PG-pointcloud-like): read tiles, block, compress,
  // index.
  {
    Timer read_timer;
    std::vector<LasPointRecord> records;
    LasHeader header;
    std::vector<std::string> files;
    if (!ListFiles(tiles, ".laz", &files).ok()) return 1;
    for (const auto& f : files) {
      auto tile = ReadLasFile(f);
      if (!tile.ok()) return 1;
      header = tile->header;
      records.insert(records.end(), tile->points.begin(), tile->points.end());
    }
    double read_s = read_timer.ElapsedSeconds();
    BlockStore::BuildStats bs;
    auto store = BlockStore::Build(std::move(records), header,
                                   BlockStoreOptions(), &bs);
    if (!store.ok()) return 1;
    double total = read_s + bs.TotalSeconds();
    table.Row({"blockstore", "1", TablePrinter::Int(store->num_points()),
               TablePrinter::Num(total), TablePrinter::Num(read_s),
               TablePrinter::Num(bs.sort_seconds + bs.block_seconds),
               TablePrinter::Num(bs.compress_seconds + bs.index_seconds),
               TablePrinter::Num(store->num_points() / total / 1e6),
               TablePrinter::Num(total / binary_seconds) + "x"});
  }

  // ---- file store: "loading" is lassort + lasindex preparation.
  {
    Timer t;
    if (!FileStore::SortTiles(tiles).ok()) return 1;
    double sort_s = t.ElapsedSeconds();
    FileStoreOptions opts;
    opts.use_index = true;
    auto store = FileStore::Open(tiles, opts);
    if (!store.ok()) return 1;
    Timer t2;
    if (!store->BuildIndexes().ok()) return 1;
    double index_s = t2.ElapsedSeconds();
    double total = sort_s + index_s;
    table.Row({"filestore prep", "1", TablePrinter::Int(points),
               TablePrinter::Num(total), TablePrinter::Num(sort_s),
               TablePrinter::Num(index_s), "-",
               TablePrinter::Num(points / total / 1e6),
               TablePrinter::Num(total / binary_seconds) + "x"});
  }

  std::printf(
      "\nexpected shape (paper): flat+binary fastest; CSV parsing dominates "
      "the conventional path;\nblock store pays sort+compress+index on top "
      "of reading (PostgreSQL: ~7x slower at AHN2 scale).\n");
  return 0;
}
