// geocol — the command-line companion of the library, LAStools-style.
//
//   geocol generate <tiles_dir> [--points N] [--compress] [--layers <dir>]
//   geocol info     <tiles_dir>
//   geocol sort     <tiles_dir>                    (lassort)
//   geocol index    <tiles_dir>                    (lasindex)
//   geocol load     <tiles_dir> <table_dir> [--csv] [--compressed]
//   geocol shard    <table_dir> <out_dir> [--shards K] [--order N]
//   geocol ingest   <table_dir> <batch.las|batch.csv>...
//   geocol query    <table_dir> "<SQL>" [--layers <dir>] [--profile]
//                   [--paged [--chunk-mb N]]
//   geocol raster   <table_dir> <out.ppm> [--cols N]
//   geocol verify   <table_dir>
//   geocol metrics  <table_dir> ["<SQL>"] [--format prom|json] [--layers <dir>]
//   geocol trace    <table_dir> "<SQL>" [--out <path>] [--jsonl] [--layers <dir>]
//   geocol cache    <table_dir> "<SQL>" [--budget-mb N] [--repeat N]
//                   [--paged [--chunk-mb N]] [--layers <dir>]
//   geocol top      <table_dir> [--once] [--interval-ms N] [--export <jsonl>]
//   geocol heat     <table_dir> [--top N]
//   geocol replay   <table_dir> [--json <path>] [--layers <dir>]
//                   [--paged [--chunk-mb N]]
//   geocol serve    <table_dir> [--port N] [--workers N] [--queue N]
//                   [--rate-qps Q] [--rate-burst B] [--cache-mb N]
//                   [--no-batch] [--layers <dir>] [--paged [--chunk-mb N]]
//   geocol client   ["<SQL>"...] [--host H] [--port N] [--id NAME]
//                   [--retry-ms N] [--oracle <table_dir>] [--sweep N]
//                   [--seed S]
//   geocol simd
//
// Tables are persisted GeoColumn table directories; layers are .layer text
// files (id \t class \t name \t WKT). Directories holding a shards.gsm
// manifest are Hilbert-sharded tables (built by `geocol shard`); query/
// metrics/trace/cache/verify detect them automatically. With
// GEOCOL_METRICS=1, query/verify print a one-line telemetry summary on
// exit.
//
// Every query-executing command appends one structured event per statement
// to the workload flight recorder at <table_dir>/flight/flight.gfr
// (DESIGN.md §15). Disable with --no-flight or GEOCOL_FLIGHT=0. The log
// feeds `geocol top` (live workload view), `geocol heat` (shard/chunk
// access heat) and `geocol replay` (deterministic re-execution diffing
// result digests bit-for-bit).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "baselines/file_store.h"
#include "cache/chunk_cache.h"
#include "cache/query_cache.h"
#include "columns/column_file.h"
#include "columns/paged_column.h"
#include "columns/csv.h"
#include "columns/sharded_table.h"
#include "core/table_appender.h"
#include "core/imprints_io.h"
#include "core/raster.h"
#include "gis/catalog.h"
#include "gis/layer_io.h"
#include "las/las_format.h"
#include "las/las_reader.h"
#include "loader/binary_loader.h"
#include "loader/csv_loader.h"
#include "pointcloud/generator.h"
#include "pointcloud/vector_gen.h"
#include "server/client.h"
#include "server/server.h"
#include "simd/dispatch.h"
#include "sql/session.h"
#include "sql/executor.h"
#include "telemetry/metrics.h"
#include "telemetry/recorder.h"
#include "telemetry/trace.h"
#include "util/binary_io.h"
#include "util/fd_cache.h"
#include "util/tempdir.h"
#include "util/timer.h"

using namespace geocol;

namespace {

struct Args {
  std::vector<std::string> positional;
  std::vector<std::string> flags;

  bool Has(const char* flag) const {
    for (const auto& f : flags) {
      if (f == flag) return true;
    }
    return false;
  }
  std::string Value(const char* flag, const std::string& def) const {
    for (size_t i = 0; i + 1 < flags.size(); ++i) {
      if (flags[i] == flag) return flags[i + 1];
    }
    return def;
  }
  uint64_t U64(const char* flag, uint64_t def) const {
    std::string v = Value(flag, "");
    return v.empty() ? def : std::strtoull(v.c_str(), nullptr, 10);
  }
  double F64(const char* flag, double def) const {
    std::string v = Value(flag, "");
    return v.empty() ? def : std::strtod(v.c_str(), nullptr);
  }
};

int Fail(const Status& st) {
  std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
  return 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: geocol <command> ...\n"
               "  generate <tiles_dir> [--points N] [--compress] [--layers <dir>]\n"
               "  info     <tiles_dir>\n"
               "  sort     <tiles_dir>\n"
               "  index    <tiles_dir>\n"
               "  load     <tiles_dir> <table_dir> [--csv] [--compressed]\n"
               "  shard    <table_dir> <out_dir> [--shards K] [--order N]\n"
               "  ingest   <table_dir> <batch.las|batch.csv>...\n"
               "  query    <table_dir> \"<SQL>\" [--layers <dir>] [--profile] [--paged [--chunk-mb N]]\n"
               "  raster   <table_dir> <out.ppm> [--cols N]\n"
               "  verify   <table_dir>\n"
               "  metrics  <table_dir> [\"<SQL>\"] [--format prom|json] [--layers <dir>]\n"
               "  trace    <table_dir> \"<SQL>\" [--out <path>] [--jsonl] [--layers <dir>]\n"
               "  cache    <table_dir> \"<SQL>\" [--budget-mb N] [--repeat N] [--paged [--chunk-mb N]] [--layers <dir>]\n"
               "           (--repeat defaults to 3: run 1 misses, run 2 is admitted, run 3 hits)\n"
               "  top      <table_dir> [--once] [--interval-ms N] [--export <jsonl>]\n"
               "  heat     <table_dir> [--top N]\n"
               "  replay   <table_dir> [--json <path>] [--layers <dir>] [--paged [--chunk-mb N]]\n"
               "  serve    <table_dir> [--port N] [--workers N] [--queue N] [--rate-qps Q]\n"
               "           [--rate-burst B] [--cache-mb N] [--no-batch] [--layers <dir>] [--paged [--chunk-mb N]]\n"
               "  client   [\"<SQL>\"...] [--host H] [--port N] [--id NAME] [--retry-ms N]\n"
               "           [--oracle <table_dir>] [--sweep N] [--seed S]\n"
               "  simd     (print CPU features and active kernel dispatch)\n"
               "query-running commands record to <table_dir>/flight/flight.gfr"
               " (disable: --no-flight or GEOCOL_FLIGHT=0)\n");
  return 2;
}

int CmdSimd(const Args&) {
  const simd::CpuFeatures& f = simd::DetectCpuFeatures();
  std::printf("cpu features: sse2=%d sse4.2=%d avx=%d os_ymm=%d avx2=%d "
              "bmi2=%d avx512f=%d\n",
              f.sse2, f.sse42, f.avx, f.os_ymm, f.avx2, f.bmi2, f.avx512f);
  std::printf("max supported level: %s\n",
              simd::SimdLevelName(simd::MaxSupportedSimdLevel()));
  const char* forced = std::getenv("GEOCOL_SIMD");
  std::printf("GEOCOL_SIMD override: %s\n",
              forced != nullptr ? forced : "(unset)");
  std::printf("active dispatch level: %s\n",
              simd::SimdLevelName(simd::ActiveSimdLevel()));
  return 0;
}

int CmdGenerate(const Args& args) {
  if (args.positional.empty()) return Usage();
  const std::string& dir = args.positional[0];
  uint64_t points = args.U64("--points", 500000);
  if (Status st = MakeDir(dir); !st.ok()) return Fail(st);

  AhnGeneratorOptions opts;
  double side = std::sqrt(static_cast<double>(points) / 8.0);
  opts.extent = Box(85000, 444000, 85000 + side, 444000 + side);
  opts.point_density = 8.0;
  opts.scan_line_spacing = 1.0 / std::sqrt(8.0);
  opts.strip_width = std::max(side / 8.0, 10.0);
  AhnGenerator gen(opts);
  auto tiles = gen.WriteTileDirectory(dir, args.Has("--compress"));
  if (!tiles.ok()) return Fail(tiles.status());
  std::printf("wrote %llu tiles (~%llu points) to %s\n",
              static_cast<unsigned long long>(*tiles),
              static_cast<unsigned long long>(gen.EstimatedPoints()),
              dir.c_str());

  std::string layers_dir = args.Value("--layers", "");
  if (!layers_dir.empty()) {
    if (Status st = MakeDir(layers_dir); !st.ok()) return Fail(st);
    TerrainModel terrain(opts.seed);
    OsmGenerator osm(31, opts.extent, terrain);
    auto roads = osm.GenerateRoads(60);
    UrbanAtlasGenerator ua(32, opts.extent, terrain);
    auto land = ua.GenerateLandUse(10);
    for (auto& c : ua.GenerateTransitCorridors(roads, 20.0)) land.push_back(c);
    auto osm_layer = VectorLayer::FromFeatures("osm", std::move(roads));
    auto ua_layer = VectorLayer::FromFeatures("urban_atlas", std::move(land));
    if (Status st = WriteLayerFile(*osm_layer, layers_dir + "/osm.layer");
        !st.ok()) {
      return Fail(st);
    }
    if (Status st =
            WriteLayerFile(*ua_layer, layers_dir + "/urban_atlas.layer");
        !st.ok()) {
      return Fail(st);
    }
    std::printf("wrote layers to %s (osm.layer, urban_atlas.layer)\n",
                layers_dir.c_str());
  }
  return 0;
}

int CmdInfo(const Args& args) {
  if (args.positional.empty()) return Usage();
  std::vector<std::string> files;
  if (Status st = ListFiles(args.positional[0], ".las", &files); !st.ok()) {
    return Fail(st);
  }
  if (Status st = ListFiles(args.positional[0], ".laz", &files); !st.ok()) {
    return Fail(st);
  }
  uint64_t total_points = 0, total_bytes = 0;
  Box footprint;
  for (const auto& f : files) {
    auto header = ReadLasHeader(f);
    if (!header.ok()) return Fail(header.status());
    auto size = FileSizeBytes(f);
    total_points += header->point_count;
    total_bytes += size.ok() ? *size : 0;
    footprint.Extend(header->Footprint());
    std::printf("%-40s %10llu pts  %s  bbox (%.1f %.1f)-(%.1f %.1f)\n",
                f.c_str(),
                static_cast<unsigned long long>(header->point_count),
                header->compressed ? "laz" : "las", header->min_world[0],
                header->min_world[1], header->max_world[0],
                header->max_world[1]);
  }
  std::printf("TOTAL: %zu files, %llu points, %.1f MB, footprint "
              "(%.1f %.1f)-(%.1f %.1f)\n",
              files.size(), static_cast<unsigned long long>(total_points),
              total_bytes / 1048576.0, footprint.min_x, footprint.min_y,
              footprint.max_x, footprint.max_y);
  return 0;
}

int CmdSort(const Args& args) {
  if (args.positional.empty()) return Usage();
  if (Status st = FileStore::SortTiles(args.positional[0]); !st.ok()) {
    return Fail(st);
  }
  std::printf("tiles under %s re-sorted along the Morton curve\n",
              args.positional[0].c_str());
  return 0;
}

int CmdIndex(const Args& args) {
  if (args.positional.empty()) return Usage();
  auto store = FileStore::Open(args.positional[0]);
  if (!store.ok()) return Fail(store.status());
  auto bytes = store->BuildIndexes();
  if (!bytes.ok()) return Fail(bytes.status());
  std::printf("wrote .lax sidecars for %zu tiles (%.1f KB)\n",
              store->num_files(), *bytes / 1024.0);
  return 0;
}

int CmdLoad(const Args& args) {
  if (args.positional.size() < 2) return Usage();
  const std::string& tiles = args.positional[0];
  const std::string& table_dir = args.positional[1];
  TempDir scratch("geocol-load");
  LoadStats stats;
  Result<std::shared_ptr<FlatTable>> table = Status::Internal("unset");
  if (args.Has("--csv")) {
    CsvLoader loader(scratch.path());
    table = loader.LoadDirectory(tiles, &stats);
  } else {
    BinaryLoader loader(scratch.path());
    table = loader.LoadDirectory(tiles, &stats);
  }
  if (!table.ok()) return Fail(table.status());
  std::printf("loaded %llu points from %llu files in %.2f s (%.2f Mpts/s)\n",
              static_cast<unsigned long long>(stats.points),
              static_cast<unsigned long long>(stats.files),
              stats.TotalSeconds(), stats.PointsPerSecond() / 1e6);
  if (args.Has("--compressed")) {
    // GPC1: every 256 KiB chunk compressed on its own, so the table opens
    // resident and paged (--paged) alike.
    uint64_t bytes = 0;
    if (Status st = WriteChunkedCompressedTableDir(**table, table_dir, &bytes);
        !st.ok()) {
      return Fail(st);
    }
    std::printf("persisted compressed table to %s (%.1f MB, %.2fx)\n",
                table_dir.c_str(), bytes / 1048576.0,
                static_cast<double>((*table)->DataBytes()) / bytes);
  } else {
    if (Status st = WriteTableDir(**table, table_dir); !st.ok()) {
      return Fail(st);
    }
    std::printf("persisted table to %s (%.1f MB)\n", table_dir.c_str(),
                (*table)->DataBytes() / 1048576.0);
  }
  return 0;
}

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

Result<FlatTable> OpenTable(const std::string& dir, bool paged = false) {
  if (!PathExists(dir + "/schema.gct")) {
    return Status::NotFound("no table manifest under " + dir);
  }
  return paged ? ReadTableDirPaged(dir) : ReadTableDir(dir);
}

/// `geocol shard <table_dir> <out_dir>`: re-layouts a persisted table into
/// K Hilbert-ordered spatial shards under <out_dir> (DESIGN.md §12).
int CmdShard(const Args& args) {
  if (args.positional.size() < 2) return Usage();
  auto table = OpenTable(args.positional[0]);
  if (!table.ok()) return Fail(table.status());
  ShardingOptions opts;
  opts.num_shards = static_cast<uint32_t>(args.U64("--shards", 16));
  opts.hilbert_order = static_cast<uint32_t>(args.U64("--order", 16));
  Timer t;
  auto sharded = ShardedTable::Create(*table, opts);
  if (!sharded.ok()) return Fail(sharded.status());
  if (Status st = WriteShardedTableDir(**sharded, args.positional[1]);
      !st.ok()) {
    return Fail(st);
  }
  std::printf(
      "sharded %llu rows into %zu Hilbert shards (order %u) under %s "
      "in %.2f s\n",
      static_cast<unsigned long long>((*sharded)->num_rows()),
      (*sharded)->num_shards(), opts.hilbert_order,
      args.positional[1].c_str(), t.ElapsedSeconds());
  for (size_t i = 0; i < (*sharded)->num_shards(); ++i) {
    const ShardSlice& s = (*sharded)->shard(i);
    std::printf("  shard %4zu: %8llu rows  bbox [%.1f, %.1f] x [%.1f, %.1f]\n",
                i, static_cast<unsigned long long>(s.table->num_rows()),
                s.bbox.min_x, s.bbox.max_x, s.bbox.min_y, s.bbox.max_y);
  }
  return 0;
}

/// Reads one ingest batch file — a LAS/LAZ tile or a CSV with header —
/// into a FlatTable matching `schema`.
Result<FlatTable> ReadBatchFile(const std::string& path,
                                const Schema& schema) {
  if (EndsWith(path, ".csv")) return ReadCsv(path, schema, "batch");
  if (!(schema == LasPointSchema())) {
    return Status::InvalidArgument(
        "table does not use the LAS point schema; ingest CSV batches "
        "instead");
  }
  GEOCOL_ASSIGN_OR_RETURN(LasTile tile, ReadLasFile(path));
  FlatTable batch("batch", schema);
  GEOCOL_RETURN_NOT_OK(AppendTileToTable(tile, &batch));
  return batch;
}

/// `geocol ingest <table_dir> <batch>...`: appends LAS/LAZ tiles or CSV
/// batches to an existing table while it stays queryable.
///
/// A flat table dir is reopened as a LiveTable: every batch is staged and
/// all of them publish as ONE new epoch — the manifest rename is the
/// commit point, so a crash mid-ingest reopens as the previous epoch and
/// `geocol verify` stays green. A sharded dir (shards.gsm) routes each
/// batch's rows to their Hilbert shards and rewrites only the touched
/// shards under the next generation, committed by the shards.gsm swap.
int CmdIngest(const Args& args) {
  if (args.positional.size() < 2) return Usage();
  const std::string& dir = args.positional[0];
  Timer t;

  if (IsShardedTableDir(dir)) {
    auto sharded = ReadShardedTableDir(dir);
    if (!sharded.ok()) return Fail(sharded.status());
    ShardRouter router(*sharded, EngineOptions{});
    const uint64_t before = router.View().total_rows;
    for (size_t i = 1; i < args.positional.size(); ++i) {
      auto batch = ReadBatchFile(args.positional[i], router.schema());
      if (!batch.ok()) return Fail(batch.status());
      if (Status st = router.Append(*batch); !st.ok()) return Fail(st);
      std::printf("  %-40s %8llu rows\n", args.positional[i].c_str(),
                  static_cast<unsigned long long>(batch->num_rows()));
    }
    auto m = ReadShardedTableManifest(dir);
    if (!m.ok()) return Fail(m.status());
    std::printf(
        "appended %llu rows across %zu Hilbert shards (now %llu rows, "
        "generation %llu) in %.2f s\n",
        static_cast<unsigned long long>(router.View().total_rows - before),
        router.num_shards(),
        static_cast<unsigned long long>(router.View().total_rows),
        static_cast<unsigned long long>(m->generation), t.ElapsedSeconds());
    return 0;
  }

  LiveTableOptions opts;
  opts.dir = dir;
  auto live = LiveTable::Open(dir, opts);
  if (!live.ok()) return Fail(live.status());
  const uint64_t epoch_before = (*live)->epoch();
  TableAppender appender(*live);
  for (size_t i = 1; i < args.positional.size(); ++i) {
    const std::string& path = args.positional[i];
    Status st = EndsWith(path, ".csv") ? appender.StageCsvFile(path)
                                       : appender.StageLasFile(path);
    if (!st.ok()) return Fail(st);
  }
  const uint64_t staged = appender.staged_rows();
  if (Status st = appender.Commit(); !st.ok()) return Fail(st);
  EpochSnapshot snap = (*live)->Pin();
  std::printf(
      "appended %llu rows as epoch %llu -> %llu (now %llu rows) in %.2f s\n",
      static_cast<unsigned long long>(staged),
      static_cast<unsigned long long>(epoch_before),
      static_cast<unsigned long long>(snap.epoch),
      static_cast<unsigned long long>(snap.table->num_rows()),
      t.ElapsedSeconds());
  telemetry::MaybePrintSummary(stderr);
  return 0;
}

/// Verifies one flat table directory, printing each file prefixed by
/// `prefix`. Returns the number of corrupt files (sharded tables call
/// this once per shard directory).
int VerifyOneTableDir(const std::string& dir, const std::string& prefix) {
  int corrupt = 0;

  auto manifest = ReadTableManifest(dir);
  if (!manifest.ok()) {
    std::printf("%-32s CORRUPT  %s\n", (prefix + "schema.gct").c_str(),
                manifest.status().ToString().c_str());
    return 1;  // Nothing else is checkable without the manifest.
  }
  std::printf("%-32s OK       generation %llu, %zu columns\n",
              (prefix + "schema.gct").c_str(),
              static_cast<unsigned long long>(manifest->generation),
              manifest->columns.size());

  // Column name -> loaded column, for sidecar freshness checks below.
  std::vector<ColumnPtr> columns;
  std::vector<std::string> referenced;
  for (const auto& mc : manifest->columns) {
    const std::string& fname = mc.filename;
    referenced.push_back(fname);
    const std::string path = dir + "/" + fname;
    auto col = ReadColumnFile(path, mc.name);
    if (!col.ok()) {
      ++corrupt;
      std::printf("%-32s CORRUPT  %s\n", (prefix + fname).c_str(),
                  col.status().ToString().c_str());
      continue;
    }
    if ((*col)->type() != mc.type) {
      ++corrupt;
      std::printf("%-32s CORRUPT  type does not match the manifest\n",
                  (prefix + fname).c_str());
      continue;
    }
    auto size = FileSizeBytes(path);
    std::printf("%-32s OK       %llu rows, %llu bytes\n",
                (prefix + fname).c_str(),
                static_cast<unsigned long long>((*col)->size()),
                static_cast<unsigned long long>(size.ok() ? *size : 0));
    columns.push_back(std::move(*col));
  }

  std::vector<std::string> sidecars;
  (void)ListFiles(dir, ".gim", &sidecars);
  for (const auto& path : sidecars) {
    std::string fname = path.substr(dir.size() + 1);
    referenced.push_back(fname);
    ImprintsFileMeta meta;
    auto index = ReadImprintsFile(path, &meta);
    if (!index.ok()) {
      ++corrupt;
      std::printf("%-32s CORRUPT  %s\n", (prefix + fname).c_str(),
                  index.status().ToString().c_str());
      continue;
    }
    // Freshness: match the sidecar to its column by name, then require
    // the payload fingerprint, epoch and row count to all agree.
    std::string col_name = fname.substr(0, fname.size() - 4);
    const char* freshness = "no matching column";
    for (const auto& col : columns) {
      if (col->name() != col_name) continue;
      freshness = meta.column_fingerprint == ColumnFingerprint(*col) &&
                          index->built_epoch() == col->epoch() &&
                          index->num_rows() == col->size()
                      ? "fresh"
                      : "STALE (will be rebuilt on use)";
      break;
    }
    std::printf("%-32s OK       %llu rows, %s\n", (prefix + fname).c_str(),
                static_cast<unsigned long long>(index->num_rows()), freshness);
  }

  // Leftovers a crash or a superseded generation can leave behind. They
  // are unreferenced, so they are reported but are not corruption.
  for (const char* suffix : {".tmp", ".gcl", ".gcz", ".quarantined"}) {
    std::vector<std::string> files;
    (void)ListFiles(dir, suffix, &files);
    for (const auto& path : files) {
      std::string fname = path.substr(dir.size() + 1);
      if (std::find(referenced.begin(), referenced.end(), fname) !=
          referenced.end()) {
        continue;
      }
      std::printf("%-32s STALE    unreferenced leftover\n",
                  (prefix + fname).c_str());
    }
  }
  return corrupt;
}

/// `geocol verify <table_dir>`: checks every persistence invariant the
/// durability layer maintains — manifest checksum, per-column checksums
/// and type agreement, imprint sidecar integrity and freshness — and
/// reports stale leftovers (.tmp, superseded generations, quarantined
/// sidecars). A sharded table dir (shards.gsm) is verified shard by shard
/// after its own manifest's checksum and shape checks. Exit 1 if anything
/// is corrupt, 0 otherwise.
int CmdVerify(const Args& args) {
  if (args.positional.empty()) return Usage();
  const std::string& dir = args.positional[0];
  int corrupt = 0;

  if (IsShardedTableDir(dir)) {
    auto m = ReadShardedTableManifest(dir);
    if (!m.ok()) {
      std::printf("%-32s CORRUPT  %s\n", "shards.gsm",
                  m.status().ToString().c_str());
      return 1;  // No shard list without the manifest.
    }
    std::printf("%-32s OK       generation %llu, %zu shards (order %u)\n",
                "shards.gsm", static_cast<unsigned long long>(m->generation),
                m->shards.size(), m->hilbert_order);
    for (const auto& shard : m->shards) {
      const std::string shard_dir = dir + "/" + shard.dirname;
      if (!PathExists(shard_dir + "/schema.gct")) {
        ++corrupt;
        std::printf("%-32s CORRUPT  shard directory missing\n",
                    shard.dirname.c_str());
        continue;
      }
      corrupt += VerifyOneTableDir(shard_dir, shard.dirname + "/");
    }
  } else {
    corrupt = VerifyOneTableDir(dir, "");
  }

  telemetry::MaybePrintSummary(stderr);
  if (corrupt > 0) {
    std::printf("%d corrupt file(s) under %s\n", corrupt, dir.c_str());
    return 1;
  }
  std::printf("all checks passed under %s\n", dir.c_str());
  return 0;
}

/// Location of a table's workload flight log (own subdirectory so
/// `geocol verify` never mistakes it for a stale table leftover).
std::string FlightLogPath(const std::string& table_dir) {
  return table_dir + "/flight/flight.gfr";
}

/// Opens the flight recorder for `table_dir` unless opted out via
/// --no-flight or GEOCOL_FLIGHT=0. Failure to open is a warning, never a
/// query failure — recording is diagnostics, not a dependency.
void MaybeOpenFlightRecorder(const Args& args, const std::string& table_dir) {
  if (args.Has("--no-flight")) return;
  const char* env = std::getenv("GEOCOL_FLIGHT");
  if (env != nullptr && std::strcmp(env, "0") == 0) return;
  if (Status st = MakeDir(table_dir + "/flight"); !st.ok()) {
    std::fprintf(stderr, "warning: flight recorder off: %s\n",
                 st.ToString().c_str());
    return;
  }
  Status st = telemetry::FlightRecorder::Global().Open(FlightLogPath(table_dir));
  if (!st.ok()) {
    std::fprintf(stderr, "warning: flight recorder off: %s\n",
                 st.ToString().c_str());
  }
}

/// Opens the table (and any --layers) into `catalog`; shared by the
/// query/metrics/trace subcommands. Unless `open_flight` is false (replay
/// must not observe itself) the workload flight recorder is opened at
/// <table_dir>/flight/flight.gfr, so every Session query gets recorded.
Status SetupCatalog(const Args& args, Catalog* catalog,
                    bool open_flight = true) {
  const std::string& table_dir = args.positional[0];
  const bool paged = args.Has("--paged");
  if (paged) {
    // An explicit --chunk-mb is a request for that exact budget (shrinking
    // the default 64 MiB included); without it the env/default stands.
    uint64_t chunk_mb = args.U64("--chunk-mb", 0);
    if (chunk_mb > 0) {
      cache::ChunkCache::Global().SetBudget(chunk_mb * 1024 * 1024);
    }
  }
  if (IsShardedTableDir(table_dir)) {
    GEOCOL_ASSIGN_OR_RETURN(
        auto sharded,
        ReadShardedTableDir(table_dir, /*verify_checksums=*/true, paged));
    std::string name = sharded->name().empty() ? "ahn2" : sharded->name();
    GEOCOL_RETURN_NOT_OK(
        catalog->AddShardedPointCloud(name, std::move(sharded)));
  } else {
    GEOCOL_ASSIGN_OR_RETURN(FlatTable table, OpenTable(table_dir, paged));
    GEOCOL_RETURN_NOT_OK(catalog->AddPointCloud(
        table.name().empty() ? "ahn2" : table.name(),
        std::make_shared<FlatTable>(std::move(table))));
  }
  std::string layers_dir = args.Value("--layers", "");
  if (!layers_dir.empty()) {
    std::vector<std::string> layer_files;
    GEOCOL_RETURN_NOT_OK(ListFiles(layers_dir, ".layer", &layer_files));
    for (const auto& lf : layer_files) {
      GEOCOL_ASSIGN_OR_RETURN(auto layer, ReadLayerFile(lf));
      GEOCOL_RETURN_NOT_OK(catalog->AddLayer(layer));
    }
  }
  if (open_flight) MaybeOpenFlightRecorder(args, table_dir);
  return Status::OK();
}

int CmdQuery(const Args& args) {
  if (args.positional.size() < 2) return Usage();
  Catalog catalog;
  if (Status st = SetupCatalog(args, &catalog); !st.ok()) return Fail(st);
  std::string first = catalog.PointCloudNames().empty()
                          ? catalog.ShardedPointCloudNames()[0] + " (sharded)"
                          : catalog.PointCloudNames()[0];
  std::printf("datasets: %s", first.c_str());
  for (const auto& l : catalog.LayerNames()) std::printf(", %s", l.c_str());
  std::printf("\n");
  sql::Session session(&catalog);
  auto rs = session.Execute(args.positional[1]);
  if (!rs.ok()) return Fail(rs.status());
  std::printf("%s", rs->ToString(50).c_str());
  if (args.Has("--profile")) {
    std::printf("\n%s\n%s", session.last_plan().c_str(),
                session.last_profile().ToString().c_str());
  }
  telemetry::MaybePrintSummary(stderr);
  return 0;
}

/// `geocol metrics <table_dir> ["<SQL>"]`: optionally runs a query to
/// exercise the engine, then dumps every registered metric. --format prom
/// (default) renders Prometheus text exposition; --format json renders
/// the JSON document bench_report.py ingests.
int CmdMetrics(const Args& args) {
  if (args.positional.empty()) return Usage();
  Catalog catalog;
  if (Status st = SetupCatalog(args, &catalog); !st.ok()) return Fail(st);
  if (args.positional.size() >= 2) {
    sql::Session session(&catalog);
    auto rs = session.Execute(args.positional[1]);
    if (!rs.ok()) return Fail(rs.status());
  }
  std::string format = args.Value("--format", "prom");
  if (format != "prom" && format != "json") {
    return Fail(Status::InvalidArgument("--format must be prom or json"));
  }
  telemetry::MetricsRegistry& reg = telemetry::MetricsRegistry::Global();
  std::string out = format == "json" ? reg.RenderJson()
                                     : reg.RenderPrometheus();
  std::fwrite(out.data(), 1, out.size(), stdout);
  return 0;
}

/// `geocol trace <table_dir> "<SQL>"`: runs the query and exports its span
/// tree as Chrome trace_event JSON (load in chrome://tracing / Perfetto)
/// or JSONL with --jsonl. --out writes to a file instead of stdout.
int CmdTrace(const Args& args) {
  if (args.positional.size() < 2) return Usage();
  Catalog catalog;
  if (Status st = SetupCatalog(args, &catalog); !st.ok()) return Fail(st);
  sql::Session session(&catalog);
  const int64_t start_unix_nanos =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count();
  auto rs = session.Execute(args.positional[1]);
  if (!rs.ok()) return Fail(rs.status());
  if (session.last_profile().empty()) {
    return Fail(Status::InvalidArgument(
        "query produced no profile (nothing to trace)"));
  }
  std::string doc =
      args.Has("--jsonl")
          ? telemetry::ProfileToJsonl(session.last_profile(),
                                      args.positional[1])
          : telemetry::ProfileToChromeTrace(session.last_profile(),
                                            args.positional[1],
                                            start_unix_nanos);
  std::string out_path = args.Value("--out", "");
  if (out_path.empty()) {
    std::fwrite(doc.data(), 1, doc.size(), stdout);
    return 0;
  }
  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    return Fail(Status::IOError("cannot open " + out_path));
  }
  std::fwrite(doc.data(), 1, doc.size(), f);
  std::fclose(f);
  std::fprintf(stderr, "trace (%zu spans) written to %s\n",
               session.last_profile().operators().size(), out_path.c_str());
  return 0;
}

/// `geocol cache <table_dir> "<SQL>" [--budget-mb N] [--repeat N]`: runs
/// the query --repeat times (default 3) through one session with the
/// result cache bound at --budget-mb, printing per-run wall times and the
/// cache's statistics — the interactive proof of the repeated-viewport
/// speedup (EXPERIMENTS.md E13). A selection is admitted on its second
/// sighting, so run 1 misses, run 2 misses and is stored, and run 3 is
/// the first hit.
int CmdCache(const Args& args) {
  if (args.positional.size() < 2) return Usage();
  Catalog catalog;
  if (Status st = SetupCatalog(args, &catalog); !st.ok()) return Fail(st);
  sql::SessionOptions opts = sql::SessionOptions::FromEnv();
  opts.cache_budget_bytes =
      static_cast<int64_t>(args.U64("--budget-mb", 64)) * 1024 * 1024;
  sql::Session session(&catalog, opts);
  uint64_t repeat = std::max<uint64_t>(1, args.U64("--repeat", 3));
  std::printf("budget: %.0f MB, %llu run(s)\n",
              opts.cache_budget_bytes / 1048576.0,
              static_cast<unsigned long long>(repeat));
  for (uint64_t i = 0; i < repeat; ++i) {
    Timer t;
    auto rs = session.Execute(args.positional[1]);
    if (!rs.ok()) return Fail(rs.status());
    // A hit shows up as the profile collapsing to one cache.hit span.
    const auto& ops = session.last_profile().operators();
    bool hit = !ops.empty() && ops[0].name == "cache.hit";
    std::printf("run %llu: %8.3f ms  %llu row(s)%s\n",
                static_cast<unsigned long long>(i + 1), t.ElapsedMillis(),
                static_cast<unsigned long long>(rs->rows.size()),
                hit ? "  [cache hit]" : "");
  }
  std::printf("\n%s", cache::QueryResultCache::Global().StatsToString().c_str());
  // The paged tier's caches. Without --paged both sit at zero traffic —
  // printed anyway so the two tiers always read side by side.
  std::printf("\n%s", cache::ChunkCache::Global().StatsToString().c_str());
  FdCache::Stats fd = FdCache::Global().GetStats();
  std::printf("fd cache: %zu/%zu open, %llu hits, %llu misses, %llu "
              "evictions\n",
              fd.open_files, fd.capacity,
              static_cast<unsigned long long>(fd.hits),
              static_cast<unsigned long long>(fd.misses),
              static_cast<unsigned long long>(fd.evictions));
  telemetry::MaybePrintSummary(stderr);
  return 0;
}

/// Minimal JSON string escaping for the replay --json export.
std::string JsonQuote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
  return out;
}

/// `geocol top <table_dir>`: live view of the recorded workload. Each tick
/// re-reads the flight log and prints totals, rate deltas since the
/// previous tick, and HDR latency quantiles aggregated from the events.
/// --once prints a single snapshot; --export <path> dumps the raw events
/// as JSONL (one query_event object per line) and exits.
int CmdTop(const Args& args) {
  if (args.positional.empty()) return Usage();
  const std::string log_path = FlightLogPath(args.positional[0]);

  const std::string export_path = args.Value("--export", "");
  if (!export_path.empty()) {
    auto events = telemetry::ReadFlightLogWithRotation(log_path);
    if (!events.ok()) return Fail(events.status());
    std::FILE* f = std::fopen(export_path.c_str(), "w");
    if (f == nullptr) return Fail(Status::IOError("cannot open " + export_path));
    for (const auto& ev : *events) {
      std::string line = telemetry::EventToJson(ev);
      std::fwrite(line.data(), 1, line.size(), f);
      std::fputc('\n', f);
    }
    std::fclose(f);
    std::printf("exported %zu event(s) to %s\n", events->size(),
                export_path.c_str());
    return 0;
  }

  const uint64_t interval_ms =
      std::max<uint64_t>(100, args.U64("--interval-ms", 2000));
  const bool once = args.Has("--once");
  uint64_t prev_total = 0;
  bool first = true;
  for (;;) {
    auto events = telemetry::ReadFlightLogWithRotation(log_path);
    if (!events.ok()) return Fail(events.status());

    // Aggregate the retained history. The histogram gives the same HDR
    // quantile extraction the in-process registry uses.
    auto hist = std::make_unique<telemetry::Histogram>();
    uint64_t errors = 0, rows_out = 0;
    uint64_t hits = 0, misses = 0, faults = 0, chunk_hits = 0;
    uint64_t scanned = 0, pruned = 0, covered = 0;
    std::map<std::string, uint64_t> by_table;
    for (const auto& ev : *events) {
      hist->Observe(ev.wall_nanos);
      errors += ev.ok ? 0 : 1;
      rows_out += ev.rows_out;
      for (int t = 0; t < 3; ++t) {
        hits += ev.cache_hits[t];
        misses += ev.cache_misses[t];
      }
      faults += ev.chunk_faults;
      chunk_hits += ev.chunk_cache_hits;
      scanned += ev.shards_scanned;
      pruned += ev.shards_pruned;
      covered += ev.shards_covered;
      if (!ev.table.empty()) by_table[ev.table] += 1;
    }
    const uint64_t total = events->size();
    const uint64_t delta = first ? 0 : total - prev_total;
    const double rate = first ? 0.0 : delta * 1000.0 / interval_ms;

    std::printf("geocol top — %s\n", log_path.c_str());
    std::printf("  queries: %llu total, %llu error(s)",
                static_cast<unsigned long long>(total),
                static_cast<unsigned long long>(errors));
    if (!first) {
      std::printf("  (+%llu, %.1f/s)",
                  static_cast<unsigned long long>(delta), rate);
    }
    std::printf("\n");
    std::printf("  latency: p50 %.3f ms  p90 %.3f  p99 %.3f  p99.9 %.3f\n",
                hist->ValueAtQuantile(0.50) / 1e6,
                hist->ValueAtQuantile(0.90) / 1e6,
                hist->ValueAtQuantile(0.99) / 1e6,
                hist->ValueAtQuantile(0.999) / 1e6);
    std::printf("  rows out: %llu   result cache: %llu hit(s) / %llu "
                "miss(es)\n",
                static_cast<unsigned long long>(rows_out),
                static_cast<unsigned long long>(hits),
                static_cast<unsigned long long>(misses));
    std::printf("  shards: %llu scanned, %llu pruned, %llu covered   "
                "chunks: %llu fault(s), %llu cache hit(s)\n",
                static_cast<unsigned long long>(scanned),
                static_cast<unsigned long long>(pruned),
                static_cast<unsigned long long>(covered),
                static_cast<unsigned long long>(faults),
                static_cast<unsigned long long>(chunk_hits));
    for (const auto& kv : by_table) {
      std::printf("  table %-20s %llu quer%s\n", kv.first.c_str(),
                  static_cast<unsigned long long>(kv.second),
                  kv.second == 1 ? "y" : "ies");
    }
    if (once) break;
    prev_total = total;
    first = false;
    std::fflush(stdout);
    std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
  }
  return 0;
}

/// `geocol heat <table_dir>`: shard- and chunk-level access heat
/// aggregated from the recorded workload — which shards answer queries
/// (and how often the covered shortcut fires) and which column chunks
/// fault versus ride the chunk cache.
int CmdHeat(const Args& args) {
  if (args.positional.empty()) return Usage();
  auto events =
      telemetry::ReadFlightLogWithRotation(FlightLogPath(args.positional[0]));
  if (!events.ok()) return Fail(events.status());
  const size_t top_n = std::max<uint64_t>(1, args.U64("--top", 20));

  struct ShardAgg { uint64_t scans = 0, covered = 0, rows = 0; };
  struct ChunkAgg { uint64_t touches = 0, faults = 0; };
  std::map<std::pair<std::string, uint32_t>, ShardAgg> shards;
  std::map<std::pair<std::string, uint32_t>, ChunkAgg> chunks;
  for (const auto& ev : *events) {
    for (const auto& t : ev.shard_heat) {
      ShardAgg& a = shards[{ev.table, t.shard}];
      a.scans += t.scans;
      a.covered += t.covered;
      a.rows += t.rows;
    }
    for (const auto& t : ev.chunk_heat) {
      ChunkAgg& a = chunks[{t.file, t.chunk}];
      a.touches += t.touches;
      a.faults += t.faults;
    }
  }

  std::printf("flight log: %zu event(s)\n", events->size());
  std::vector<std::pair<std::pair<std::string, uint32_t>, ShardAgg>> sv(
      shards.begin(), shards.end());
  std::sort(sv.begin(), sv.end(), [](const auto& a, const auto& b) {
    return a.second.scans > b.second.scans;
  });
  std::printf("shard heat (top %zu of %zu by scans):\n",
              std::min(top_n, sv.size()), sv.size());
  for (size_t i = 0; i < sv.size() && i < top_n; ++i) {
    std::printf("  %-20s shard %4u  %8llu scan(s)  %8llu covered  %10llu "
                "row(s)\n",
                sv[i].first.first.c_str(), sv[i].first.second,
                static_cast<unsigned long long>(sv[i].second.scans),
                static_cast<unsigned long long>(sv[i].second.covered),
                static_cast<unsigned long long>(sv[i].second.rows));
  }
  std::vector<std::pair<std::pair<std::string, uint32_t>, ChunkAgg>> cv(
      chunks.begin(), chunks.end());
  std::sort(cv.begin(), cv.end(), [](const auto& a, const auto& b) {
    return a.second.touches > b.second.touches;
  });
  std::printf("chunk heat (top %zu of %zu by touches):\n",
              std::min(top_n, cv.size()), cv.size());
  for (size_t i = 0; i < cv.size() && i < top_n; ++i) {
    std::printf("  %-40s chunk %4u  %8llu touch(es)  %6llu fault(s)\n",
                cv[i].first.first.c_str(), cv[i].first.second,
                static_cast<unsigned long long>(cv[i].second.touches),
                static_cast<unsigned long long>(cv[i].second.faults));
  }
  return 0;
}

/// `geocol replay <table_dir>`: deterministically re-executes the
/// recorded workload against the current engine state and diffs each
/// result bit-for-bit against the recorded CRC32C digest. Events that
/// failed when recorded or whose digest is not replayable (EXPLAIN
/// ANALYZE) are skipped. Exit 1 on any digest/row-count mismatch. --json
/// writes bench_report.py-compatible rows with recorded vs replay
/// latency, so `bench_report.py --compare` quantifies the drift.
int CmdReplay(const Args& args) {
  if (args.positional.empty()) return Usage();
  Catalog catalog;
  if (Status st = SetupCatalog(args, &catalog, /*open_flight=*/false);
      !st.ok()) {
    return Fail(st);
  }
  auto events =
      telemetry::ReadFlightLogWithRotation(FlightLogPath(args.positional[0]));
  if (!events.ok()) return Fail(events.status());

  sql::SessionOptions opts = sql::SessionOptions::FromEnv();
  opts.record_flight = false;  // a replay must not observe itself
  sql::Session session(&catalog, opts);

  uint64_t replayed = 0, skipped = 0, diffs = 0;
  std::string json = "[";
  for (const auto& ev : *events) {
    if (!ev.ok || !ev.digest_valid) {
      ++skipped;
      continue;
    }
    Timer t;
    auto rs = session.Execute(ev.query);
    const double replay_ms = t.ElapsedMillis();
    const double recorded_ms = ev.wall_nanos / 1e6;
    const char* verdict;
    if (!rs.ok()) {
      verdict = "FAIL";
      ++diffs;
    } else if (sql::ResultSetDigest(*rs) != ev.result_digest ||
               rs->rows.size() != ev.rows_out) {
      verdict = "DIFF";
      ++diffs;
    } else {
      verdict = "OK";
    }
    ++replayed;
    std::printf("  %-4s %9.3f ms (recorded %9.3f ms)  %s\n", verdict,
                replay_ms, recorded_ms, ev.query.c_str());
    if (json.size() > 1) json += ",";
    json += "\n  {\"bench\": \"REPLAY\", \"config\": {\"source\": \"geocol "
            "replay\"}, \"metrics\": {\"query\": " +
            JsonQuote(ev.query) + ", \"verdict\": \"" + verdict + "\"";
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  ", \"recorded ms\": %.3f, \"replay ms\": %.3f, "
                  "\"rows\": %llu}}",
                  recorded_ms, replay_ms,
                  static_cast<unsigned long long>(ev.rows_out));
    json += buf;
  }
  json += "\n]\n";
  std::printf("replayed %llu quer%s (%llu skipped), %llu diff(s)\n",
              static_cast<unsigned long long>(replayed),
              replayed == 1 ? "y" : "ies",
              static_cast<unsigned long long>(skipped),
              static_cast<unsigned long long>(diffs));

  const std::string json_path = args.Value("--json", "");
  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) return Fail(Status::IOError("cannot open " + json_path));
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    std::printf("latency comparison written to %s\n", json_path.c_str());
  }
  return diffs > 0 ? 1 : 0;
}

int CmdRaster(const Args& args) {
  if (args.positional.size() < 2) return Usage();
  auto table = OpenTable(args.positional[0]);
  if (!table.ok()) return Fail(table.status());
  uint32_t cols = static_cast<uint32_t>(args.U64("--cols", 512));
  ColumnPtr xc = table->column("x"), yc = table->column("y");
  if (xc == nullptr || yc == nullptr) {
    return Fail(Status::InvalidArgument("table lacks x/y columns"));
  }
  Box extent(xc->Stats().min, yc->Stats().min, xc->Stats().max,
             yc->Stats().max);
  uint32_t rows = std::max<uint32_t>(
      1, static_cast<uint32_t>(cols * extent.height() /
                               std::max(extent.width(), 1e-9)));
  auto raster = RasterizeRows(*table, {}, "z", extent, cols, rows);
  if (!raster.ok()) return Fail(raster.status());
  FillRasterVoids(&*raster);
  // Grayscale PPM of the DSM.
  float mn = 1e30f, mx = -1e30f;
  for (size_t i = 0; i < raster->values.size(); ++i) {
    if (raster->counts[i] == 0) continue;
    mn = std::min(mn, raster->values[i]);
    mx = std::max(mx, raster->values[i]);
  }
  if (mx <= mn) mx = mn + 1;
  std::FILE* f = std::fopen(args.positional[1].c_str(), "wb");
  if (f == nullptr) return Fail(Status::IOError("cannot open output"));
  std::fprintf(f, "P6\n%u %u\n255\n", raster->cols, raster->rows);
  for (uint32_t ry = raster->rows; ry-- > 0;) {
    for (uint32_t cx = 0; cx < raster->cols; ++cx) {
      float v = (raster->At(cx, ry) - mn) / (mx - mn);
      uint8_t g = static_cast<uint8_t>(v * 255);
      std::fputc(g, f);
      std::fputc(g, f);
      std::fputc(g, f);
    }
  }
  std::fclose(f);
  std::printf("DSM raster (%ux%u, z in [%.2f, %.2f]) written to %s\n",
              raster->cols, raster->rows, mn, mx, args.positional[1].c_str());
  return 0;
}

volatile std::sig_atomic_t g_serve_stop = 0;
void HandleServeSignal(int) { g_serve_stop = 1; }

/// `geocol serve <table_dir>`: the multi-tenant query server (DESIGN.md
/// §16). Binds, prints the resolved port, then blocks until SIGINT or
/// SIGTERM triggers a graceful drain (every admitted query completes and
/// its response is written before exit).
int CmdServe(const Args& args) {
  if (args.positional.empty()) return Usage();
  Catalog catalog;
  if (Status st = SetupCatalog(args, &catalog); !st.ok()) return Fail(st);
  // Bind the shared result cache once, before any query runs — worker
  // sessions never rebind (cache_budget_bytes is forced to -1), so this
  // is the only budget the serving process uses. All tenants share it:
  // a viewport one client computed is a hit for every other client.
  const uint64_t cache_mb = args.U64("--cache-mb", 64);
  if (cache_mb > 0) {
    for (const std::string& name : catalog.PointCloudNames()) {
      if (auto engine = catalog.GetEngine(name); engine.ok()) {
        (*engine)->set_cache_budget(cache_mb * 1024 * 1024);
      }
    }
  }
  server::ServerOptions opts;
  opts.host = args.Value("--host", "127.0.0.1");
  opts.port = static_cast<int>(args.U64("--port", 0));
  opts.workers = static_cast<int>(args.U64("--workers", 2));
  opts.queue_capacity = args.U64("--queue", 128);
  opts.rate_limit_qps = args.F64("--rate-qps", 0);
  opts.rate_limit_burst = args.F64("--rate-burst", 8);
  opts.shared_scan_batching = !args.Has("--no-batch");
  server::Server srv(&catalog, opts);
  if (Status st = srv.Start(); !st.ok()) return Fail(st);
  std::printf("geocol serve: listening on %s:%d (%d workers, queue %llu%s)\n",
              opts.host.c_str(), srv.port(), opts.workers,
              static_cast<unsigned long long>(opts.queue_capacity),
              opts.shared_scan_batching ? ", shared-scan batching" : "");
  std::fflush(stdout);
  std::signal(SIGINT, HandleServeSignal);
  std::signal(SIGTERM, HandleServeSignal);
  while (g_serve_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  srv.Stop();
  server::ServerStats s = srv.stats();
  std::printf(
      "geocol serve: stopped (conns %llu, ok %llu, errors %llu, busy %llu, "
      "rate-limited %llu, batches %llu covering %llu queries)\n",
      static_cast<unsigned long long>(s.connections_total),
      static_cast<unsigned long long>(s.queries_ok),
      static_cast<unsigned long long>(s.queries_error),
      static_cast<unsigned long long>(s.shed_busy),
      static_cast<unsigned long long>(s.shed_rate_limited),
      static_cast<unsigned long long>(s.batches),
      static_cast<unsigned long long>(s.batch_members));
  cache::CacheStats cs = cache::QueryResultCache::Global().Stats();
  std::printf("geocol serve: result cache %llu hit(s) / %llu miss(es), "
              "%.1f MB used\n",
              static_cast<unsigned long long>(cs.TotalHits()),
              static_cast<unsigned long long>(cs.TotalMisses()),
              cs.bytes_used / 1048576.0);
  telemetry::MaybePrintSummary(stderr);
  return 0;
}

/// Seeded viewport workload for `geocol client --sweep` and the CI smoke:
/// random sub-boxes of the table extent across aggregate / projection /
/// thematic shapes, plus a periodic planner error to exercise the typed
/// error path.
std::vector<std::string> SweepStatements(const std::string& table,
                                         const Box& extent, double z_mid,
                                         size_t n, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> fx(extent.min_x, extent.max_x);
  std::uniform_real_distribution<double> fy(extent.min_y, extent.max_y);
  std::vector<std::string> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    double x0 = fx(rng), x1 = fx(rng), y0 = fy(rng), y1 = fy(rng);
    if (x0 > x1) std::swap(x0, x1);
    if (y0 > y1) std::swap(y0, y1);
    char where[256];
    std::snprintf(where, sizeof(where),
                  "x BETWEEN %.17g AND %.17g AND y BETWEEN %.17g AND %.17g",
                  x0, x1, y0, y1);
    std::string stmt;
    switch (i % 7) {
      case 0:
        stmt = "SELECT COUNT(*) FROM " + table + " WHERE " + where;
        break;
      case 1:
        stmt = "SELECT AVG(z) FROM " + table + " WHERE " + where;
        break;
      case 2:
        stmt = "SELECT MIN(z), MAX(z) FROM " + table + " WHERE " + where;
        break;
      case 3:
        stmt = "SELECT x, y, z FROM " + table + " WHERE " + where +
               " LIMIT 64";
        break;
      case 4: {
        char zbuf[64];
        std::snprintf(zbuf, sizeof(zbuf), " AND z >= %.17g", z_mid);
        stmt = "SELECT COUNT(*) FROM " + table + " WHERE " + where + zbuf;
        break;
      }
      case 5:
        stmt = "SELECT COUNT(*), AVG(z) FROM " + table + " WHERE " + where;
        break;
      default:
        // A planning error: refused identically by server and oracle.
        stmt = "SELECT no_such_column FROM " + table + " WHERE " + where;
        break;
    }
    out.push_back(std::move(stmt));
  }
  return out;
}

/// `geocol client`: scripting client for a running `geocol serve`.
/// Without --oracle it runs the positional statements (or a bare PING)
/// and prints results. With --oracle <table_dir> every statement — the
/// positionals, or --sweep N seeded viewport queries — also runs on a
/// local single-threaded sql::Session over the same table, and result
/// digests / error statuses are diffed bitwise; any difference exits 1.
int CmdClient(const Args& args) {
  server::Client::Options copts;
  copts.host = args.Value("--host", "127.0.0.1");
  copts.port = static_cast<int>(args.U64("--port", 0));
  copts.client_id = args.Value("--id", "");
  copts.connect_retry_ms = static_cast<int>(args.U64("--retry-ms", 0));
  if (copts.port == 0) {
    return Fail(Status::InvalidArgument("client: --port is required"));
  }
  auto client = server::Client::Connect(copts);
  if (!client.ok()) return Fail(client.status());

  const std::string oracle_dir = args.Value("--oracle", "");
  if (oracle_dir.empty()) {
    if (args.positional.empty()) {
      if (Status st = client->Ping(); !st.ok()) return Fail(st);
      std::printf("pong\n");
      return 0;
    }
    int rc = 0;
    for (const auto& stmt : args.positional) {
      auto outcome = client->Query(stmt);
      if (!outcome.ok()) return Fail(outcome.status());
      if (outcome->ok) {
        std::printf("%s", outcome->result.ToString(50).c_str());
      } else {
        std::fprintf(stderr, "error [%s]: %s\n",
                     server::ErrorCodeName(outcome->error.code),
                     outcome->error.ToStatus().ToString().c_str());
        rc = 1;
      }
    }
    return rc;
  }

  // Differential mode: a local session over the same table is the oracle.
  Args oargs;
  oargs.positional.push_back(oracle_dir);
  oargs.flags = args.flags;
  Catalog oracle;
  if (Status st = SetupCatalog(oargs, &oracle, /*open_flight=*/false);
      !st.ok()) {
    return Fail(st);
  }
  sql::Session session(&oracle);
  std::vector<std::string> statements(args.positional.begin(),
                                      args.positional.end());
  const size_t sweep = args.U64("--sweep", 0);
  if (sweep > 0) {
    std::string table = !oracle.PointCloudNames().empty()
                            ? oracle.PointCloudNames()[0]
                            : oracle.ShardedPointCloudNames()[0];
    auto ext = session.Execute(
        "SELECT MIN(x), MAX(x), MIN(y), MAX(y), MIN(z), MAX(z) FROM " +
        table);
    if (!ext.ok()) return Fail(ext.status());
    if (ext->rows.empty() ||
        ext->rows[0][0].kind != sql::Value::Kind::kNumber) {
      return Fail(Status::InvalidArgument("oracle table is empty"));
    }
    Box extent(ext->rows[0][0].number, ext->rows[0][2].number,
               ext->rows[0][1].number, ext->rows[0][3].number);
    double z_mid = (ext->rows[0][4].number + ext->rows[0][5].number) / 2;
    auto generated = SweepStatements(table, extent, z_mid, sweep,
                                     args.U64("--seed", 1));
    statements.insert(statements.end(), generated.begin(), generated.end());
  }
  size_t diffs = 0;
  for (const auto& stmt : statements) {
    auto outcome = client->Query(stmt);
    if (!outcome.ok()) return Fail(outcome.status());
    auto local = session.Execute(stmt);
    std::string mismatch;
    if (outcome->ok && local.ok()) {
      uint32_t remote_digest = sql::ResultSetDigest(outcome->result);
      uint32_t local_digest = sql::ResultSetDigest(*local);
      if (remote_digest != local_digest) {
        mismatch = "digest " + std::to_string(remote_digest) + " != " +
                   std::to_string(local_digest);
      }
    } else if (!outcome->ok && !local.ok()) {
      Status remote = outcome->error.ToStatus();
      if (remote.ToString() != local.status().ToString()) {
        mismatch =
            "error '" + remote.ToString() + "' != '" +
            local.status().ToString() + "'";
      }
    } else {
      mismatch = outcome->ok ? "server ok, oracle failed: " +
                                   local.status().ToString()
                             : "oracle ok, server failed: " +
                                   outcome->error.ToStatus().ToString();
    }
    if (!mismatch.empty()) {
      ++diffs;
      std::fprintf(stderr, "DIFF %s\n  %s\n", stmt.c_str(),
                   mismatch.c_str());
    }
  }
  std::printf("client: %zu statements, %zu diffs vs oracle\n",
              statements.size(), diffs);
  return diffs > 0 ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  Args args;
  for (int i = 2; i < argc; ++i) {
    std::string a = argv[i];
    if (a.rfind("--", 0) == 0) {
      args.flags.push_back(a);
      // Flags with values consume the next token.
      if ((a == "--points" || a == "--layers" || a == "--cols" ||
           a == "--format" || a == "--out" ||
           a == "--budget-mb" || a == "--repeat" || a == "--shards" ||
           a == "--order" || a == "--chunk-mb" || a == "--interval-ms" ||
           a == "--export" || a == "--json" || a == "--top" ||
           a == "--port" || a == "--workers" || a == "--queue" ||
           a == "--rate-qps" || a == "--rate-burst" || a == "--host" ||
           a == "--cache-mb" ||
           a == "--oracle" || a == "--sweep" || a == "--seed" ||
           a == "--id" || a == "--retry-ms") &&
          i + 1 < argc) {
        args.flags.push_back(argv[++i]);
      }
    } else {
      args.positional.push_back(a);
    }
  }
  std::string cmd = argv[1];
  if (cmd == "generate") return CmdGenerate(args);
  if (cmd == "info") return CmdInfo(args);
  if (cmd == "sort") return CmdSort(args);
  if (cmd == "index") return CmdIndex(args);
  if (cmd == "load") return CmdLoad(args);
  if (cmd == "shard") return CmdShard(args);
  if (cmd == "ingest") return CmdIngest(args);
  if (cmd == "query") return CmdQuery(args);
  if (cmd == "raster") return CmdRaster(args);
  if (cmd == "verify") return CmdVerify(args);
  if (cmd == "metrics") return CmdMetrics(args);
  if (cmd == "trace") return CmdTrace(args);
  if (cmd == "cache") return CmdCache(args);
  if (cmd == "top") return CmdTop(args);
  if (cmd == "heat") return CmdHeat(args);
  if (cmd == "replay") return CmdReplay(args);
  if (cmd == "serve") return CmdServe(args);
  if (cmd == "client") return CmdClient(args);
  if (cmd == "simd") return CmdSimd(args);
  return Usage();
}
