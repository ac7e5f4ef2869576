#include "loader/binary_loader.h"

#include <algorithm>
#include <cstdio>
#include <thread>

#include "columns/column_file.h"
#include "las/las_reader.h"
#include "util/binary_io.h"
#include "util/tempdir.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace geocol {

namespace {
/// Scratch dumps are transient: plain unlink, outside the fault injector,
/// so cleanup also runs after an injected crash.
void RemoveDumps(const std::vector<std::string>& paths) {
  for (const std::string& p : paths) std::remove(p.c_str());
}

/// Phase 1 for one opened tile: every block's attributes are appended to
/// their dumps.
Status StreamTile(LasTileReader* reader, std::vector<BinaryWriter>* writers,
                  uint64_t* rows, LoadStats* stats) {
  const std::vector<Field>& fields = LasPointFields();
  std::vector<uint8_t> values(kLoadBlockRecords * sizeof(double));  // widest
  Timer t;
  while (true) {
    t.Restart();
    GEOCOL_ASSIGN_OR_RETURN(std::span<const LasPointRecord> block,
                            reader->NextBlock(kLoadBlockRecords));
    stats->read_seconds += t.ElapsedSeconds();
    if (block.empty()) return Status::OK();
    t.Restart();
    for (size_t c = 0; c < fields.size(); ++c) {
      GatherAttribute(reader->header(), block, c, values.data());
      GEOCOL_RETURN_NOT_OK((*writers)[c].WriteBytes(
          values.data(), block.size() * DataTypeSize(fields[c].type)));
    }
    stats->convert_seconds += t.ElapsedSeconds();
    *rows += block.size();
  }
}
}  // namespace

Result<TileDumps> BinaryLoader::ConvertToDumps(const std::string& las_path,
                                               const std::string& prefix,
                                               LoadStats* stats) {
  LoadStats local;
  Timer t;
  LasTileReader reader;
  GEOCOL_RETURN_NOT_OK(reader.Open(las_path));
  local.read_seconds = t.ElapsedSeconds();

  const std::vector<Field>& fields = LasPointFields();
  TileDumps dumps;
  std::vector<BinaryWriter> writers(fields.size());
  Status st;
  for (size_t c = 0; c < fields.size() && st.ok(); ++c) {
    dumps.paths.push_back(scratch_dir_ + "/" + prefix + "." + fields[c].name +
                          ".bin");
    st = writers[c].Open(dumps.paths.back());
  }
  if (st.ok()) st = StreamTile(&reader, &writers, &dumps.rows, &local);
  for (BinaryWriter& w : writers) {
    if (!w.is_open()) continue;
    Status closed = w.Close();
    if (st.ok()) st = closed;
  }
  if (!st.ok()) {
    RemoveDumps(dumps.paths);
    return st;
  }
  if (stats != nullptr) {
    GEOCOL_ASSIGN_OR_RETURN(uint64_t size, FileSizeBytes(las_path));
    stats->files += 1;
    stats->points += dumps.rows;
    stats->bytes_read += size;
    stats->read_seconds += local.read_seconds;
    stats->convert_seconds += local.convert_seconds;
  }
  return dumps;
}

Result<std::shared_ptr<FlatTable>> BinaryLoader::LoadDirectory(
    const std::string& dir, LoadStats* stats) {
  Timer wall;
  std::vector<std::string> files;
  GEOCOL_RETURN_NOT_OK(ListFiles(dir, ".las", &files));
  GEOCOL_RETURN_NOT_OK(ListFiles(dir, ".laz", &files));
  if (files.empty()) {
    return Status::NotFound("no .las/.laz files under " + dir);
  }
  const size_t n = files.size();
  // The caller joins every ParallelFor, so hw - 1 workers make hw threads.
  ThreadPool pool(std::max(2u, std::thread::hardware_concurrency()) - 1);

  // Phase 1: convert, parallel over tiles. Each task owns its slots.
  std::vector<TileDumps> dumps(n);
  std::vector<LoadStats> tile_stats(n);
  std::vector<Status> status(n);
  pool.ParallelFor(n, [&](size_t i) {
    size_t slash = files[i].find_last_of('/');
    Result<TileDumps> res = ConvertToDumps(files[i], files[i].substr(slash + 1),
                                           &tile_stats[i]);
    if (res.ok()) {
      dumps[i] = std::move(*res);
    } else {
      status[i] = res.status();
    }
  });
  auto remove_all = [&] {
    for (const TileDumps& d : dumps) RemoveDumps(d.paths);
  };
  for (const Status& st : status) {
    if (!st.ok()) {
      remove_all();
      return st;
    }
  }

  // Phase 2: COPY BINARY, parallel over (column, tile). Tile i's rows
  // start at first_row[i] in every column.
  std::vector<uint64_t> first_row(n + 1, 0);
  for (size_t i = 0; i < n; ++i) first_row[i + 1] = first_row[i] + dumps[i].rows;
  auto table = std::make_shared<FlatTable>("ahn2", LasPointSchema());
  const size_t cols = table->num_columns();
  std::vector<uint8_t*> base(cols);
  for (size_t c = 0; c < cols; ++c) {
    base[c] = table->column(c)->AppendUninitialized(first_row[n]);
  }
  std::vector<Status> copied(cols * n);
  std::vector<double> copy_seconds(cols * n);
  pool.ParallelFor(cols * n, [&](size_t k) {
    Timer t;
    const size_t c = k / n;
    const size_t i = k % n;
    const size_t width = table->column(c)->width();
    copied[k] = ReadRawDump(dumps[i].paths[c], base[c] + first_row[i] * width,
                            dumps[i].rows * width);
    copy_seconds[k] = t.ElapsedSeconds();
  });
  remove_all();
  for (const Status& st : copied) GEOCOL_RETURN_NOT_OK(st);
  GEOCOL_RETURN_NOT_OK(table->Validate());

  if (stats != nullptr) {
    for (const LoadStats& s : tile_stats) {
      stats->files += s.files;
      stats->points += s.points;
      stats->bytes_read += s.bytes_read;
      stats->read_seconds += s.read_seconds;
      stats->convert_seconds += s.convert_seconds;
    }
    for (double s : copy_seconds) stats->append_seconds += s;
    stats->wall_seconds += wall.ElapsedSeconds();
  }
  return table;
}

}  // namespace geocol
