#include "loader/csv_loader.h"

#include <cstdio>

#include "columns/csv.h"
#include "las/las_reader.h"
#include "util/binary_io.h"
#include "util/tempdir.h"
#include "util/timer.h"

namespace geocol {

Status CsvLoader::LoadFile(const std::string& path, FlatTable* table,
                           LoadStats* stats) {
  Timer wall;
  Timer t;
  // The read step streams the tile into a staging table, gather included.
  FlatTable staging("staging", LasPointSchema());
  GEOCOL_RETURN_NOT_OK(AppendLasFile(path, &staging));
  if (stats != nullptr) {
    stats->read_seconds += t.ElapsedSeconds();
    GEOCOL_ASSIGN_OR_RETURN(uint64_t sz, FileSizeBytes(path));
    stats->bytes_read += sz;
    stats->points += staging.num_rows();
    ++stats->files;
  }

  // Convert the tile to CSV text.
  t.Restart();
  size_t slash = path.find_last_of('/');
  std::string prefix = slash == std::string::npos ? path : path.substr(slash + 1);
  std::string csv_path = scratch_dir_ + "/" + prefix + ".csv";
  GEOCOL_RETURN_NOT_OK(WriteCsv(staging, csv_path));
  if (stats != nullptr) stats->convert_seconds += t.ElapsedSeconds();

  // Parse the CSV into the destination table.
  t.Restart();
  Status st = AppendCsv(csv_path, table);
  std::remove(csv_path.c_str());
  GEOCOL_RETURN_NOT_OK(st);
  if (stats != nullptr) {
    stats->append_seconds += t.ElapsedSeconds();
    stats->wall_seconds += wall.ElapsedSeconds();
  }
  return Status::OK();
}

Result<std::shared_ptr<FlatTable>> CsvLoader::LoadDirectory(
    const std::string& dir, LoadStats* stats) {
  std::vector<std::string> files;
  GEOCOL_RETURN_NOT_OK(ListFiles(dir, ".las", &files));
  GEOCOL_RETURN_NOT_OK(ListFiles(dir, ".laz", &files));
  if (files.empty()) {
    return Status::NotFound("no .las/.laz files under " + dir);
  }
  auto table = std::make_shared<FlatTable>("ahn2_csv", LasPointSchema());
  for (const std::string& f : files) {
    GEOCOL_RETURN_NOT_OK(LoadFile(f, table.get(), stats));
  }
  return table;
}

}  // namespace geocol
