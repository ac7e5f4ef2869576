// The paper's binary bulk loader (§3.2): "The loader takes as input a
// LAS/LAZ file and for each property it generates a new file that is the
// binary dump of a C-array containing the values of the property for all
// points. Then, the generated files are appended to each column of the
// flat table using the bulk loading operator COPY BINARY."
//
// A directory load runs in two phases on one pool of hardware-concurrency
// threads (DESIGN.md §7):
//   1. convert, parallel over tiles: each tile streams block by block
//      into its 26 scratch dumps;
//   2. COPY BINARY, parallel over (column, tile): every column grows once
//      to the total row count and each dump is read straight into its
//      rows. Rows keep file order, so the table is byte-identical to a
//      serial load.
// The scratch dumps are transient and not durable: no fsync, no rename.
// A crashed load restarts from the tiles; the table becomes durable only
// when the caller persists it (WriteTableDir).
#ifndef GEOCOL_LOADER_BINARY_LOADER_H_
#define GEOCOL_LOADER_BINARY_LOADER_H_

#include <memory>
#include <string>
#include <vector>

#include "columns/flat_table.h"
#include "las/las_format.h"
#include "util/status.h"

namespace geocol {

/// Accounting of one load run (drives E1). The phase times are summed over
/// the threads that ran them, so with the parallel binary loader they add
/// up to more than the elapsed `wall_seconds`.
struct LoadStats {
  uint64_t files = 0;
  uint64_t points = 0;
  double read_seconds = 0.0;     ///< tile read + LAZ decompression
  double convert_seconds = 0.0;  ///< record -> per-attribute arrays / CSV
  double append_seconds = 0.0;   ///< COPY BINARY / CSV parse into columns
  double wall_seconds = 0.0;     ///< elapsed time of the load
  uint64_t bytes_read = 0;

  double TotalSeconds() const { return wall_seconds; }
  double PointsPerSecond() const {
    double t = TotalSeconds();
    return t > 0 ? points / t : 0.0;
  }
};

/// Records a conversion step reads, gathers and writes at once: one block
/// is the transient memory of a phase-1 worker, whatever the tile size.
constexpr size_t kLoadBlockRecords = 16384;

/// The 26 scratch dumps of one tile, in schema order.
struct TileDumps {
  std::vector<std::string> paths;
  uint64_t rows = 0;
};

/// Binary bulk loader for LAS/LAZ tile directories.
class BinaryLoader {
 public:
  /// `scratch_dir` receives the intermediate per-attribute binary dumps;
  /// it must exist. Every dump is removed before LoadDirectory returns.
  explicit BinaryLoader(std::string scratch_dir)
      : scratch_dir_(std::move(scratch_dir)) {}

  /// Loads every .las/.laz file under `dir` into a fresh flat table with
  /// the LAS point schema, rows in file order.
  Result<std::shared_ptr<FlatTable>> LoadDirectory(const std::string& dir,
                                                   LoadStats* stats = nullptr);

  /// Step 1 of the pipeline: streams a tile file into one raw binary dump
  /// per attribute under the scratch dir, named `<prefix>.<column>.bin`.
  /// On failure the dumps written so far are removed.
  Result<TileDumps> ConvertToDumps(const std::string& las_path,
                                   const std::string& prefix,
                                   LoadStats* stats = nullptr);

 private:
  std::string scratch_dir_;
};

}  // namespace geocol

#endif  // GEOCOL_LOADER_BINARY_LOADER_H_
