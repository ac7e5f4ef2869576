// Hilbert-ordered spatial sharding of a flat table (DESIGN.md §12): a
// one-time ShardedTable::Create step sorts the rows by the Hilbert key of
// (x, y) and splits them into K contiguous shards, each holding its own
// columns and a tight bounding box. Shards are the pruning and scatter
// unit of the shard router — a viewport query skips every shard whose
// bbox misses its envelope before any imprint work happens — and the
// layout is what a future multi-process deployment would distribute.
//
// Global row ids: shard i covers global rows [base, base + rows) in
// Hilbert-sorted order, so concatenating per-shard results in shard order
// reproduces exactly the row ids a single engine over the sorted flat
// table would return.
#ifndef GEOCOL_COLUMNS_SHARDED_TABLE_H_
#define GEOCOL_COLUMNS_SHARDED_TABLE_H_

#include <memory>
#include <string>
#include <vector>

#include "columns/flat_table.h"
#include "geom/geometry.h"
#include "util/status.h"

namespace geocol {

/// Knobs of the one-time sharding step.
struct ShardingOptions {
  /// Requested shard count; clamped to [1, max(1, num_rows)].
  uint32_t num_shards = 16;
  /// Hilbert curve order for the sort key (2^order cells per axis).
  uint32_t hilbert_order = 16;
  std::string x_column = "x";
  std::string y_column = "y";
};

/// One contiguous run of Hilbert-sorted rows with its own columns.
struct ShardSlice {
  std::shared_ptr<FlatTable> table;
  /// Tight bounds of the shard's points (empty for a rowless shard).
  Box bbox;
  /// Global row id of the shard's first row.
  uint64_t base = 0;
  /// Directory holding the shard's persisted columns; "" when in-memory
  /// only. Imprint sidecars of a sharded engine live here too.
  std::string dir;
};

/// An immutable Hilbert-sharded layout of one logical table. Built once by
/// Create (or loaded by ReadShardedTableDir); queries go through the shard
/// router. Mutating a shard's columns afterwards bumps their epochs, which
/// the shard engines' cache keys observe.
class ShardedTable {
 public:
  /// Sorts `source` rows by Hilbert key of (x, y) scaled to the source
  /// extent — ties keep their original order, so the layout is fully
  /// deterministic — and gathers them into K contiguous shards of
  /// near-equal size (the first rows % K shards hold one extra row).
  /// Degenerate inputs are clamped: a zero-extent table (all points
  /// equal) keeps its original order, K > rows builds one shard per row,
  /// and an empty table builds a single empty shard. Keys, sort, gather
  /// and bboxes run on one thread per core; the layout does not depend on
  /// the thread count or scheduling.
  static Result<std::shared_ptr<ShardedTable>> Create(
      const FlatTable& source, const ShardingOptions& options = {});

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  const ShardingOptions& options() const { return options_; }
  const std::string& x_column() const { return options_.x_column; }
  const std::string& y_column() const { return options_.y_column; }

  size_t num_shards() const { return shards_.size(); }
  const ShardSlice& shard(size_t i) const { return shards_[i]; }
  std::vector<ShardSlice>& shards() { return shards_; }

  uint64_t num_rows() const { return num_rows_; }
  /// The shared schema of every shard.
  Schema schema() const;
  /// Extent the Hilbert keys were scaled to (the source table's bounds).
  const Box& extent() const { return extent_; }

  /// Incremented by every successful WriteShardedTableDir; 0 for a layout
  /// that has never been persisted.
  uint64_t generation() const { return generation_; }
  void set_generation(uint64_t g) { generation_ = g; }

  /// Live-append hook: restamps the total row count after ShardRouter::
  /// Append replaces shard slices in place (slice tables, bboxes and base
  /// offsets are updated by the same caller, under its view lock).
  void set_num_rows(uint64_t n) { num_rows_ = n; }

  /// Index of the shard containing `global_row` (rows are contiguous in
  /// shard order). Precondition: global_row < num_rows().
  size_t ShardIndexOf(uint64_t global_row) const;

  /// Loader hook: stamps the fields Create would have computed. Only
  /// ReadShardedTableDir calls this.
  void FinishLoad(const ShardingOptions& options, const Box& extent,
                  uint64_t num_rows);

 private:
  std::string name_;
  ShardingOptions options_;
  std::vector<ShardSlice> shards_;
  uint64_t num_rows_ = 0;
  Box extent_;
  uint64_t generation_ = 0;
};

/// True when `dir` holds a sharded table (a `shards.gsm` manifest).
bool IsShardedTableDir(const std::string& dir);

/// Name of shard `i`'s subdirectory in a generation-`gen` persisted layout
/// ("shard_NNNN.g<gen>"). Live appends write replacement shard tables into
/// next-generation names before swapping the manifest, mirroring what a
/// full WriteShardedTableDir would do.
std::string ShardDirName(size_t i, uint64_t gen);

/// Persists the layout crash-safely: each shard goes to
/// `<dir>/shard_NNNN.g<gen>` (generation-suffixed, so a re-shard — even
/// with a different K — never touches the directories the live manifest
/// references) through the generation-stamped WriteTableDir protocol (the
/// shards in parallel, one thread per core), and the `<dir>/shards.gsm`
/// manifest ("GSM1" magic, CRC32C footer) is swapped in atomically LAST,
/// once every shard is written, as the commit point — a crash at any
/// injected failure point leaves the previous manifest (or none) and its
/// generation fully readable, never mixed shards.
Status WriteShardedTableDir(const ShardedTable& table, const std::string& dir);

/// Loads a layout persisted by WriteShardedTableDir. With `paged` every
/// shard opens through ReadTableDirPaged — chunk directories only, rows
/// fault on demand — so a sharded table bigger than RAM still routes and
/// scans; bbox pruning then translates into whole shards never faulted.
Result<std::shared_ptr<ShardedTable>> ReadShardedTableDir(
    const std::string& dir, bool verify_checksums = true, bool paged = false);

/// The parsed `<dir>/shards.gsm` manifest, exposed for `geocol verify`.
struct ShardedTableManifest {
  std::string table_name;
  std::string x_column;
  std::string y_column;
  uint64_t generation = 0;
  uint32_t hilbert_order = 16;
  Box extent;
  struct ManifestShard {
    std::string dirname;  ///< subdirectory within the sharded table dir
    uint64_t rows = 0;
    Box bbox;
  };
  std::vector<ManifestShard> shards;
};

Status WriteShardedTableManifest(const std::string& dir,
                                 const ShardedTableManifest& m);
Result<ShardedTableManifest> ReadShardedTableManifest(const std::string& dir);

/// Removes every `shard_NNNN.g<gen>` directory in `dir` that `keep` does
/// not name: the generations an append or a re-shard superseded, and what
/// a crash between a manifest swap and this sweep left behind. Call it only
/// after `keep` is committed. Best effort — failures are ignored. The
/// sharded twin of CleanStaleTableFiles.
void CleanStaleShardDirs(const std::string& dir,
                         const ShardedTableManifest& keep);

}  // namespace geocol

#endif  // GEOCOL_COLUMNS_SHARDED_TABLE_H_
