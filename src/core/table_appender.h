// Staged, atomically published appends to a LiveTable (DESIGN.md §13).
//
// An appender accumulates rows (raw batches, LAS tiles, CSV files) in a
// private staging table and publishes everything staged as ONE new epoch,
// by the per-shard commit step ShardRouter::Append runs too (core/shard.h):
//   1. extend: ExtendTable(current, staging) extends every column by an
//      append-only version (Column::CloneAppend), in place in the shared
//      buffer when it has room — readers of pinned epochs see nothing;
//   2. persist: for a durable table, the new version is written with
//      WriteTableDir first — the manifest rename inside it is the commit
//      point, so a crash at any failpoint reopens as a complete old-or-new
//      epoch;
//   3. stitch and publish (LiveTable::Publish): the current shard's
//      successor extends the appended columns' imprints while the old
//      epoch is still alive, then the current-snapshot pointer swaps — the
//      single atomic epoch bump that makes the rows visible to new Pin()
//      calls.
// Commits of concurrent appenders on one table serialise; staging is not
// thread-safe (one appender per thread).
#ifndef GEOCOL_CORE_TABLE_APPENDER_H_
#define GEOCOL_CORE_TABLE_APPENDER_H_

#include <memory>
#include <string>

#include "core/live_table.h"
#include "util/status.h"

namespace geocol {

class TableAppender {
 public:
  explicit TableAppender(std::shared_ptr<LiveTable> table);

  /// Stages a column-major batch; its schema must equal the live table's.
  Status StageBatch(const FlatTable& batch);

  /// Stages a LAS/LAZ tile (the live-acquisition flight-strip path). The
  /// live table must use the LAS point schema.
  Status StageLasFile(const std::string& path);

  /// Stages a CSV file matching the live table's schema (with header).
  Status StageCsvFile(const std::string& path);

  uint64_t staged_rows() const { return staging_.num_rows(); }

  /// Publishes all staged rows as one new epoch; clears staging on
  /// success. On failure nothing is published and staging is kept, so the
  /// caller may retry. No-op when nothing is staged.
  Status Commit();

 private:
  std::shared_ptr<LiveTable> table_;
  FlatTable staging_;
};

}  // namespace geocol

#endif  // GEOCOL_CORE_TABLE_APPENDER_H_
