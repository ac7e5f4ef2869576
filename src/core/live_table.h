// Live ingestion under queries (DESIGN.md §13, ROADMAP item 4): a
// LiveTable is an epoch-versioned chain of immutable FlatTable snapshots.
//
//   - Readers call Pin() and get an EpochSnapshot: shared_ptr column
//     versions, the epoch's bbox, and a one-shard ShardsView whose shard
//     engine is bound to that exact version (core/shard.h). Everything a
//     query touches is owned by the snapshot, so a concurrent publish can
//     never mutate, free, or re-index under it.
//   - Writers stage batches through a TableAppender, whose commit is the
//     per-shard commit step a sharded append runs too (core/shard.h):
//     extend (ExtendTable), persist, stitch and publish (the current
//     shard's LocalShard::Successor, then a single atomic swap of the
//     current-snapshot pointer). Columns are append-only versions
//     (Column::CloneAppend): the new version is a NEW column that usually
//     shares the old version's buffer and writes only the tail past the
//     old end, which no reader of the old version reads; the old version
//     keeps its own row count and bytes until its last snapshot retires.
//     The swap under mu_ orders the tail writes before every reader of the
//     new epoch.
//   - Epoch 0's shard owns the ImprintManager and every successor shares
//     it, so imprints of untouched columns carry over for free and the
//     successor step extends appended columns' indexes from their lineage
//     bases before the swap retires them.
//   - The cache invalidates by construction: every published FlatTable has
//     a fresh process-unique table_id, which every selection key embeds.
//   - When backed by a directory, a publish is made durable by
//     WriteTableDir *before* the in-memory swap: the manifest rename is
//     the commit point, so a crash at any instant reopens as a complete
//     old-or-new epoch, never mixed data.
#ifndef GEOCOL_CORE_LIVE_TABLE_H_
#define GEOCOL_CORE_LIVE_TABLE_H_

#include <memory>
#include <mutex>
#include <string>

#include "columns/flat_table.h"
#include "core/shard.h"
#include "core/spatial_engine.h"
#include "geom/geometry.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace geocol {

/// An immutable view of one published epoch, pinned for the lifetime of
/// the holder. Copyable; copies share the underlying version.
struct EpochSnapshot {
  uint64_t epoch = 0;
  std::shared_ptr<FlatTable> table;  ///< this epoch's column versions
  /// The epoch as a one-shard view: statements execute against it.
  std::shared_ptr<const ShardsView> view;
  /// The view's shard engine, bound to `table` (shares the view's
  /// ownership).
  std::shared_ptr<SpatialQueryEngine> engine;
  Box bbox;  ///< x/y bounds of the epoch (empty box for an empty table)
};

struct LiveTableOptions {
  /// Engine knobs for snapshot engines. `num_threads` sizes the one pool
  /// all snapshot engines share; `imprints_dir` is applied to the shared
  /// imprint manager once, by epoch 0's engine.
  EngineOptions engine;
  /// Durable home of the table ("" = in-memory only: publishes are atomic
  /// but not crash-persistent).
  std::string dir;
  std::string x_column = "x";
  std::string y_column = "y";
};

/// The mutable handle: one current snapshot, swapped atomically by
/// appender commits. All members are safe to call concurrently.
class LiveTable {
 public:
  /// Wraps `initial` as epoch 0. When `options.dir` is set the initial
  /// version is persisted there first (so a crash right after Create
  /// reopens to the same state). `initial` must contain the configured
  /// x/y columns; it must not be mutated by the caller afterwards.
  static Result<std::shared_ptr<LiveTable>> Create(
      std::shared_ptr<FlatTable> initial, LiveTableOptions options = {});

  /// Reopens a directory previously written by Create/commits. Reads the
  /// manifest-current generation — after a crash mid-commit that is the
  /// last fully published epoch.
  static Result<std::shared_ptr<LiveTable>> Open(const std::string& dir,
                                                 LiveTableOptions options = {});

  /// Pins the current epoch. O(1): a mutex-protected shared_ptr copy.
  EpochSnapshot Pin() const;

  /// Epoch of the current snapshot (starts at 0, +1 per commit).
  uint64_t epoch() const;

  std::string name() const;
  const LiveTableOptions& options() const { return options_; }
  /// The imprint manager every epoch's shard shares (epoch 0's owns it).
  std::shared_ptr<ImprintManager> imprint_manager() const;

 private:
  friend class TableAppender;

  /// Wraps `initial` as epoch 0; its shard owns the imprint manager, with
  /// sidecars in `options.engine.imprints_dir`.
  LiveTable(LiveTableOptions options, std::shared_ptr<FlatTable> initial);

  /// Publishes `next` (the current table extended by ExtendTable, already
  /// durable when backed by a directory) as the next epoch: the current
  /// shard's successor, then the swap. Caller holds commit_mu_.
  void Publish(std::shared_ptr<FlatTable> next);

  /// `table` with its x/y bounds and the imprint sidecar dir, as the slice
  /// an epoch's shard is built over.
  ShardSlice Slice(std::shared_ptr<FlatTable> table) const;

  /// Makes `shard` (over `slice`) the current epoch.
  void Install(uint64_t epoch, const ShardSlice& slice,
               std::shared_ptr<LocalShard> shard);

  LiveTableOptions options_;
  std::unique_ptr<ThreadPool> pool_;  ///< shared by all epochs' engines
  mutable std::mutex mu_;  ///< guards current_
  std::shared_ptr<const EpochSnapshot> current_;
  std::mutex commit_mu_;  ///< serialises appender commits; guards shard_
  /// The current epoch's shard, typed for the successor step.
  std::shared_ptr<LocalShard> shard_;
};

}  // namespace geocol

#endif  // GEOCOL_CORE_LIVE_TABLE_H_
