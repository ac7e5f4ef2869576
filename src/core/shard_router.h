// The owner of a Hilbert-sharded table (DESIGN.md §12): builds one
// LocalShard per slice on a shared morsel pool and publishes the pinned
// ShardsView queries run against. A query first prunes shards whose bbox
// misses its query window (the geometry envelope ∩ any x/y ranges,
// MakeQueryWindow) — before any imprint work — then scatters filter+refine
// across the surviving shards, and merges the local results in shard order
// (ShardsView::Select). Because shards are contiguous runs of the
// Hilbert-sorted row space and every shard computes its exact local
// answer, the merged global row ids (and any aggregate over them) are
// bit-identical to a single engine over the sorted flat table, at every
// thread count and SIMD level; at K = 1 the filter/refine stats match
// verbatim too (for K > 1 they are the deterministic field-wise sum of
// the per-shard stats — per-shard imprints cover different cacheline
// populations than one whole-table imprint, so the unsharded counters
// are not reproducible, only the answers are).
//
// Covered shards (bbox-as-zonemap): a box query (or a BETWEEN viewport)
// with no ranges on other columns whose coverage box fully contains a
// shard's bbox selects every one of its rows by construction,
// so the router emits the shard's id range directly into the merged
// result without touching a column. Row ids stay bit-identical; such a
// shard contributes zero filter/refine stats (nothing was scanned), so
// the K = 1 verbatim-stats property applies to queries that intersect
// but do not cover the single shard.
//
// Live appends (DESIGN.md §13): Append routes a batch to its shards by
// Hilbert start keys and runs, per affected shard, the commit step a live
// table's appender runs too (core/shard.h): ExtendTable over the routed
// rows, then — after the commit point — the shard's Successor, which
// stitches the appended columns' imprints before the old shard can
// retire. The successors swap in under the view lock. Readers pin a
// ShardsView — an immutable (shards, bases) snapshot — per query or per
// SQL statement, so a concurrent append can never shift global row ids
// or replace a table version under them. For a persisted layout the
// replacement shard tables are written into next-generation directories
// and the shards.gsm manifest is swapped BEFORE the in-memory publish:
// the swap is the crash-commit point, so reopen always sees a complete
// old-or-new layout.
#ifndef GEOCOL_CORE_SHARD_ROUTER_H_
#define GEOCOL_CORE_SHARD_ROUTER_H_

#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "columns/sharded_table.h"
#include "core/shard.h"
#include "core/spatial_engine.h"

namespace geocol {

/// Bbox-pruned scatter-gather query execution over one sharded table.
///
/// Thread-safety: concurrent queries against one router are safe, and —
/// unlike the flat engine — so are concurrent Append calls: queries
/// execute against a pinned ShardsView while appends publish replacement
/// shards under the view lock. Appends against one router serialise.
class ShardRouter {
 public:
  /// `options` configures every shard engine plus the router-level pool:
  /// num_threads sizes ONE pool shared by the scatter loop and all shard
  /// engines (nested morsel scheduling keeps it busy), and the cache
  /// binding applies to every shard engine.
  explicit ShardRouter(std::shared_ptr<ShardedTable> table,
                       EngineOptions options = {});

  const ShardedTable& table() const { return *table_; }
  const EngineOptions& options() const { return options_; }
  Schema schema() const;
  /// Shard count is fixed at construction; appends never change it.
  size_t num_shards() const { return start_keys_.size(); }

  /// Pins the current shard set: a shared handle to the published view,
  /// equal for every statement between two appends.
  std::shared_ptr<const ShardsView> Pin() const;

  /// A copy of the current view. O(K): copies the handle/base vectors.
  ShardsView View() const { return *Pin(); }

  /// Threads executing one query: pool workers + the calling thread.
  uint32_t num_effective_threads() const {
    return pool_ != nullptr ? static_cast<uint32_t>(pool_->num_threads()) + 1
                            : 1;
  }

  /// All points with (x, y) inside `box`, as global row ids.
  Result<SelectionResult> SelectInBox(const Box& box);

  /// All points contained in `geometry`.
  Result<SelectionResult> SelectInGeometry(const Geometry& geometry);

  /// General form: spatial predicate plus conjunctive thematic ranges,
  /// against a freshly pinned view.
  Result<SelectionResult> Select(const Geometry& geometry, double buffer,
                                 const std::vector<AttributeRange>& thematic);

  /// Aggregate of `column` over the selected points — bit-identical to
  /// the unsharded engine's Aggregate over the sorted flat table.
  Result<double> Aggregate(const Geometry& geometry, double buffer,
                           const std::vector<AttributeRange>& thematic,
                           const std::string& column, AggKind kind);

  /// Appends a batch (schema must equal the table's) as ONE atomic
  /// publish: rows are routed to shards by the Hilbert key of (x, y)
  /// scaled to the layout's fixed extent, each affected shard's table is
  /// extended copy-on-write (ExtendTable), and — for a layout loaded from
  /// disk — the new shard tables land in next-generation directories with
  /// the shards.gsm manifest swap as the crash-commit point. Then each
  /// affected shard's successor (stitched imprints, shared manager) is
  /// published. Readers holding a ShardsView are untouched; new View()
  /// calls see all rows or none. Concurrent Append calls serialise. Only
  /// the affected shards get new tables (fresh table ids), so shard cache
  /// keys invalidate precisely.
  Status Append(const FlatTable& batch);

  /// Sum of imprint storage across all shards.
  uint64_t IndexStorageBytes() const;

 private:
  /// A routed view over shards_ at the slices' current bases; caller
  /// holds shards_mu_ (or is the constructor).
  std::shared_ptr<const ShardsView> MakeView(uint64_t version) const;

  std::shared_ptr<ShardedTable> table_;
  EngineOptions options_;
  /// Hilbert key of each shard's first row (shard 0 owns everything below
  /// shard 1's key). Computed once — appends only extend shard tails, so
  /// first rows, and therefore routing, never change.
  std::vector<uint64_t> start_keys_;
  /// Guards view_ and the in-place mutation of table_'s slices; queries
  /// take it shared for the handle copy only.
  mutable std::shared_mutex shards_mu_;
  std::shared_ptr<const ShardsView> view_;
  /// The shards of view_, typed for Append's successor step; replaced
  /// under shards_mu_ and append_mu_.
  std::vector<std::shared_ptr<LocalShard>> shards_;
  /// Serialises Append calls (routing + COW build happen outside
  /// shards_mu_, so readers are never stalled behind an append).
  std::mutex append_mu_;
  /// One pool for the scatter loop and every shard engine; null = serial.
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace geocol

#endif  // GEOCOL_CORE_SHARD_ROUTER_H_
