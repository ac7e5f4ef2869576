// The scatter-gather executor over a Hilbert-sharded table (DESIGN.md
// §12). A query first prunes shards whose bbox misses its query window
// (the geometry envelope ∩ any x/y ranges, MakeQueryWindow) — before any
// imprint work — then scatters filter+refine across the
// surviving shards on one shared morsel pool, and merges the local
// results in shard order. Because shards are contiguous runs of the
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
// Hilbert start keys, extends each affected shard's columns copy-on-write
// and swaps a NEW shard handle in under the view lock. Readers pin a
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

/// An immutable snapshot of the router's shard set, pinned for the
/// lifetime of one query (or one SQL statement). Copyable; copies share
/// the shard handles. shards[i] covers global rows
/// [bases[i], bases[i] + shards[i]->num_rows()).
struct ShardsView {
  std::vector<std::shared_ptr<Shard>> shards;
  std::vector<uint64_t> bases;
  uint64_t total_rows = 0;
  /// Bumped by every Append publish; equal versions = identical views.
  uint64_t version = 0;
};

/// Bbox-pruned scatter-gather query execution over one sharded table.
///
/// Thread-safety: concurrent queries against one router are safe, and —
/// unlike the flat engine — so are concurrent Append calls: queries
/// execute against a pinned ShardsView while appends publish replacement
/// shards under the view lock. Appends against one router serialise.
class ShardRouter {
 public:
  /// `options` configures every shard engine plus the router-level pool
  /// and cache: num_threads sizes ONE pool shared by the scatter loop and
  /// all shard engines (nested morsel scheduling keeps it busy), and the
  /// cache binding applies at the router only — per-shard engines always
  /// run cache-free.
  explicit ShardRouter(std::shared_ptr<ShardedTable> table,
                       EngineOptions options = {});

  const ShardedTable& table() const { return *table_; }
  const EngineOptions& options() const { return options_; }
  Schema schema() const;
  /// Shard count is fixed at construction; appends never change it.
  size_t num_shards() const { return start_keys_.size(); }

  /// Pins the current shard set. O(K): copies the handle/base vectors.
  ShardsView View() const;

  /// Threads executing one query: pool workers + the calling thread.
  uint32_t num_effective_threads() const {
    return pool_ != nullptr ? static_cast<uint32_t>(pool_->num_threads()) + 1
                            : 1;
  }

  /// All points with (x, y) inside `box`, as global row ids.
  Result<SelectionResult> SelectInBox(const Box& box);

  /// All points contained in `geometry`.
  Result<SelectionResult> SelectInGeometry(const Geometry& geometry);

  /// General form: spatial predicate plus conjunctive thematic ranges.
  /// Pins a fresh view; the overload executes against a caller-pinned
  /// view (the SQL executor pins one view per statement so selection,
  /// aggregation and projection all read the same epoch).
  Result<SelectionResult> Select(const Geometry& geometry, double buffer,
                                 const std::vector<AttributeRange>& thematic);
  Result<SelectionResult> Select(const ShardsView& view,
                                 const Geometry& geometry, double buffer,
                                 const std::vector<AttributeRange>& thematic);

  /// Aggregate of `column` over the selected points — bit-identical to
  /// the unsharded engine's Aggregate over the sorted flat table.
  Result<double> Aggregate(const Geometry& geometry, double buffer,
                           const std::vector<AttributeRange>& thematic,
                           const std::string& column, AggKind kind);

  /// Aggregates `column` over an explicit global row list, resolving each
  /// row to its shard's local values. Runs the shared aggregation core,
  /// so the result is bit-identical to AggregateRows over the equivalent
  /// flat column (the SQL executor's post-selection aggregate path).
  /// `rows` must come from a selection executed against `view`.
  Result<double> AggregateGlobalRows(const ShardsView& view,
                                     const std::vector<uint64_t>& rows,
                                     const std::string& column, AggKind kind,
                                     ThreadPool* pool = nullptr) const;
  Result<double> AggregateGlobalRows(const std::vector<uint64_t>& rows,
                                     const std::string& column, AggKind kind,
                                     ThreadPool* pool = nullptr) const;

  /// Appends a batch (schema must equal the table's) as ONE atomic
  /// publish: rows are routed to shards by the Hilbert key of (x, y)
  /// scaled to the layout's fixed extent, each affected shard's columns
  /// are extended copy-on-write, and — for a layout loaded from disk —
  /// the new shard tables land in next-generation directories with the
  /// shards.gsm manifest swap as the crash-commit point. Readers holding
  /// a ShardsView are untouched; new View() calls see all rows or none.
  /// Concurrent Append calls serialise. Only the affected shards' version
  /// tokens change, so router cache keys invalidate precisely.
  Status Append(const FlatTable& batch);

  /// Sum of imprint storage across all shards.
  uint64_t IndexStorageBytes() const;

  /// Rebinds the router's cache budget (the SQL session's per-session
  /// knob). Not thread-safe against queries in flight.
  void set_cache_budget(uint64_t budget_bytes);

  /// The cache this router consults, or nullptr when cache-off.
  cache::QueryResultCache* result_cache() const { return cache_; }

 private:
  Result<SelectionResult> Execute(const ShardsView& view,
                                  const Geometry& geometry, double buffer,
                                  const std::vector<AttributeRange>& thematic);

  /// Result cache key: the byte image of the pinned shard set
  /// (layout id, shard count, and every shard's base offset, version
  /// token and referenced-column epochs) plus the query and the
  /// result-shaping knobs — re-sharding changes the layout id, an append
  /// changes the affected shards' version tokens (and downstream bases),
  /// so stale entries age out by construction.
  Result<std::string> SelectionKey(
      const ShardsView& view, const Geometry& geometry, double buffer,
      const std::vector<AttributeRange>& thematic) const;

  std::shared_ptr<ShardedTable> table_;
  EngineOptions options_;
  /// Hilbert key of each shard's first row (shard 0 owns everything below
  /// shard 1's key). Computed once — appends only extend shard tails, so
  /// first rows, and therefore routing, never change.
  std::vector<uint64_t> start_keys_;
  /// Guards shards_/bases_/view_version_ and the in-place mutation of
  /// table_'s slices; queries take it shared for the O(K) view copy only.
  mutable std::shared_mutex shards_mu_;
  std::vector<std::shared_ptr<Shard>> shards_;
  /// shards_[i] covers global rows [bases_[i], bases_[i] + rows_i).
  std::vector<uint64_t> bases_;
  uint64_t view_version_ = 0;
  /// Serialises Append calls (routing + COW build happen outside
  /// shards_mu_, so readers are never stalled behind an append).
  std::mutex append_mu_;
  /// One pool for the scatter loop and every shard engine; null = serial.
  std::unique_ptr<ThreadPool> pool_;
  /// Keeps a private cache instance alive; null when using Global().
  std::shared_ptr<cache::QueryResultCache> cache_owner_;
  /// The cache every query consults; nullptr = cache-off.
  cache::QueryResultCache* cache_ = nullptr;
};

/// Global-row value access across shards for the SQL layer: caches one
/// ColumnPtr per shard and translates global ids on each read. Built from
/// a pinned view, so the columns match the selection that produced the
/// row ids even while appends land.
class ShardedColumnReader {
 public:
  static Result<ShardedColumnReader> Make(const ShardsView& view,
                                          const std::string& column);
  static Result<ShardedColumnReader> Make(const ShardRouter& router,
                                          const std::string& column);

  double GetDouble(uint64_t global_row) const;
  DataType type() const { return columns_.empty() ? DataType::kFloat64
                                                  : columns_[0]->type(); }

 private:
  ShardedColumnReader() = default;

  std::vector<ColumnPtr> columns_;  ///< one per shard
  std::vector<uint64_t> bases_;
};

}  // namespace geocol

#endif  // GEOCOL_CORE_SHARD_ROUTER_H_
