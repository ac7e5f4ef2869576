// The shard execution interface and the pinned view every point-cloud
// statement executes against (DESIGN.md §12). A shard is an opaque handle
// — bbox for pruning, Select for local-row selections, table() for
// merge-side value access — so a shard that lives in another process or on
// another node only needs to speak the same contract. Today's only
// implementation is LocalShard: a table plus a query engine.
//
// A ShardsView is shard handles plus global row bases. A Hilbert-sharded
// table pins the router's current view; a flat table is a constant
// one-shard view over its table, and a live table's epoch is a one-shard
// view over that epoch's columns. Selection, aggregation, ORDER BY,
// projection, the NEAR join and shared-scan batching all run over the
// view, so the three kinds of table share one execution path.
//
// Appends share one commit step too (DESIGN.md §13): ExtendTable builds a
// shard's next table and, once it is committed, LocalShard::Successor its
// next shard. A live table's appender runs it on its one shard, a sharded
// append on every shard the batch routes to.
#ifndef GEOCOL_CORE_SHARD_H_
#define GEOCOL_CORE_SHARD_H_

#include <memory>
#include <string>
#include <vector>

#include "columns/sharded_table.h"
#include "core/spatial_engine.h"

namespace geocol {

/// One spatial shard, addressed opaquely. All row ids in and out of a
/// shard are LOCAL (0-based within the shard); a view translates to global
/// ids via the shard's base offset.
class Shard {
 public:
  virtual ~Shard() = default;

  virtual uint64_t num_rows() const = 0;

  /// Tight bounds of the shard's points; a routed view prunes the shard
  /// when this misses the query window. Empty for a rowless shard and for
  /// the one shard of a flat table (whose rows may grow under it).
  virtual const Box& bbox() const = 0;

  /// Exact spatial selection local to this shard: ascending local row ids
  /// plus the shard's filter/refine stats and profile. `use_cache` false
  /// bypasses the shard's result cache (a selection whose key never
  /// repeats, such as a shared-scan superset).
  virtual Result<SelectionResult> Select(
      const Geometry& geometry, double buffer,
      const std::vector<AttributeRange>& thematic, bool use_cache) = 0;

  /// True when Select would replay a resident result-cache entry right
  /// now. Counts no hit or miss.
  virtual bool SelectionCached(
      const Geometry& geometry, double buffer,
      const std::vector<AttributeRange>& thematic) const = 0;

  /// The shard's column versions, for merge-side value access.
  virtual const FlatTable& table() const = 0;

  /// Imprint storage currently held for this shard.
  virtual uint64_t IndexStorageBytes() const = 0;
};

/// In-process shard: a table with a SpatialQueryEngine over it. The
/// engine keeps the configured result-cache binding, so the cache lives in
/// the shard engines and every kind of table caches under one key, the
/// engine's SelectionKey.
class LocalShard final : public Shard {
 public:
  /// A shard of a sharded layout or a live epoch: the engine runs on
  /// `pool` (not owned; null = serial). Imprint sidecars live in
  /// `slice.dir`. A non-null `imprints` is shared instead of a private
  /// manager, so appended columns extend their lineage base's imprints
  /// incrementally instead of rebuilding.
  LocalShard(const ShardSlice& slice, const EngineOptions& options,
             const std::string& x_column, const std::string& y_column,
             ThreadPool* pool,
             std::shared_ptr<ImprintManager> imprints = nullptr);

  /// The one shard of a flat table: the engine owns a pool sized by
  /// `options.num_threads`, over columns "x" and "y". Its bbox is empty —
  /// a one-shard view is never routed, so nothing prunes against it.
  LocalShard(std::shared_ptr<FlatTable> table, const EngineOptions& options);

  uint64_t num_rows() const override { return table_->num_rows(); }
  const Box& bbox() const override { return bbox_; }
  Result<SelectionResult> Select(const Geometry& geometry, double buffer,
                                 const std::vector<AttributeRange>& thematic,
                                 bool use_cache) override;
  bool SelectionCached(
      const Geometry& geometry, double buffer,
      const std::vector<AttributeRange>& thematic) const override {
    return engine_.SelectionCached(geometry, buffer, thematic);
  }
  const FlatTable& table() const override { return *table_; }
  uint64_t IndexStorageBytes() const override {
    return engine_.IndexStorageBytes();
  }

  SpatialQueryEngine& engine() { return engine_; }

  /// The second half of the commit step, once `next` is committed (durable
  /// when persisted): `next.table` is this shard's table extended by
  /// ExtendTable. Stitches the imprints of next's appended columns from
  /// this shard's while they are still alive, so the first query of the
  /// new version needs no pinned reader to extend instead of rebuilding,
  /// then returns the replacement shard: same engine options, coordinate
  /// columns, pool and imprint manager, whose sidecars move to `next.dir`
  /// when that differs from this shard's. A failed stitch is not fatal; the
  /// first query that needs the index builds it.
  std::shared_ptr<LocalShard> Successor(const ShardSlice& next) const;

 private:
  std::shared_ptr<FlatTable> table_;
  Box bbox_;
  SpatialQueryEngine engine_;
};

/// The first half of the commit step that live and sharded appends share
/// (DESIGN.md §13): a new version of `base` holding `tail`'s rows after
/// its own, every column extended copy-on-write (Column::CloneAppend) and
/// its stats seeded from base stats plus the tail's extremes, so the new
/// version never rescans its rows for a bbox. `base` and the readers
/// pinning it are untouched. `tail` must hold every column of `base`, of
/// the same type.
Result<std::shared_ptr<FlatTable>> ExtendTable(const FlatTable& base,
                                               const FlatTable& tail);

/// An immutable set of shards, pinned for the lifetime of one query (or
/// one SQL statement). Copyable; copies share the shard handles.
/// shards[i] covers global rows [bases[i], bases[i] + shards[i]->num_rows()).
struct ShardsView {
  std::vector<std::shared_ptr<Shard>> shards;
  std::vector<uint64_t> bases;
  /// Bumped by every publish (router append, live commit); equal versions
  /// of one table = identical views.
  uint64_t version = 0;
  /// The coordinate columns every shard is indexed on.
  std::string x_column = "x";
  std::string y_column = "y";
  /// True for a Hilbert-sharded layout: selections prune and cover shards
  /// by bbox, scatter the rest, and record routing counters, shard heat
  /// (keyed by `name`) and a shard.route span. A one-shard view of a flat
  /// table or live epoch is not routed: its selection is its shard's.
  bool routed = false;
  std::string name;
  /// Routed views: the layout generation.
  uint64_t generation = 0;
  /// Pool the scatter loop runs on; null = serial.
  ThreadPool* pool = nullptr;

  /// A one-shard view over `shard`, indexed on `x_column`/`y_column`.
  static std::shared_ptr<const ShardsView> Single(std::shared_ptr<Shard> shard,
                                                  std::string x_column,
                                                  std::string y_column,
                                                  uint64_t version = 0);

  uint64_t total_rows() const {
    return shards.empty() ? 0 : bases.back() + shards.back()->num_rows();
  }

  /// Index of the shard holding global `row`.
  size_t ShardOf(uint64_t row) const;

  /// The box a statement without a spatial predicate selects over: the
  /// union of a routed view's shard bboxes (which appends keep tight, even
  /// for points outside the layout's routing extent), or the one shard's
  /// x/y column bounds, read at call time (a flat table may grow under its
  /// constant view).
  Result<Box> Extent() const;

  /// All points matching the spatial predicate and the conjunctive ranges,
  /// as ascending global row ids. A routed view prunes shards whose bbox
  /// misses the query window (MakeQueryWindow), emits covered shards' id
  /// ranges without a scan, scatters the rest on `pool` and merges in
  /// shard order — bit-identical to one engine over the sorted flat table;
  /// at K = 1 (no covered shard) the stats match verbatim too, and the
  /// shard's row vector is moved, not copied. `use_cache` false bypasses
  /// the shard result caches.
  Result<SelectionResult> Select(const Geometry& geometry, double buffer,
                                 const std::vector<AttributeRange>& thematic,
                                 bool use_cache = true) const;

  /// True when Select would run no scan outside the shard result caches:
  /// every shard the window neither prunes nor covers has the selection
  /// resident. Counts no hit or miss.
  bool SelectionCached(const Geometry& geometry, double buffer,
                       const std::vector<AttributeRange>& thematic) const;

  /// One column's per-shard versions, for GatherRows/AggregateRows.
  Result<std::vector<ColumnPtr>> Columns(const std::string& name) const;

  /// Aggregate of `column` over global `rows` (AggregateRows over the
  /// shards' columns): bit-identical to the flat table's aggregate.
  Result<double> Aggregate(const std::vector<uint64_t>& rows,
                           const std::string& column, AggKind kind,
                           ThreadPool* pool = nullptr) const;
};

}  // namespace geocol

#endif  // GEOCOL_CORE_SHARD_H_
