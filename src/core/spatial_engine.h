// The "spatially-enabled" query engine of the paper: flat-table point
// cloud + lazily built column imprints on the coordinate columns + the
// two-step filter/refinement executor (§3.3). This is the primary public
// API of the library.
#ifndef GEOCOL_CORE_SPATIAL_ENGINE_H_
#define GEOCOL_CORE_SPATIAL_ENGINE_H_

#include <memory>
#include <string>
#include <vector>

#include "cache/query_cache.h"
#include "columns/flat_table.h"
#include "core/aggregate.h"
#include "core/imprint_scan.h"
#include "core/profile.h"
#include "core/query_window.h"
#include "core/refinement.h"
#include "geom/geometry.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace geocol {

/// Query result cache binding of one engine (DESIGN.md §11).
struct CacheOptions {
  /// Memory the engine asks the cache to hold. 0 leaves the engine
  /// entirely cache-free: no lookups, no inserts, no extra spans — the
  /// execution path is bit-identical to an engine built before the cache
  /// layer existed.
  uint64_t budget_bytes = 0;
  /// Cache instance to bind to; null binds to the process-wide
  /// QueryResultCache::Global(), whose budget is grown (never shrunk) to
  /// `budget_bytes`. Tests and benchmarks pass private instances for cold
  /// state and exact budget control.
  std::shared_ptr<cache::QueryResultCache> instance;
};

/// Engine configuration; the booleans exist so benchmarks can ablate each
/// technique (E3/E4/E5 run the same engine with features toggled).
struct EngineOptions {
  ImprintsOptions imprints;
  RefineOptions refine;
  /// When false the filter step degrades to a full scan of x/y.
  bool use_imprints = true;
  /// Query/build parallelism: 0 = one thread per hardware core, 1 = the
  /// serial executor (results, stats and profiles identical to the engine
  /// before morsel-driven execution), n = n threads total (the calling
  /// thread participates, so n threads means n-1 pool workers).
  uint32_t num_threads = 0;
  /// Directory for persisted imprint sidecar files ("" = in-memory only).
  /// A corrupt or stale sidecar is quarantined and rebuilt from the
  /// column — it degrades to a rebuild, never fails the query.
  std::string imprints_dir;
  /// Query result cache binding; budget 0 (the default) is cache-off.
  CacheOptions cache;
  /// Paged-tier chunk cache budget. > 0 grows (never shrinks) the
  /// process-wide cache::ChunkCache::Global() budget to this many bytes at
  /// engine construction; 0 leaves the global default
  /// (GEOCOL_CHUNK_CACHE_MB, else 64 MiB) untouched. Only meaningful when
  /// the engine's table holds paged columns.
  uint64_t chunk_cache_budget_bytes = 0;
};

/// Result of a spatial selection.
struct SelectionResult {
  std::vector<uint64_t> row_ids;     ///< ascending qualifying row ids
  ImprintScanStats filter_x;         ///< filter-step accounting
  ImprintScanStats filter_y;
  RefinementStats refine;            ///< refinement-step accounting
  QueryProfile profile;              ///< per-operator wall times

  uint64_t count() const { return row_ids.size(); }
};

/// Aggregates `column` over `rows`. kCount ignores the column. Resident
/// values are read as typed spans; paged columns gather the selected
/// values once (faulting only the chunks the selection touches) and
/// accumulate over the gathered sequence, so the result is bit-identical
/// to the resident open of the same file. A non-null `pool` aggregates row
/// chunks in parallel and merges the partials in chunk order, so the
/// result is deterministic for a given row list (floating-point sums may
/// differ from the serial order in the last bits; min/max/count are
/// exact). The only Status source is a paged-column chunk fault.
Result<double> AggregateRows(const Column& column,
                             const std::vector<uint64_t>& rows, AggKind kind,
                             ThreadPool* pool = nullptr);

/// The spatially-enabled engine over one flat point-cloud table.
///
/// Thread-safety: concurrent queries (Select*/Aggregate) against one
/// engine are safe, including the racing first queries that trigger the
/// imprint build. Appending to the underlying table while queries are in
/// flight is not.
class SpatialQueryEngine {
 public:
  /// `table` must contain columns named `x_column`/`y_column` (any numeric
  /// type). The table is shared: appends through other references are
  /// detected via column epochs and trigger imprint rebuilds.
  SpatialQueryEngine(std::shared_ptr<FlatTable> table,
                     EngineOptions options = {},
                     std::string x_column = "x", std::string y_column = "y");

  /// As above, but executes on `borrowed_pool` (not owned; nullptr runs
  /// serially) instead of creating a private pool from
  /// `options.num_threads`. The shard router uses this so all shard
  /// engines share one morsel pool.
  SpatialQueryEngine(std::shared_ptr<FlatTable> table, EngineOptions options,
                     std::string x_column, std::string y_column,
                     ThreadPool* borrowed_pool);

  /// As above, additionally sharing an existing imprint manager instead of
  /// creating a private one. The live-table path hands every published
  /// snapshot engine the same manager, so an epoch's imprints are built
  /// once, survive across epochs for untouched columns, and appended
  /// columns extend their lineage base's index incrementally. The manager
  /// must already be configured (pool, sidecar dir) — this constructor
  /// never mutates it, so hand-off races cannot occur with queries running
  /// on older snapshots.
  SpatialQueryEngine(std::shared_ptr<FlatTable> table, EngineOptions options,
                     std::string x_column, std::string y_column,
                     ThreadPool* borrowed_pool,
                     std::shared_ptr<ImprintManager> shared_imprints);

  const FlatTable& table() const { return *table_; }
  const EngineOptions& options() const { return options_; }

  /// Threads executing one query: pool workers + the calling thread.
  uint32_t num_effective_threads() const {
    return pool_ != nullptr ? static_cast<uint32_t>(pool_->num_threads()) + 1
                            : 1;
  }

  /// All points with (x, y) inside `box`. For a rectangle the refinement
  /// is exact during the filter step already.
  Result<SelectionResult> SelectInBox(const Box& box);

  /// SelectInBox without the result cache: no lookup, no insert, no
  /// sighting. For boxes whose key never repeats, such as the server's
  /// shared-scan superset (server/batch.h).
  Result<SelectionResult> SelectInBoxUncached(const Box& box);

  /// All points contained in `geometry` (polygon/multipolygon/box).
  Result<SelectionResult> SelectInGeometry(const Geometry& geometry);

  /// All points within distance `d` of `geometry` — the "near" queries of
  /// scenario 2 (§4.2).
  Result<SelectionResult> SelectWithinDistance(const Geometry& geometry,
                                               double d);

  /// General form: spatial predicate plus conjunctive thematic ranges.
  /// `buffer` > 0 selects ST_DWithin semantics. Ranges on the x/y columns
  /// fold into the query window (MakeQueryWindow), so x and y are each
  /// scanned once; an empty window answers empty without scanning.
  Result<SelectionResult> Select(const Geometry& geometry, double buffer,
                                 const std::vector<AttributeRange>& thematic);

  /// Aggregate of `column` over the points selected by the predicate:
  /// e.g. "compute the average elevation of the LIDAR points near ..."
  Result<double> Aggregate(const Geometry& geometry, double buffer,
                           const std::vector<AttributeRange>& thematic,
                           const std::string& column, AggKind kind);

  /// Imprint storage across the coordinate (and thematically filtered)
  /// columns currently indexed — the 5-12% overhead claim of §3.2.
  uint64_t IndexStorageBytes() const { return imprints_->TotalStorageBytes(); }

  ImprintManager& imprint_manager() { return *imprints_; }

  /// The (possibly shared) manager itself; snapshot publication passes it
  /// on to the next epoch's engine.
  const std::shared_ptr<ImprintManager>& imprint_manager_ptr() const {
    return imprints_;
  }

  /// Rebinds the engine's cache budget after construction (the SQL
  /// session's per-session knob). 0 detaches the engine from the cache;
  /// > 0 attaches it (growing a shared instance's budget as needed). Not
  /// thread-safe against queries in flight on this engine.
  void set_cache_budget(uint64_t budget_bytes);

  /// The cache this engine consults, or nullptr when cache-off.
  cache::QueryResultCache* result_cache() const { return cache_; }

  /// True when Select(geometry, buffer, thematic) would replay a resident
  /// cache entry right now. Probes without counting a hit or a miss.
  bool SelectionCached(const Geometry& geometry, double buffer,
                       const std::vector<AttributeRange>& thematic) const;

 private:
  /// Shared two-step implementation; `use_cache` false skips the result
  /// cache even when the engine has one.
  Result<SelectionResult> Execute(const Geometry& geometry, double buffer,
                                  const std::vector<AttributeRange>& thematic,
                                  bool use_cache = true);

  /// Filter step on one column; returns a row-level selection.
  Status FilterColumn(const ColumnPtr& column, double lo, double hi,
                      BitVector* rows, ImprintScanStats* stats,
                      QueryProfile* profile, const std::string& op_name);

  /// Result cache key: the complete byte image of everything the
  /// selection depends on — table id, per-column epochs, geometry bits,
  /// thematic ranges, and result-shaping knobs (thread count, imprint and
  /// refine options). NotFound when a thematic column is missing.
  Result<std::string> SelectionKey(
      const Geometry& geometry, double buffer,
      const std::vector<AttributeRange>& thematic) const;

  /// Construction tail shared by both constructors (sidecar dir, pool
  /// hand-off to the imprint manager, cache binding).
  void Init();

  std::shared_ptr<FlatTable> table_;
  EngineOptions options_;
  std::string x_name_, y_name_;
  std::shared_ptr<ImprintManager> imprints_;
  /// False when imprints_ was injected pre-configured (live-table path);
  /// Init() then leaves its pool/sidecar settings alone.
  bool owns_imprints_ = true;
  /// Pool this engine created for itself (the plain constructor); null
  /// when serial or when executing on a borrowed pool.
  std::unique_ptr<ThreadPool> owned_pool_;
  /// Workers shared by all queries; null when running serially. The
  /// calling thread always participates in parallel loops, so the pool
  /// holds num_effective_threads() - 1 workers.
  ThreadPool* pool_ = nullptr;
  /// Keeps a private cache instance alive; null when using Global().
  std::shared_ptr<cache::QueryResultCache> cache_owner_;
  /// The cache every query consults; nullptr = cache-off.
  cache::QueryResultCache* cache_ = nullptr;
};

}  // namespace geocol

#endif  // GEOCOL_CORE_SPATIAL_ENGINE_H_
