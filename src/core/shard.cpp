#include "core/shard.h"

#include <algorithm>
#include <cstdio>

#include "telemetry/heat.h"
#include "telemetry/metrics.h"

namespace geocol {

namespace {

/// The shard engine's configuration: persisted shards keep imprint
/// sidecars next to their column files; in-memory shards build in memory
/// only. The cache binding passes through unchanged.
EngineOptions ShardOptions(const EngineOptions& options,
                           const std::string& dir) {
  EngineOptions shard_options = options;
  shard_options.imprints_dir = dir;
  return shard_options;
}

void AccumulateFilterStats(const ImprintScanStats& in, ImprintScanStats* out) {
  out->lines_total += in.lines_total;
  out->lines_candidate += in.lines_candidate;
  out->lines_full += in.lines_full;
  out->blocks_visited += in.blocks_visited;
  out->lines_visited += in.lines_visited;
  out->values_checked += in.values_checked;
  out->rows_selected += in.rows_selected;
  out->rows_full += in.rows_full;
  out->workers = std::max(out->workers, in.workers);
}

void AccumulateRefineStats(const RefinementStats& in, RefinementStats* out) {
  out->candidates += in.candidates;
  out->accepted += in.accepted;
  out->cells_total += in.cells_total;
  out->cells_nonempty += in.cells_nonempty;
  out->cells_inside += in.cells_inside;
  out->cells_outside += in.cells_outside;
  out->cells_boundary += in.cells_boundary;
  out->exact_tests += in.exact_tests;
  // Per-shard refinement grids have their own frames; a merged grid shape
  // would be meaningless, so the dimensions stay 0 for K > 1 (the
  // single-scanned-shard path copies stats verbatim instead).
  out->workers = std::max(out->workers, in.workers);
}

/// How a routed view answers one shard for a query window.
enum class Route { kPruned, kCovered, kScanned };

/// Pruned — the bbox misses the window; the shard contributes nothing.
/// Covered — the window's coverage box (box geometry ∩ x/y ranges) fully
/// contains the bbox and no other column is filtered, so every row
/// qualifies (bbox-as-zonemap). Scanned — everything else.
Route RouteShard(const Shard& shard, const QueryWindow& window) {
  const Box& bbox = shard.bbox();
  if (!bbox.Intersects(window.envelope)) return Route::kPruned;
  if (window.residual.empty() && window.coverage.Contains(bbox)) {
    return Route::kCovered;
  }
  return Route::kScanned;
}

}  // namespace

LocalShard::LocalShard(const ShardSlice& slice, const EngineOptions& options,
                       const std::string& x_column,
                       const std::string& y_column, ThreadPool* pool,
                       std::shared_ptr<ImprintManager> imprints)
    : table_(slice.table),
      bbox_(slice.bbox),
      engine_(slice.table, ShardOptions(options, slice.dir), x_column,
              y_column, pool, std::move(imprints)) {}

LocalShard::LocalShard(std::shared_ptr<FlatTable> table,
                       const EngineOptions& options)
    : table_(table), engine_(std::move(table), options) {}

std::shared_ptr<LocalShard> LocalShard::Successor(
    const ShardSlice& next) const {
  const std::shared_ptr<ImprintManager>& imprints =
      engine_.imprint_manager_ptr();
  // Stitched sidecars go with the columns they index: a sharded append
  // commits the next table into a new generation directory, and the
  // superseded one is removed after the swap.
  const std::string& dir = engine_.options().imprints_dir;
  if (!dir.empty() && !next.dir.empty() && next.dir != dir) {
    imprints->set_sidecar_dir(next.dir);
  }
  for (const ColumnPtr& col : next.table->columns()) {
    (void)imprints->StitchFromBase(col);
  }
  return std::make_shared<LocalShard>(next, engine_.options(),
                                      engine_.x_column(), engine_.y_column(),
                                      engine_.pool(), imprints);
}

Result<std::shared_ptr<FlatTable>> ExtendTable(const FlatTable& base,
                                               const FlatTable& tail) {
  auto next = std::make_shared<FlatTable>(base.name());
  for (const ColumnPtr& col : base.columns()) {
    ColumnPtr add = tail.column(col->name());
    if (add == nullptr || add->type() != col->type()) {
      return Status::InvalidArgument("appended rows lack column '" +
                                     col->name() + "' of its type");
    }
    GEOCOL_ASSIGN_OR_RETURN(
        ColumnPtr appended,
        Column::CloneAppend(col, add->raw_data(), add->size()));
    const ColumnStats& as = add->Stats();
    if (col->empty()) {
      appended->SetCachedStats(as.min, as.max);
    } else {
      const ColumnStats& bs = col->Stats();
      appended->SetCachedStats(std::min(bs.min, as.min),
                               std::max(bs.max, as.max));
    }
    GEOCOL_RETURN_NOT_OK(next->AddColumn(std::move(appended)));
  }
  GEOCOL_RETURN_NOT_OK(next->Validate());
  return next;
}

Result<SelectionResult> LocalShard::Select(
    const Geometry& geometry, double buffer,
    const std::vector<AttributeRange>& thematic, bool use_cache) {
  return use_cache ? engine_.Select(geometry, buffer, thematic)
                   : engine_.SelectUncached(geometry, buffer, thematic);
}

std::shared_ptr<const ShardsView> ShardsView::Single(
    std::shared_ptr<Shard> shard, std::string x_column, std::string y_column,
    uint64_t version) {
  auto view = std::make_shared<ShardsView>();
  view->shards.push_back(std::move(shard));
  view->bases.push_back(0);
  view->version = version;
  view->x_column = std::move(x_column);
  view->y_column = std::move(y_column);
  return view;
}

size_t ShardsView::ShardOf(uint64_t row) const {
  return static_cast<size_t>(
      std::upper_bound(bases.begin(), bases.end(), row) - bases.begin() - 1);
}

Result<Box> ShardsView::Extent() const {
  if (routed) {
    Box box;
    for (const auto& shard : shards) box.Extend(shard->bbox());
    return box;
  }
  const FlatTable& t = shards[0]->table();
  GEOCOL_ASSIGN_OR_RETURN(ColumnPtr xc, t.GetColumn(x_column));
  GEOCOL_ASSIGN_OR_RETURN(ColumnPtr yc, t.GetColumn(y_column));
  return Box(xc->Stats().min, yc->Stats().min, xc->Stats().max,
             yc->Stats().max);
}

Result<std::vector<ColumnPtr>> ShardsView::Columns(
    const std::string& column) const {
  std::vector<ColumnPtr> parts;
  parts.reserve(shards.size());
  for (const auto& shard : shards) {
    GEOCOL_ASSIGN_OR_RETURN(ColumnPtr col, shard->table().GetColumn(column));
    parts.push_back(std::move(col));
  }
  return parts;
}

Result<double> ShardsView::Aggregate(const std::vector<uint64_t>& rows,
                                     const std::string& column, AggKind kind,
                                     ThreadPool* agg_pool) const {
  if (kind == AggKind::kCount) return static_cast<double>(rows.size());
  GEOCOL_ASSIGN_OR_RETURN(std::vector<ColumnPtr> parts, Columns(column));
  std::vector<const Column*> raw(parts.size());
  for (size_t i = 0; i < parts.size(); ++i) raw[i] = parts[i].get();
  return AggregateRows(raw, bases, rows, kind, agg_pool);
}

bool ShardsView::SelectionCached(
    const Geometry& geometry, double buffer,
    const std::vector<AttributeRange>& thematic) const {
  if (!routed) return shards[0]->SelectionCached(geometry, buffer, thematic);
  const QueryWindow window =
      MakeQueryWindow(geometry, buffer, thematic, x_column, y_column);
  if (window.empty) return true;
  for (const auto& shard : shards) {
    if (RouteShard(*shard, window) == Route::kScanned &&
        !shard->SelectionCached(geometry, buffer, thematic)) {
      return false;
    }
  }
  return true;
}

Result<SelectionResult> ShardsView::Select(
    const Geometry& geometry, double buffer,
    const std::vector<AttributeRange>& thematic, bool use_cache) const {
  // A one-shard view of a flat table or live epoch: the shard's own
  // two-step selection is the answer, untouched.
  if (!routed) return shards[0]->Select(geometry, buffer, thematic, use_cache);

  SelectionResult result;
  const uint64_t rows_total = total_rows();
  if (rows_total == 0) return result;

  // Prune and cover against the query window (geometry envelope ∩ x/y
  // ranges), so a BETWEEN viewport prunes exactly like the equal box.
  const QueryWindow window =
      MakeQueryWindow(geometry, buffer, thematic, x_column, y_column);
  if (window.empty) return result;

  // ---- Prune: classify every shard against the query window before any
  // imprint is consulted or built. Pruning is the headline win of
  // sharding: a clustered viewport touches a handful of shards and never
  // allocates whole-table state. A covered shard contributes no
  // filter/refine stats — nothing was scanned.
  GEOCOL_METRIC_COUNTER(c_pruned, "geocol_shards_pruned_total");
  GEOCOL_METRIC_COUNTER(c_scanned, "geocol_shards_scanned_total");
  GEOCOL_METRIC_COUNTER(c_covered, "geocol_shards_covered_total");
  struct ShardWork {
    size_t shard;
    int32_t branch;  ///< index into branches, or -1 for a covered shard
  };
  std::vector<ShardWork> work;
  std::vector<size_t> scanned;
  size_t num_covered = 0;
  work.reserve(shards.size());
  scanned.reserve(shards.size());
  for (size_t i = 0; i < shards.size(); ++i) {
    switch (RouteShard(*shards[i], window)) {
      case Route::kPruned:
        break;
      case Route::kCovered:
        work.push_back({i, -1});
        ++num_covered;
        break;
      case Route::kScanned:
        work.push_back({i, static_cast<int32_t>(scanned.size())});
        scanned.push_back(i);
        break;
    }
  }
  // Covered shards count as scanned in the headline counters (they were
  // answered, not skipped), and separately in the covered counter.
  c_scanned.Increment(work.size());
  c_pruned.Increment(shards.size() - work.size());
  c_covered.Increment(num_covered);

  int32_t route_span = result.profile.OpenSpan("shard.route");

  // ---- Scatter: each surviving shard runs its own two-step filter +
  // refine into branch-local state; all shard engines share one pool, so
  // morsels from different shards interleave freely.
  struct ShardBranch {
    SelectionResult sel;
    QueryProfile profile;
    Status status;
  };
  std::vector<ShardBranch> branches(scanned.size());
  auto run_shard = [&](size_t j) {
    const size_t s = scanned[j];
    ShardBranch& b = branches[j];
    int32_t span = b.profile.OpenSpan("shard.scan");
    b.profile.AddAttr(span, "shard", static_cast<uint64_t>(s));
    auto r = shards[s]->Select(geometry, buffer, thematic, use_cache);
    b.status = r.status();
    if (r.ok()) {
      b.sel = std::move(*r);
      b.profile.Append(b.sel.profile);
      char detail[64];
      std::snprintf(detail, sizeof(detail), "shard %zu base=%llu", s,
                    static_cast<unsigned long long>(bases[s]));
      b.profile.CloseSpan(shards[s]->num_rows(), b.sel.row_ids.size(),
                          detail);
    } else {
      b.profile.CloseSpan(0, 0);
    }
  };
  if (pool != nullptr && branches.size() > 1) {
    pool->ParallelFor(branches.size(), run_shard);
  } else {
    for (size_t j = 0; j < branches.size(); ++j) run_shard(j);
  }
  for (const ShardBranch& b : branches) {
    GEOCOL_RETURN_NOT_OK(b.status);
  }

  // ---- Gather: merge in shard order. Shards are contiguous runs of the
  // Hilbert-sorted row space, so emitting base-offset local ids (or, for a
  // covered shard, the shard's whole id range) in shard order yields the
  // ascending global id list the unsharded engine over the sorted table
  // produces. Stats: a single scanned shard's stats pass through verbatim
  // (making K = 1 bit-identical to unsharded as long as the query didn't
  // cover the shard); multiple shards merge field-wise in shard order.
  for (const ShardWork& w : work) {
    if (w.branch < 0) {
      const uint64_t rows = shards[w.shard]->num_rows();
      int32_t span = result.profile.Add("shard.covered", 0, rows, rows);
      result.profile.AddAttr(span, "shard", static_cast<uint64_t>(w.shard));
      telemetry::TouchShardHeat(name, static_cast<uint32_t>(w.shard),
                                /*covered=*/true, rows);
      continue;
    }
    const ShardBranch& b = branches[w.branch];
    telemetry::TouchShardHeat(name, static_cast<uint32_t>(w.shard),
                              /*covered=*/false, b.sel.count());
    result.profile.Append(b.profile);
    if (branches.size() == 1 && num_covered == 0) {
      result.filter = b.sel.filter;
      result.refine = b.sel.refine;
    } else {
      AccumulateFilterStats(b.sel.filter, &result.filter);
      AccumulateRefineStats(b.sel.refine, &result.refine);
    }
  }
  if (work.size() == 1 && num_covered == 0 && bases[work[0].shard] == 0) {
    // One scanned shard at base 0: its local ids are the global ids.
    result.row_ids = std::move(branches[0].sel.row_ids);
  } else {
    uint64_t merged = 0;
    for (const ShardWork& w : work) {
      merged += w.branch < 0 ? shards[w.shard]->num_rows()
                             : branches[w.branch].sel.row_ids.size();
    }
    result.row_ids.resize(merged);
    uint64_t* out = result.row_ids.data();
    for (const ShardWork& w : work) {
      const uint64_t base = bases[w.shard];
      if (w.branch < 0) {
        const uint64_t rows = shards[w.shard]->num_rows();
        for (uint64_t r = 0; r < rows; ++r) out[r] = base + r;
        out += rows;
      } else {
        const std::vector<uint64_t>& in = branches[w.branch].sel.row_ids;
        for (size_t i = 0; i < in.size(); ++i) out[i] = base + in[i];
        out += in.size();
      }
    }
  }
  char detail[96];
  std::snprintf(detail, sizeof(detail),
                "scanned %zu/%zu shards (%zu pruned, %zu covered)",
                work.size(), shards.size(), shards.size() - work.size(),
                num_covered);
  result.profile.CloseSpan(rows_total, result.row_ids.size(), detail);
  result.profile.AddAttr(route_span, "shards_total",
                         static_cast<uint64_t>(shards.size()));
  result.profile.AddAttr(route_span, "shards_scanned",
                         static_cast<uint64_t>(work.size()));
  result.profile.AddAttr(route_span, "shards_pruned",
                         static_cast<uint64_t>(shards.size() - work.size()));
  result.profile.AddAttr(route_span, "shards_covered",
                         static_cast<uint64_t>(num_covered));
  return result;
}

}  // namespace geocol
