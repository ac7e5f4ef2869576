#include "core/spatial_engine.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <span>
#include <thread>

#include "cache/chunk_cache.h"
#include "columns/types.h"
#include "telemetry/metrics.h"
#include "util/timer.h"

namespace geocol {

namespace {

uint32_t EffectiveThreads(uint32_t requested) {
  if (requested != 0) return requested;
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<uint32_t>(hw);
}

// Bridges GridRefine's cell hook to cache tier (b). The key carries the
// geometry bits plus the exact grid frame (extent, cols, rows) and no
// table identity: any query refining the same geometry on an identical
// grid shares the classifications, whatever its candidate rows.
class CacheCellHook final : public GridCellHook {
 public:
  CacheCellHook(cache::QueryResultCache* cache, const Geometry& geometry,
                double buffer)
      : cache_(cache), geometry_(geometry), buffer_(buffer) {}

  std::shared_ptr<const std::vector<uint8_t>> Seed(const Box& extent,
                                                   uint32_t cols,
                                                   uint32_t rows) override {
    auto seed = cache_->LookupGridCells(Key(extent, cols, rows));
    seeded_ = seed != nullptr;
    return seed;
  }

  void Publish(const Box& extent, uint32_t cols, uint32_t rows,
               std::vector<uint8_t> cells) override {
    cache_->MergeGridCells(Key(extent, cols, rows), std::move(cells));
  }

  bool seeded() const { return seeded_; }

 private:
  std::string Key(const Box& extent, uint32_t cols, uint32_t rows) const {
    cache::KeyBuilder kb("grid");
    kb.AppendGeometry(geometry_);
    kb.AppendDouble(buffer_);
    kb.AppendDouble(extent.min_x);
    kb.AppendDouble(extent.min_y);
    kb.AppendDouble(extent.max_x);
    kb.AppendDouble(extent.max_y);
    kb.AppendU32(cols);
    kb.AppendU32(rows);
    return kb.Take();
  }

  cache::QueryResultCache* cache_;
  const Geometry& geometry_;
  double buffer_;
  bool seeded_ = false;
};

}  // namespace

Result<double> AggregateRows(const Column& column,
                             const std::vector<uint64_t>& rows, AggKind kind,
                             ThreadPool* pool) {
  if (kind == AggKind::kCount) return static_cast<double>(rows.size());
  double out = std::nan("");
  if (rows.empty()) return out;
  Status gather_status;
  DispatchDataType(column.type(), [&]<typename T>() {
    if (!column.paged()) {
      std::span<const T> values = column.Values<T>();
      out = AggregateValues<T>(rows, kind, pool,
                               [&](size_t i) { return values[rows[i]]; });
      return;
    }
    // Paged tier: gather the selected values once, re-pinning only when
    // the row walks off the current chunk (selections are ascending, so
    // this is one fault per touched chunk). The accumulator then runs
    // over positions exactly as in the resident branch — same chunking,
    // same merge order, bit-identical result.
    std::vector<T> gathered(rows.size());
    const size_t chunk_rows = column.chunk_rows();
    ColumnChunkPin pin;
    for (size_t i = 0; i < rows.size(); ++i) {
      const uint64_t r = rows[i];
      if (pin.keepalive == nullptr || r < pin.first_row ||
          r >= pin.first_row + pin.row_count) {
        auto pinned = column.PinChunk(r / chunk_rows);
        if (!pinned.ok()) {
          gather_status = pinned.status();
          return;
        }
        pin = std::move(*pinned);
      }
      gathered[i] = pin.values<T>()[r - pin.first_row];
    }
    out = AggregateValues<T>(rows, kind, pool,
                             [&](size_t i) { return gathered[i]; });
  });
  GEOCOL_RETURN_NOT_OK(gather_status);
  return out;
}

SpatialQueryEngine::SpatialQueryEngine(std::shared_ptr<FlatTable> table,
                                       EngineOptions options,
                                       std::string x_column,
                                       std::string y_column)
    : table_(std::move(table)),
      options_(options),
      x_name_(std::move(x_column)),
      y_name_(std::move(y_column)),
      imprints_(std::make_shared<ImprintManager>(options.imprints)) {
  uint32_t threads = EffectiveThreads(options_.num_threads);
  if (threads > 1) {
    // The calling thread participates in every parallel loop, so the pool
    // only needs threads-1 workers.
    owned_pool_ = std::make_unique<ThreadPool>(threads - 1);
    pool_ = owned_pool_.get();
  }
  Init();
}

SpatialQueryEngine::SpatialQueryEngine(std::shared_ptr<FlatTable> table,
                                       EngineOptions options,
                                       std::string x_column,
                                       std::string y_column,
                                       ThreadPool* borrowed_pool)
    : table_(std::move(table)),
      options_(options),
      x_name_(std::move(x_column)),
      y_name_(std::move(y_column)),
      imprints_(std::make_shared<ImprintManager>(options.imprints)),
      pool_(borrowed_pool != nullptr && borrowed_pool->num_threads() > 0
                ? borrowed_pool
                : nullptr) {
  Init();
}

SpatialQueryEngine::SpatialQueryEngine(
    std::shared_ptr<FlatTable> table, EngineOptions options,
    std::string x_column, std::string y_column, ThreadPool* borrowed_pool,
    std::shared_ptr<ImprintManager> shared_imprints)
    : table_(std::move(table)),
      options_(options),
      x_name_(std::move(x_column)),
      y_name_(std::move(y_column)),
      imprints_(std::move(shared_imprints)),
      owns_imprints_(false),
      pool_(borrowed_pool != nullptr && borrowed_pool->num_threads() > 0
                ? borrowed_pool
                : nullptr) {
  assert(imprints_ != nullptr);
  Init();
}

void SpatialQueryEngine::Init() {
  if (owns_imprints_) {
    if (!options_.imprints_dir.empty()) {
      imprints_->set_sidecar_dir(options_.imprints_dir);
    }
    if (pool_ != nullptr) imprints_->set_thread_pool(pool_);
  }
  cache_owner_ = options_.cache.instance;
  set_cache_budget(options_.cache.budget_bytes);
  if (options_.chunk_cache_budget_bytes > 0) {
    cache::ChunkCache::Global().GrowBudget(options_.chunk_cache_budget_bytes);
  }
}

void SpatialQueryEngine::set_cache_budget(uint64_t budget_bytes) {
  // No-op when already bound at this budget, so repeated per-query calls
  // (the SQL session applies its knob on every Execute) never touch
  // engine state.
  if (budget_bytes == options_.cache.budget_bytes &&
      (budget_bytes == 0) == (cache_ == nullptr)) {
    return;
  }
  options_.cache.budget_bytes = budget_bytes;
  if (budget_bytes == 0) {
    cache_ = nullptr;
    return;
  }
  cache_ = cache_owner_ != nullptr ? cache_owner_.get()
                                   : &cache::QueryResultCache::Global();
  cache_->GrowBudget(budget_bytes);
}

Result<std::string> SpatialQueryEngine::SelectionKey(
    const Geometry& geometry, double buffer,
    const std::vector<AttributeRange>& thematic) const {
  cache::KeyBuilder kb("sel");
  kb.AppendU64(table_->table_id());
  GEOCOL_ASSIGN_OR_RETURN(ColumnPtr xcol, table_->GetColumn(x_name_));
  GEOCOL_ASSIGN_OR_RETURN(ColumnPtr ycol, table_->GetColumn(y_name_));
  kb.Append(x_name_);
  kb.AppendU64(xcol->epoch());
  kb.Append(y_name_);
  kb.AppendU64(ycol->epoch());
  kb.AppendGeometry(geometry);
  kb.AppendDouble(buffer);
  kb.AppendU64(thematic.size());
  for (const AttributeRange& attr : thematic) {
    GEOCOL_ASSIGN_OR_RETURN(ColumnPtr col, table_->GetColumn(attr.column));
    kb.Append(attr.column);
    kb.AppendU64(col->epoch());
    kb.AppendDouble(attr.lo);
    kb.AppendDouble(attr.hi);
  }
  // Result-shaping knobs. The SIMD level is deliberately absent — the
  // kernel layer guarantees bit-identical selections across levels — but
  // the thread count is present: parallel runs report `workers` in their
  // stats and merge aggregate partials in chunk order, so serial and
  // parallel engines must not share entries.
  kb.AppendU32(options_.use_imprints ? 1u : 0u);
  kb.AppendU32(num_effective_threads());
  kb.AppendU32(options_.imprints.max_bins);
  kb.AppendU32(options_.imprints.sample_size);
  kb.AppendU64(options_.imprints.seed);
  kb.AppendU32(options_.imprints.cacheline_bytes);
  kb.AppendU64(options_.refine.target_points_per_cell);
  kb.AppendU32(options_.refine.max_cells_per_axis);
  kb.AppendU32(options_.refine.use_grid ? 1u : 0u);
  return kb.Take();
}

Result<SelectionResult> SpatialQueryEngine::SelectInBox(const Box& box) {
  return Execute(Geometry(box), 0.0, {});
}

Result<SelectionResult> SpatialQueryEngine::SelectInGeometry(
    const Geometry& geometry) {
  return Execute(geometry, 0.0, {});
}

Result<SelectionResult> SpatialQueryEngine::SelectWithinDistance(
    const Geometry& geometry, double d) {
  if (d < 0) return Status::InvalidArgument("negative distance");
  return Execute(geometry, d, {});
}

Result<SelectionResult> SpatialQueryEngine::Select(
    const Geometry& geometry, double buffer,
    const std::vector<AttributeRange>& thematic) {
  return Execute(geometry, buffer, thematic);
}

Result<double> SpatialQueryEngine::Aggregate(
    const Geometry& geometry, double buffer,
    const std::vector<AttributeRange>& thematic, const std::string& column,
    AggKind kind) {
  // Cache tier (c): the aggregate keys on the full selection key plus the
  // aggregated column's (name, epoch) and the aggregate kind. COUNT skips
  // the tier — it falls out of a tier (a) hit for free.
  std::string agg_key;
  if (cache_ != nullptr && kind != AggKind::kCount) {
    GEOCOL_ASSIGN_OR_RETURN(ColumnPtr agg_col, table_->GetColumn(column));
    GEOCOL_ASSIGN_OR_RETURN(std::string sel_key,
                            SelectionKey(geometry, buffer, thematic));
    cache::KeyBuilder kb("agg");
    kb.Append(sel_key);
    kb.Append(column);
    kb.AppendU64(agg_col->epoch());
    kb.AppendU32(static_cast<uint32_t>(kind));
    agg_key = kb.Take();
    double cached;
    if (cache_->LookupAggregate(agg_key, &cached)) return cached;
  }
  GEOCOL_ASSIGN_OR_RETURN(SelectionResult sel,
                          Execute(geometry, buffer, thematic));
  if (kind == AggKind::kCount) {
    return static_cast<double>(sel.row_ids.size());
  }
  GEOCOL_ASSIGN_OR_RETURN(ColumnPtr col, table_->GetColumn(column));
  GEOCOL_ASSIGN_OR_RETURN(double value,
                          AggregateRows(*col, sel.row_ids, kind, pool_));
  if (cache_ != nullptr) cache_->InsertAggregate(agg_key, value);
  return value;
}

Status SpatialQueryEngine::FilterColumn(const ColumnPtr& column, double lo,
                                        double hi, BitVector* rows,
                                        ImprintScanStats* stats,
                                        QueryProfile* profile,
                                        const std::string& op_name) {
  Timer t;
  if (options_.use_imprints) {
    GEOCOL_ASSIGN_OR_RETURN(std::shared_ptr<const ImprintsIndex> ix,
                            imprints_->GetOrBuild(column));
    double build_ms = t.ElapsedMillis();
    Timer t2;
    GEOCOL_RETURN_NOT_OK(
        ImprintRangeSelect(*column, *ix, lo, hi, rows, stats, pool_));
    char detail[128];
    std::snprintf(detail, sizeof(detail),
                  "lines %llu/%llu full=%llu (build %.2f ms)",
                  static_cast<unsigned long long>(stats->lines_candidate),
                  static_cast<unsigned long long>(stats->lines_total),
                  static_cast<unsigned long long>(stats->lines_full), build_ms);
    int32_t span =
        profile->AddParallel(op_name, t2.ElapsedNanos(), column->size(),
                             stats->rows_selected, stats->workers, detail);
    // Span attributes mirror the registry counters one-to-one so EXPLAIN
    // ANALYZE output can be cross-checked against `geocol metrics`.
    profile->AddAttr(span, "cachelines_probed", stats->lines_candidate);
    profile->AddAttr(span, "cachelines_total", stats->lines_total);
    profile->AddAttr(span, "cachelines_full", stats->lines_full);
    profile->AddAttr(span, "values_checked", stats->values_checked);
    profile->AddAttr(span, "rows_selected", stats->rows_selected);
    profile->AddAttr(span, "false_positive_rate", stats->FalsePositiveRate());
    return Status::OK();
  }
  GEOCOL_RETURN_NOT_OK(FullScanRangeSelect(*column, lo, hi, rows));
  ImprintScanStats local;
  local.lines_total = 0;
  local.values_checked = column->size();
  local.rows_selected = rows->Count();
  *stats = local;
  profile->Add(op_name + ".scan", t.ElapsedNanos(), column->size(),
               local.rows_selected);
  return Status::OK();
}

Result<SelectionResult> SpatialQueryEngine::Execute(
    const Geometry& geometry, double buffer,
    const std::vector<AttributeRange>& thematic) {
  GEOCOL_ASSIGN_OR_RETURN(ColumnPtr xcol, table_->GetColumn(x_name_));
  GEOCOL_ASSIGN_OR_RETURN(ColumnPtr ycol, table_->GetColumn(y_name_));
  if (xcol->size() != ycol->size()) {
    return Status::Corruption("x/y column length mismatch");
  }
  SelectionResult result;
  if (xcol->empty()) return result;

  // Ranges on x/y fold into the filter window; only the other columns'
  // ranges remain as separate filter branches.
  const QueryWindow window =
      MakeQueryWindow(geometry, buffer, thematic, x_name_, y_name_);
  if (window.empty) return result;
  const Box& env = window.envelope;
  const std::vector<AttributeRange>& residual = window.residual;

  GEOCOL_METRIC_COUNTER(c_queries, "geocol_queries_total");
  GEOCOL_METRIC_HISTOGRAM(h_query, "geocol_query_nanos");
  c_queries.Increment();
  Timer query_timer;

  // ---- Cache tier (a): an exact repeat (same table epochs, geometry
  // bits, ranges and knobs) replays the stored row ids and stats. The
  // profile records the replay as a single cache.hit span.
  std::string cache_key;
  if (cache_ != nullptr) {
    GEOCOL_ASSIGN_OR_RETURN(cache_key,
                            SelectionKey(geometry, buffer, thematic));
    if (auto hit = cache_->LookupSelection(cache_key)) {
      result.row_ids = hit->row_ids;
      result.filter_x = hit->filter_x;
      result.filter_y = hit->filter_y;
      result.refine = hit->refine;
      int32_t span =
          result.profile.Add("cache.hit", query_timer.ElapsedNanos(),
                             xcol->size(), result.row_ids.size());
      result.profile.AddAttr(span, "cache_hit", "selection");
      h_query.Observe(query_timer.ElapsedNanos());
      return result;
    }
  }
  auto store_selection = [&]() {
    if (cache_ == nullptr) return;
    // Pre-check admission so a doorkeeper-deferred (first-sighting) large
    // result skips the row-id copy entirely, not just the insert.
    if (!cache_->ShouldAdmit(cache::Tier::kSelection, cache_key,
                             result.row_ids.size() * sizeof(uint64_t))) {
      return;
    }
    auto value = std::make_shared<cache::CachedSelection>();
    value->row_ids = result.row_ids;
    value->filter_x = result.filter_x;
    value->filter_y = result.filter_y;
    value->refine = result.refine;
    cache_->InsertSelection(cache_key, std::move(value));
  };

  // ---- Step 1: filter. Imprint range selections on x and y over the
  // query window, intersected, then the residual thematic ranges, each
  // narrowing the selection. With a
  // pool, all filter branches execute concurrently into branch-local state
  // (selection, stats, profile); results merge in the serial order, so the
  // selection, stats and operator order are identical to serial execution.
  BitVector rows;
  result.profile.OpenSpan("filter");
  if (pool_ != nullptr) {
    struct FilterBranch {
      ColumnPtr column;
      double lo, hi;
      std::string op;
      BitVector rows;
      ImprintScanStats stats;
      QueryProfile profile;
      Status status;
    };
    std::vector<FilterBranch> branches;
    branches.reserve(2 + residual.size());
    branches.push_back(
        {xcol, env.min_x, env.max_x, "filter.imprints.x", {}, {}, {}, {}});
    branches.push_back(
        {ycol, env.min_y, env.max_y, "filter.imprints.y", {}, {}, {}, {}});
    for (const AttributeRange& attr : residual) {
      GEOCOL_ASSIGN_OR_RETURN(ColumnPtr col, table_->GetColumn(attr.column));
      if (col->size() != xcol->size()) {
        return Status::Corruption("thematic column length mismatch: " +
                                  attr.column);
      }
      branches.push_back({col, attr.lo, attr.hi,
                          "filter.imprints." + attr.column, {}, {}, {}, {}});
    }
    pool_->ParallelFor(branches.size(), [&](size_t i) {
      FilterBranch& b = branches[i];
      b.status = FilterColumn(b.column, b.lo, b.hi, &b.rows, &b.stats,
                              &b.profile, b.op);
    });
    for (const FilterBranch& b : branches) {
      GEOCOL_RETURN_NOT_OK(b.status);
    }
    result.filter_x = branches[0].stats;
    result.filter_y = branches[1].stats;
    result.profile.Append(branches[0].profile);
    result.profile.Append(branches[1].profile);
    rows = std::move(branches[0].rows);
    {
      Timer t;
      rows.And(branches[1].rows);
      result.profile.Add(
          "filter.intersect", t.ElapsedNanos(),
          result.filter_x.rows_selected + result.filter_y.rows_selected,
          rows.Count());
    }
    for (size_t i = 2; i < branches.size(); ++i) {
      const FilterBranch& b = branches[i];
      result.profile.Append(b.profile);
      Timer t;
      rows.And(b.rows);
      result.profile.Add("filter.intersect." + residual[i - 2].column,
                         t.ElapsedNanos(), b.stats.rows_selected, rows.Count());
    }
  } else {
    GEOCOL_RETURN_NOT_OK(FilterColumn(xcol, env.min_x, env.max_x, &rows,
                                      &result.filter_x, &result.profile,
                                      "filter.imprints.x"));
    BitVector rows_y;
    GEOCOL_RETURN_NOT_OK(FilterColumn(ycol, env.min_y, env.max_y, &rows_y,
                                      &result.filter_y, &result.profile,
                                      "filter.imprints.y"));
    {
      Timer t;
      rows.And(rows_y);
      result.profile.Add(
          "filter.intersect", t.ElapsedNanos(),
          result.filter_x.rows_selected + result.filter_y.rows_selected,
          rows.Count());
    }
    for (const AttributeRange& attr : residual) {
      GEOCOL_ASSIGN_OR_RETURN(ColumnPtr col, table_->GetColumn(attr.column));
      if (col->size() != xcol->size()) {
        return Status::Corruption("thematic column length mismatch: " +
                                  attr.column);
      }
      BitVector sel;
      ImprintScanStats st;
      GEOCOL_RETURN_NOT_OK(FilterColumn(col, attr.lo, attr.hi, &sel, &st,
                                        &result.profile,
                                        "filter.imprints." + attr.column));
      Timer t;
      rows.And(sel);
      result.profile.Add("filter.intersect." + attr.column, t.ElapsedNanos(),
                         st.rows_selected, rows.Count());
    }
  }

  // ---- Step 2: refinement. A box query with no buffer is already exact
  // after the envelope filter; everything else goes through the grid. The
  // filter span must close before the refine timer starts so the two
  // spans never overlap in trace exports.
  uint64_t candidates = rows.Count();
  result.profile.CloseSpan(xcol->size(), candidates);
  Timer t;
  if (geometry.is_box() && buffer == 0.0) {
    result.row_ids.reserve(candidates);
    rows.CollectSetBits(&result.row_ids);
    result.refine.candidates = candidates;
    result.refine.accepted = candidates;
    result.profile.Add("refine.none(box)", t.ElapsedNanos(), candidates,
                       candidates);
    store_selection();
    h_query.Observe(query_timer.ElapsedNanos());
    return result;
  }
  // Tier (b): seed the refinement grid with classifications from earlier
  // queries over the same geometry, and publish what this query adds.
  CacheCellHook cell_hook(cache_, geometry, buffer);
  GEOCOL_RETURN_NOT_OK(
      GridRefine(*xcol, *ycol, rows, geometry, buffer, options_.refine,
                 &result.row_ids, &result.refine, pool_,
                 cache_ != nullptr ? &cell_hook : nullptr));
  char detail[128];
  std::snprintf(detail, sizeof(detail),
                "grid=%ux%u cells in/bnd/out=%llu/%llu/%llu exact=%llu",
                result.refine.grid_cols, result.refine.grid_rows,
                static_cast<unsigned long long>(result.refine.cells_inside),
                static_cast<unsigned long long>(result.refine.cells_boundary),
                static_cast<unsigned long long>(result.refine.cells_outside),
                static_cast<unsigned long long>(result.refine.exact_tests));
  int32_t refine_span = result.profile.AddParallel(
      options_.refine.use_grid ? "refine.grid" : "refine.exhaustive",
      t.ElapsedNanos(), candidates, result.row_ids.size(),
      result.refine.workers, detail);
  if (cell_hook.seeded()) {
    result.profile.AddAttr(refine_span, "cache_hit", "grid");
  }
  store_selection();
  h_query.Observe(query_timer.ElapsedNanos());
  return result;
}

}  // namespace geocol
