#include "core/spatial_engine.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <span>

#include "columns/types.h"
#include "telemetry/metrics.h"
#include "util/timer.h"

namespace geocol {

Result<double> AggregateRows(std::span<const Column* const> parts,
                             std::span<const uint64_t> bases,
                             const std::vector<uint64_t>& rows, AggKind kind,
                             ThreadPool* pool) {
  if (kind == AggKind::kCount) return static_cast<double>(rows.size());
  double out = std::nan("");
  if (rows.empty()) return out;
  Status gather_status;
  DispatchDataType(parts[0]->type(), [&]<typename T>() {
    if (parts.size() == 1 && !parts[0]->paged()) {
      std::span<const T> values = parts[0]->Values<T>();
      out = AggregateValues<T>(rows, kind, pool,
                               [&](size_t i) { return values[rows[i]]; });
      return;
    }
    // Gather once, then accumulate over positions exactly as the typed-span
    // branch does: same chunking, same merge order, bit-identical result.
    std::vector<T> gathered(rows.size());
    gather_status = GatherRows<T>(parts, bases, rows, gathered.data());
    if (!gather_status.ok()) return;
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

SpatialQueryEngine::SpatialQueryEngine(
    std::shared_ptr<FlatTable> table, EngineOptions options,
    std::string x_column, std::string y_column, ThreadPool* borrowed_pool,
    std::shared_ptr<ImprintManager> shared_imprints)
    : table_(std::move(table)),
      options_(options),
      x_name_(std::move(x_column)),
      y_name_(std::move(y_column)),
      imprints_(shared_imprints != nullptr
                    ? shared_imprints
                    : std::make_shared<ImprintManager>(options.imprints)),
      owns_imprints_(shared_imprints == nullptr),
      pool_(borrowed_pool != nullptr && borrowed_pool->num_threads() > 0
                ? borrowed_pool
                : nullptr) {
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
}

void SpatialQueryEngine::set_cache_budget(uint64_t budget_bytes) {
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

Result<SelectionResult> SpatialQueryEngine::SelectUncached(
    const Geometry& geometry, double buffer,
    const std::vector<AttributeRange>& thematic) {
  return Execute(geometry, buffer, thematic, /*use_cache=*/false);
}

bool SpatialQueryEngine::SelectionCached(
    const Geometry& geometry, double buffer,
    const std::vector<AttributeRange>& thematic) const {
  if (cache_ == nullptr) return false;
  Result<std::string> key = SelectionKey(geometry, buffer, thematic);
  return key.ok() && cache_->Contains(*key);
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
  // A cached selection makes this a gather over the replayed rows.
  GEOCOL_ASSIGN_OR_RETURN(SelectionResult sel,
                          Execute(geometry, buffer, thematic));
  if (kind == AggKind::kCount) {
    return static_cast<double>(sel.row_ids.size());
  }
  GEOCOL_ASSIGN_OR_RETURN(ColumnPtr col, table_->GetColumn(column));
  return AggregateRows(*col, sel.row_ids, kind, pool_);
}

Result<SelectionResult> SpatialQueryEngine::Execute(
    const Geometry& geometry, double buffer,
    const std::vector<AttributeRange>& thematic, bool use_cache) {
  GEOCOL_ASSIGN_OR_RETURN(ColumnPtr xcol, table_->GetColumn(x_name_));
  GEOCOL_ASSIGN_OR_RETURN(ColumnPtr ycol, table_->GetColumn(y_name_));
  if (xcol->size() != ycol->size()) {
    return Status::Corruption("x/y column length mismatch");
  }
  SelectionResult result;
  if (xcol->empty()) return result;

  // Ranges on x/y fold into the filter window; only the other columns'
  // ranges remain as residual terms of the filter scan.
  const QueryWindow window =
      MakeQueryWindow(geometry, buffer, thematic, x_name_, y_name_);
  if (window.empty) return result;
  const Box& env = window.envelope;
  const std::vector<AttributeRange>& residual = window.residual;

  GEOCOL_METRIC_COUNTER(c_queries, "geocol_queries_total");
  GEOCOL_METRIC_HISTOGRAM(h_query, "geocol_query_nanos");
  c_queries.Increment();
  Timer query_timer;

  // ---- Result cache: an exact repeat (same table epochs, geometry bits,
  // ranges and knobs) replays the stored row ids and stats. The profile
  // records the replay as a single cache.hit span.
  cache::QueryResultCache* const cache = use_cache ? cache_ : nullptr;
  std::string cache_key;
  if (cache != nullptr) {
    GEOCOL_ASSIGN_OR_RETURN(cache_key,
                            SelectionKey(geometry, buffer, thematic));
    if (auto hit = cache->LookupSelection(cache_key)) {
      result.row_ids = hit->row_ids;
      result.filter = hit->filter;
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
    // Pre-check admission so a doorkeeper-deferred (first-sighting) result
    // skips the row-id copy entirely, not just the insert.
    if (cache == nullptr || !cache->ShouldAdmit(cache_key)) return;
    auto value = std::make_shared<cache::CachedSelection>();
    value->row_ids = result.row_ids;
    value->filter = result.filter;
    value->refine = result.refine;
    cache->InsertSelection(cache_key, std::move(value));
  };

  // ---- Step 1: filter. One conjunctive scan over the query window's x
  // and y ranges and the residual thematic ranges (core/imprint_scan.h)
  // yields the ascending candidate rows.
  std::vector<ColumnPtr> columns = {xcol, ycol};
  std::vector<RangeTerm> terms = {{xcol.get(), nullptr, env.min_x, env.max_x},
                                  {ycol.get(), nullptr, env.min_y, env.max_y}};
  for (const AttributeRange& attr : residual) {
    GEOCOL_ASSIGN_OR_RETURN(ColumnPtr col, table_->GetColumn(attr.column));
    if (col->size() != xcol->size()) {
      return Status::Corruption("thematic column length mismatch: " +
                                attr.column);
    }
    terms.push_back({col.get(), nullptr, attr.lo, attr.hi});
    columns.push_back(std::move(col));
  }
  // A statement that builds an index, or waits for another statement's
  // build, records that time as its own filter.build span; a warm
  // statement's indexes are cache hits and add no span.
  Timer build_timer;
  bool cold = false;
  std::vector<std::shared_ptr<const ImprintsIndex>> indexes;
  if (options_.use_imprints) {
    for (size_t i = 0; i < columns.size(); ++i) {
      GEOCOL_ASSIGN_OR_RETURN(indexes.emplace_back(),
                              imprints_->GetOrBuild(columns[i], &cold));
      terms[i].index = indexes.back().get();
    }
  }
  if (cold) {
    result.profile.Add("filter.build", build_timer.ElapsedNanos(),
                       xcol->size(), xcol->size());
  }
  Timer filter_timer;
  std::vector<uint64_t> candidates;
  GEOCOL_RETURN_NOT_OK(
      ConjunctiveRangeSelect(terms, &candidates, &result.filter, pool_));
  const ImprintScanStats& fs = result.filter;
  char filter_detail[128];
  std::snprintf(filter_detail, sizeof(filter_detail),
                "lines %llu/%llu full=%llu",
                static_cast<unsigned long long>(fs.lines_candidate),
                static_cast<unsigned long long>(fs.lines_total),
                static_cast<unsigned long long>(fs.lines_full));
  const int32_t filter_span = result.profile.AddParallel(
      options_.use_imprints ? "filter.imprints" : "filter.scan",
      filter_timer.ElapsedNanos(), xcol->size(), candidates.size(), fs.workers,
      filter_detail);
  // The cacheline, value and row attributes mirror the registry counters
  // one-to-one so EXPLAIN ANALYZE output can be cross-checked against
  // `geocol metrics`.
  result.profile.AddAttr(filter_span, "columns",
                         static_cast<uint64_t>(terms.size()));
  result.profile.AddAttr(filter_span, "cachelines_probed", fs.lines_candidate);
  result.profile.AddAttr(filter_span, "cachelines_total", fs.lines_total);
  result.profile.AddAttr(filter_span, "cachelines_full", fs.lines_full);
  result.profile.AddAttr(filter_span, "blocks_visited", fs.blocks_visited);
  result.profile.AddAttr(filter_span, "lines_visited", fs.lines_visited);
  result.profile.AddAttr(filter_span, "values_checked", fs.values_checked);
  result.profile.AddAttr(filter_span, "rows_selected", fs.rows_selected);
  result.profile.AddAttr(filter_span, "false_positive_rate",
                         fs.FalsePositiveRate());

  // ---- Step 2: refinement. A box query with no buffer is already exact
  // after the envelope filter; everything else goes through the grid.
  const uint64_t num_candidates = candidates.size();
  Timer t;
  if (geometry.is_box() && buffer == 0.0) {
    result.row_ids = std::move(candidates);
    result.refine.candidates = num_candidates;
    result.refine.accepted = num_candidates;
    result.profile.Add("refine.none(box)", t.ElapsedNanos(), num_candidates,
                       num_candidates);
    store_selection();
    h_query.Observe(query_timer.ElapsedNanos());
    return result;
  }
  GEOCOL_RETURN_NOT_OK(GridRefine(*xcol, *ycol, candidates, geometry, buffer,
                                  options_.refine, &result.row_ids,
                                  &result.refine, pool_));
  char detail[128];
  std::snprintf(detail, sizeof(detail),
                "grid=%ux%u cells in/bnd/out=%llu/%llu/%llu exact=%llu",
                result.refine.grid_cols, result.refine.grid_rows,
                static_cast<unsigned long long>(result.refine.cells_inside),
                static_cast<unsigned long long>(result.refine.cells_boundary),
                static_cast<unsigned long long>(result.refine.cells_outside),
                static_cast<unsigned long long>(result.refine.exact_tests));
  result.profile.AddParallel(
      options_.refine.use_grid ? "refine.grid" : "refine.exhaustive",
      t.ElapsedNanos(), num_candidates, result.row_ids.size(),
      result.refine.workers, detail);
  store_selection();
  h_query.Observe(query_timer.ElapsedNanos());
  return result;
}

}  // namespace geocol
