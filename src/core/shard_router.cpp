#include "core/shard_router.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <thread>

#include "columns/column_file.h"
#include "columns/types.h"
#include "sfc/hilbert.h"
#include "telemetry/heat.h"
#include "telemetry/metrics.h"
#include "util/timer.h"

namespace geocol {

namespace {

uint32_t EffectiveThreads(uint32_t requested) {
  if (requested != 0) return requested;
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<uint32_t>(hw);
}

/// Index of the shard containing `row` given the base offsets.
size_t ShardIndexFor(const std::vector<uint64_t>& bases, uint64_t row) {
  size_t lo = 0, hi = bases.size();
  while (lo + 1 < hi) {
    size_t mid = (lo + hi) / 2;
    if (bases[mid] <= row) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

void AccumulateFilterStats(const ImprintScanStats& in, ImprintScanStats* out) {
  out->lines_total += in.lines_total;
  out->lines_candidate += in.lines_candidate;
  out->lines_full += in.lines_full;
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

}  // namespace

ShardRouter::ShardRouter(std::shared_ptr<ShardedTable> table,
                         EngineOptions options)
    : table_(std::move(table)), options_(options) {
  uint32_t threads = EffectiveThreads(options_.num_threads);
  if (threads > 1) {
    // The calling thread participates in every parallel loop, so the pool
    // only needs threads-1 workers. Shard engines borrow this pool;
    // nested ParallelFor (scatter over shards, morsels within a shard) is
    // safe and keeps all workers busy.
    pool_ = std::make_unique<ThreadPool>(threads - 1);
  }
  shards_.reserve(table_->num_shards());
  bases_.reserve(table_->num_shards());
  start_keys_.reserve(table_->num_shards());
  // Routing keys for live appends: shard i owns Hilbert keys in
  // [start_keys_[i], start_keys_[i+1]). The first row of a shard is the
  // smallest key it holds (shards are contiguous runs of the sorted row
  // space), and appends never change a shard's first row, so these are
  // stable for the router's lifetime. A rowless shard inherits its
  // predecessor's key, which routes nothing away from non-empty shards.
  uint64_t prev_key = 0;
  for (size_t i = 0; i < table_->num_shards(); ++i) {
    const ShardSlice& slice = table_->shard(i);
    bases_.push_back(slice.base);
    shards_.push_back(std::make_shared<LocalShard>(
        slice, options_, table_->x_column(), table_->y_column(),
        pool_.get()));
    uint64_t key = prev_key;
    if (i > 0 && slice.table->num_rows() > 0) {
      ColumnPtr x = slice.table->column(table_->x_column());
      ColumnPtr y = slice.table->column(table_->y_column());
      if (x != nullptr && y != nullptr) {
        key = HilbertEncodeScaled(x->GetDouble(0), y->GetDouble(0),
                                  table_->extent(),
                                  table_->options().hilbert_order);
      }
    }
    // Shard 0 owns everything below shard 1's first key, hence key 0.
    start_keys_.push_back(i == 0 ? 0 : key);
    prev_key = start_keys_.back();
  }
  cache_owner_ = options_.cache.instance;
  set_cache_budget(options_.cache.budget_bytes);
}

Schema ShardRouter::schema() const {
  std::shared_lock<std::shared_mutex> lock(shards_mu_);
  return table_->schema();
}

ShardsView ShardRouter::View() const {
  std::shared_lock<std::shared_mutex> lock(shards_mu_);
  ShardsView view;
  view.shards = shards_;
  view.bases = bases_;
  view.total_rows = table_->num_rows();
  view.version = view_version_;
  return view;
}

void ShardRouter::set_cache_budget(uint64_t budget_bytes) {
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

uint64_t ShardRouter::IndexStorageBytes() const {
  ShardsView view = View();
  uint64_t total = 0;
  for (const auto& shard : view.shards) total += shard->IndexStorageBytes();
  return total;
}

Result<std::string> ShardRouter::SelectionKey(
    const ShardsView& view, const Geometry& geometry, double buffer,
    const std::vector<AttributeRange>& thematic) const {
  cache::KeyBuilder kb("ssel");
  // The pinned shard set: a re-shard produces a new layout id, an append
  // publishes a new table version for each affected shard (fresh version
  // token) and shifts the bases of the shards behind it — either way the
  // key changes and stale entries age out by construction.
  kb.AppendU64(table_->layout_id());
  kb.AppendU32(static_cast<uint32_t>(view.shards.size()));
  kb.Append(table_->x_column());
  kb.Append(table_->y_column());
  for (size_t i = 0; i < view.shards.size(); ++i) {
    const auto& shard = view.shards[i];
    kb.AppendU64(shard->VersionToken());
    kb.AppendU64(view.bases[i]);
    GEOCOL_ASSIGN_OR_RETURN(uint64_t xe,
                            shard->ColumnEpoch(table_->x_column()));
    GEOCOL_ASSIGN_OR_RETURN(uint64_t ye,
                            shard->ColumnEpoch(table_->y_column()));
    kb.AppendU64(xe);
    kb.AppendU64(ye);
  }
  kb.AppendGeometry(geometry);
  kb.AppendDouble(buffer);
  kb.AppendU64(thematic.size());
  for (const AttributeRange& attr : thematic) {
    kb.Append(attr.column);
    for (const auto& shard : view.shards) {
      GEOCOL_ASSIGN_OR_RETURN(uint64_t e, shard->ColumnEpoch(attr.column));
      kb.AppendU64(e);
    }
    kb.AppendDouble(attr.lo);
    kb.AppendDouble(attr.hi);
  }
  // Result-shaping knobs, mirroring the engine's selection key.
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

Result<SelectionResult> ShardRouter::SelectInBox(const Box& box) {
  return Execute(View(), Geometry(box), 0.0, {});
}

Result<SelectionResult> ShardRouter::SelectInGeometry(
    const Geometry& geometry) {
  return Execute(View(), geometry, 0.0, {});
}

Result<SelectionResult> ShardRouter::Select(
    const Geometry& geometry, double buffer,
    const std::vector<AttributeRange>& thematic) {
  return Execute(View(), geometry, buffer, thematic);
}

Result<SelectionResult> ShardRouter::Select(
    const ShardsView& view, const Geometry& geometry, double buffer,
    const std::vector<AttributeRange>& thematic) {
  return Execute(view, geometry, buffer, thematic);
}

Result<SelectionResult> ShardRouter::Execute(
    const ShardsView& view, const Geometry& geometry, double buffer,
    const std::vector<AttributeRange>& thematic) {
  SelectionResult result;
  const uint64_t total_rows = view.total_rows;
  if (total_rows == 0) return result;

  // Prune and cover against the query window (geometry envelope ∩ x/y
  // ranges), so a BETWEEN viewport prunes exactly like the equal box.
  const QueryWindow window = MakeQueryWindow(
      geometry, buffer, thematic, table_->x_column(), table_->y_column());
  if (window.empty) return result;

  Timer query_timer;

  // ---- Result cache: an exact repeat against this exact shard set
  // replays the merged row ids and stats.
  std::string cache_key;
  if (cache_ != nullptr) {
    GEOCOL_ASSIGN_OR_RETURN(cache_key,
                            SelectionKey(view, geometry, buffer, thematic));
    if (auto hit = cache_->LookupSelection(cache_key)) {
      result.row_ids = hit->row_ids;
      result.filter_x = hit->filter_x;
      result.filter_y = hit->filter_y;
      result.refine = hit->refine;
      int32_t span =
          result.profile.Add("cache.hit", query_timer.ElapsedNanos(),
                             total_rows, result.row_ids.size());
      result.profile.AddAttr(span, "cache_hit", "selection");
      return result;
    }
  }
  auto store_selection = [&]() {
    if (cache_ == nullptr || !cache_->ShouldAdmit(cache_key)) return;
    auto value = std::make_shared<cache::CachedSelection>();
    value->row_ids = result.row_ids;
    value->filter_x = result.filter_x;
    value->filter_y = result.filter_y;
    value->refine = result.refine;
    cache_->InsertSelection(cache_key, std::move(value));
  };

  // ---- Prune: classify every shard against the query window before any
  // imprint is consulted or built. Three outcomes:
  //   pruned  — bbox misses the window; the shard contributes nothing.
  //   covered — the window's coverage box (box geometry ∩ x/y ranges)
  //             fully contains the shard's bbox and no other column is
  //             filtered, so every row qualifies (bbox-as-zonemap): the
  //             shard's full id range is written straight into the merged
  //             result without touching a single column. A covered shard
  //             contributes no filter/refine stats — nothing was scanned.
  //   scanned — everything else runs the shard engine's filter + refine.
  // Pruning is the headline win of sharding: a clustered viewport query
  // touches a handful of shards and never allocates whole-table state.
  GEOCOL_METRIC_COUNTER(c_pruned, "geocol_shards_pruned_total");
  GEOCOL_METRIC_COUNTER(c_scanned, "geocol_shards_scanned_total");
  GEOCOL_METRIC_COUNTER(c_covered, "geocol_shards_covered_total");
  const bool coverable = window.residual.empty();
  struct ShardWork {
    size_t shard;
    int32_t branch;  ///< index into branches, or -1 for a covered shard
  };
  std::vector<ShardWork> work;
  std::vector<size_t> scanned;
  size_t num_covered = 0;
  work.reserve(view.shards.size());
  scanned.reserve(view.shards.size());
  for (size_t i = 0; i < view.shards.size(); ++i) {
    const Box& bbox = view.shards[i]->bbox();
    if (!bbox.Intersects(window.envelope)) continue;
    if (coverable && window.coverage.Contains(bbox)) {
      work.push_back({i, -1});
      ++num_covered;
    } else {
      work.push_back({i, static_cast<int32_t>(scanned.size())});
      scanned.push_back(i);
    }
  }
  // Covered shards count as scanned in the headline counters (they were
  // answered, not skipped), and separately in the covered counter.
  c_scanned.Increment(work.size());
  c_pruned.Increment(view.shards.size() - work.size());
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
    auto r = view.shards[s]->Select(geometry, buffer, thematic);
    b.status = r.status();
    if (r.ok()) {
      b.sel = std::move(*r);
      b.profile.Append(b.sel.profile);
      char detail[64];
      std::snprintf(detail, sizeof(detail), "shard %zu base=%llu", s,
                    static_cast<unsigned long long>(view.bases[s]));
      b.profile.CloseSpan(view.shards[s]->num_rows(), b.sel.row_ids.size(),
                          detail);
    } else {
      b.profile.CloseSpan(0, 0);
    }
  };
  if (pool_ != nullptr && branches.size() > 1) {
    pool_->ParallelFor(branches.size(), run_shard);
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
  // cover the shard); multiple shards merge field-wise in shard order;
  // covered shards contribute nothing.
  uint64_t merged = 0;
  for (const ShardWork& w : work) {
    merged += w.branch < 0 ? view.shards[w.shard]->num_rows()
                           : branches[w.branch].sel.row_ids.size();
  }
  result.row_ids.resize(merged);
  uint64_t* out = result.row_ids.data();
  for (const ShardWork& w : work) {
    const uint64_t base = view.bases[w.shard];
    if (w.branch < 0) {
      const uint64_t rows = view.shards[w.shard]->num_rows();
      for (uint64_t r = 0; r < rows; ++r) out[r] = base + r;
      out += rows;
      int32_t span = result.profile.Add("shard.covered", 0, rows, rows);
      result.profile.AddAttr(span, "shard",
                             static_cast<uint64_t>(w.shard));
      telemetry::TouchShardHeat(table_->name(),
                                static_cast<uint32_t>(w.shard),
                                /*covered=*/true, rows);
      continue;
    }
    const ShardBranch& b = branches[w.branch];
    const uint64_t* in = b.sel.row_ids.data();
    const size_t n = b.sel.row_ids.size();
    for (size_t i = 0; i < n; ++i) out[i] = base + in[i];
    out += n;
    telemetry::TouchShardHeat(table_->name(),
                              static_cast<uint32_t>(w.shard),
                              /*covered=*/false, n);
    result.profile.Append(b.profile);
    if (branches.size() == 1 && num_covered == 0) {
      result.filter_x = b.sel.filter_x;
      result.filter_y = b.sel.filter_y;
      result.refine = b.sel.refine;
    } else {
      AccumulateFilterStats(b.sel.filter_x, &result.filter_x);
      AccumulateFilterStats(b.sel.filter_y, &result.filter_y);
      AccumulateRefineStats(b.sel.refine, &result.refine);
    }
  }
  char detail[96];
  std::snprintf(detail, sizeof(detail),
                "scanned %zu/%zu shards (%zu pruned, %zu covered)",
                work.size(), view.shards.size(),
                view.shards.size() - work.size(), num_covered);
  result.profile.CloseSpan(total_rows, result.row_ids.size(), detail);
  result.profile.AddAttr(route_span, "shards_total",
                         static_cast<uint64_t>(view.shards.size()));
  result.profile.AddAttr(route_span, "shards_scanned",
                         static_cast<uint64_t>(work.size()));
  result.profile.AddAttr(route_span, "shards_pruned",
                         static_cast<uint64_t>(view.shards.size() -
                                               work.size()));
  result.profile.AddAttr(route_span, "shards_covered",
                         static_cast<uint64_t>(num_covered));
  store_selection();
  return result;
}

Result<double> ShardRouter::AggregateGlobalRows(
    const ShardsView& view, const std::vector<uint64_t>& rows,
    const std::string& column, AggKind kind, ThreadPool* pool) const {
  if (kind == AggKind::kCount) return static_cast<double>(rows.size());
  std::vector<ColumnPtr> columns;
  columns.reserve(view.shards.size());
  for (const auto& shard : view.shards) {
    GEOCOL_ASSIGN_OR_RETURN(ColumnPtr col, shard->GetColumn(column));
    columns.push_back(std::move(col));
  }
  double out = std::nan("");
  if (rows.empty()) return out;
  bool any_paged = false;
  for (const ColumnPtr& col : columns) any_paged |= col->paged();
  Status gather_status;
  DispatchDataType(columns[0]->type(), [&]<typename T>() {
    if (!any_paged) {
      std::vector<std::span<const T>> spans;
      spans.reserve(columns.size());
      for (const ColumnPtr& col : columns) spans.push_back(col->Values<T>());
      out = AggregateValues<T>(rows, kind, pool, [&](size_t i) {
        const uint64_t r = rows[i];
        size_t s = ShardIndexFor(view.bases, r);
        return spans[s][r - view.bases[s]];
      });
      return;
    }
    // Paged shards: gather the selected values once, re-pinning only when
    // the walk leaves the current chunk or shard. The accumulator then
    // runs over positions exactly as in the resident branch, so sharded
    // paged aggregates stay bit-identical to the resident ones.
    std::vector<T> gathered(rows.size());
    ColumnChunkPin pin;
    size_t pin_shard = SIZE_MAX;
    for (size_t i = 0; i < rows.size(); ++i) {
      const uint64_t r = rows[i];
      const size_t s = ShardIndexFor(view.bases, r);
      const uint64_t local = r - view.bases[s];
      const Column& col = *columns[s];
      if (!col.paged()) {
        gathered[i] = col.Values<T>()[local];
        continue;
      }
      if (s != pin_shard || pin.keepalive == nullptr ||
          local < pin.first_row || local >= pin.first_row + pin.row_count) {
        auto pinned = col.PinChunk(local / col.chunk_rows());
        if (!pinned.ok()) {
          gather_status = pinned.status();
          return;
        }
        pin = std::move(*pinned);
        pin_shard = s;
      }
      gathered[i] = pin.values<T>()[local - pin.first_row];
    }
    out = AggregateValues<T>(rows, kind, pool,
                             [&](size_t i) { return gathered[i]; });
  });
  GEOCOL_RETURN_NOT_OK(gather_status);
  return out;
}

Result<double> ShardRouter::AggregateGlobalRows(
    const std::vector<uint64_t>& rows, const std::string& column,
    AggKind kind, ThreadPool* pool) const {
  return AggregateGlobalRows(View(), rows, column, kind, pool);
}

Result<double> ShardRouter::Aggregate(
    const Geometry& geometry, double buffer,
    const std::vector<AttributeRange>& thematic, const std::string& column,
    AggKind kind) {
  // One view pins the whole operation: the key, the selection and the
  // per-shard value reads all see the same shard set even while appends
  // publish.
  ShardsView view = View();
  GEOCOL_ASSIGN_OR_RETURN(SelectionResult sel,
                          Execute(view, geometry, buffer, thematic));
  if (kind == AggKind::kCount) {
    return static_cast<double>(sel.row_ids.size());
  }
  return AggregateGlobalRows(view, sel.row_ids, column, kind, pool_.get());
}

Status ShardRouter::Append(const FlatTable& batch) {
  GEOCOL_RETURN_NOT_OK(batch.Validate());
  if (batch.num_rows() == 0) return Status::OK();
  GEOCOL_METRIC_COUNTER(c_commits, "geocol_shard_append_commits_total");
  GEOCOL_METRIC_COUNTER(c_rows, "geocol_shard_append_rows_total");
  GEOCOL_METRIC_COUNTER(c_shards, "geocol_shard_append_shards_total");

  // One appender at a time; routing and the COW column builds below run
  // outside shards_mu_, so in-flight queries never wait on an append.
  // table_'s slices are only mutated by this function (under the view
  // lock), so reading them here — holding append_mu_ — is stable.
  std::lock_guard<std::mutex> append_lock(append_mu_);
  if (!(batch.schema() == table_->schema())) {
    return Status::InvalidArgument("batch schema differs from sharded table");
  }
  GEOCOL_ASSIGN_OR_RETURN(ColumnPtr bx, batch.GetColumn(table_->x_column()));
  GEOCOL_ASSIGN_OR_RETURN(ColumnPtr by, batch.GetColumn(table_->y_column()));

  // ---- Route: batch row -> owning shard by Hilbert start keys. The
  // extent and curve order are fixed at layout creation (out-of-extent
  // points clamp to the boundary cells), so routing is stable across the
  // table's whole append history.
  const uint64_t n = batch.num_rows();
  std::vector<std::vector<uint64_t>> rows_for(start_keys_.size());
  for (uint64_t r = 0; r < n; ++r) {
    const uint64_t key =
        HilbertEncodeScaled(bx->GetDouble(r), by->GetDouble(r),
                            table_->extent(),
                            table_->options().hilbert_order);
    const size_t s = static_cast<size_t>(
        std::upper_bound(start_keys_.begin(), start_keys_.end(), key) -
        start_keys_.begin()) - 1;
    rows_for[s].push_back(r);
  }

  // ---- Build: extend every affected shard's columns copy-on-write.
  // Untouched shards are not looked at, let alone copied.
  struct Replacement {
    size_t shard = 0;
    std::shared_ptr<FlatTable> table;
    Box bbox;
    std::string dir;  ///< new shard directory; "" while memory-only
  };
  std::vector<Replacement> reps;
  std::vector<uint8_t> gather;
  for (size_t s = 0; s < rows_for.size(); ++s) {
    const std::vector<uint64_t>& rows = rows_for[s];
    if (rows.empty()) continue;
    const ShardSlice& slice = table_->shard(s);
    Replacement rep;
    rep.shard = s;
    rep.bbox = slice.bbox;
    for (uint64_t r : rows) {
      rep.bbox.Extend(bx->GetDouble(r), by->GetDouble(r));
    }
    auto next = std::make_shared<FlatTable>(slice.table->name());
    for (const ColumnPtr& base : slice.table->columns()) {
      GEOCOL_ASSIGN_OR_RETURN(ColumnPtr add, batch.GetColumn(base->name()));
      const size_t w = base->width();
      gather.resize(rows.size() * w);
      double add_min = std::numeric_limits<double>::infinity();
      double add_max = -std::numeric_limits<double>::infinity();
      for (size_t i = 0; i < rows.size(); ++i) {
        std::memcpy(gather.data() + i * w, add->raw_data() + rows[i] * w, w);
        const double v = add->GetDouble(rows[i]);
        add_min = std::min(add_min, v);
        add_max = std::max(add_max, v);
      }
      GEOCOL_ASSIGN_OR_RETURN(
          ColumnPtr appended,
          Column::CloneAppend(base, gather.data(), rows.size()));
      // Seed the stats cache (base stats ∪ batch extremes) so neither the
      // bbox maintenance here nor a first query rescans the whole shard.
      if (base->empty()) {
        appended->SetCachedStats(add_min, add_max);
      } else {
        const ColumnStats& bs = base->Stats();
        appended->SetCachedStats(std::min(bs.min, add_min),
                                 std::max(bs.max, add_max));
      }
      GEOCOL_RETURN_NOT_OK(next->AddColumn(std::move(appended)));
    }
    GEOCOL_RETURN_NOT_OK(next->Validate());
    rep.table = std::move(next);
    reps.push_back(std::move(rep));
  }

  // ---- Durability first (layouts loaded from / persisted to disk carry
  // per-slice dirs): replacement shard tables go into next-generation
  // directories — never touching the ones the live manifest references —
  // and the shards.gsm swap is the one crash-commit point for the whole
  // batch. Before it, reopen sees the old epoch; after it, the new one.
  const bool persisted = !table_->shard(0).dir.empty();
  uint64_t new_gen = 0;
  std::string root;
  if (persisted) {
    const std::string& dir0 = table_->shard(0).dir;
    const size_t slash = dir0.find_last_of('/');
    if (slash == std::string::npos) {
      return Status::Internal("unexpected shard dir layout: " + dir0);
    }
    root = dir0.substr(0, slash);
    GEOCOL_ASSIGN_OR_RETURN(ShardedTableManifest m,
                            ReadShardedTableManifest(root));
    if (m.shards.size() != table_->num_shards()) {
      return Status::Corruption("on-disk shard count drifted from layout: " +
                                root);
    }
    new_gen = m.generation + 1;
    m.generation = new_gen;
    for (Replacement& rep : reps) {
      ShardedTableManifest::ManifestShard& ms = m.shards[rep.shard];
      ms.dirname = ShardDirName(rep.shard, new_gen);
      ms.rows = rep.table->num_rows();
      ms.bbox = rep.bbox;
      rep.dir = root + "/" + ms.dirname;
      GEOCOL_RETURN_NOT_OK(WriteTableDir(*rep.table, rep.dir));
    }
    // The commit point.
    GEOCOL_RETURN_NOT_OK(WriteShardedTableManifest(root, m));
  }

  // ---- Publish: build the replacement shard handles (sharing each
  // retired shard's imprint manager, so appended columns extend their
  // lineage base's imprints incrementally), then swap them in under the
  // view lock. Readers pinned to older views keep their shard set alive
  // through the shared_ptrs; new views see the whole batch.
  std::vector<std::shared_ptr<Shard>> replacements;
  replacements.reserve(reps.size());
  for (const Replacement& rep : reps) {
    // The router only ever builds LocalShards (the remote evolution would
    // route appends very differently), so the downcast is structural.
    auto old = std::static_pointer_cast<LocalShard>(shards_[rep.shard]);
    ShardSlice next;
    next.table = rep.table;
    next.bbox = rep.bbox;
    next.dir = rep.dir.empty() ? table_->shard(rep.shard).dir : rep.dir;
    replacements.push_back(std::make_shared<LocalShard>(
        next, options_, table_->x_column(), table_->y_column(), pool_.get(),
        old->imprint_manager_ptr()));
  }
  {
    std::unique_lock<std::shared_mutex> lock(shards_mu_);
    for (size_t i = 0; i < reps.size(); ++i) {
      const Replacement& rep = reps[i];
      ShardSlice& slice = table_->shards()[rep.shard];
      slice.table = rep.table;
      slice.bbox = rep.bbox;
      if (!rep.dir.empty()) slice.dir = rep.dir;
      shards_[rep.shard] = replacements[i];
    }
    // Appending to shard i shifts the global base of every shard after
    // it; rebase the whole run. Pinned views keep their own bases.
    uint64_t base = 0;
    for (size_t s = 0; s < shards_.size(); ++s) {
      ShardSlice& slice = table_->shards()[s];
      slice.base = base;
      bases_[s] = base;
      base += slice.table->num_rows();
    }
    table_->set_num_rows(base);
    if (persisted) table_->set_generation(new_gen);
    ++view_version_;
  }

  c_commits.Increment();
  c_rows.Increment(n);
  c_shards.Increment(reps.size());
  return Status::OK();
}

Result<ShardedColumnReader> ShardedColumnReader::Make(
    const ShardsView& view, const std::string& column) {
  ShardedColumnReader reader;
  reader.columns_.reserve(view.shards.size());
  for (const auto& shard : view.shards) {
    GEOCOL_ASSIGN_OR_RETURN(ColumnPtr col, shard->GetColumn(column));
    reader.columns_.push_back(std::move(col));
  }
  reader.bases_ = view.bases;
  return reader;
}

Result<ShardedColumnReader> ShardedColumnReader::Make(
    const ShardRouter& router, const std::string& column) {
  return Make(router.View(), column);
}

double ShardedColumnReader::GetDouble(uint64_t global_row) const {
  size_t s = ShardIndexFor(bases_, global_row);
  return columns_[s]->GetDouble(global_row - bases_[s]);
}

}  // namespace geocol
