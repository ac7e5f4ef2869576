#include "core/shard_router.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "columns/column_file.h"
#include "columns/types.h"
#include "sfc/hilbert.h"
#include "telemetry/heat.h"
#include "telemetry/metrics.h"
#include "util/timer.h"

namespace geocol {

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
  view_ = MakeView(0);
}

Schema ShardRouter::schema() const {
  std::shared_lock<std::shared_mutex> lock(shards_mu_);
  return table_->schema();
}

std::shared_ptr<const ShardsView> ShardRouter::MakeView(
    uint64_t version) const {
  auto view = std::make_shared<ShardsView>();
  view->shards.assign(shards_.begin(), shards_.end());
  for (const ShardSlice& slice : table_->shards()) {
    view->bases.push_back(slice.base);
  }
  view->version = version;
  view->x_column = table_->x_column();
  view->y_column = table_->y_column();
  view->routed = true;
  view->name = table_->name();
  view->generation = table_->generation();
  view->pool = pool_.get();
  return view;
}

std::shared_ptr<const ShardsView> ShardRouter::Pin() const {
  std::shared_lock<std::shared_mutex> lock(shards_mu_);
  return view_;
}

uint64_t ShardRouter::IndexStorageBytes() const {
  std::shared_ptr<const ShardsView> view = Pin();
  uint64_t total = 0;
  for (const auto& shard : view->shards) total += shard->IndexStorageBytes();
  return total;
}

Result<SelectionResult> ShardRouter::SelectInBox(const Box& box) {
  return Pin()->Select(Geometry(box), 0.0, {});
}

Result<SelectionResult> ShardRouter::SelectInGeometry(
    const Geometry& geometry) {
  return Pin()->Select(geometry, 0.0, {});
}

Result<SelectionResult> ShardRouter::Select(
    const Geometry& geometry, double buffer,
    const std::vector<AttributeRange>& thematic) {
  return Pin()->Select(geometry, buffer, thematic);
}

Result<double> ShardRouter::Aggregate(
    const Geometry& geometry, double buffer,
    const std::vector<AttributeRange>& thematic, const std::string& column,
    AggKind kind) {
  // One view pins the whole operation: the selection and the per-shard
  // value reads see the same shard set even while appends publish.
  std::shared_ptr<const ShardsView> view = Pin();
  GEOCOL_ASSIGN_OR_RETURN(SelectionResult sel,
                          view->Select(geometry, buffer, thematic));
  return view->Aggregate(sel.row_ids, column, kind, pool_.get());
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

  // ---- Extend: gather each affected shard's routed rows into a tail and
  // extend the shard's table by it (ExtendTable, the commit step a live
  // table's appender runs too). Untouched shards are not looked at, let
  // alone copied.
  struct Replacement {
    size_t shard = 0;
    ShardSlice slice;  ///< the shard's next table, bbox and directory
  };
  std::vector<Replacement> reps;
  for (size_t s = 0; s < rows_for.size(); ++s) {
    const std::vector<uint64_t>& rows = rows_for[s];
    if (rows.empty()) continue;
    FlatTable tail(batch.name(), batch.schema());
    for (size_t c = 0; c < batch.num_columns(); ++c) {
      const Column& src = *batch.column(c);
      const size_t w = src.width();
      uint8_t* out = tail.column(c)->AppendUninitialized(rows.size());
      for (size_t i = 0; i < rows.size(); ++i) {
        std::memcpy(out + i * w, src.raw_data() + rows[i] * w, w);
      }
    }
    Replacement rep;
    rep.shard = s;
    rep.slice = table_->shard(s);
    GEOCOL_ASSIGN_OR_RETURN(rep.slice.table,
                            ExtendTable(*rep.slice.table, tail));
    for (uint64_t r : rows) {
      rep.slice.bbox.Extend(bx->GetDouble(r), by->GetDouble(r));
    }
    reps.push_back(std::move(rep));
  }

  // ---- Durability first (layouts loaded from / persisted to disk carry
  // per-slice dirs): replacement shard tables go into next-generation
  // directories — never touching the ones the live manifest references —
  // and the shards.gsm swap is the one crash-commit point for the whole
  // batch. Before it, reopen sees the old epoch; after it, the new one.
  const bool persisted = !table_->shard(0).dir.empty();
  ShardedTableManifest manifest;  // the committed one, when persisted
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
      ms.rows = rep.slice.table->num_rows();
      ms.bbox = rep.slice.bbox;
      rep.slice.dir = root + "/" + ms.dirname;
      GEOCOL_RETURN_NOT_OK(WriteTableDir(*rep.slice.table, rep.slice.dir));
    }
    // The commit point.
    GEOCOL_RETURN_NOT_OK(WriteShardedTableManifest(root, m));
    manifest = std::move(m);
  }

  // ---- Publish: each affected shard's successor (stitched from the shard
  // it replaces, sharing its imprint manager), swapped in under the view
  // lock. Readers pinned to older views keep their shard set alive through
  // the shared_ptrs; new views see the whole batch.
  std::vector<std::shared_ptr<LocalShard>> successors;
  successors.reserve(reps.size());
  for (const Replacement& rep : reps) {
    successors.push_back(shards_[rep.shard]->Successor(rep.slice));
  }
  {
    std::unique_lock<std::shared_mutex> lock(shards_mu_);
    for (size_t i = 0; i < reps.size(); ++i) {
      table_->shards()[reps[i].shard] = reps[i].slice;
      shards_[reps[i].shard] = std::move(successors[i]);
    }
    // Appending to shard i shifts the global base of every shard after
    // it; rebase the whole run. Pinned views keep their own bases.
    uint64_t base = 0;
    for (ShardSlice& slice : table_->shards()) {
      slice.base = base;
      base += slice.table->num_rows();
    }
    table_->set_num_rows(base);
    if (persisted) table_->set_generation(new_gen);
    view_ = MakeView(view_->version + 1);
  }
  // The superseded generations go last, after the successors stitched
  // their imprints. No open table still reads them: only resident columns
  // are appended to (paged columns refuse CloneAppend), and those hold
  // their rows in memory.
  if (persisted) CleanStaleShardDirs(root, manifest);

  c_commits.Increment();
  c_rows.Increment(n);
  c_shards.Increment(reps.size());
  return Status::OK();
}

}  // namespace geocol
