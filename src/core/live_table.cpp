#include "core/live_table.h"

#include "columns/column_file.h"

namespace geocol {

namespace {

Status CheckCoordinates(const FlatTable& table,
                        const LiveTableOptions& options) {
  if (table.column(options.x_column) == nullptr ||
      table.column(options.y_column) == nullptr) {
    return Status::InvalidArgument("live table needs '" + options.x_column +
                                   "'/'" + options.y_column + "' columns");
  }
  return Status::OK();
}

}  // namespace

LiveTable::LiveTable(LiveTableOptions options,
                     std::shared_ptr<FlatTable> initial)
    : options_(std::move(options)) {
  uint32_t threads = EffectiveThreads(options_.engine.num_threads);
  if (threads > 1) {
    pool_ = std::make_unique<ThreadPool>(threads - 1);
  }
  // Epoch 0's engine creates and configures the imprint manager (pool,
  // sidecar dir) before any reader can see it; every later epoch's shard
  // is a successor that shares it without touching its settings, so
  // publishes cannot race a reader over manager state.
  ShardSlice slice = Slice(std::move(initial));
  Install(0, slice,
          std::make_shared<LocalShard>(slice, options_.engine,
                                       options_.x_column, options_.y_column,
                                       pool_.get()));
}

Result<std::shared_ptr<LiveTable>> LiveTable::Create(
    std::shared_ptr<FlatTable> initial, LiveTableOptions options) {
  if (initial == nullptr) return Status::InvalidArgument("null initial table");
  GEOCOL_RETURN_NOT_OK(initial->Validate());
  GEOCOL_RETURN_NOT_OK(CheckCoordinates(*initial, options));
  if (!options.dir.empty()) {
    GEOCOL_RETURN_NOT_OK(WriteTableDir(*initial, options.dir));
  }
  return std::shared_ptr<LiveTable>(
      new LiveTable(std::move(options), std::move(initial)));
}

Result<std::shared_ptr<LiveTable>> LiveTable::Open(const std::string& dir,
                                                   LiveTableOptions options) {
  options.dir = dir;
  GEOCOL_ASSIGN_OR_RETURN(FlatTable loaded, ReadTableDir(dir));
  auto initial = std::make_shared<FlatTable>(std::move(loaded));
  GEOCOL_RETURN_NOT_OK(CheckCoordinates(*initial, options));
  return std::shared_ptr<LiveTable>(
      new LiveTable(std::move(options), std::move(initial)));
}

EpochSnapshot LiveTable::Pin() const {
  std::shared_ptr<const EpochSnapshot> cur;
  {
    std::lock_guard<std::mutex> lock(mu_);
    cur = current_;
  }
  return *cur;
}

uint64_t LiveTable::epoch() const {
  std::lock_guard<std::mutex> lock(mu_);
  return current_->epoch;
}

std::string LiveTable::name() const {
  std::lock_guard<std::mutex> lock(mu_);
  return current_->table->name();
}

std::shared_ptr<ImprintManager> LiveTable::imprint_manager() const {
  return Pin().engine->imprint_manager_ptr();
}

ShardSlice LiveTable::Slice(std::shared_ptr<FlatTable> table) const {
  ShardSlice slice;
  ColumnPtr x = table->column(options_.x_column);
  ColumnPtr y = table->column(options_.y_column);
  if (x != nullptr && y != nullptr && !x->empty()) {
    const ColumnStats& xs = x->Stats();
    const ColumnStats& ys = y->Stats();
    slice.bbox = Box(xs.min, ys.min, xs.max, ys.max);
  }
  slice.table = std::move(table);
  slice.dir = options_.engine.imprints_dir;
  return slice;
}

void LiveTable::Install(uint64_t epoch, const ShardSlice& slice,
                        std::shared_ptr<LocalShard> shard) {
  auto s = std::make_shared<EpochSnapshot>();
  s->epoch = epoch;
  s->table = slice.table;
  s->bbox = slice.bbox;
  s->engine = std::shared_ptr<SpatialQueryEngine>(shard, &shard->engine());
  s->view = ShardsView::Single(shard, options_.x_column, options_.y_column,
                               epoch);
  shard_ = std::move(shard);
  std::lock_guard<std::mutex> lock(mu_);
  current_ = std::move(s);
}

void LiveTable::Publish(std::shared_ptr<FlatTable> next) {
  // The successor stitches while current_ still holds the old epoch's
  // columns; only then does the swap retire them. Everything before the
  // swap runs outside mu_, so Pin() calls are never stalled behind it.
  ShardSlice slice = Slice(std::move(next));
  std::shared_ptr<LocalShard> successor = shard_->Successor(slice);
  Install(epoch() + 1, slice, std::move(successor));
}

}  // namespace geocol
