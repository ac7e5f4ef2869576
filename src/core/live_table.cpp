#include "core/live_table.h"

#include <thread>

#include "columns/column_file.h"

namespace geocol {

namespace {

uint32_t EffectiveThreads(uint32_t requested) {
  if (requested != 0) return requested;
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<uint32_t>(hw);
}

}  // namespace

LiveTable::LiveTable(LiveTableOptions options) : options_(std::move(options)) {
  uint32_t threads = EffectiveThreads(options_.engine.num_threads);
  if (threads > 1) {
    pool_ = std::make_unique<ThreadPool>(threads - 1);
  }
  // The manager is configured exactly once, here — snapshot engines are
  // handed the pre-configured instance and never touch its settings, so
  // publishes cannot race a reader over manager state.
  imprints_ = std::make_shared<ImprintManager>(options_.engine.imprints);
  if (!options_.engine.imprints_dir.empty()) {
    imprints_->set_sidecar_dir(options_.engine.imprints_dir);
  }
  if (pool_ != nullptr) imprints_->set_thread_pool(pool_.get());
}

Result<std::shared_ptr<LiveTable>> LiveTable::Create(
    std::shared_ptr<FlatTable> initial, LiveTableOptions options) {
  if (initial == nullptr) return Status::InvalidArgument("null initial table");
  GEOCOL_RETURN_NOT_OK(initial->Validate());
  if (initial->column(options.x_column) == nullptr ||
      initial->column(options.y_column) == nullptr) {
    return Status::InvalidArgument("live table needs '" + options.x_column +
                                   "'/'" + options.y_column + "' columns");
  }
  auto table = std::shared_ptr<LiveTable>(new LiveTable(std::move(options)));
  if (!table->options_.dir.empty()) {
    GEOCOL_RETURN_NOT_OK(WriteTableDir(*initial, table->options_.dir));
  }
  {
    std::lock_guard<std::mutex> lock(table->mu_);
    table->current_ = std::make_shared<const EpochSnapshot>(
        table->MakeSnapshot(0, std::move(initial)));
  }
  return table;
}

Result<std::shared_ptr<LiveTable>> LiveTable::Open(const std::string& dir,
                                                   LiveTableOptions options) {
  options.dir = dir;
  GEOCOL_ASSIGN_OR_RETURN(FlatTable loaded, ReadTableDir(dir));
  auto initial = std::make_shared<FlatTable>(std::move(loaded));
  if (initial->column(options.x_column) == nullptr ||
      initial->column(options.y_column) == nullptr) {
    return Status::InvalidArgument("live table needs '" + options.x_column +
                                   "'/'" + options.y_column + "' columns");
  }
  auto table = std::shared_ptr<LiveTable>(new LiveTable(std::move(options)));
  {
    std::lock_guard<std::mutex> lock(table->mu_);
    table->current_ = std::make_shared<const EpochSnapshot>(
        table->MakeSnapshot(0, std::move(initial)));
  }
  return table;
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

EpochSnapshot LiveTable::MakeSnapshot(uint64_t epoch,
                                      std::shared_ptr<FlatTable> table) const {
  EpochSnapshot s;
  s.epoch = epoch;
  s.table = table;
  ColumnPtr x = table->column(options_.x_column);
  ColumnPtr y = table->column(options_.y_column);
  if (x != nullptr && y != nullptr && !x->empty()) {
    const ColumnStats& xs = x->Stats();
    const ColumnStats& ys = y->Stats();
    s.bbox = Box(xs.min, ys.min, xs.max, ys.max);
  }
  ShardSlice slice;
  slice.table = table;
  slice.bbox = s.bbox;
  auto shard = std::make_shared<LocalShard>(slice, options_.engine,
                                            options_.x_column,
                                            options_.y_column, pool_.get(),
                                            imprints_);
  s.engine = std::shared_ptr<SpatialQueryEngine>(shard, &shard->engine());
  s.view = ShardsView::Single(std::move(shard), options_.x_column,
                              options_.y_column, epoch);
  return s;
}

void LiveTable::Publish(std::shared_ptr<FlatTable> next) {
  // Shard construction and bbox read run outside mu_, so in-flight Pin()
  // calls are never stalled behind them.
  uint64_t next_epoch;
  {
    std::lock_guard<std::mutex> lock(mu_);
    next_epoch = current_->epoch + 1;
  }
  // Stitch the new versions' imprints while current_ still holds their
  // lineage bases: once the swap retires the old epoch, an unpinned base
  // dies and the first reader would rebuild from scratch. A failed stitch
  // is not fatal; the first query that needs the index builds it.
  for (const ColumnPtr& col : next->columns()) {
    (void)imprints_->StitchFromBase(col);
  }
  auto snapshot = std::make_shared<const EpochSnapshot>(
      MakeSnapshot(next_epoch, std::move(next)));
  std::lock_guard<std::mutex> lock(mu_);
  current_ = std::move(snapshot);
}

}  // namespace geocol
