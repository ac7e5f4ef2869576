#include "core/table_appender.h"

#include "columns/column_file.h"
#include "columns/csv.h"
#include "las/las_format.h"
#include "las/las_reader.h"
#include "telemetry/metrics.h"

namespace geocol {

TableAppender::TableAppender(std::shared_ptr<LiveTable> table)
    : table_(std::move(table)),
      staging_("staging", table_->Pin().table->schema()) {}

Status TableAppender::StageBatch(const FlatTable& batch) {
  GEOCOL_RETURN_NOT_OK(batch.Validate());
  if (!(batch.schema() == staging_.schema())) {
    return Status::InvalidArgument("batch schema differs from live table");
  }
  for (size_t i = 0; i < batch.num_columns(); ++i) {
    const ColumnPtr& src = batch.column(i);
    staging_.column(i)->AppendRaw(src->raw_data(), src->size());
  }
  return Status::OK();
}

Status TableAppender::StageLasFile(const std::string& path) {
  if (!(staging_.schema() == LasPointSchema())) {
    return Status::InvalidArgument(
        "live table does not use the LAS point schema");
  }
  // Staged through a batch, so a tile that fails part way stages nothing.
  FlatTable batch("batch", staging_.schema());
  GEOCOL_RETURN_NOT_OK(AppendLasFile(path, &batch));
  return StageBatch(batch);
}

Status TableAppender::StageCsvFile(const std::string& path) {
  GEOCOL_ASSIGN_OR_RETURN(FlatTable batch,
                          ReadCsv(path, staging_.schema(), "batch"));
  return StageBatch(batch);
}

Status TableAppender::Commit() {
  if (staging_.num_rows() == 0) return Status::OK();
  GEOCOL_METRIC_COUNTER(c_commits, "geocol_append_commits_total");
  GEOCOL_METRIC_COUNTER(c_rows, "geocol_append_rows_total");

  // Serialise against other appenders on this table: each commit chains
  // off the epoch the previous one published.
  std::lock_guard<std::mutex> commit_lock(table_->commit_mu_);
  EpochSnapshot cur = table_->Pin();

  const uint64_t added = staging_.num_rows();
  GEOCOL_ASSIGN_OR_RETURN(std::shared_ptr<FlatTable> next,
                          ExtendTable(*cur.table, staging_));

  // Durability first, visibility second: the manifest rename inside
  // WriteTableDir is the crash-commit point. If we die before it, reopen
  // sees the old epoch; after it, the new one; the in-memory swap below
  // only ever publishes states that are already safe on disk.
  if (!table_->options().dir.empty()) {
    GEOCOL_RETURN_NOT_OK(WriteTableDir(*next, table_->options().dir));
  }
  table_->Publish(std::move(next));

  c_commits.Increment();
  c_rows.Increment(added);
  for (size_t i = 0; i < staging_.num_columns(); ++i) {
    staging_.column(i)->Clear();
  }
  return Status::OK();
}

}  // namespace geocol
