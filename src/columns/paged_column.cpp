#include "columns/paged_column.h"

#include <chrono>
#include <limits>

#include "cache/chunk_cache.h"
#include "telemetry/heat.h"
#include "telemetry/metrics.h"
#include "util/crc32c.h"
#include "util/fd_cache.h"

namespace geocol {

// ---- PagedColumn ----------------------------------------------------------

PagedColumn::PagedColumn(std::string name, DataType type)
    : Column(std::move(name), type) {}

PagedColumn::~PagedColumn() {
  cache::ChunkCache::Global().EraseFile(file_id_);
}

size_t PagedColumn::RowsInChunk(size_t chunk_index) const {
  uint64_t first = static_cast<uint64_t>(chunk_index) * chunk_rows_;
  return static_cast<size_t>(
      std::min<uint64_t>(chunk_rows_, rows_ - first));
}

Result<std::shared_ptr<PagedColumn>> PagedColumn::Open(
    const std::string& path, const std::string& name) {
  GEOCOL_ASSIGN_OR_RETURN(ColumnFileLayout layout, ReadColumnFileLayout(path));
  auto col = std::shared_ptr<PagedColumn>(new PagedColumn(name, layout.type));
  col->path_ = path;
  col->rows_ = layout.count;
  col->chunk_rows_ = layout.chunk_bytes / col->width();
  col->payload_crc_ = layout.payload_crc;
  col->compressed_ = layout.compressed;
  col->chunks_ = std::move(layout.chunks);
  col->file_id_ = cache::ChunkCache::NextFileId();
  col->set_epoch(1);
  return col;
}

Result<std::shared_ptr<const std::vector<uint8_t>>> PagedColumn::FaultChunk(
    size_t chunk_index) const {
  GEOCOL_METRIC_HISTOGRAM(h_fault_us, "geocol_chunk_fault_us");
  GEOCOL_METRIC_COUNTER(c_failures, "geocol_crc_failures_total");
  auto t0 = std::chrono::steady_clock::now();

  GEOCOL_ASSIGN_OR_RETURN(std::shared_ptr<FileHandle> file,
                          FdCache::Global().Get(path_));
  const ColumnFileLayout::Chunk& ci = chunks_[chunk_index];
  auto stored = std::make_shared<std::vector<uint8_t>>(ci.stored_bytes);
  GEOCOL_RETURN_NOT_OK(
      file->ReadAt(ci.offset, stored->data(), stored->size()));
  // Verification happens at fault time, on exactly the bytes the scans
  // will see — a torn read or flipped bit becomes a clean error here,
  // never a wrong answer downstream.
  uint32_t crc = Crc32c(stored->data(), stored->size());
  if (crc != ci.crc) {
    c_failures.Increment();
    return Status::Corruption("chunk " + std::to_string(chunk_index) +
                              " crc mismatch faulting: " + path_);
  }

  std::shared_ptr<const std::vector<uint8_t>> result;
  if (!compressed_) {
    result = std::move(stored);
  } else {
    const size_t rows = RowsInChunk(chunk_index);
    auto decoded = std::make_shared<std::vector<uint8_t>>(rows * width());
    GEOCOL_RETURN_NOT_OK(DecompressChunkPayload(
        type(), ci.codec, stored->data(),
        stored->size(), rows, decoded->data()));
    result = std::move(decoded);
  }

  auto dt = std::chrono::steady_clock::now() - t0;
  h_fault_us.Observe(
      std::chrono::duration_cast<std::chrono::microseconds>(dt).count());
  return result;
}

Result<ColumnChunkPin> PagedColumn::PinChunk(size_t chunk_index) const {
  if (chunk_index >= chunks_.size()) {
    return Status::InvalidArgument("chunk index out of range");
  }
  auto& chunk_cache = cache::ChunkCache::Global();
  cache::ChunkCache::Payload payload =
      chunk_cache.Lookup(file_id_, static_cast<uint32_t>(chunk_index));
  const bool faulted = payload == nullptr;
  if (faulted) {
    GEOCOL_ASSIGN_OR_RETURN(payload, FaultChunk(chunk_index));
    chunk_cache.Insert(file_id_, static_cast<uint32_t>(chunk_index), payload);
  }
  telemetry::TouchChunkHeat(path_, static_cast<uint32_t>(chunk_index),
                            faulted);
  ColumnChunkPin pin;
  pin.data = payload->data();
  pin.first_row = static_cast<uint64_t>(chunk_index) * chunk_rows_;
  pin.row_count = RowsInChunk(chunk_index);
  pin.keepalive = std::move(payload);
  return pin;
}

double PagedColumn::GetDouble(size_t row) const {
  assert(row < size());
  Result<ColumnChunkPin> pin = PinChunk(row / chunk_rows_);
  if (!pin.ok()) {
    GEOCOL_METRIC_COUNTER(c_errors, "geocol_paged_scalar_fault_errors_total");
    c_errors.Increment();
    return std::numeric_limits<double>::quiet_NaN();
  }
  return DispatchDataType(type(), [&]<typename T>() -> double {
    return static_cast<double>(pin->values<T>()[row - pin->first_row]);
  });
}

Status PagedColumn::GetDoubleBatch(const uint64_t* rows, size_t n,
                                   double* out) const {
  if (n == 0) return Status::OK();
  return DispatchDataType(type(), [&]<typename T>() -> Status {
    ColumnChunkPin pin;
    bool have = false;
    for (size_t i = 0; i < n; ++i) {
      uint64_t row = rows[i];
      if (!have || row < pin.first_row ||
          row >= pin.first_row + pin.row_count) {
        GEOCOL_ASSIGN_OR_RETURN(pin, PinChunk(row / chunk_rows_));
        have = true;
      }
      out[i] = static_cast<double>(pin.values<T>()[row - pin.first_row]);
    }
    return Status::OK();
  });
}

int64_t PagedColumn::GetInt64(size_t row) const {
  assert(row < size());
  Result<ColumnChunkPin> pin = PinChunk(row / chunk_rows_);
  if (!pin.ok()) {
    GEOCOL_METRIC_COUNTER(c_errors, "geocol_paged_scalar_fault_errors_total");
    c_errors.Increment();
    return 0;
  }
  return DispatchDataType(type(), [&]<typename T>() -> int64_t {
    return static_cast<int64_t>(pin->values<T>()[row - pin->first_row]);
  });
}

const ColumnStats& PagedColumn::Stats() const {
  std::lock_guard<std::mutex> lock(paged_stats_mu_);
  if (paged_stats_.valid) return paged_stats_;
  if (rows_ == 0) {
    paged_stats_.min = 0.0;
    paged_stats_.max = 0.0;
    paged_stats_.valid = true;
    return paged_stats_;
  }
  Status st = DispatchDataType(type(), [&]<typename T>() -> Status {
    bool first = true;
    T mn{}, mx{};
    GEOCOL_RETURN_NOT_OK(ForEachValueRun<T>(
        *this, 0, rows_, [&](const T* values, uint64_t, size_t count) {
          if (first && count > 0) {
            mn = mx = values[0];
            first = false;
          }
          for (size_t k = 0; k < count; ++k) {
            mn = std::min(mn, values[k]);
            mx = std::max(mx, values[k]);
          }
        }));
    paged_stats_.min = static_cast<double>(mn);
    paged_stats_.max = static_cast<double>(mx);
    return Status::OK();
  });
  if (!st.ok()) {
    // Conservative fallback: the (-inf, +inf) range prunes nothing, so
    // answers stay correct and the scan that actually needs the values
    // reports the I/O error itself.
    GEOCOL_METRIC_COUNTER(c_errors, "geocol_paged_stats_fault_errors_total");
    c_errors.Increment();
    paged_stats_.min = -std::numeric_limits<double>::infinity();
    paged_stats_.max = std::numeric_limits<double>::infinity();
  }
  paged_stats_.valid = true;
  return paged_stats_;
}

Result<ColumnPtr> OpenPagedColumnFile(const std::string& path,
                                      const std::string& name) {
  GEOCOL_ASSIGN_OR_RETURN(std::shared_ptr<PagedColumn> col,
                          PagedColumn::Open(path, name));
  return ColumnPtr(std::move(col));
}

Result<FlatTable> ReadTableDirPaged(const std::string& dir) {
  GEOCOL_ASSIGN_OR_RETURN(TableManifest m, ReadTableManifest(dir));
  FlatTable table(m.table_name);
  for (const auto& mc : m.columns) {
    GEOCOL_ASSIGN_OR_RETURN(
        ColumnPtr col, OpenPagedColumnFile(dir + "/" + mc.filename, mc.name));
    if (col->type() != mc.type) {
      return Status::Corruption("manifest/file type mismatch for " + mc.name);
    }
    GEOCOL_RETURN_NOT_OK(table.AddColumn(std::move(col)));
  }
  GEOCOL_RETURN_NOT_OK(table.Validate());
  return table;
}

}  // namespace geocol
