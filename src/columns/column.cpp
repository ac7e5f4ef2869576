#include "columns/column.h"

#include <algorithm>
#include <atomic>

#include "simd/kernels.h"
#include "telemetry/metrics.h"
#include "util/crc32c.h"

namespace geocol {

/// Append-only bytes shared by the versions of one resident column. Every
/// version reads only its own prefix [0, its byte count). `tip` is how far
/// the newest version reaches: bytes past it are read by no version, so
/// the version that ends exactly at the tip may claim them and append in
/// place. Every other append copies (Column::Rebuffer).
class ColumnBuffer {
 public:
  /// `capacity` uninitialised bytes; the first `tip` are the owner's.
  ColumnBuffer(size_t capacity, size_t tip)
      : data_(std::make_unique_for_overwrite<uint8_t[]>(capacity)),
        capacity_(capacity),
        tip_(tip) {}

  uint8_t* data() const { return data_.get(); }
  size_t capacity() const { return capacity_; }

  /// Claims [end, end + bytes) for the version that ends at `end`: true
  /// when `end` is the tip and the bytes fit. One compare-and-swap, so of
  /// two versions racing from the same end exactly one wins.
  bool TryClaim(size_t end, size_t bytes) {
    if (bytes > capacity_ - end) return false;
    return tip_.compare_exchange_strong(end, end + bytes,
                                        std::memory_order_relaxed);
  }

  /// Set once a second version references the buffer, never cleared:
  /// from then on no version may rewrite or reuse bytes in place.
  bool shared() const { return shared_.load(std::memory_order_relaxed); }
  void MarkShared() { shared_.store(true, std::memory_order_relaxed); }
  /// Unshared buffers only: the single owner truncates to empty.
  void ResetTip() { tip_.store(0, std::memory_order_relaxed); }

 private:
  std::unique_ptr<uint8_t[]> data_;
  size_t capacity_;
  std::atomic<size_t> tip_;
  std::atomic<bool> shared_{false};
};

const char* DataTypeName(DataType t) {
  switch (t) {
    case DataType::kInt8: return "int8";
    case DataType::kUInt8: return "uint8";
    case DataType::kInt16: return "int16";
    case DataType::kUInt16: return "uint16";
    case DataType::kInt32: return "int32";
    case DataType::kUInt32: return "uint32";
    case DataType::kInt64: return "int64";
    case DataType::kUInt64: return "uint64";
    case DataType::kFloat32: return "float32";
    case DataType::kFloat64: return "float64";
  }
  return "unknown";
}

Result<ColumnChunkPin> Column::PinChunk(size_t chunk_index) const {
  if (chunk_index >= num_chunks()) {
    return Status::InvalidArgument("chunk index out of range");
  }
  ColumnChunkPin pin;
  pin.data = data_;
  pin.first_row = 0;
  pin.row_count = size();
  return pin;  // keepalive empty: the caller holds the column alive
}

double Column::GetDouble(size_t row) const {
  assert(row < size());
  return DispatchDataType(type_, [&]<typename T>() -> double {
    T v;
    std::memcpy(&v, data_ + row * sizeof(T), sizeof(T));
    return static_cast<double>(v);
  });
}

Status Column::GetDoubleBatch(const uint64_t* rows, size_t n,
                              double* out) const {
  DispatchDataType(type_, [&]<typename T>() {
    simd::GatherDouble(reinterpret_cast<const T*>(data_), rows, n, out);
  });
  return Status::OK();
}

int64_t Column::GetInt64(size_t row) const {
  assert(row < size());
  return DispatchDataType(type_, [&]<typename T>() -> int64_t {
    T v;
    std::memcpy(&v, data_ + row * sizeof(T), sizeof(T));
    return static_cast<int64_t>(v);
  });
}

const ColumnStats& Column::Stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  if (!stats_.valid) {
    if (bytes_ == 0) {
      stats_.min = 0.0;
      stats_.max = 0.0;
    } else {
      DispatchDataType(type_, [&]<typename T>() {
        std::span<const T> vals{reinterpret_cast<const T*>(data_),
                                bytes_ / width_};
        T mn = vals[0], mx = vals[0];
        for (T v : vals) {
          mn = std::min(mn, v);
          mx = std::max(mx, v);
        }
        stats_.min = static_cast<double>(mn);
        stats_.max = static_cast<double>(mx);
      });
    }
    stats_.valid = true;
  }
  return stats_;
}

void Column::SetCachedStats(double min, double max) {
  std::lock_guard<std::mutex> lock(stats_mu_);
  stats_.min = min;
  stats_.max = max;
  stats_.valid = true;
}

uint32_t Column::payload_crc32c() const {
  return Crc32c(data_, bytes_);
}

void Column::Rebuffer(size_t capacity) {
  GEOCOL_METRIC_COUNTER(c_copied, "geocol_column_bytes_copied_total");
  auto fresh = std::make_shared<ColumnBuffer>(capacity, bytes_);
  if (bytes_ != 0) {
    std::memcpy(fresh->data(), data_, bytes_);
    c_copied.Increment(bytes_);
  }
  buf_ = std::move(fresh);
  data_ = buf_->data();
}

uint8_t* Column::Grow(size_t add) {
  if (add != 0 && (buf_ == nullptr || !buf_->TryClaim(bytes_, add))) {
    // Same growth as std::vector: max(2x, what the append needs).
    Rebuffer(bytes_ + std::max(bytes_, add));
    [[maybe_unused]] const bool claimed = buf_->TryClaim(bytes_, add);
    assert(claimed);
  }
  uint8_t* out = data_ + bytes_;
  bytes_ += add;
  return out;
}

uint8_t* Column::AppendUninitialized(size_t count) {
  assert(!paged());
  uint8_t* out = Grow(count * width_);
  Invalidate();
  return out;
}

void Column::Reserve(size_t rows) {
  assert(!paged());
  const size_t want = rows * width_;
  if (want > (buf_ == nullptr ? 0 : buf_->capacity())) Rebuffer(want);
}

void Column::Clear() {
  assert(!paged());
  if (buf_ != nullptr && !buf_->shared()) {
    buf_->ResetTip();
  } else {
    buf_.reset();
    data_ = nullptr;
  }
  bytes_ = 0;
  Invalidate();
}

uint8_t* Column::BeginRawUpdate() {
  assert(!paged());
  if (buf_ != nullptr && buf_->shared()) Rebuffer(bytes_);
  Invalidate();
  return data_;
}

Result<std::shared_ptr<Column>> Column::CloneAppend(
    const std::shared_ptr<Column>& base, const void* data, size_t count) {
  assert(base != nullptr);
  if (base->paged()) {
    return Status::InvalidArgument(
        "CloneAppend: paged columns are read-only (reopen the table "
        "resident to append)");
  }
  auto col = std::make_shared<Column>(base->name(), base->type());
  if (base->buf_ != nullptr) {
    // Start as a view of base's prefix; the append below either claims
    // the bytes past it in place or moves the view into its own buffer.
    base->buf_->MarkShared();
    col->buf_ = base->buf_;
    col->data_ = base->data_;
    col->bytes_ = base->bytes_;
  }
  const size_t add = count * base->width_;
  uint8_t* dst = col->Grow(add);
  if (add != 0) std::memcpy(dst, data, add);
  col->base_ = base;
  col->base_rows_ = base->size();
  return col;
}

}  // namespace geocol
