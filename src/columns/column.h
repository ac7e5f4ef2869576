// The column: a densely packed, append-only array of one fixed-width type.
// This is the unit the imprints index attaches to, mirroring MonetDB's BAT
// tail array.
//
// Two storage tiers live behind this interface (DESIGN.md §14):
//   - the resident tier (this class): all values in one contiguous buffer,
//     Values<T>() returns the whole span, appends allowed. Versions of one
//     column cut by CloneAppend share an append-only ColumnBuffer, each
//     reading only its own prefix (DESIGN.md §13);
//   - the paged tier (columns/paged_column.h): values stay on disk in the
//     column file's 256 KiB CRC chunks and are faulted into a budgeted
//     process-wide chunk cache on demand. Paged columns are read-only;
//     scans walk them chunk by chunk via PinChunk()/ForEachValueRun().
#ifndef GEOCOL_COLUMNS_COLUMN_H_
#define GEOCOL_COLUMNS_COLUMN_H_

#include <algorithm>
#include <cassert>
#include <cstring>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "columns/types.h"
#include "util/status.h"

namespace geocol {

/// Min/max statistics of a column (computed lazily, cached until the next
/// append invalidates them).
struct ColumnStats {
  double min = 0.0;
  double max = 0.0;
  bool valid = false;
};

/// A faulted-in, decoded view of one chunk of a paged column. `data` stays
/// valid while the pin is held (shared ownership with the chunk cache, so
/// a concurrent eviction cannot free it under the reader).
struct ColumnChunkPin {
  const uint8_t* data = nullptr;  ///< decoded little-endian values
  uint64_t first_row = 0;
  size_t row_count = 0;
  std::shared_ptr<const std::vector<uint8_t>> keepalive;

  template <typename T>
  const T* values() const {
    return reinterpret_cast<const T*>(data);
  }
};

/// Append-only bytes shared by the versions of one resident column
/// (defined in column.cpp).
class ColumnBuffer;

/// A type-erased, densely packed column of fixed-width values.
///
/// Storage is a prefix of a (possibly shared) ColumnBuffer; typed access
/// goes through `Values<T>()` which checks the runtime type. Appends
/// invalidate the cached statistics and any imprints built on the column
/// (tracked via the append epoch). Virtual methods are the paged tier's
/// override points.
class Column {
 public:
  Column(std::string name, DataType type)
      : name_(std::move(name)), type_(type), width_(DataTypeSize(type)) {}
  virtual ~Column() = default;

  const std::string& name() const { return name_; }
  DataType type() const { return type_; }
  size_t width() const { return width_; }
  virtual size_t size() const { return bytes_ / width_; }
  bool empty() const { return size() == 0; }

  /// True for the paged (out-of-core) tier: values are not resident, so
  /// Values<T>(), raw_data() and every mutation are off limits; readers go
  /// through PinChunk()/ForEachValueRun() or the batched getters.
  virtual bool paged() const { return false; }

  /// Rows per paging chunk. Chunks are 256 KiB of fixed-width values, so
  /// this is a power of two >= 32768 — always a multiple of 64 (BitVector
  /// word), of the 4096-value SIMD block, and of every imprints
  /// values-per-cacheline, which keeps chunk boundaries off every scan
  /// boundary case. Resident columns report one whole-column "chunk".
  virtual size_t chunk_rows() const { return size(); }

  virtual size_t num_chunks() const { return size() == 0 ? 0 : 1; }

  /// Faults (or finds cached) chunk `chunk_index` and pins its decoded
  /// bytes. Resident columns pin their buffer directly (no copy). A read
  /// or checksum failure surfaces here — scans propagate it instead of
  /// producing partial answers.
  virtual Result<ColumnChunkPin> PinChunk(size_t chunk_index) const;

  /// Monotonic counter bumped on every mutation; index structures remember
  /// the epoch they were built at and rebuild when it moves.
  uint64_t epoch() const { return epoch_; }

  /// Typed read-only view of the whole column. T must match type();
  /// resident tier only (paged columns have no contiguous buffer).
  template <typename T>
  std::span<const T> Values() const {
    assert(DataTypeOf<T>() == type_);
    assert(!paged());
    return {reinterpret_cast<const T*>(data_), bytes_ / width_};
  }

  template <typename T>
  void Append(T value) {
    assert(DataTypeOf<T>() == type_);
    std::memcpy(AppendUninitialized(1), &value, sizeof(T));
  }

  template <typename T>
  void AppendSpan(std::span<const T> values) {
    assert(DataTypeOf<T>() == type_);
    AppendRaw(values.data(), values.size());
  }

  /// Appends `count` values of this column's type from a raw little-endian
  /// buffer — the COPY BINARY path of the binary bulk loader.
  void AppendRaw(const void* data, size_t count) {
    uint8_t* dst = AppendUninitialized(count);
    if (count != 0) std::memcpy(dst, data, count * width_);
  }

  /// Grows the column by `count` rows of unspecified content and returns
  /// where they start, for readers that decode straight into the column.
  /// The caller must fill every byte before anyone reads the rows.
  uint8_t* AppendUninitialized(size_t count);

  void Reserve(size_t rows);
  /// Empties the column. An unshared buffer is kept for re-staging; a
  /// shared one is released to the versions still reading it.
  void Clear();

  /// Copy-on-append: a NEW column holding `base`'s rows followed by
  /// `count` values from a raw little-endian buffer. `base` keeps its
  /// rows — readers scanning it keep a stable view — and the new column
  /// remembers `base` as its lineage (weak, so retiring every snapshot of
  /// the old version frees its bytes). The imprint manager follows the
  /// lineage to extend the old index incrementally instead of rebuilding.
  /// When `base` ends at its buffer's tip and the buffer has room, the new
  /// column shares the buffer and writes only the tail past base's end,
  /// which no reader of `base` ever reads; otherwise (no room, or `base`
  /// already has a successor) it copies base into a new buffer with 2x
  /// geometric growth. This is the publication primitive of the
  /// live-ingestion path (DESIGN.md §13). InvalidArgument for paged bases
  /// (read-only tier).
  static Result<std::shared_ptr<Column>> CloneAppend(
      const std::shared_ptr<Column>& base, const void* data, size_t count);

  /// Lineage of a CloneAppend column: the column this one extends, or null
  /// when there is none (fresh column) or every reference to it is gone.
  std::shared_ptr<const Column> base() const { return base_.lock(); }
  /// Rows inherited from base() (0 when no lineage).
  uint64_t base_rows() const { return base_rows_; }

  /// Value converted to double (lossless for all types up to 2^53). On a
  /// paged column a chunk-fault failure cannot be reported here; callers
  /// that must distinguish an I/O error from a value use GetDoubleBatch
  /// (the paged override logs, counts and returns quiet NaN).
  virtual double GetDouble(size_t row) const;

  /// Batched GetDouble: out[i] = GetDouble(rows[i]). Resolves the type
  /// switch once for the whole batch and runs the SIMD gather kernel, so
  /// refinement can pull candidate coordinates without a per-row dispatch.
  /// The paged tier faults the covering chunks; a fault failure returns
  /// non-OK and `out` must not be used.
  virtual Status GetDoubleBatch(const uint64_t* rows, size_t n,
                                double* out) const;

  /// Value converted to int64 (floats are truncated). Same paged-fault
  /// caveat as GetDouble.
  virtual int64_t GetInt64(size_t row) const;

  /// Cached min/max; recomputed after appends. Safe to call from
  /// concurrent readers of an immutable (published) column — computation
  /// is serialised on an internal mutex. Mutating the column while another
  /// thread reads it remains the caller's bug, as everywhere else.
  virtual const ColumnStats& Stats() const;

  /// Seeds the stats cache without a scan — the COW append path knows the
  /// new min/max from base stats + batch extremes. Marks the cache valid.
  void SetCachedStats(double min, double max);

  /// CRC32C of the full little-endian value payload. Resident columns
  /// checksum their buffer; the paged tier answers from per-chunk CRCs
  /// already on disk (Crc32cCombine) without faulting anything, so imprint
  /// sidecar fingerprints agree between the two tiers.
  virtual uint32_t payload_crc32c() const;

  /// Resident tier only (nullptr when paged or never written).
  const uint8_t* raw_data() const {
    assert(!paged());
    return data_;
  }

  /// Grants mutable access to the raw buffer for in-place reorganisation
  /// (row shuffles, SFC sorts); bumps the epoch so cached indexes and
  /// statistics are rebuilt. A shared buffer is copied first, so other
  /// versions never see the rewrite. Resident tier only.
  uint8_t* BeginRawUpdate();

  /// Logical payload size in bytes (rows x width) — defined for both
  /// tiers; only the resident tier holds these bytes in memory.
  virtual size_t raw_size_bytes() const { return bytes_; }

  /// Creates a column and fills it from a typed vector.
  template <typename T>
  static std::shared_ptr<Column> FromVector(std::string name,
                                            const std::vector<T>& values) {
    auto col = std::make_shared<Column>(std::move(name), DataTypeOf<T>());
    col->template AppendSpan<T>(values);
    return col;
  }

 protected:
  /// Paged subclass: pins the load epoch so imprint sidecars built against
  /// either open mode of the same file validate interchangeably.
  void set_epoch(uint64_t epoch) { epoch_ = epoch; }

 private:
  void Invalidate() {
    ++epoch_;
    stats_.valid = false;
  }

  /// Extends this version by `add` bytes — in place when it ends at the
  /// buffer's tip and they fit, else after a Rebuffer — and returns where
  /// they start. Leaves the epoch alone.
  uint8_t* Grow(size_t add);

  /// Moves this version's bytes into a new, unshared buffer of `capacity`
  /// bytes (counted in geocol_column_bytes_copied_total).
  void Rebuffer(size_t capacity);

  std::string name_;
  DataType type_;
  size_t width_;
  std::shared_ptr<ColumnBuffer> buf_;  ///< null until the first write
  uint8_t* data_ = nullptr;            ///< buf_->data(), for inline readers
  size_t bytes_ = 0;                   ///< this version's prefix of buf_
  uint64_t epoch_ = 0;
  /// Lineage for incremental index maintenance (set by CloneAppend).
  std::weak_ptr<const Column> base_;
  uint64_t base_rows_ = 0;
  mutable std::mutex stats_mu_;  ///< serialises lazy stats computation
  mutable ColumnStats stats_;
};

using ColumnPtr = std::shared_ptr<Column>;

/// Applies `fn(const T* values, uint64_t first_row, size_t count)` over
/// [begin_row, end_row) in storage order. Resident columns get one call
/// over the contiguous span (zero overhead vs Values<T>()); paged columns
/// get one call per faulted chunk, each pinned only for the duration of
/// its call. The only Status sources are chunk faults, so resident columns
/// cannot fail.
template <typename T, typename Fn>
Status ForEachValueRun(const Column& column, uint64_t begin_row,
                       uint64_t end_row, Fn&& fn) {
  assert(DataTypeOf<T>() == column.type());
  if (begin_row >= end_row) return Status::OK();
  if (!column.paged()) {
    std::span<const T> values = column.Values<T>();
    fn(values.data() + begin_row, begin_row,
       static_cast<size_t>(end_row - begin_row));
    return Status::OK();
  }
  const size_t chunk_rows = column.chunk_rows();
  for (uint64_t row = begin_row; row < end_row;) {
    GEOCOL_ASSIGN_OR_RETURN(ColumnChunkPin pin,
                            column.PinChunk(row / chunk_rows));
    const uint64_t stop =
        std::min<uint64_t>(end_row, pin.first_row + pin.row_count);
    fn(pin.values<T>() + (row - pin.first_row), row,
       static_cast<size_t>(stop - row));
    row = stop;
  }
  return Status::OK();
}

}  // namespace geocol

#endif  // GEOCOL_COLUMNS_COLUMN_H_
