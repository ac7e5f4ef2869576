// The paged (out-of-core) storage tier behind the Column interface
// (DESIGN.md §14). A PagedColumn keeps only its chunk directory in
// memory; the 256 KiB CRC chunks of the column file are the paging unit,
// faulted on demand with positioned reads, CRC-verified at fault time,
// and cached in the process-wide budgeted ChunkCache. Scans walk pins
// (ForEachValueRun), so imprint pruning translates directly into chunks
// that are never read.
//
// Both column-file layouts (column_file.h) page through the same chunk
// directory (ReadColumnFileLayout):
//   - raw "GCL2" files: a fault is a single pread + CRC check;
//   - compressed "GPC1" files: every 256 KiB decoded chunk is compressed
//     independently, so a fault is pread + CRC check + decompress.
//
// Paged columns are read-only: every mutation path (appends, shuffles,
// rewrites) returns InvalidArgument upstream. They pin epoch 1 — the
// epoch a resident ReadColumnFile (one append) lands on — so imprint
// sidecars built against either open mode of the same file validate
// interchangeably.
#ifndef GEOCOL_COLUMNS_PAGED_COLUMN_H_
#define GEOCOL_COLUMNS_PAGED_COLUMN_H_

#include <memory>
#include <string>
#include <vector>

#include "columns/column.h"
#include "columns/column_file.h"
#include "columns/flat_table.h"
#include "util/status.h"

namespace geocol {

class PagedColumn : public Column {
 public:
  ~PagedColumn() override;

  /// Opens a "GCL2" or "GPC1" file for demand paging: parses and verifies
  /// the header and chunk directory, touches no payload.
  static Result<std::shared_ptr<PagedColumn>> Open(const std::string& path,
                                                   const std::string& name);

  size_t size() const override { return static_cast<size_t>(rows_); }
  bool paged() const override { return true; }
  size_t chunk_rows() const override { return chunk_rows_; }
  size_t num_chunks() const override { return chunks_.size(); }

  /// Faults (or finds cached) one chunk. The pin shares ownership with
  /// the cache, so concurrent evictions never free it under the caller.
  Result<ColumnChunkPin> PinChunk(size_t chunk_index) const override;

  double GetDouble(size_t row) const override;
  Status GetDoubleBatch(const uint64_t* rows, size_t n,
                        double* out) const override;
  int64_t GetInt64(size_t row) const override;

  /// Lazy min/max via one streaming pass over the chunks. A fault failure
  /// during the pass degrades to the conservative (-inf, +inf) range —
  /// pruning built on it never excludes anything, so answers stay
  /// correct and the I/O error surfaces from the scan that needs the
  /// actual values.
  const ColumnStats& Stats() const override;

  /// Answered from the on-disk chunk CRCs (Crc32cCombine) without
  /// faulting a single payload byte, so imprint sidecar fingerprints
  /// agree with the resident open of the same file.
  uint32_t payload_crc32c() const override { return payload_crc_; }

  size_t raw_size_bytes() const override {
    return static_cast<size_t>(rows_) * width();
  }

  const std::string& path() const { return path_; }
  /// Process-unique chunk-cache keying id of this open.
  uint64_t file_id() const { return file_id_; }
  /// True for GPC1 files (faults decompress), false for GCL2 (raw).
  bool compressed() const { return compressed_; }

 private:
  PagedColumn(std::string name, DataType type);

  size_t RowsInChunk(size_t chunk_index) const;
  /// Reads, verifies and (for GPC1) decompresses one chunk from disk.
  Result<std::shared_ptr<const std::vector<uint8_t>>> FaultChunk(
      size_t chunk_index) const;

  std::string path_;
  uint64_t file_id_ = 0;
  uint64_t rows_ = 0;
  size_t chunk_rows_ = 0;
  uint32_t payload_crc_ = 0;
  bool compressed_ = false;
  std::vector<ColumnFileLayout::Chunk> chunks_;
  mutable std::mutex paged_stats_mu_;
  mutable ColumnStats paged_stats_;
};

/// PagedColumn::Open as a ColumnPtr — the drop-in counterpart of
/// ReadColumnFile for the paged open mode.
Result<ColumnPtr> OpenPagedColumnFile(const std::string& path,
                                      const std::string& name);

/// Opens every column of a persisted table for demand paging. Works on
/// WriteTableDir output (GCL2) and WriteChunkedCompressedTableDir output
/// (GPC1).
Result<FlatTable> ReadTableDirPaged(const std::string& dir);

}  // namespace geocol

#endif  // GEOCOL_COLUMNS_PAGED_COLUMN_H_
