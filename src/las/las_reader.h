// Readers for the LAS-like tile format. Header-only reads are cheap and
// are what the file-based baseline's per-file pre-filter uses (§2.2: "a
// large amount of files to be inspected for a simple selection").
#ifndef GEOCOL_LAS_LAS_READER_H_
#define GEOCOL_LAS_LAS_READER_H_

#include <span>
#include <string>
#include <vector>

#include "las/las_format.h"
#include "util/binary_io.h"
#include "util/status.h"

namespace geocol {

/// Reads only the fixed header of a tile file.
Result<LasHeader> ReadLasHeader(const std::string& path);

/// Reads a whole tile, decompressing when the header says LAZ.
Result<LasTile> ReadLasFile(const std::string& path);

/// Streams a tile's records in file order, at most one block at a time, so
/// the reader holds one block of an uncompressed tile instead of all of it.
/// LAZ tiles decode whole in Open (LazDecompress works on the whole
/// payload) and are then handed out block by block. Errors name the file.
class LasTileReader {
 public:
  /// Reads the header. For an uncompressed tile, also checks that the
  /// file holds all point_count records, so a truncated tile fails here
  /// with Corruption before any block is read.
  Status Open(const std::string& path);

  const LasHeader& header() const { return header_; }

  /// The next at most `max_records` records; empty once all point_count
  /// records have been returned. Valid until the next call.
  Result<std::span<const LasPointRecord>> NextBlock(size_t max_records);

 private:
  std::string path_;
  BinaryReader file_;
  LasHeader header_;
  uint64_t returned_ = 0;
  std::vector<uint8_t> raw_;             ///< one block of serialized records
  std::vector<LasPointRecord> records_;  ///< the block, or the whole LAZ tile
};

}  // namespace geocol

#endif  // GEOCOL_LAS_LAS_READER_H_
