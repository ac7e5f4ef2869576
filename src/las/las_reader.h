// The one streaming reader for the LAS-like tile format, LAS and LAZ alike,
// and the whole-tile and append-to-table loops over it. Header-only reads
// are cheap and are what the file-based baseline's per-file pre-filter
// uses (§2.2: "a large amount of files to be inspected for a simple
// selection").
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

/// Reads a whole tile: a loop over LasTileReader::NextBlock.
Result<LasTile> ReadLasFile(const std::string& path);

/// Streams a tile's records in file order, at most one block at a time.
/// An uncompressed tile is read one block of records at a time; a LAZ tile
/// is decoded one chunk at a time straight from the file, so the reader
/// holds at most one block of LAS or one kLazChunkSize chunk of LAZ,
/// whatever the tile size. Errors name the file.
class LasTileReader {
 public:
  /// Reads the header and checks the payload against it, so a truncated
  /// tile fails here with Corruption before any block is read: all
  /// point_count records of an uncompressed tile must be in the file, and
  /// a LAZ payload must be in the file and able to hold point_count points.
  Status Open(const std::string& path);

  const LasHeader& header() const { return header_; }

  /// The next at most `max_records` records — for LAZ at most the rest of
  /// the current chunk; empty once all point_count records have been
  /// returned. Valid until the next call. A chunk that its bytes cannot
  /// fill fails with Corruption.
  Result<std::span<const LasPointRecord>> NextBlock(size_t max_records);

  /// Decoded records the reader holds (the capacity of its block buffer).
  size_t resident_records() const { return records_.capacity(); }

 private:
  std::string path_;
  BinaryReader file_;
  LasHeader header_;
  uint64_t returned_ = 0;
  uint64_t payload_left_ = 0;  ///< LAZ payload bytes not yet read
  size_t chunk_returned_ = 0;  ///< records of the LAZ chunk handed out
  std::vector<uint8_t> raw_;   ///< one block of records, or one LAZ stream
  std::vector<LasPointRecord> records_;  ///< the block, or the LAZ chunk
};

/// Streams the tile at `path` into `table` (which must have the LAS point
/// schema), block by block. On error `table` may already hold a prefix of
/// the tile, so callers that keep the table stage into a fresh one.
Status AppendLasFile(const std::string& path, FlatTable* table);

}  // namespace geocol

#endif  // GEOCOL_LAS_LAS_READER_H_
