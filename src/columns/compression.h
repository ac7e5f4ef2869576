// Column compression codecs for the flat-table storage. Paper §3.1: the
// flat table "is more flexible to exploit compression techniques which are
// more advantageous for column-stores such as run length encoding."
//
// Codecs:
//   kRaw         verbatim values
//   kRle         run-length (value, count) pairs — flags, classification
//   kFor         frame-of-reference + bit packing — bounded-range integers
//   kDelta       delta + zigzag + bit packing — sorted/acquisition-ordered
//                integers (coordinates, gps_time bit patterns)
// kAuto sizes every applicable codec and picks the smallest. The codecs
// encode bare payloads; GPC1 column files (column_file.h) frame one payload
// per 256 KiB chunk.
#ifndef GEOCOL_COLUMNS_COMPRESSION_H_
#define GEOCOL_COLUMNS_COMPRESSION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "columns/types.h"
#include "util/status.h"

namespace geocol {

enum class ColumnCodec : uint8_t {
  kRaw = 0,
  kRle = 1,
  kFor = 2,
  kDelta = 3,
  kAuto = 255,  ///< choose per column (never appears in encoded payloads)
};

const char* ColumnCodecName(ColumnCodec codec);

/// Outcome of one column compression.
struct CompressionStats {
  ColumnCodec codec = ColumnCodec::kRaw;
  uint64_t uncompressed_bytes = 0;
  uint64_t compressed_bytes = 0;
  double Ratio() const {
    return compressed_bytes > 0
               ? static_cast<double>(uncompressed_bytes) / compressed_bytes
               : 0.0;
  }
};

/// Encodes `count` values of `type` from a raw little-endian buffer as one
/// bare codec payload (no magic/type/count header — the caller's framing
/// holds those). kAuto sizes every applicable codec and picks the
/// smallest; the codec actually used lands in `*chosen` (kFor of an empty
/// input falls back to kRaw). GPC1 column files store one such payload
/// per chunk.
std::vector<uint8_t> CompressChunkPayload(DataType type, const void* values,
                                          uint64_t count, ColumnCodec codec,
                                          ColumnCodec* chosen);

/// Decodes a CompressChunkPayload buffer into `out` (`count` values of
/// `type`, caller-allocated). Corruption when the payload does not decode
/// to exactly `count` values.
Status DecompressChunkPayload(DataType type, ColumnCodec codec,
                              const uint8_t* data, size_t size,
                              uint64_t count, void* out);

}  // namespace geocol

#endif  // GEOCOL_COLUMNS_COMPRESSION_H_
