// LAZ-like lossless compression for point records: per-attribute delta
// coding with zigzag + per-chunk bit packing. This stands in for
// Rapidlasso's LAZ in the benchmarks — it exercises the same costs
// (decompression on every read, compression during acquisition/export) and
// achieves comparable ratios on acquisition-ordered data, where consecutive
// points are spatially close and deltas are small.
//
// A payload is a run of self-contained chunks of kLazChunkSize points (the
// last one ragged; an empty input codes one empty chunk). A chunk holds one
// stream per attribute, in ForEachLasField order: a bit-width byte, then
// that many bits per point, packed and zero-padded to a whole byte. Every
// stream restarts its delta base, so a chunk decodes on its own.
#ifndef GEOCOL_LAS_LAZ_H_
#define GEOCOL_LAS_LAZ_H_

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "las/las_format.h"
#include "util/status.h"

namespace geocol {

/// Points per compression chunk (bit widths adapt per chunk).
constexpr size_t kLazChunkSize = 4096;

/// Compresses `points` into `out` (cleared first).
Status LazCompress(std::span<const LasPointRecord> points,
                   std::vector<uint8_t>* out);

/// Corruption unless a payload of `payload_bytes` can hold `count` points:
/// every chunk needs at least its kLasAttributeCount bit-width bytes.
Status CheckLazPointCount(uint64_t count, uint64_t payload_bytes);

/// Hands out the next `n` bytes of a payload, valid until the next call;
/// Corruption when the payload ends first.
using LazByteSource =
    std::function<Result<std::span<const uint8_t>>(size_t n)>;

/// Decodes the next chunk of a payload into `chunk`, whose size is that
/// chunk's point count, pulling exactly the chunk's bytes from `source`.
Status LazDecodeChunk(const LazByteSource& source,
                      std::span<LasPointRecord> chunk);

/// Decompresses a whole LazCompress payload; `count` is the expected number
/// of points (from the file header or the block).
Status LazDecompress(std::span<const uint8_t> data, uint64_t count,
                     std::vector<LasPointRecord>* out);

}  // namespace geocol

#endif  // GEOCOL_LAS_LAZ_H_
