#include "las/laz.h"

#include <algorithm>
#include <bit>
#include <string>
#include <type_traits>

#include "util/bitpack.h"

namespace geocol {

namespace {

// Each attribute is coded as a stream of int64s: integers widen (signed
// ones sign-extend), floats and doubles go through their bit pattern,
// which still deltas well for smooth signals like gps_time.
template <typename T>
using StreamBits = std::conditional_t<sizeof(T) == 8, uint64_t, uint32_t>;

template <typename T>
int64_t ToStream(T v) {
  if constexpr (std::is_floating_point_v<T>) {
    return static_cast<int64_t>(std::bit_cast<StreamBits<T>>(v));
  } else {
    return static_cast<int64_t>(v);
  }
}

template <typename T>
T FromStream(int64_t v) {
  if constexpr (std::is_floating_point_v<T>) {
    return std::bit_cast<T>(static_cast<StreamBits<T>>(v));
  } else {
    return static_cast<T>(v);
  }
}

/// Decodes stream `stream` of a chunk: `bits`-wide zigzag deltas in
/// `data` into that field of every record of `chunk`.
Status DecodeStream(size_t stream, uint8_t bits, std::span<const uint8_t> data,
                    std::span<LasPointRecord> chunk) {
  BitReader reader(data.data(), data.size());
  bool truncated = false;
  VisitLasField(stream, [&](auto member) {
    using T = LasFieldType<decltype(member)>;
    uint64_t prev = 0;
    for (LasPointRecord& p : chunk) {
      uint64_t z = 0;
      if (bits > 0 && !reader.Read(&z, bits)) {
        truncated = true;
        return;
      }
      prev += static_cast<uint64_t>(ZigZagDecode(z));
      p.*member = FromStream<T>(static_cast<int64_t>(prev));
    }
  });
  if (truncated) return Status::Corruption("LAZ payload truncated");
  return Status::OK();
}

}  // namespace

Status LazCompress(std::span<const LasPointRecord> points,
                   std::vector<uint8_t>* out) {
  out->clear();
  std::vector<uint64_t> zz;
  size_t begin = 0;
  do {
    const std::span<const LasPointRecord> chunk =
        points.subspan(begin, std::min(kLazChunkSize, points.size() - begin));
    for (size_t stream = 0; stream < kLasAttributeCount; ++stream) {
      // Delta + zigzag; the first value is the chunk base. The delta
      // wraps modulo 2^64 (the decoder's sum wraps back), so extreme
      // neighbours such as INT64_MIN after INT64_MAX round-trip.
      zz.clear();
      uint64_t max_zz = 0;
      VisitLasField(stream, [&](auto member) {
        uint64_t prev = 0;
        for (const LasPointRecord& p : chunk) {
          const uint64_t cur = static_cast<uint64_t>(ToStream(p.*member));
          zz.push_back(ZigZagEncode(static_cast<int64_t>(cur - prev)));
          prev = cur;
          max_zz = std::max(max_zz, zz.back());
        }
      });
      const uint8_t bits =
          max_zz == 0 ? 0
                      : static_cast<uint8_t>(64 - std::countl_zero(max_zz));
      out->push_back(bits);
      BitWriter bw(out);
      for (uint64_t z : zz) bw.Write(z, bits);
      bw.FlushByte();
    }
    begin += chunk.size();
  } while (begin < points.size());
  return Status::OK();
}

Status CheckLazPointCount(uint64_t count, uint64_t payload_bytes) {
  const uint64_t chunks =
      std::max<uint64_t>(1, (count + kLazChunkSize - 1) / kLazChunkSize);
  if (chunks > payload_bytes / kLasAttributeCount) {
    return Status::Corruption("LAZ payload of " +
                              std::to_string(payload_bytes) +
                              " bytes cannot hold " + std::to_string(count) +
                              " points");
  }
  return Status::OK();
}

Status LazDecodeChunk(const LazByteSource& source,
                      std::span<LasPointRecord> chunk) {
  for (size_t stream = 0; stream < kLasAttributeCount; ++stream) {
    GEOCOL_ASSIGN_OR_RETURN(std::span<const uint8_t> width, source(1));
    const uint8_t bits = width[0];
    if (bits > 64) {
      return Status::Corruption("LAZ bit width " + std::to_string(bits) +
                                " exceeds 64");
    }
    GEOCOL_ASSIGN_OR_RETURN(std::span<const uint8_t> data,
                            source((size_t{bits} * chunk.size() + 7) / 8));
    GEOCOL_RETURN_NOT_OK(DecodeStream(stream, bits, data, chunk));
  }
  return Status::OK();
}

Status LazDecompress(std::span<const uint8_t> data, uint64_t count,
                     std::vector<LasPointRecord>* out) {
  GEOCOL_RETURN_NOT_OK(CheckLazPointCount(count, data.size()));
  out->resize(count);
  size_t pos = 0;
  const LazByteSource source =
      [&](size_t n) -> Result<std::span<const uint8_t>> {
    if (n > data.size() - pos) {
      return Status::Corruption("LAZ payload truncated");
    }
    pos += n;
    return data.subspan(pos - n, n);
  };
  const std::span<LasPointRecord> records(*out);
  for (size_t begin = 0; begin < records.size(); begin += kLazChunkSize) {
    GEOCOL_RETURN_NOT_OK(LazDecodeChunk(
        source, records.subspan(
                    begin, std::min(kLazChunkSize, records.size() - begin))));
  }
  return Status::OK();
}

}  // namespace geocol
