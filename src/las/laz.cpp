#include "las/laz.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "util/bitpack.h"

namespace geocol {

namespace {

// Each attribute is compressed as a stream of int64s (floats/doubles go
// through their bit representation, which still deltas well for smooth
// signals like gps_time).
constexpr size_t kNumStreams = 26;

void ExtractStream(const std::vector<LasPointRecord>& pts, size_t stream,
                   size_t begin, size_t end, std::vector<int64_t>* vals) {
  vals->clear();
  vals->reserve(end - begin);
  for (size_t i = begin; i < end; ++i) {
    const LasPointRecord& p = pts[i];
    int64_t v = 0;
    switch (stream) {
      case 0: v = p.x; break;
      case 1: v = p.y; break;
      case 2: v = p.z; break;
      case 3: v = p.intensity; break;
      case 4: v = p.return_number; break;
      case 5: v = p.number_of_returns; break;
      case 6: v = p.scan_direction; break;
      case 7: v = p.edge_of_flight_line; break;
      case 8: v = p.classification; break;
      case 9: v = p.synthetic_flag; break;
      case 10: v = p.key_point_flag; break;
      case 11: v = p.withheld_flag; break;
      case 12: v = p.scan_angle; break;
      case 13: v = p.user_data; break;
      case 14: v = p.point_source_id; break;
      case 15: {
        uint64_t bits;
        std::memcpy(&bits, &p.gps_time, 8);
        v = static_cast<int64_t>(bits);
        break;
      }
      case 16: v = p.red; break;
      case 17: v = p.green; break;
      case 18: v = p.blue; break;
      case 19: v = p.nir; break;
      case 20: v = p.wave_descriptor; break;
      case 21: v = static_cast<int64_t>(p.wave_offset); break;
      case 22: v = p.wave_packet_size; break;
      case 23: {
        uint32_t bits;
        std::memcpy(&bits, &p.wave_return_location, 4);
        v = bits;
        break;
      }
      case 24: {
        uint32_t bits;
        std::memcpy(&bits, &p.wave_x, 4);
        v = bits;
        break;
      }
      case 25: {
        uint32_t bits;
        std::memcpy(&bits, &p.wave_y, 4);
        v = bits;
        break;
      }
    }
    vals->push_back(v);
  }
}

void InjectStream(std::vector<LasPointRecord>* pts, size_t stream,
                  size_t begin, const std::vector<int64_t>& vals) {
  for (size_t i = 0; i < vals.size(); ++i) {
    LasPointRecord& p = (*pts)[begin + i];
    int64_t v = vals[i];
    switch (stream) {
      case 0: p.x = static_cast<int32_t>(v); break;
      case 1: p.y = static_cast<int32_t>(v); break;
      case 2: p.z = static_cast<int32_t>(v); break;
      case 3: p.intensity = static_cast<uint16_t>(v); break;
      case 4: p.return_number = static_cast<uint8_t>(v); break;
      case 5: p.number_of_returns = static_cast<uint8_t>(v); break;
      case 6: p.scan_direction = static_cast<uint8_t>(v); break;
      case 7: p.edge_of_flight_line = static_cast<uint8_t>(v); break;
      case 8: p.classification = static_cast<uint8_t>(v); break;
      case 9: p.synthetic_flag = static_cast<uint8_t>(v); break;
      case 10: p.key_point_flag = static_cast<uint8_t>(v); break;
      case 11: p.withheld_flag = static_cast<uint8_t>(v); break;
      case 12: p.scan_angle = static_cast<int8_t>(v); break;
      case 13: p.user_data = static_cast<uint8_t>(v); break;
      case 14: p.point_source_id = static_cast<uint16_t>(v); break;
      case 15: {
        uint64_t bits = static_cast<uint64_t>(v);
        std::memcpy(&p.gps_time, &bits, 8);
        break;
      }
      case 16: p.red = static_cast<uint16_t>(v); break;
      case 17: p.green = static_cast<uint16_t>(v); break;
      case 18: p.blue = static_cast<uint16_t>(v); break;
      case 19: p.nir = static_cast<uint16_t>(v); break;
      case 20: p.wave_descriptor = static_cast<uint8_t>(v); break;
      case 21: p.wave_offset = static_cast<uint64_t>(v); break;
      case 22: p.wave_packet_size = static_cast<uint32_t>(v); break;
      case 23: {
        uint32_t bits = static_cast<uint32_t>(v);
        std::memcpy(&p.wave_return_location, &bits, 4);
        break;
      }
      case 24: {
        uint32_t bits = static_cast<uint32_t>(v);
        std::memcpy(&p.wave_x, &bits, 4);
        break;
      }
      case 25: {
        uint32_t bits = static_cast<uint32_t>(v);
        std::memcpy(&p.wave_y, &bits, 4);
        break;
      }
    }
  }
}

}  // namespace

Status LazCompress(const std::vector<LasPointRecord>& points,
                   std::vector<uint8_t>* out) {
  out->clear();
  std::vector<int64_t> vals;
  for (size_t begin = 0; begin < points.size() || begin == 0;
       begin += kLazChunkSize) {
    size_t end = std::min(points.size(), begin + kLazChunkSize);
    if (begin >= end && begin > 0) break;
    for (size_t stream = 0; stream < kNumStreams; ++stream) {
      ExtractStream(points, stream, begin, end, &vals);
      // Delta + zigzag; the first value is the chunk base. The delta
      // wraps modulo 2^64 (the decoder's sum wraps back), so extreme
      // neighbours such as INT64_MIN after INT64_MAX round-trip.
      uint64_t max_zz = 0;
      uint64_t prev = 0;
      std::vector<uint64_t> zz(vals.size());
      for (size_t i = 0; i < vals.size(); ++i) {
        const uint64_t cur = static_cast<uint64_t>(vals[i]);
        zz[i] = ZigZagEncode(static_cast<int64_t>(cur - prev));
        prev = cur;
        max_zz = std::max(max_zz, zz[i]);
      }
      uint8_t bits = max_zz == 0
                         ? 0
                         : static_cast<uint8_t>(64 - std::countl_zero(max_zz));
      out->push_back(bits);
      BitWriter bw(out);
      for (uint64_t z : zz) bw.Write(z, bits);
      bw.FlushByte();
    }
    if (end == points.size()) break;
  }
  return Status::OK();
}

Status LazDecompress(const std::vector<uint8_t>& data, uint64_t count,
                     std::vector<LasPointRecord>* out) {
  out->assign(count, LasPointRecord{});
  size_t byte_pos = 0;
  std::vector<int64_t> vals;
  for (size_t begin = 0; begin < count || begin == 0; begin += kLazChunkSize) {
    size_t end = std::min<size_t>(count, begin + kLazChunkSize);
    if (begin >= end && begin > 0) break;
    size_t n = end - begin;
    for (size_t stream = 0; stream < kNumStreams; ++stream) {
      if (byte_pos >= data.size()) {
        return Status::Corruption("LAZ payload truncated (missing bit width)");
      }
      uint8_t bits = data[byte_pos];
      BitReader chunk(data.data() + byte_pos + 1, data.size() - byte_pos - 1);
      vals.assign(n, 0);
      uint64_t prev = 0;
      for (size_t i = 0; i < n; ++i) {
        uint64_t z = 0;
        if (bits > 0 && !chunk.Read(&z, bits)) {
          return Status::Corruption("LAZ payload truncated (stream data)");
        }
        prev += static_cast<uint64_t>(ZigZagDecode(z));
        vals[i] = static_cast<int64_t>(prev);
      }
      InjectStream(out, stream, begin, vals);
      size_t stream_bytes = (static_cast<size_t>(bits) * n + 7) / 8;
      byte_pos += 1 + stream_bytes;
    }
    if (end == count) break;
  }
  return Status::OK();
}

}  // namespace geocol
