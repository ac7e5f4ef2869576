#include "columns/compression.h"

#include <algorithm>
#include <cstring>
#include <span>

#include "util/bitpack.h"

namespace geocol {

namespace {

// Integer view of a column value (floats go through their bit patterns so
// every codec round-trips exactly).
template <typename T>
int64_t ToBits(T v) {
  if constexpr (std::is_same_v<T, float>) {
    uint32_t bits;
    std::memcpy(&bits, &v, 4);
    return static_cast<int64_t>(bits);
  } else if constexpr (std::is_same_v<T, double>) {
    uint64_t bits;
    std::memcpy(&bits, &v, 8);
    return static_cast<int64_t>(bits);
  } else {
    return static_cast<int64_t>(v);
  }
}

template <typename T>
T FromBits(int64_t v) {
  if constexpr (std::is_same_v<T, float>) {
    uint32_t bits = static_cast<uint32_t>(v);
    float f;
    std::memcpy(&f, &bits, 4);
    return f;
  } else if constexpr (std::is_same_v<T, double>) {
    uint64_t bits = static_cast<uint64_t>(v);
    double d;
    std::memcpy(&d, &bits, 8);
    return d;
  } else {
    return static_cast<T>(v);
  }
}

// Two's-complement wrapping arithmetic on bit patterns: the bits of two
// doubles can differ by more than the int64 range, and signed overflow is
// undefined behaviour.
int64_t WrapSub(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) -
                              static_cast<uint64_t>(b));
}

int64_t WrapAdd(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) +
                              static_cast<uint64_t>(b));
}

template <typename T>
void Append64(std::vector<uint8_t>* out, T v) {
  const auto* p = reinterpret_cast<const uint8_t*>(&v);
  out->insert(out->end(), p, p + sizeof(T));
}

template <typename T>
bool Take64(const uint8_t* in, size_t size, size_t* pos, T* v) {
  if (*pos + sizeof(T) > size) return false;
  std::memcpy(v, in + *pos, sizeof(T));
  *pos += sizeof(T);
  return true;
}

// ---- size estimators (cheap, no materialisation) -----------------------

template <typename T>
uint64_t RleRuns(std::span<const T> values) {
  if (values.empty()) return 0;
  uint64_t runs = 1;
  for (size_t i = 1; i < values.size(); ++i) {
    runs += values[i] != values[i - 1];
  }
  return runs;
}

template <typename T>
uint32_t ForBits(std::span<const T> values, int64_t* out_min) {
  int64_t mn = ToBits(values[0]), mx = mn;
  for (T v : values) {
    int64_t b = ToBits(v);
    mn = std::min(mn, b);
    mx = std::max(mx, b);
  }
  *out_min = mn;
  return BitsFor(static_cast<uint64_t>(WrapSub(mx, mn)));
}

// Bit width of the zigzag deltas, excluding the first value (which is
// stored raw — otherwise the jump from 0 would dominate the width).
template <typename T>
uint32_t DeltaBits(std::span<const T> values) {
  uint64_t max_zz = 0;
  int64_t prev = values.empty() ? 0 : ToBits(values[0]);
  for (size_t i = 1; i < values.size(); ++i) {
    int64_t b = ToBits(values[i]);
    max_zz = std::max(max_zz, ZigZagEncode(WrapSub(b, prev)));
    prev = b;
  }
  return BitsFor(max_zz);
}

// ---- encoders -----------------------------------------------------------

template <typename T>
void EncodeRle(std::span<const T> values, std::vector<uint8_t>* out) {
  uint64_t runs = RleRuns(values);
  Append64(out, runs);
  size_t i = 0;
  while (i < values.size()) {
    size_t j = i + 1;
    while (j < values.size() && values[j] == values[i] &&
           j - i < 0xFFFFFFFFull) {
      ++j;
    }
    Append64(out, values[i]);
    Append64(out, static_cast<uint32_t>(j - i));
    i = j;
  }
}

template <typename T>
Status DecodeRle(const uint8_t* in, size_t size, uint64_t count, T* out) {
  size_t pos = 0;
  uint64_t runs = 0;
  if (!Take64(in, size, &pos, &runs)) {
    return Status::Corruption("RLE: truncated");
  }
  uint64_t total = 0;
  for (uint64_t r = 0; r < runs; ++r) {
    T value;
    uint32_t len = 0;
    if (!Take64(in, size, &pos, &value) || !Take64(in, size, &pos, &len)) {
      return Status::Corruption("RLE: truncated run");
    }
    if (len > count - total) return Status::Corruption("RLE: run overflow");
    std::fill(out + total, out + total + len, value);
    total += len;
  }
  if (total != count) return Status::Corruption("RLE: wrong total");
  return Status::OK();
}

template <typename T>
void EncodeFor(std::span<const T> values, std::vector<uint8_t>* out) {
  int64_t mn = 0;
  uint32_t bits = ForBits(values, &mn);
  Append64(out, mn);
  out->push_back(static_cast<uint8_t>(bits));
  BitWriter bw(out);
  for (T v : values) {
    bw.Write(static_cast<uint64_t>(WrapSub(ToBits(v), mn)), bits);
  }
  bw.FlushByte();
}

template <typename T>
Status DecodeFor(const uint8_t* in, size_t size, uint64_t count, T* out) {
  size_t pos = 0;
  int64_t mn = 0;
  if (!Take64(in, size, &pos, &mn)) {
    return Status::Corruption("FOR: truncated header");
  }
  if (pos >= size) return Status::Corruption("FOR: truncated header");
  uint8_t bits = in[pos++];
  BitReader br(in + pos, size - pos);
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t packed = 0;
    if (bits > 0 && !br.Read(&packed, bits)) {
      return Status::Corruption("FOR: truncated payload");
    }
    out[i] = FromBits<T>(WrapAdd(mn, static_cast<int64_t>(packed)));
  }
  return Status::OK();
}

template <typename T>
void EncodeDelta(std::span<const T> values, std::vector<uint8_t>* out) {
  int64_t first = values.empty() ? 0 : ToBits(values[0]);
  Append64(out, first);
  uint32_t bits = DeltaBits(values);
  out->push_back(static_cast<uint8_t>(bits));
  BitWriter bw(out);
  int64_t prev = first;
  for (size_t i = 1; i < values.size(); ++i) {
    int64_t b = ToBits(values[i]);
    bw.Write(ZigZagEncode(WrapSub(b, prev)), bits);
    prev = b;
  }
  bw.FlushByte();
}

template <typename T>
Status DecodeDelta(const uint8_t* in, size_t size, uint64_t count, T* out) {
  size_t pos = 0;
  int64_t first = 0;
  if (!Take64(in, size, &pos, &first)) {
    return Status::Corruption("DELTA: truncated header");
  }
  if (pos >= size && count > 1) {
    return Status::Corruption("DELTA: truncated header");
  }
  uint8_t bits = pos < size ? in[pos++] : 0;
  if (count == 0) return Status::OK();
  out[0] = FromBits<T>(first);
  BitReader br(in + pos, size - pos);
  int64_t prev = first;
  for (uint64_t i = 1; i < count; ++i) {
    uint64_t z = 0;
    if (bits > 0 && !br.Read(&z, bits)) {
      return Status::Corruption("DELTA: truncated payload");
    }
    prev = WrapAdd(prev, ZigZagDecode(z));
    out[i] = FromBits<T>(prev);
  }
  return Status::OK();
}

// Estimated encoded bytes per codec; kRaw is the fallback ceiling.
template <typename T>
uint64_t EstimateBytes(std::span<const T> values, ColumnCodec codec) {
  const uint64_t n = values.size();
  switch (codec) {
    case ColumnCodec::kRaw:
      return n * sizeof(T);
    case ColumnCodec::kRle:
      return 8 + RleRuns(values) * (sizeof(T) + 4);
    case ColumnCodec::kFor: {
      int64_t mn;
      uint32_t bits = ForBits(values, &mn);
      return 9 + (n * bits + 7) / 8;
    }
    case ColumnCodec::kDelta:
      return 9 + ((n > 0 ? n - 1 : 0) * DeltaBits(values) + 7) / 8;
    case ColumnCodec::kAuto:
      break;
  }
  return ~uint64_t{0};
}

}  // namespace

const char* ColumnCodecName(ColumnCodec codec) {
  switch (codec) {
    case ColumnCodec::kRaw: return "raw";
    case ColumnCodec::kRle: return "rle";
    case ColumnCodec::kFor: return "for";
    case ColumnCodec::kDelta: return "delta";
    case ColumnCodec::kAuto: return "auto";
  }
  return "?";
}

std::vector<uint8_t> CompressChunkPayload(DataType type, const void* values,
                                          uint64_t count, ColumnCodec codec,
                                          ColumnCodec* chosen) {
  std::vector<uint8_t> out;
  ColumnCodec picked = codec;
  DispatchDataType(type, [&]<typename T>() {
    std::span<const T> vals{static_cast<const T*>(values),
                            static_cast<size_t>(count)};
    if (codec == ColumnCodec::kAuto) {
      picked = ColumnCodec::kRaw;
      uint64_t best = EstimateBytes(vals, ColumnCodec::kRaw);
      if (!vals.empty()) {
        for (ColumnCodec c : {ColumnCodec::kRle, ColumnCodec::kFor,
                              ColumnCodec::kDelta}) {
          uint64_t est = EstimateBytes(vals, c);
          if (est < best) {
            best = est;
            picked = c;
          }
        }
      }
    }
    if (picked == ColumnCodec::kFor && vals.empty()) {
      picked = ColumnCodec::kRaw;
    }
    switch (picked) {
      case ColumnCodec::kRaw: {
        const auto* p = static_cast<const uint8_t*>(values);
        out.insert(out.end(), p, p + count * sizeof(T));
        break;
      }
      case ColumnCodec::kRle: EncodeRle(vals, &out); break;
      case ColumnCodec::kFor: EncodeFor(vals, &out); break;
      case ColumnCodec::kDelta: EncodeDelta(vals, &out); break;
      case ColumnCodec::kAuto: break;  // unreachable
    }
  });
  if (chosen != nullptr) *chosen = picked;
  return out;
}

Status DecompressChunkPayload(DataType type, ColumnCodec codec,
                              const uint8_t* data, size_t size, uint64_t count,
                              void* out) {
  return DispatchDataType(type, [&]<typename T>() -> Status {
    T* typed = static_cast<T*>(out);
    switch (codec) {
      case ColumnCodec::kRaw: {
        uint64_t bytes = count * sizeof(T);
        if (bytes > size) return Status::Corruption("raw payload truncated");
        if (bytes > 0) std::memcpy(typed, data, bytes);  // may both be null
        return Status::OK();
      }
      case ColumnCodec::kRle: return DecodeRle<T>(data, size, count, typed);
      case ColumnCodec::kFor: return DecodeFor<T>(data, size, count, typed);
      case ColumnCodec::kDelta: return DecodeDelta<T>(data, size, count, typed);
      case ColumnCodec::kAuto: break;
    }
    return Status::Corruption("bad codec");
  });
}

}  // namespace geocol
