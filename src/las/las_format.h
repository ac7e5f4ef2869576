// A LAS-like point cloud file format ("GLAS"). It mirrors the structure of
// ASPRS LAS: a fixed header carrying the point count, XYZ scale/offset and
// the bounding box, followed by fixed-width point records holding the X, Y,
// Z coordinates and the 23 additional point properties the paper cites
// ("the current version for LAS has a total of 23 properties excluding the
// X, Y, and Z coordinates").
#ifndef GEOCOL_LAS_LAS_FORMAT_H_
#define GEOCOL_LAS_LAS_FORMAT_H_

#include <cmath>
#include <cstdint>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "columns/flat_table.h"
#include "geom/geometry.h"

namespace geocol {

/// Serialized point record width in bytes (packed, little-endian).
constexpr size_t kLasRecordBytes = 67;

/// File header. World coordinates of a record are
/// `world = raw * scale + offset` per axis, exactly as in LAS.
struct LasHeader {
  uint64_t point_count = 0;
  double scale[3] = {0.01, 0.01, 0.01};
  double offset[3] = {0.0, 0.0, 0.0};
  double min_world[3] = {0.0, 0.0, 0.0};  ///< bbox in world coordinates
  double max_world[3] = {0.0, 0.0, 0.0};
  uint16_t record_length = kLasRecordBytes;
  uint8_t compressed = 0;  ///< 1 = LAZ-like compressed point payload

  /// 2-D footprint of the tile (the per-file pre-filter of the file-based
  /// baseline inspects exactly this).
  Box Footprint() const {
    return Box(min_world[0], min_world[1], max_world[0], max_world[1]);
  }
};

/// One point record: scaled integer coordinates + 23 properties, matching
/// the LAS point formats' attribute inventory.
struct LasPointRecord {
  int32_t x = 0;  ///< raw (scaled) coordinates
  int32_t y = 0;
  int32_t z = 0;
  uint16_t intensity = 0;
  uint8_t return_number = 1;
  uint8_t number_of_returns = 1;
  uint8_t scan_direction = 0;
  uint8_t edge_of_flight_line = 0;
  uint8_t classification = 0;
  uint8_t synthetic_flag = 0;
  uint8_t key_point_flag = 0;
  uint8_t withheld_flag = 0;
  int8_t scan_angle = 0;
  uint8_t user_data = 0;
  uint16_t point_source_id = 0;
  double gps_time = 0.0;
  uint16_t red = 0;
  uint16_t green = 0;
  uint16_t blue = 0;
  uint16_t nir = 0;
  uint8_t wave_descriptor = 0;
  uint64_t wave_offset = 0;
  uint32_t wave_packet_size = 0;
  float wave_return_location = 0.0f;
  float wave_x = 0.0f;
  float wave_y = 0.0f;
};

/// An in-memory tile: header + records.
struct LasTile {
  LasHeader header;
  std::vector<LasPointRecord> points;

  double WorldX(const LasPointRecord& p) const {
    return p.x * header.scale[0] + header.offset[0];
  }
  double WorldY(const LasPointRecord& p) const {
    return p.y * header.scale[1] + header.offset[1];
  }
  double WorldZ(const LasPointRecord& p) const {
    return p.z * header.scale[2] + header.offset[2];
  }

  /// Converts a world coordinate to the raw scaled representation
  /// (round-to-nearest, correct for negative coordinates too).
  int32_t RawX(double wx) const {
    return static_cast<int32_t>(
        std::llround((wx - header.offset[0]) / header.scale[0]));
  }
  int32_t RawY(double wy) const {
    return static_cast<int32_t>(
        std::llround((wy - header.offset[1]) / header.scale[1]));
  }
  int32_t RawZ(double wz) const {
    return static_cast<int32_t>(
        std::llround((wz - header.offset[2]) / header.scale[2]));
  }

  /// Recomputes point_count and the world bbox from the records.
  void RecomputeHeader();
};

/// Number of attributes (26: x, y, z + 23 properties).
constexpr size_t kLasAttributeCount = 26;

/// The leading fields x, y, z: scaled integers in a record, world doubles
/// in a column.
constexpr size_t kLasCoordinateCount = 3;

/// The one definition of the record layout: calls `f(name, member)` for
/// every field of LasPointRecord in record, file and column order, with
/// `member` a pointer to that member. The schema, the record codec, the
/// columnar gather and scatter and the LAZ streams all derive from it.
template <typename F>
constexpr void ForEachLasField(F&& f) {
#define GEOCOL_LAS_FIELD(m) f(#m, &LasPointRecord::m)
  GEOCOL_LAS_FIELD(x);
  GEOCOL_LAS_FIELD(y);
  GEOCOL_LAS_FIELD(z);
  GEOCOL_LAS_FIELD(intensity);
  GEOCOL_LAS_FIELD(return_number);
  GEOCOL_LAS_FIELD(number_of_returns);
  GEOCOL_LAS_FIELD(scan_direction);
  GEOCOL_LAS_FIELD(edge_of_flight_line);
  GEOCOL_LAS_FIELD(classification);
  GEOCOL_LAS_FIELD(synthetic_flag);
  GEOCOL_LAS_FIELD(key_point_flag);
  GEOCOL_LAS_FIELD(withheld_flag);
  GEOCOL_LAS_FIELD(scan_angle);
  GEOCOL_LAS_FIELD(user_data);
  GEOCOL_LAS_FIELD(point_source_id);
  GEOCOL_LAS_FIELD(gps_time);
  GEOCOL_LAS_FIELD(red);
  GEOCOL_LAS_FIELD(green);
  GEOCOL_LAS_FIELD(blue);
  GEOCOL_LAS_FIELD(nir);
  GEOCOL_LAS_FIELD(wave_descriptor);
  GEOCOL_LAS_FIELD(wave_offset);
  GEOCOL_LAS_FIELD(wave_packet_size);
  GEOCOL_LAS_FIELD(wave_return_location);
  GEOCOL_LAS_FIELD(wave_x);
  GEOCOL_LAS_FIELD(wave_y);
#undef GEOCOL_LAS_FIELD
}

/// The value type behind a ForEachLasField member pointer.
template <typename Member>
using LasFieldType = std::remove_cvref_t<
    decltype(std::declval<LasPointRecord&>().*std::declval<Member>())>;

/// Calls `f(member)` for field `attribute` of ForEachLasField alone, so a
/// caller branches on the attribute once and then runs a loop typed to it.
template <typename F>
void VisitLasField(size_t attribute, F&& f) {
  size_t i = 0;
  ForEachLasField([&](const char*, auto member) {
    if (i++ == attribute) f(member);
  });
}

/// Canonical column order of the flat point-cloud table: x, y, z (float64,
/// world coordinates) followed by the 23 LAS properties, each in its
/// record type.
const std::vector<Field>& LasPointFields();

/// Schema built from LasPointFields().
Schema LasPointSchema();

/// Serializes one record into exactly kLasRecordBytes at `dst`.
void SerializeRecord(const LasPointRecord& p, uint8_t* dst);

/// Deserializes one record from kLasRecordBytes at `src`.
void DeserializeRecord(const uint8_t* src, LasPointRecord* p);

/// Writes attribute `attribute` (LasPointFields() order) of `points` to
/// `dst` as a packed little-endian C-array of that field's type, with the
/// coordinates converted to world doubles through `header`. `dst` must
/// hold points.size() values of the attribute's width.
void GatherAttribute(const LasHeader& header,
                     std::span<const LasPointRecord> points, size_t attribute,
                     uint8_t* dst);

/// Appends `points` to the columns of `table` (which must have
/// LasPointSchema). Coordinates are converted to world doubles through
/// `header` — this is the per-attribute conversion step of the paper's
/// binary loader.
Status AppendTileToTable(const LasHeader& header,
                         std::span<const LasPointRecord> points,
                         FlatTable* table);

/// Inverse of AppendTileToTable: reconstructs full point records from a
/// LAS-schema table (coordinates re-quantised through `header`'s
/// scale/offset). Used when handing flat-table data to the record-oriented
/// baselines.
Result<std::vector<LasPointRecord>> TableToRecords(const FlatTable& table,
                                                   const LasHeader& header);

}  // namespace geocol

#endif  // GEOCOL_LAS_LAS_FORMAT_H_
