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

/// Canonical column order of the flat point-cloud table: x, y, z (float64,
/// world coordinates) followed by the 23 LAS properties.
const std::vector<Field>& LasPointFields();

/// Schema built from LasPointFields().
Schema LasPointSchema();

/// Number of attributes (26: x, y, z + 23 properties).
constexpr size_t kLasAttributeCount = 26;

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

/// Appends the tile's points to the columns of `table` (which must have
/// LasPointSchema). Coordinates are converted to world doubles — this is
/// the per-attribute conversion step of the paper's binary loader.
Status AppendTileToTable(const LasTile& tile, FlatTable* table);

/// Inverse of AppendTileToTable: reconstructs full point records from a
/// LAS-schema table (coordinates re-quantised through `header`'s
/// scale/offset). Used when handing flat-table data to the record-oriented
/// baselines.
Result<std::vector<LasPointRecord>> TableToRecords(const FlatTable& table,
                                                   const LasHeader& header);

}  // namespace geocol

#endif  // GEOCOL_LAS_LAS_FORMAT_H_
