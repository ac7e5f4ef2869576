#include "las/las_format.h"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace geocol {

void LasTile::RecomputeHeader() {
  header.point_count = points.size();
  for (int a = 0; a < 3; ++a) {
    header.min_world[a] = points.empty() ? 0.0 : 1e300;
    header.max_world[a] = points.empty() ? 0.0 : -1e300;
  }
  for (const LasPointRecord& p : points) {
    double w[3] = {WorldX(p), WorldY(p), WorldZ(p)};
    for (int a = 0; a < 3; ++a) {
      header.min_world[a] = std::min(header.min_world[a], w[a]);
      header.max_world[a] = std::max(header.max_world[a], w[a]);
    }
  }
}

const std::vector<Field>& LasPointFields() {
  static const std::vector<Field> kFields = {
      {"x", DataType::kFloat64},
      {"y", DataType::kFloat64},
      {"z", DataType::kFloat64},
      {"intensity", DataType::kUInt16},
      {"return_number", DataType::kUInt8},
      {"number_of_returns", DataType::kUInt8},
      {"scan_direction", DataType::kUInt8},
      {"edge_of_flight_line", DataType::kUInt8},
      {"classification", DataType::kUInt8},
      {"synthetic_flag", DataType::kUInt8},
      {"key_point_flag", DataType::kUInt8},
      {"withheld_flag", DataType::kUInt8},
      {"scan_angle", DataType::kInt8},
      {"user_data", DataType::kUInt8},
      {"point_source_id", DataType::kUInt16},
      {"gps_time", DataType::kFloat64},
      {"red", DataType::kUInt16},
      {"green", DataType::kUInt16},
      {"blue", DataType::kUInt16},
      {"nir", DataType::kUInt16},
      {"wave_descriptor", DataType::kUInt8},
      {"wave_offset", DataType::kUInt64},
      {"wave_packet_size", DataType::kUInt32},
      {"wave_return_location", DataType::kFloat32},
      {"wave_x", DataType::kFloat32},
      {"wave_y", DataType::kFloat32},
  };
  return kFields;
}

Schema LasPointSchema() { return Schema(LasPointFields()); }

namespace {
template <typename T>
void Put(uint8_t*& dst, T v) {
  std::memcpy(dst, &v, sizeof(T));
  dst += sizeof(T);
}
template <typename T>
void Take(const uint8_t*& src, T* v) {
  std::memcpy(v, src, sizeof(T));
  src += sizeof(T);
}
}  // namespace

void SerializeRecord(const LasPointRecord& p, uint8_t* dst) {
  uint8_t* d = dst;
  Put(d, p.x);
  Put(d, p.y);
  Put(d, p.z);
  Put(d, p.intensity);
  Put(d, p.return_number);
  Put(d, p.number_of_returns);
  Put(d, p.scan_direction);
  Put(d, p.edge_of_flight_line);
  Put(d, p.classification);
  Put(d, p.synthetic_flag);
  Put(d, p.key_point_flag);
  Put(d, p.withheld_flag);
  Put(d, p.scan_angle);
  Put(d, p.user_data);
  Put(d, p.point_source_id);
  Put(d, p.gps_time);
  Put(d, p.red);
  Put(d, p.green);
  Put(d, p.blue);
  Put(d, p.nir);
  Put(d, p.wave_descriptor);
  Put(d, p.wave_offset);
  Put(d, p.wave_packet_size);
  Put(d, p.wave_return_location);
  Put(d, p.wave_x);
  Put(d, p.wave_y);
  static_assert(kLasRecordBytes == 67, "record layout drifted");
}

void DeserializeRecord(const uint8_t* src, LasPointRecord* p) {
  const uint8_t* s = src;
  Take(s, &p->x);
  Take(s, &p->y);
  Take(s, &p->z);
  Take(s, &p->intensity);
  Take(s, &p->return_number);
  Take(s, &p->number_of_returns);
  Take(s, &p->scan_direction);
  Take(s, &p->edge_of_flight_line);
  Take(s, &p->classification);
  Take(s, &p->synthetic_flag);
  Take(s, &p->key_point_flag);
  Take(s, &p->withheld_flag);
  Take(s, &p->scan_angle);
  Take(s, &p->user_data);
  Take(s, &p->point_source_id);
  Take(s, &p->gps_time);
  Take(s, &p->red);
  Take(s, &p->green);
  Take(s, &p->blue);
  Take(s, &p->nir);
  Take(s, &p->wave_descriptor);
  Take(s, &p->wave_offset);
  Take(s, &p->wave_packet_size);
  Take(s, &p->wave_return_location);
  Take(s, &p->wave_x);
  Take(s, &p->wave_y);
}

void GatherAttribute(const LasHeader& h,
                     std::span<const LasPointRecord> points, size_t attribute,
                     uint8_t* dst) {
  using P = const LasPointRecord&;
  // Stores get(p) of every point as the next packed value.
  auto put = [&](auto get) {
    for (P p : points) {
      const auto v = get(p);
      std::memcpy(dst, &v, sizeof(v));
      dst += sizeof(v);
    }
  };
  switch (attribute) {
    case 0: return put([&](P p) { return p.x * h.scale[0] + h.offset[0]; });
    case 1: return put([&](P p) { return p.y * h.scale[1] + h.offset[1]; });
    case 2: return put([&](P p) { return p.z * h.scale[2] + h.offset[2]; });
    case 3: return put([](P p) { return p.intensity; });
    case 4: return put([](P p) { return p.return_number; });
    case 5: return put([](P p) { return p.number_of_returns; });
    case 6: return put([](P p) { return p.scan_direction; });
    case 7: return put([](P p) { return p.edge_of_flight_line; });
    case 8: return put([](P p) { return p.classification; });
    case 9: return put([](P p) { return p.synthetic_flag; });
    case 10: return put([](P p) { return p.key_point_flag; });
    case 11: return put([](P p) { return p.withheld_flag; });
    case 12: return put([](P p) { return p.scan_angle; });
    case 13: return put([](P p) { return p.user_data; });
    case 14: return put([](P p) { return p.point_source_id; });
    case 15: return put([](P p) { return p.gps_time; });
    case 16: return put([](P p) { return p.red; });
    case 17: return put([](P p) { return p.green; });
    case 18: return put([](P p) { return p.blue; });
    case 19: return put([](P p) { return p.nir; });
    case 20: return put([](P p) { return p.wave_descriptor; });
    case 21: return put([](P p) { return p.wave_offset; });
    case 22: return put([](P p) { return p.wave_packet_size; });
    case 23: return put([](P p) { return p.wave_return_location; });
    case 24: return put([](P p) { return p.wave_x; });
    case 25: return put([](P p) { return p.wave_y; });
  }
  assert(false && "attribute out of range");
}

Status AppendTileToTable(const LasTile& tile, FlatTable* table) {
  const std::vector<Field>& fields = LasPointFields();
  bool las_schema = table->num_columns() == fields.size();
  for (size_t c = 0; las_schema && c < fields.size(); ++c) {
    las_schema = table->column(c)->type() == fields[c].type;
  }
  if (!las_schema) {
    return Status::InvalidArgument("table does not have the LAS point schema");
  }
  // Columnar append: one pass per attribute keeps each column's memory hot
  // and mirrors the loader's per-attribute binary dumps.
  for (size_t c = 0; c < fields.size(); ++c) {
    GatherAttribute(tile.header, tile.points, c,
                    table->column(c)->AppendUninitialized(tile.points.size()));
  }
  return table->Validate();
}

Result<std::vector<LasPointRecord>> TableToRecords(const FlatTable& table,
                                                   const LasHeader& header) {
  if (table.num_columns() != kLasAttributeCount) {
    return Status::InvalidArgument("table does not have the LAS point schema");
  }
  GEOCOL_RETURN_NOT_OK(table.Validate());
  LasTile shim;
  shim.header = header;
  uint64_t n = table.num_rows();
  std::vector<LasPointRecord> out(n);
  auto col = [&](const char* name) { return table.column(name); };
  ColumnPtr x = col("x"), y = col("y"), z = col("z");
  for (uint64_t r = 0; r < n; ++r) {
    LasPointRecord& p = out[r];
    p.x = shim.RawX(x->GetDouble(r));
    p.y = shim.RawY(y->GetDouble(r));
    p.z = shim.RawZ(z->GetDouble(r));
  }
  auto fill = [&](const char* name, auto setter) {
    ColumnPtr c2 = col(name);
    for (uint64_t r = 0; r < n; ++r) setter(&out[r], *c2, r);
  };
  fill("intensity", [](LasPointRecord* p, const Column& c, uint64_t r) {
    p->intensity = static_cast<uint16_t>(c.GetInt64(r));
  });
  fill("return_number", [](LasPointRecord* p, const Column& c, uint64_t r) {
    p->return_number = static_cast<uint8_t>(c.GetInt64(r));
  });
  fill("number_of_returns", [](LasPointRecord* p, const Column& c, uint64_t r) {
    p->number_of_returns = static_cast<uint8_t>(c.GetInt64(r));
  });
  fill("scan_direction", [](LasPointRecord* p, const Column& c, uint64_t r) {
    p->scan_direction = static_cast<uint8_t>(c.GetInt64(r));
  });
  fill("edge_of_flight_line", [](LasPointRecord* p, const Column& c, uint64_t r) {
    p->edge_of_flight_line = static_cast<uint8_t>(c.GetInt64(r));
  });
  fill("classification", [](LasPointRecord* p, const Column& c, uint64_t r) {
    p->classification = static_cast<uint8_t>(c.GetInt64(r));
  });
  fill("synthetic_flag", [](LasPointRecord* p, const Column& c, uint64_t r) {
    p->synthetic_flag = static_cast<uint8_t>(c.GetInt64(r));
  });
  fill("key_point_flag", [](LasPointRecord* p, const Column& c, uint64_t r) {
    p->key_point_flag = static_cast<uint8_t>(c.GetInt64(r));
  });
  fill("withheld_flag", [](LasPointRecord* p, const Column& c, uint64_t r) {
    p->withheld_flag = static_cast<uint8_t>(c.GetInt64(r));
  });
  fill("scan_angle", [](LasPointRecord* p, const Column& c, uint64_t r) {
    p->scan_angle = static_cast<int8_t>(c.GetInt64(r));
  });
  fill("user_data", [](LasPointRecord* p, const Column& c, uint64_t r) {
    p->user_data = static_cast<uint8_t>(c.GetInt64(r));
  });
  fill("point_source_id", [](LasPointRecord* p, const Column& c, uint64_t r) {
    p->point_source_id = static_cast<uint16_t>(c.GetInt64(r));
  });
  fill("gps_time", [](LasPointRecord* p, const Column& c, uint64_t r) {
    p->gps_time = c.GetDouble(r);
  });
  fill("red", [](LasPointRecord* p, const Column& c, uint64_t r) {
    p->red = static_cast<uint16_t>(c.GetInt64(r));
  });
  fill("green", [](LasPointRecord* p, const Column& c, uint64_t r) {
    p->green = static_cast<uint16_t>(c.GetInt64(r));
  });
  fill("blue", [](LasPointRecord* p, const Column& c, uint64_t r) {
    p->blue = static_cast<uint16_t>(c.GetInt64(r));
  });
  fill("nir", [](LasPointRecord* p, const Column& c, uint64_t r) {
    p->nir = static_cast<uint16_t>(c.GetInt64(r));
  });
  fill("wave_descriptor", [](LasPointRecord* p, const Column& c, uint64_t r) {
    p->wave_descriptor = static_cast<uint8_t>(c.GetInt64(r));
  });
  fill("wave_offset", [](LasPointRecord* p, const Column& c, uint64_t r) {
    p->wave_offset = static_cast<uint64_t>(c.GetInt64(r));
  });
  fill("wave_packet_size", [](LasPointRecord* p, const Column& c, uint64_t r) {
    p->wave_packet_size = static_cast<uint32_t>(c.GetInt64(r));
  });
  fill("wave_return_location", [](LasPointRecord* p, const Column& c, uint64_t r) {
    p->wave_return_location = static_cast<float>(c.GetDouble(r));
  });
  fill("wave_x", [](LasPointRecord* p, const Column& c, uint64_t r) {
    p->wave_x = static_cast<float>(c.GetDouble(r));
  });
  fill("wave_y", [](LasPointRecord* p, const Column& c, uint64_t r) {
    p->wave_y = static_cast<float>(c.GetDouble(r));
  });
  return out;
}

}  // namespace geocol
