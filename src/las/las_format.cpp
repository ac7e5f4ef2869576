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

namespace {
/// Fields and serialized bytes of ForEachLasField, checked at compile time.
constexpr size_t kListedFields = [] {
  size_t n = 0;
  ForEachLasField([&](const char*, auto) { ++n; });
  return n;
}();
constexpr size_t kListedBytes = [] {
  size_t n = 0;
  ForEachLasField([&](const char*, auto member) {
    n += sizeof(LasFieldType<decltype(member)>);
  });
  return n;
}();
static_assert(kListedFields == kLasAttributeCount, "field list drifted");
static_assert(kListedBytes == kLasRecordBytes, "record layout drifted");

/// Stores get(p) of every point as the next packed value at `dst`. Every
/// input is a local copy, so the stores through `dst` alias none of them.
template <typename Get>
void PutEach(std::span<const LasPointRecord> points, uint8_t* dst, Get get) {
  for (const LasPointRecord& p : points) {
    const auto v = get(p);
    std::memcpy(dst, &v, sizeof(v));
    dst += sizeof(v);
  }
}

Status CheckLasSchema(const FlatTable& table) {
  const std::vector<Field>& fields = LasPointFields();
  bool las_schema = table.num_columns() == fields.size();
  for (size_t c = 0; las_schema && c < fields.size(); ++c) {
    las_schema = table.column(c)->type() == fields[c].type;
  }
  if (!las_schema) {
    return Status::InvalidArgument("table does not have the LAS point schema");
  }
  return Status::OK();
}
}  // namespace

const std::vector<Field>& LasPointFields() {
  static const std::vector<Field> kFields = [] {
    std::vector<Field> fields;
    ForEachLasField([&](const char* name, auto member) {
      fields.push_back(
          {name, fields.size() < kLasCoordinateCount
                     ? DataType::kFloat64
                     : DataTypeOf<LasFieldType<decltype(member)>>()});
    });
    return fields;
  }();
  return kFields;
}

Schema LasPointSchema() { return Schema(LasPointFields()); }

void SerializeRecord(const LasPointRecord& p, uint8_t* dst) {
  ForEachLasField([&](const char*, auto member) {
    std::memcpy(dst, &(p.*member), sizeof(p.*member));
    dst += sizeof(p.*member);
  });
}

void DeserializeRecord(const uint8_t* src, LasPointRecord* p) {
  ForEachLasField([&](const char*, auto member) {
    std::memcpy(&(p->*member), src, sizeof(p->*member));
    src += sizeof(p->*member);
  });
}

void GatherAttribute(const LasHeader& h,
                     std::span<const LasPointRecord> points, size_t attribute,
                     uint8_t* dst) {
  assert(attribute < kLasAttributeCount);
  VisitLasField(attribute, [&](auto member) {
    if (attribute < kLasCoordinateCount) {
      const double scale = h.scale[attribute];
      const double offset = h.offset[attribute];
      PutEach(points, dst, [=](const LasPointRecord& p) {
        return p.*member * scale + offset;
      });
    } else {
      PutEach(points, dst, [=](const LasPointRecord& p) { return p.*member; });
    }
  });
}

Status AppendTileToTable(const LasHeader& header,
                         std::span<const LasPointRecord> points,
                         FlatTable* table) {
  GEOCOL_RETURN_NOT_OK(CheckLasSchema(*table));
  // Columnar append: one pass per attribute keeps each column's memory hot
  // and mirrors the loader's per-attribute binary dumps.
  for (size_t c = 0; c < kLasAttributeCount; ++c) {
    GatherAttribute(header, points, c,
                    table->column(c)->AppendUninitialized(points.size()));
  }
  return table->Validate();
}

Result<std::vector<LasPointRecord>> TableToRecords(const FlatTable& table,
                                                   const LasHeader& header) {
  GEOCOL_RETURN_NOT_OK(CheckLasSchema(table));
  GEOCOL_RETURN_NOT_OK(table.Validate());
  std::vector<LasPointRecord> out(table.num_rows());
  for (size_t c = 0; c < kLasAttributeCount; ++c) {
    Status st;
    VisitLasField(c, [&](auto member) {
      using T = LasFieldType<decltype(member)>;
      const Column& column = *table.column(c);
      if (c < kLasCoordinateCount) {
        // Re-quantise: round to nearest, correct for negative values too.
        const double scale = header.scale[c];
        const double offset = header.offset[c];
        st = ForEachValueRun<double>(
            column, 0, out.size(), [&](const double* v, uint64_t row, size_t n) {
              for (size_t i = 0; i < n; ++i) {
                out[row + i].*member =
                    static_cast<T>(std::llround((v[i] - offset) / scale));
              }
            });
      } else {
        st = ForEachValueRun<T>(
            column, 0, out.size(), [&](const T* v, uint64_t row, size_t n) {
              for (size_t i = 0; i < n; ++i) out[row + i].*member = v[i];
            });
      }
    });
    GEOCOL_RETURN_NOT_OK(st);
  }
  return out;
}

}  // namespace geocol
