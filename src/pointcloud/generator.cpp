#include "pointcloud/generator.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <numeric>

#include "las/las_writer.h"
#include "sfc/morton.h"
#include "util/rng.h"

namespace geocol {

AhnGenerator::AhnGenerator(AhnGeneratorOptions options)
    : options_(options), terrain_(options.seed) {}

uint64_t AhnGenerator::EstimatedPoints() const {
  return static_cast<uint64_t>(options_.extent.area() * options_.point_density);
}

void AhnGenerator::GenerateStrip(
    uint32_t strip_index,
    const std::function<void(const LasPointRecord&)>& sink,
    LasTile* proto) const {
  const Box& e = options_.extent;
  double x0 = e.min_x + strip_index * options_.strip_width;
  double x1 = std::min(x0 + options_.strip_width, e.max_x);
  if (x0 >= x1) return;
  Rng rng(options_.seed ^ (0x5151515151515151ULL + strip_index * 0x2545F491ULL));

  double along = options_.scan_line_spacing;
  double cross = 1.0 / (options_.point_density * along);
  uint64_t lines = static_cast<uint64_t>(std::ceil(e.height() / along));
  uint64_t pts_per_line =
      std::max<uint64_t>(1, static_cast<uint64_t>((x1 - x0) / cross));
  double strip_center = (x0 + x1) / 2.0;
  double half_width = std::max((x1 - x0) / 2.0, 1e-9);

  double gps_base = strip_index * 3600.0;  // one "hour" per strip
  for (uint64_t k = 0; k < lines; ++k) {
    double y = e.min_y + k * along;
    bool reverse = (k & 1) != 0;  // zig-zag sweep
    for (uint64_t i = 0; i < pts_per_line; ++i) {
      uint64_t pos = reverse ? pts_per_line - 1 - i : i;
      double x = x0 + (pos + 0.5) * cross;
      // Sensor jitter.
      double jx = x + (rng.NextDouble() - 0.5) * cross * 0.6;
      double jy = y + (rng.NextDouble() - 0.5) * along * 0.6;
      jx = std::clamp(jx, e.min_x, e.max_x);
      jy = std::clamp(jy, e.min_y, e.max_y);

      SurfaceSample s = terrain_.SampleAt(jx, jy);
      double ground = terrain_.GroundElevation(jx, jy);

      LasPointRecord p;
      p.number_of_returns = s.num_returns;
      p.return_number = s.num_returns > 1
                            ? static_cast<uint8_t>(
                                  1 + rng.Uniform(s.num_returns))
                            : 1;
      // Later returns penetrate the canopy toward the ground.
      double elev = s.elevation;
      if (p.return_number > 1) {
        double depth = static_cast<double>(p.return_number - 1) /
                       s.num_returns;
        elev = s.elevation - (s.elevation - ground) * depth;
      }
      elev += rng.NextGaussian() * 0.02;  // ranging noise, ~2 cm

      p.x = proto->RawX(jx);
      p.y = proto->RawY(jy);
      p.z = proto->RawZ(elev);
      p.intensity = static_cast<uint16_t>(
          std::clamp<int>(s.intensity + static_cast<int>(rng.Uniform(16)) - 8,
                          0, 65535));
      p.scan_direction = reverse ? 1 : 0;
      p.edge_of_flight_line = (i == 0 || i + 1 == pts_per_line) ? 1 : 0;
      p.classification = s.classification;
      p.synthetic_flag = 0;
      p.key_point_flag = rng.NextBool(0.001) ? 1 : 0;
      p.withheld_flag = rng.NextBool(0.0005) ? 1 : 0;
      p.scan_angle = static_cast<int8_t>(
          std::clamp((jx - strip_center) / half_width * 30.0, -30.0, 30.0));
      p.user_data = 0;
      p.point_source_id = static_cast<uint16_t>(strip_index + 1);
      p.gps_time = gps_base + k * 0.02 + i * (0.02 / pts_per_line);
      p.red = s.red;
      p.green = s.green;
      p.blue = s.blue;
      p.nir = s.nir;
      // Waveform attributes are present in the schema but rarely populated
      // by real sensors; emit sparse non-zero values.
      if (rng.NextBool(0.01)) {
        p.wave_descriptor = 1;
        p.wave_offset = static_cast<uint64_t>(rng.Uniform(1u << 20));
        p.wave_packet_size = 256;
        p.wave_return_location = static_cast<float>(rng.NextDouble());
        p.wave_x = static_cast<float>(jx - e.min_x);
        p.wave_y = static_cast<float>(jy - e.min_y);
      }
      sink(p);
    }
  }
}

Status AhnGenerator::GenerateTiles(
    const std::function<Status(LasTile&, uint64_t)>& consumer) {
  const Box& e = options_.extent;
  uint32_t strips = static_cast<uint32_t>(
      std::ceil(e.width() / options_.strip_width));

  LasTile tile;
  tile.header.scale[0] = tile.header.scale[1] = tile.header.scale[2] =
      options_.coordinate_scale;
  tile.header.offset[0] = e.min_x;
  tile.header.offset[1] = e.min_y;
  tile.header.offset[2] = 0.0;

  uint64_t tile_index = 0;
  Status status = Status::OK();
  auto flush = [&]() -> Status {
    if (tile.points.empty()) return Status::OK();
    GEOCOL_RETURN_NOT_OK(consumer(tile, tile_index++));
    tile.points.clear();
    return Status::OK();
  };

  for (uint32_t s = 0; s < strips && status.ok(); ++s) {
    GenerateStrip(s, [&](const LasPointRecord& p) {
      tile.points.push_back(p);
      if (tile.points.size() >= options_.target_points_per_tile &&
          status.ok()) {
        status = flush();
      }
    }, &tile);
  }
  GEOCOL_RETURN_NOT_OK(status);
  return flush();
}

Result<std::shared_ptr<FlatTable>> AhnGenerator::GenerateTable(
    uint64_t num_points) {
  // Re-derive density/spacing so the configured extent yields roughly the
  // requested point count with isotropic sampling.
  AhnGeneratorOptions opts = options_;
  double area = std::max(opts.extent.area(), 1.0);
  opts.point_density = static_cast<double>(num_points) / area;
  opts.scan_line_spacing = 1.0 / std::sqrt(std::max(opts.point_density, 1e-9));
  AhnGenerator gen(opts);

  auto table = std::make_shared<FlatTable>("ahn2", LasPointSchema());
  for (const auto& col : table->columns()) col->Reserve(num_points);
  GEOCOL_RETURN_NOT_OK(gen.GenerateTiles([&](LasTile& tile, uint64_t) {
    return AppendTileToTable(tile.header, tile.points, table.get());
  }));
  GEOCOL_RETURN_NOT_OK(table->Validate());
  return table;
}

Result<uint64_t> AhnGenerator::WriteTileDirectory(const std::string& dir,
                                                  bool compress) {
  uint64_t tiles = 0;
  GEOCOL_RETURN_NOT_OK(GenerateTiles([&](LasTile& tile, uint64_t idx) {
    char name[64];
    std::snprintf(name, sizeof(name), "/tile_%05llu.%s",
                  static_cast<unsigned long long>(idx),
                  compress ? "laz" : "las");
    ++tiles;
    return WriteTileFile(tile, dir + name);
  }));
  return tiles;
}

std::shared_ptr<Column> MakeUniformColumn(const std::string& name, size_t n,
                                          double lo, double hi, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> vals(n);
  for (auto& v : vals) v = rng.UniformDouble(lo, hi);
  return Column::FromVector(name, vals);
}

void ShuffleTableRows(FlatTable* table, uint64_t seed) {
  uint64_t n = table->num_rows();
  if (n < 2) return;
  std::vector<uint64_t> perm(n);
  std::iota(perm.begin(), perm.end(), 0);
  Rng rng(seed);
  for (uint64_t i = n - 1; i > 0; --i) {
    std::swap(perm[i], perm[rng.Uniform(i + 1)]);
  }
  Status st = table->PermuteRows(perm);
  (void)st;  // cannot fail: perm is a permutation of [0, n)
}

Status SortTableMorton(FlatTable* table) {
  GEOCOL_ASSIGN_OR_RETURN(ColumnPtr xc, table->GetColumn("x"));
  GEOCOL_ASSIGN_OR_RETURN(ColumnPtr yc, table->GetColumn("y"));
  uint64_t n = table->num_rows();
  Box extent;
  for (uint64_t r = 0; r < n; ++r) {
    extent.Extend(xc->GetDouble(r), yc->GetDouble(r));
  }
  std::vector<uint64_t> codes(n);
  for (uint64_t r = 0; r < n; ++r) {
    codes[r] = MortonEncodeScaled(xc->GetDouble(r), yc->GetDouble(r), extent);
  }
  std::vector<uint64_t> perm(n);
  std::iota(perm.begin(), perm.end(), 0);
  std::sort(perm.begin(), perm.end(),
            [&](uint64_t a, uint64_t b) { return codes[a] < codes[b]; });
  return table->PermuteRows(perm);
}

}  // namespace geocol
