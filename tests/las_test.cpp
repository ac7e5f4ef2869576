// LAS-like format tests: record serialization, header round trips, LAZ
// compression, corruption handling, table conversion.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "las/las_format.h"
#include "las/las_reader.h"
#include "las/las_writer.h"
#include "las/laz.h"
#include "pointcloud/generator.h"
#include "util/binary_io.h"
#include "util/crc32c.h"
#include "util/rng.h"
#include "util/tempdir.h"

namespace geocol {
namespace {

LasPointRecord MakeRecord(Rng* rng) {
  LasPointRecord p;
  p.x = static_cast<int32_t>(rng->UniformInt(-1000000, 1000000));
  p.y = static_cast<int32_t>(rng->UniformInt(-1000000, 1000000));
  p.z = static_cast<int32_t>(rng->UniformInt(-5000, 50000));
  p.intensity = static_cast<uint16_t>(rng->Uniform(65536));
  p.return_number = static_cast<uint8_t>(1 + rng->Uniform(5));
  p.number_of_returns = static_cast<uint8_t>(p.return_number + rng->Uniform(3));
  p.scan_direction = rng->NextBool() ? 1 : 0;
  p.edge_of_flight_line = rng->NextBool(0.1) ? 1 : 0;
  p.classification = static_cast<uint8_t>(rng->Uniform(20));
  p.synthetic_flag = rng->NextBool(0.01);
  p.key_point_flag = rng->NextBool(0.01);
  p.withheld_flag = rng->NextBool(0.01);
  p.scan_angle = static_cast<int8_t>(rng->UniformInt(-30, 30));
  p.user_data = static_cast<uint8_t>(rng->Uniform(256));
  p.point_source_id = static_cast<uint16_t>(rng->Uniform(65536));
  p.gps_time = rng->UniformDouble(0, 1e6);
  p.red = static_cast<uint16_t>(rng->Uniform(65536));
  p.green = static_cast<uint16_t>(rng->Uniform(65536));
  p.blue = static_cast<uint16_t>(rng->Uniform(65536));
  p.nir = static_cast<uint16_t>(rng->Uniform(65536));
  p.wave_descriptor = static_cast<uint8_t>(rng->Uniform(4));
  p.wave_offset = rng->Uniform(1u << 30);
  p.wave_packet_size = static_cast<uint32_t>(rng->Uniform(1024));
  p.wave_return_location = static_cast<float>(rng->NextDouble());
  p.wave_x = static_cast<float>(rng->NextDouble());
  p.wave_y = static_cast<float>(rng->NextDouble());
  return p;
}

bool RecordsEqual(const LasPointRecord& a, const LasPointRecord& b) {
  uint8_t ba[kLasRecordBytes], bb[kLasRecordBytes];
  SerializeRecord(a, ba);
  SerializeRecord(b, bb);
  return std::memcmp(ba, bb, kLasRecordBytes) == 0;
}

LasTile MakeTile(size_t n, uint64_t seed) {
  LasTile tile;
  tile.header.scale[0] = tile.header.scale[1] = tile.header.scale[2] = 0.01;
  tile.header.offset[0] = 85000;
  tile.header.offset[1] = 444000;
  Rng rng(seed);
  // Acquisition-like ordering: slow drift in x/y.
  int32_t x = 0, y = 0;
  for (size_t i = 0; i < n; ++i) {
    LasPointRecord p = MakeRecord(&rng);
    x += static_cast<int32_t>(rng.UniformInt(-50, 60));
    y += static_cast<int32_t>(rng.UniformInt(-10, 12));
    p.x = x;
    p.y = y;
    p.gps_time = i * 1e-4;
    tile.points.push_back(p);
  }
  return tile;
}

TEST(LasFormatTest, RecordSerializationRoundTrip) {
  Rng rng(111);
  for (int i = 0; i < 100; ++i) {
    LasPointRecord p = MakeRecord(&rng);
    uint8_t buf[kLasRecordBytes];
    SerializeRecord(p, buf);
    LasPointRecord q;
    DeserializeRecord(buf, &q);
    EXPECT_TRUE(RecordsEqual(p, q));
  }
}

TEST(LasFormatTest, SchemaHas26Attributes) {
  EXPECT_EQ(LasPointFields().size(), kLasAttributeCount);
  Schema s = LasPointSchema();
  EXPECT_TRUE(s.HasField("x"));
  EXPECT_TRUE(s.HasField("gps_time"));
  EXPECT_TRUE(s.HasField("classification"));
  EXPECT_TRUE(s.HasField("wave_y"));
  EXPECT_EQ(s.FieldIndex("x"), 0);
  EXPECT_EQ(s.FieldIndex("z"), 2);
}

TEST(LasFormatTest, WorldCoordinateConversion) {
  LasTile tile;
  tile.header.scale[0] = 0.01;
  tile.header.offset[0] = 85000;
  LasPointRecord p;
  p.x = 12345;
  EXPECT_DOUBLE_EQ(tile.WorldX(p), 85123.45);
  EXPECT_EQ(tile.RawX(85123.45), 12345);
}

TEST(LasFormatTest, RecomputeHeader) {
  LasTile tile = MakeTile(500, 112);
  tile.RecomputeHeader();
  EXPECT_EQ(tile.header.point_count, 500u);
  Box fp = tile.header.Footprint();
  EXPECT_FALSE(fp.empty());
  for (const auto& p : tile.points) {
    EXPECT_TRUE(fp.Contains(Point{tile.WorldX(p), tile.WorldY(p)}));
    EXPECT_GE(tile.WorldZ(p), tile.header.min_world[2]);
    EXPECT_LE(tile.WorldZ(p), tile.header.max_world[2]);
  }
}

TEST(LasFileTest, UncompressedRoundTrip) {
  TempDir tmp;
  LasTile tile = MakeTile(1000, 113);
  ASSERT_TRUE(WriteLasFile(tile, tmp.File("t.las")).ok());
  auto back = ReadLasFile(tmp.File("t.las"));
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->points.size(), 1000u);
  for (size_t i = 0; i < 1000; ++i) {
    EXPECT_TRUE(RecordsEqual(tile.points[i], back->points[i])) << i;
  }
  EXPECT_EQ(back->header.compressed, 0);
}

TEST(LasFileTest, CompressedRoundTrip) {
  TempDir tmp;
  LasTile tile = MakeTile(10000, 114);
  ASSERT_TRUE(WriteLazFile(tile, tmp.File("t.laz")).ok());
  auto back = ReadLasFile(tmp.File("t.laz"));
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->points.size(), 10000u);
  for (size_t i = 0; i < tile.points.size(); ++i) {
    ASSERT_TRUE(RecordsEqual(tile.points[i], back->points[i])) << i;
  }
  EXPECT_EQ(back->header.compressed, 1);
}

TEST(LasFileTest, CompressionShrinksCoherentData) {
  TempDir tmp;
  LasTile tile = MakeTile(20000, 115);
  // Make attribute streams coherent the way real sensors are.
  for (auto& p : tile.points) {
    p.user_data = 0;
    p.point_source_id = 7;
    p.wave_offset = 0;
    p.wave_packet_size = 0;
    p.wave_return_location = 0;
    p.wave_x = 0;
    p.wave_y = 0;
    p.red = 100;
    p.green = 120;
    p.blue = 90;
    p.nir = 150;
  }
  ASSERT_TRUE(WriteLasFile(tile, tmp.File("t.las")).ok());
  ASSERT_TRUE(WriteLazFile(tile, tmp.File("t.laz")).ok());
  auto las_size = FileSizeBytes(tmp.File("t.las"));
  auto laz_size = FileSizeBytes(tmp.File("t.laz"));
  ASSERT_TRUE(las_size.ok());
  ASSERT_TRUE(laz_size.ok());
  EXPECT_LT(*laz_size, *las_size / 2) << "LAZ-like must at least halve size";
}

TEST(LasFileTest, WriteTileFileDispatchesOnSuffix) {
  TempDir tmp;
  LasTile t1 = MakeTile(100, 116);
  ASSERT_TRUE(WriteTileFile(t1, tmp.File("a.las")).ok());
  LasTile t2 = MakeTile(100, 116);
  ASSERT_TRUE(WriteTileFile(t2, tmp.File("b.laz")).ok());
  auto h1 = ReadLasHeader(tmp.File("a.las"));
  auto h2 = ReadLasHeader(tmp.File("b.laz"));
  ASSERT_TRUE(h1.ok());
  ASSERT_TRUE(h2.ok());
  EXPECT_EQ(h1->compressed, 0);
  EXPECT_EQ(h2->compressed, 1);
}

TEST(LasFileTest, HeaderOnlyReadIsCheap) {
  TempDir tmp;
  LasTile tile = MakeTile(5000, 117);
  ASSERT_TRUE(WriteLasFile(tile, tmp.File("t.las")).ok());
  auto h = ReadLasHeader(tmp.File("t.las"));
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(h->point_count, 5000u);
  EXPECT_EQ(h->record_length, kLasRecordBytes);
}

TEST(LasFileTest, EmptyTileRoundTrip) {
  TempDir tmp;
  LasTile tile;
  ASSERT_TRUE(WriteLasFile(tile, tmp.File("e.las")).ok());
  auto back = ReadLasFile(tmp.File("e.las"));
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->points.empty());
}

// A seeded AhnGenerator tile of three full LAZ chunks and a ragged fourth.
LasTile GeneratorTile() {
  AhnGeneratorOptions opts;
  opts.extent = Box(85000, 444000, 85200, 444200);
  opts.target_points_per_tile = 3 * kLazChunkSize + 1234;
  LasTile first;
  EXPECT_TRUE(AhnGenerator(opts)
                  .GenerateTiles([&](LasTile& tile, uint64_t index) {
                    if (index == 0) first = tile;
                    return Status::OK();
                  })
                  .ok());
  return first;
}

uint32_t FileCrc(const std::string& path) {
  std::vector<uint8_t> bytes;
  EXPECT_TRUE(ReadFileBytes(path, &bytes).ok());
  return Crc32c(bytes.data(), bytes.size());
}

/// Header bytes before a LAZ tile's uint64 payload size.
constexpr size_t kLazSizeOffset = 4 + 8 + 12 * 8 + 2 + 1;

/// Cuts a LAZ tile's payload to its first `keep` bytes and patches the
/// payload size to match, so the file is consistent but a chunk is short.
void CutLazPayload(const std::string& path, uint64_t keep) {
  std::vector<uint8_t> bytes;
  ASSERT_TRUE(ReadFileBytes(path, &bytes).ok());
  ASSERT_LT(kLazSizeOffset + 8 + keep, bytes.size());
  bytes.resize(kLazSizeOffset + 8 + keep);
  std::memcpy(bytes.data() + kLazSizeOffset, &keep, 8);
  ASSERT_TRUE(WriteFileBytes(path, bytes.data(), bytes.size()).ok());
}

TEST(LasFileTest, WrittenBytesArePinned) {
  // The on-disk LAS and LAZ bytes are a format: these CRCs must never move.
  LasTile tile = GeneratorTile();
  ASSERT_EQ(tile.points.size(), 3 * kLazChunkSize + 1234);
  std::vector<uint8_t> payload;
  ASSERT_TRUE(LazCompress(tile.points, &payload).ok());
  EXPECT_EQ(Crc32c(payload.data(), payload.size()), 3385451088u);
  TempDir tmp;
  ASSERT_TRUE(WriteLasFile(tile, tmp.File("t.las")).ok());
  ASSERT_TRUE(WriteLazFile(tile, tmp.File("t.laz")).ok());
  EXPECT_EQ(FileCrc(tmp.File("t.las")), 430962701u);
  EXPECT_EQ(FileCrc(tmp.File("t.laz")), 3788762193u);
}

TEST(LasFileTest, EmptyLazTileRoundTrip) {
  TempDir tmp;
  LasTile tile;
  ASSERT_TRUE(WriteLazFile(tile, tmp.File("e.laz")).ok());
  auto back = ReadLasFile(tmp.File("e.laz"));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_TRUE(back->points.empty());
  EXPECT_EQ(back->header.compressed, 1);
  LasTileReader reader;
  ASSERT_TRUE(reader.Open(tmp.File("e.laz")).ok());
  auto block = reader.NextBlock(kLazChunkSize);
  ASSERT_TRUE(block.ok());
  EXPECT_TRUE(block->empty());
}

// ---------------- streaming reader ----------------

TEST(LasTileReaderTest, HoldsAtMostOneChunkOrBlock) {
  // 20 LAZ chunks, the last one ragged: whatever the block size, no block
  // is longer than asked for, and the reader never holds more than one
  // chunk of LAZ or one block of LAS.
  TempDir tmp;
  LasTile tile = MakeTile(19 * kLazChunkSize + 777, 130);
  ASSERT_TRUE(WriteLazFile(tile, tmp.File("t.laz")).ok());
  ASSERT_TRUE(WriteLasFile(tile, tmp.File("t.las")).ok());
  for (bool laz : {true, false}) {
    const std::string path = tmp.File(laz ? "t.laz" : "t.las");
    for (size_t max_records : {size_t{1}, size_t{1000}, kLazChunkSize,
                               size_t{5000}, size_t{1} << 20}) {
      LasTileReader reader;
      ASSERT_TRUE(reader.Open(path).ok());
      size_t read = 0;
      size_t max_resident = 0;
      while (true) {
        auto block = reader.NextBlock(max_records);
        ASSERT_TRUE(block.ok()) << block.status().ToString();
        max_resident = std::max(max_resident, reader.resident_records());
        if (block->empty()) break;
        ASSERT_LE(block->size(), max_records);
        for (const LasPointRecord& p : *block) {
          ASSERT_TRUE(RecordsEqual(tile.points[read], p)) << read;
          ++read;
        }
      }
      EXPECT_EQ(read, tile.points.size()) << path << " " << max_records;
      EXPECT_LE(max_resident, laz ? kLazChunkSize : max_records)
          << path << " " << max_records;
    }
  }
}

TEST(LasTileReaderTest, AppendLasFileMatchesAppendTileToTable) {
  TempDir tmp;
  LasTile tile = MakeTile(2 * kLazChunkSize + 5, 132);
  ASSERT_TRUE(WriteLazFile(tile, tmp.File("t.laz")).ok());
  FlatTable expect("pc", LasPointSchema());
  ASSERT_TRUE(AppendTileToTable(tile.header, tile.points, &expect).ok());
  FlatTable table("pc", LasPointSchema());
  ASSERT_TRUE(AppendLasFile(tmp.File("t.laz"), &table).ok());
  ASSERT_EQ(table.num_rows(), expect.num_rows());
  for (size_t c = 0; c < kLasAttributeCount; ++c) {
    EXPECT_EQ(std::memcmp(table.column(c)->raw_data(),
                          expect.column(c)->raw_data(),
                          expect.column(c)->raw_size_bytes()),
              0)
        << c;
  }
}

// ---------------- corruption ----------------

TEST(LasCorruptionTest, BadMagicRejected) {
  TempDir tmp;
  ASSERT_TRUE(WriteFileBytes(tmp.File("bad.las"), "NOPE----", 8).ok());
  EXPECT_EQ(ReadLasHeader(tmp.File("bad.las")).status().code(),
            StatusCode::kCorruption);
}

TEST(LasCorruptionTest, TruncatedHeaderRejected) {
  TempDir tmp;
  ASSERT_TRUE(WriteFileBytes(tmp.File("bad.las"), "GLAS\x01", 5).ok());
  EXPECT_EQ(ReadLasHeader(tmp.File("bad.las")).status().code(),
            StatusCode::kCorruption);
}

TEST(LasCorruptionTest, TruncatedPointsRejected) {
  TempDir tmp;
  LasTile tile = MakeTile(100, 118);
  ASSERT_TRUE(WriteLasFile(tile, tmp.File("t.las")).ok());
  std::vector<uint8_t> bytes;
  ASSERT_TRUE(ReadFileBytes(tmp.File("t.las"), &bytes).ok());
  bytes.resize(bytes.size() - 30);
  ASSERT_TRUE(
      WriteFileBytes(tmp.File("t.las"), bytes.data(), bytes.size()).ok());
  EXPECT_EQ(ReadLasFile(tmp.File("t.las")).status().code(),
            StatusCode::kCorruption);
}

TEST(LasCorruptionTest, TruncatedLazPayloadRejected) {
  TempDir tmp;
  LasTile tile = MakeTile(5000, 119);
  ASSERT_TRUE(WriteLazFile(tile, tmp.File("t.laz")).ok());
  std::vector<uint8_t> bytes;
  ASSERT_TRUE(ReadFileBytes(tmp.File("t.laz"), &bytes).ok());
  bytes.resize(bytes.size() / 2);
  ASSERT_TRUE(
      WriteFileBytes(tmp.File("t.laz"), bytes.data(), bytes.size()).ok());
  EXPECT_FALSE(ReadLasFile(tmp.File("t.laz")).ok());
  // The payload size outruns the file, so the reader fails before decoding.
  LasTileReader reader;
  EXPECT_EQ(reader.Open(tmp.File("t.laz")).code(), StatusCode::kCorruption);
}

TEST(LasCorruptionTest, ForgedLazPointCountRejected) {
  // A 10-point tile whose header claims 2^40 points: the payload cannot
  // hold that many chunks, so both readers fail with Corruption before
  // sizing anything by the claim.
  TempDir tmp;
  LasTile tile = MakeTile(10, 133);
  ASSERT_TRUE(WriteLazFile(tile, tmp.File("t.laz")).ok());
  std::vector<uint8_t> bytes;
  ASSERT_TRUE(ReadFileBytes(tmp.File("t.laz"), &bytes).ok());
  const uint64_t forged = uint64_t{1} << 40;
  std::memcpy(bytes.data() + 4, &forged, 8);
  ASSERT_TRUE(
      WriteFileBytes(tmp.File("t.laz"), bytes.data(), bytes.size()).ok());
  LasTileReader reader;
  EXPECT_EQ(reader.Open(tmp.File("t.laz")).code(), StatusCode::kCorruption);
  EXPECT_EQ(ReadLasFile(tmp.File("t.laz")).status().code(),
            StatusCode::kCorruption);
}

TEST(LasCorruptionTest, LazChunkCutShortFailsInNextBlock) {
  // The payload size is consistent with the file, so Open passes; the
  // first chunk decodes and the cut second chunk fails in NextBlock.
  TempDir tmp;
  LasTile tile = MakeTile(3 * kLazChunkSize, 134);
  ASSERT_TRUE(WriteLazFile(tile, tmp.File("t.laz")).ok());
  std::vector<uint8_t> first_chunk;
  ASSERT_TRUE(LazCompress(std::span<const LasPointRecord>(tile.points)
                              .first(kLazChunkSize),
                          &first_chunk)
                  .ok());
  CutLazPayload(tmp.File("t.laz"), first_chunk.size() + 100);
  LasTileReader reader;
  ASSERT_TRUE(reader.Open(tmp.File("t.laz")).ok());
  auto first = reader.NextBlock(kLazChunkSize);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->size(), kLazChunkSize);
  auto second = reader.NextBlock(kLazChunkSize);
  ASSERT_EQ(second.status().code(), StatusCode::kCorruption);
  EXPECT_NE(second.status().message().find(tmp.File("t.laz")),
            std::string::npos);
  EXPECT_EQ(ReadLasFile(tmp.File("t.laz")).status().code(),
            StatusCode::kCorruption);
}

TEST(LasCorruptionTest, LazBitWidthOver64Rejected) {
  std::vector<LasPointRecord> pts(3);
  std::vector<uint8_t> payload;
  ASSERT_TRUE(LazCompress(pts, &payload).ok());
  payload[0] = 65;  // the x stream's bit width
  payload.resize(payload.size() + 64);
  std::vector<LasPointRecord> out;
  EXPECT_EQ(LazDecompress(payload, 3, &out).code(), StatusCode::kCorruption);
}

TEST(LasCorruptionTest, ZeroScaleRejected) {
  TempDir tmp;
  LasTile tile = MakeTile(10, 120);
  tile.header.scale[1] = 0.0;
  // Writer does not validate; the reader must.
  ASSERT_TRUE(WriteLasFile(tile, tmp.File("t.las")).ok());
  EXPECT_EQ(ReadLasFile(tmp.File("t.las")).status().code(),
            StatusCode::kCorruption);
}

// ---------------- LAZ codec directly ----------------

TEST(LazCodecTest, EmptyInput) {
  std::vector<uint8_t> payload;
  ASSERT_TRUE(LazCompress({}, &payload).ok());
  std::vector<LasPointRecord> out;
  ASSERT_TRUE(LazDecompress(payload, 0, &out).ok());
  EXPECT_TRUE(out.empty());
}

TEST(LazCodecTest, SinglePoint) {
  Rng rng(121);
  std::vector<LasPointRecord> pts = {MakeRecord(&rng)};
  std::vector<uint8_t> payload;
  ASSERT_TRUE(LazCompress(pts, &payload).ok());
  std::vector<LasPointRecord> out;
  ASSERT_TRUE(LazDecompress(payload, 1, &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(RecordsEqual(pts[0], out[0]));
}

TEST(LazCodecTest, ChunkBoundaryExactMultiple) {
  LasTile tile = MakeTile(kLazChunkSize * 2, 122);
  std::vector<uint8_t> payload;
  ASSERT_TRUE(LazCompress(tile.points, &payload).ok());
  std::vector<LasPointRecord> out;
  ASSERT_TRUE(LazDecompress(payload, tile.points.size(), &out).ok());
  ASSERT_EQ(out.size(), tile.points.size());
  for (size_t i = 0; i < out.size(); ++i) {
    ASSERT_TRUE(RecordsEqual(tile.points[i], out[i])) << i;
  }
}

TEST(LazCodecTest, ChunkBoundaryPlusOne) {
  LasTile tile = MakeTile(kLazChunkSize + 1, 123);
  std::vector<uint8_t> payload;
  ASSERT_TRUE(LazCompress(tile.points, &payload).ok());
  std::vector<LasPointRecord> out;
  ASSERT_TRUE(LazDecompress(payload, tile.points.size(), &out).ok());
  ASSERT_EQ(out.size(), tile.points.size());
  EXPECT_TRUE(RecordsEqual(tile.points.back(), out.back()));
}

TEST(LazCodecTest, NegativeAndExtremeValues) {
  std::vector<LasPointRecord> pts(3);
  pts[0].x = INT32_MIN;
  pts[0].z = INT32_MAX;
  pts[0].gps_time = -1.5e300;
  pts[1].x = INT32_MAX;
  pts[1].gps_time = 1.5e300;
  pts[2].scan_angle = -30;
  pts[2].wave_offset = ~uint64_t{0} >> 1;
  std::vector<uint8_t> payload;
  ASSERT_TRUE(LazCompress(pts, &payload).ok());
  std::vector<LasPointRecord> out;
  ASSERT_TRUE(LazDecompress(payload, 3, &out).ok());
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(RecordsEqual(pts[i], out[i])) << i;
  }
}

// ---------------- table conversion ----------------

TEST(AppendTileTest, ConvertsToWorldCoordinates) {
  LasTile tile = MakeTile(2000, 124);
  tile.RecomputeHeader();
  FlatTable table("pc", LasPointSchema());
  ASSERT_TRUE(AppendTileToTable(tile.header, tile.points, &table).ok());
  EXPECT_EQ(table.num_rows(), 2000u);
  for (size_t i = 0; i < 50; ++i) {
    EXPECT_DOUBLE_EQ(table.column("x")->GetDouble(i), tile.WorldX(tile.points[i]));
    EXPECT_DOUBLE_EQ(table.column("z")->GetDouble(i), tile.WorldZ(tile.points[i]));
    EXPECT_EQ(table.column("classification")->GetInt64(i),
              tile.points[i].classification);
    EXPECT_EQ(table.column("gps_time")->GetDouble(i), tile.points[i].gps_time);
    EXPECT_EQ(table.column("wave_offset")->GetInt64(i),
              static_cast<int64_t>(tile.points[i].wave_offset));
  }
}

TEST(AppendTileTest, AccumulatesAcrossTiles) {
  FlatTable table("pc", LasPointSchema());
  LasTile t1 = MakeTile(100, 125);
  LasTile t2 = MakeTile(200, 126);
  ASSERT_TRUE(AppendTileToTable(t1.header, t1.points, &table).ok());
  ASSERT_TRUE(AppendTileToTable(t2.header, t2.points, &table).ok());
  EXPECT_EQ(table.num_rows(), 300u);
}

TEST(AppendTileTest, TableToRecordsIsInverse) {
  LasTile tile = MakeTile(1500, 128);
  tile.RecomputeHeader();
  FlatTable table("pc", LasPointSchema());
  ASSERT_TRUE(AppendTileToTable(tile.header, tile.points, &table).ok());
  auto records = TableToRecords(table, tile.header);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), tile.points.size());
  for (size_t i = 0; i < records->size(); ++i) {
    ASSERT_TRUE(RecordsEqual(tile.points[i], (*records)[i])) << i;
  }
}

TEST(AppendTileTest, TableToRecordsWrongSchemaRejected) {
  FlatTable bad("bad");
  ASSERT_TRUE(bad.AddColumn(Column::FromVector<double>("x", {1.0})).ok());
  LasHeader header;
  EXPECT_FALSE(TableToRecords(bad, header).ok());
}

TEST(AppendTileTest, WrongSchemaRejected) {
  LasTile tile = MakeTile(10, 127);
  FlatTable table("bad");
  ASSERT_TRUE(table.AddColumn(Column::FromVector<double>("x", {})).ok());
  EXPECT_FALSE(AppendTileToTable(tile.header, tile.points, &table).ok());
}

}  // namespace
}  // namespace geocol
