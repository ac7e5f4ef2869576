// Column compression codec tests: exact round trips per codec and type,
// auto-selection, corruption handling, and the compressed (GPC1) table
// directory.
#include <gtest/gtest.h>

#include <cstring>

#include "columns/column_file.h"
#include "columns/compression.h"
#include "pointcloud/generator.h"
#include "util/binary_io.h"
#include "util/rng.h"
#include "util/tempdir.h"

namespace geocol {
namespace {

void ExpectColumnsEqual(const Column& a, const Column& b) {
  ASSERT_EQ(a.type(), b.type());
  ASSERT_EQ(a.size(), b.size());
  if (a.size() == 0) return;  // raw_data() may be null
  EXPECT_EQ(std::memcmp(a.raw_data(), b.raw_data(), a.raw_size_bytes()), 0);
}

/// Encodes the whole column as one codec payload, decodes it back and
/// checks the values bit for bit. Returns the encode's stats.
CompressionStats RoundTrip(const Column& col, ColumnCodec codec,
                           ColumnCodec expect_chosen = ColumnCodec::kAuto) {
  CompressionStats stats;
  std::vector<uint8_t> payload = CompressChunkPayload(
      col.type(), col.raw_data(), col.size(), codec, &stats.codec);
  stats.uncompressed_bytes = col.raw_size_bytes();
  stats.compressed_bytes = payload.size();
  if (expect_chosen != ColumnCodec::kAuto) {
    EXPECT_EQ(stats.codec, expect_chosen)
        << "expected " << ColumnCodecName(expect_chosen) << " got "
        << ColumnCodecName(stats.codec);
  }
  std::vector<uint8_t> decoded(col.raw_size_bytes());
  Status st = DecompressChunkPayload(col.type(), stats.codec, payload.data(),
                                     payload.size(), col.size(),
                                     decoded.data());
  EXPECT_TRUE(st.ok()) << st.ToString();
  Column back(col.name(), col.type());
  back.AppendRaw(decoded.data(), col.size());
  ExpectColumnsEqual(col, back);
  return stats;
}

TEST(CompressionTest, FileStatsReportOnDiskSize) {
  TempDir tmp;
  std::vector<int32_t> vals(1000);
  for (size_t i = 0; i < vals.size(); ++i) vals[i] = static_cast<int32_t>(i);
  auto col = Column::FromVector("c", vals);
  std::string path = tmp.File("c.gcz");
  CompressionStats stats;
  ASSERT_TRUE(WriteChunkedCompressedColumnFile(*col, path, ColumnCodec::kAuto,
                                               &stats)
                  .ok());
  // compressed_bytes must count the whole file, header and directory
  // included.
  auto size = FileSizeBytes(path);
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(stats.compressed_bytes, *size);
}

TEST(CompressionTest, RawRoundTripAllTypes) {
  Rng rng(201);
  for (int t = 0; t < kNumDataTypes; ++t) {
    auto col = std::make_shared<Column>("c", static_cast<DataType>(t));
    DispatchDataType(col->type(), [&]<typename T>() {
      for (int i = 0; i < 1000; ++i) {
        col->Append<T>(static_cast<T>(rng.UniformInt(-100, 100)));
      }
    });
    RoundTrip(*col, ColumnCodec::kRaw, ColumnCodec::kRaw);
  }
}

TEST(CompressionTest, RleRoundTripAndWins) {
  // Classification-like data: long runs of few values.
  std::vector<uint8_t> vals;
  Rng rng(202);
  while (vals.size() < 50000) {
    uint8_t v = static_cast<uint8_t>(rng.Uniform(6));
    size_t run = 50 + rng.Uniform(500);
    for (size_t i = 0; i < run; ++i) vals.push_back(v);
  }
  auto col = Column::FromVector("classification", vals);
  RoundTrip(*col, ColumnCodec::kRle, ColumnCodec::kRle);
  CompressionStats stats = RoundTrip(*col, ColumnCodec::kAuto);
  EXPECT_EQ(stats.codec, ColumnCodec::kRle);
  EXPECT_GT(stats.Ratio(), 10.0);
}

TEST(CompressionTest, ForRoundTripAndWinsOnBoundedInts) {
  // Intensity-like: uniform in a small range, no run structure.
  std::vector<uint16_t> vals(50000);
  Rng rng(203);
  for (auto& v : vals) v = static_cast<uint16_t>(100 + rng.Uniform(150));
  auto col = Column::FromVector("intensity", vals);
  RoundTrip(*col, ColumnCodec::kFor, ColumnCodec::kFor);
  CompressionStats stats = RoundTrip(*col, ColumnCodec::kAuto);
  // 150 distinct values fit in 8 bits vs 16 raw.
  EXPECT_GT(stats.Ratio(), 1.5);
}

TEST(CompressionTest, DeltaRoundTripAndWinsOnSortedData) {
  std::vector<int64_t> vals(50000);
  Rng rng(204);
  int64_t v = -1000000;
  for (auto& x : vals) {
    v += static_cast<int64_t>(rng.Uniform(20));
    x = v;
  }
  auto col = Column::FromVector("sorted", vals);
  RoundTrip(*col, ColumnCodec::kDelta, ColumnCodec::kDelta);
  CompressionStats stats = RoundTrip(*col, ColumnCodec::kAuto);
  EXPECT_EQ(stats.codec, ColumnCodec::kDelta);
  EXPECT_GT(stats.Ratio(), 8.0);  // ~5 bits/value vs 64
}

TEST(CompressionTest, FloatColumnsRoundTripExactly) {
  Rng rng(205);
  std::vector<double> vals(20000);
  for (auto& v : vals) v = rng.NextGaussian() * 1e6;
  vals[7] = 0.1 + 0.2;  // classic non-representable value
  vals[8] = -0.0;
  auto col = Column::FromVector("d", vals);
  for (ColumnCodec codec : {ColumnCodec::kRaw, ColumnCodec::kRle,
                            ColumnCodec::kFor, ColumnCodec::kDelta,
                            ColumnCodec::kAuto}) {
    RoundTrip(*col, codec);
  }
}

TEST(CompressionTest, NegativeValuesAllCodecs) {
  std::vector<int32_t> vals = {-2000000000, -1, 0, 1, 2000000000, -5, -5, -5};
  auto col = Column::FromVector("i", vals);
  for (ColumnCodec codec : {ColumnCodec::kRaw, ColumnCodec::kRle,
                            ColumnCodec::kFor, ColumnCodec::kDelta}) {
    RoundTrip(*col, codec);
  }
}

TEST(CompressionTest, EmptyColumn) {
  Column col("e", DataType::kFloat32);
  RoundTrip(col, ColumnCodec::kAuto, ColumnCodec::kRaw);
}

TEST(CompressionTest, SingleValue) {
  auto col = Column::FromVector<uint64_t>("one", {42});
  for (ColumnCodec codec : {ColumnCodec::kRaw, ColumnCodec::kRle,
                            ColumnCodec::kFor, ColumnCodec::kDelta}) {
    RoundTrip(*col, codec);
  }
}

TEST(CompressionTest, ConstantColumnTiny) {
  auto col = Column::FromVector<double>("k", std::vector<double>(100000, 3.14));
  CompressionStats stats = RoundTrip(*col, ColumnCodec::kAuto);
  EXPECT_LT(stats.compressed_bytes, 200u) << "constant column must collapse";
}

TEST(CompressionTest, CorruptInputsRejected) {
  const std::vector<int32_t> vals = {1, 2, 3, 4};
  std::vector<int32_t> out(1000);
  auto decode = [&](ColumnCodec codec, const std::vector<uint8_t>& payload,
                    uint64_t count) {
    return DecompressChunkPayload(DataType::kInt32, codec, payload.data(),
                                  payload.size(), count, out.data());
  };
  for (ColumnCodec codec : {ColumnCodec::kRaw, ColumnCodec::kRle,
                            ColumnCodec::kFor, ColumnCodec::kDelta}) {
    SCOPED_TRACE(ColumnCodecName(codec));
    std::vector<uint8_t> payload = CompressChunkPayload(
        DataType::kInt32, vals.data(), vals.size(), codec, nullptr);
    ASSERT_TRUE(decode(codec, payload, vals.size()).ok());
    // Truncated payload.
    auto cut = payload;
    cut.resize(cut.size() - 2);
    EXPECT_EQ(decode(codec, cut, vals.size()).code(),
              StatusCode::kCorruption);
    // More values claimed than encoded.
    EXPECT_EQ(decode(codec, payload, out.size()).code(),
              StatusCode::kCorruption);
  }
  // Codec bytes outside the enum, and kAuto, never decode.
  std::vector<uint8_t> payload = CompressChunkPayload(
      DataType::kInt32, vals.data(), vals.size(), ColumnCodec::kRaw, nullptr);
  EXPECT_EQ(decode(static_cast<ColumnCodec>(99), payload, vals.size()).code(),
            StatusCode::kCorruption);
  EXPECT_EQ(decode(ColumnCodec::kAuto, payload, vals.size()).code(),
            StatusCode::kCorruption);
}

TEST(CompressionTest, LasColumnsCompressWell) {
  // The §3.1 claim on real-ish survey data: the flat table's columns are
  // compressible; acquisition-ordered coordinates delta-compress, flags
  // run-length-compress.
  AhnGeneratorOptions opts;
  opts.extent = Box(85000, 444000, 85150, 444150);
  AhnGenerator gen(opts);
  auto table = *gen.GenerateTable(60000);
  uint64_t raw = 0, compressed = 0;
  for (const auto& col : table->columns()) {
    SCOPED_TRACE(col->name());
    CompressionStats stats = RoundTrip(*col, ColumnCodec::kAuto);
    raw += stats.uncompressed_bytes;
    compressed += stats.compressed_bytes;
  }
  EXPECT_GT(static_cast<double>(raw) / compressed, 2.0)
      << "whole-table compression ratio should exceed 2x";
}

TEST(CompressedTableDirTest, RoundTrip) {
  TempDir tmp;
  AhnGeneratorOptions opts;
  opts.extent = Box(85000, 444000, 85080, 444080);
  AhnGenerator gen(opts);
  auto table = *gen.GenerateTable(15000);
  uint64_t bytes = 0;
  ASSERT_TRUE(
      WriteChunkedCompressedTableDir(*table, tmp.File("tbl"), &bytes).ok());
  EXPECT_GT(bytes, 0u);
  EXPECT_LT(bytes, table->DataBytes());
  auto back = ReadTableDir(tmp.File("tbl"));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back->num_columns(), table->num_columns());
  ASSERT_EQ(back->num_rows(), table->num_rows());
  for (size_t c = 0; c < table->num_columns(); ++c) {
    ExpectColumnsEqual(*table->column(c), *back->column(c));
  }
}

TEST(CompressionTest, CodecNames) {
  EXPECT_STREQ(ColumnCodecName(ColumnCodec::kRaw), "raw");
  EXPECT_STREQ(ColumnCodecName(ColumnCodec::kRle), "rle");
  EXPECT_STREQ(ColumnCodecName(ColumnCodec::kFor), "for");
  EXPECT_STREQ(ColumnCodecName(ColumnCodec::kDelta), "delta");
}

}  // namespace
}  // namespace geocol
