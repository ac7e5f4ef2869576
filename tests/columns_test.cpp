// Columns substrate tests: typed columns, flat tables, persistence, CSV.
#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <numeric>
#include <thread>

#include "columns/column.h"
#include "columns/column_file.h"
#include "columns/csv.h"
#include "columns/flat_table.h"
#include "telemetry/metrics.h"
#include "util/binary_io.h"
#include "util/tempdir.h"

namespace geocol {
namespace {

TEST(DataTypeTest, SizesAndNames) {
  EXPECT_EQ(DataTypeSize(DataType::kUInt8), 1u);
  EXPECT_EQ(DataTypeSize(DataType::kInt16), 2u);
  EXPECT_EQ(DataTypeSize(DataType::kFloat32), 4u);
  EXPECT_EQ(DataTypeSize(DataType::kFloat64), 8u);
  EXPECT_STREQ(DataTypeName(DataType::kInt64), "int64");
  EXPECT_TRUE(IsFloatingPoint(DataType::kFloat32));
  EXPECT_FALSE(IsFloatingPoint(DataType::kUInt32));
  EXPECT_TRUE(IsSigned(DataType::kInt8));
  EXPECT_FALSE(IsSigned(DataType::kUInt64));
}

TEST(DataTypeTest, TraitsMapping) {
  EXPECT_EQ(DataTypeOf<int8_t>(), DataType::kInt8);
  EXPECT_EQ(DataTypeOf<double>(), DataType::kFloat64);
  EXPECT_EQ(DataTypeOf<uint16_t>(), DataType::kUInt16);
}

TEST(DataTypeTest, DispatchSelectsRightType) {
  size_t size = DispatchDataType(DataType::kInt16, []<typename T>() {
    return sizeof(T);
  });
  EXPECT_EQ(size, 2u);
}

TEST(ColumnTest, AppendAndRead) {
  Column col("z", DataType::kFloat64);
  col.Append<double>(1.5);
  col.Append<double>(-2.5);
  EXPECT_EQ(col.size(), 2u);
  auto vals = col.Values<double>();
  EXPECT_EQ(vals[0], 1.5);
  EXPECT_EQ(vals[1], -2.5);
  EXPECT_EQ(col.GetDouble(1), -2.5);
  EXPECT_EQ(col.GetInt64(0), 1);  // truncation
}

TEST(ColumnTest, EpochAdvancesOnMutation) {
  Column col("c", DataType::kInt32);
  uint64_t e0 = col.epoch();
  col.Append<int32_t>(1);
  EXPECT_GT(col.epoch(), e0);
  uint64_t e1 = col.epoch();
  (void)col.BeginRawUpdate();
  EXPECT_GT(col.epoch(), e1);
}

TEST(ColumnTest, StatsCachedAndInvalidated) {
  Column col("c", DataType::kInt32);
  col.Append<int32_t>(5);
  col.Append<int32_t>(-3);
  EXPECT_EQ(col.Stats().min, -3);
  EXPECT_EQ(col.Stats().max, 5);
  col.Append<int32_t>(100);
  EXPECT_EQ(col.Stats().max, 100);
}

TEST(ColumnTest, AppendRawMatchesTyped) {
  Column a("a", DataType::kUInt16), b("b", DataType::kUInt16);
  std::vector<uint16_t> vals = {1, 2, 65535};
  a.AppendSpan<uint16_t>(vals);
  b.AppendRaw(vals.data(), vals.size());
  EXPECT_EQ(a.size(), b.size());
  for (size_t i = 0; i < vals.size(); ++i) {
    EXPECT_EQ(a.GetInt64(i), b.GetInt64(i));
  }
}

TEST(ColumnTest, FromVector) {
  auto col = Column::FromVector<float>("f", {1.0f, 2.0f});
  EXPECT_EQ(col->type(), DataType::kFloat32);
  EXPECT_EQ(col->size(), 2u);
}

TEST(ColumnTest, GetDoubleAcrossAllTypes) {
  for (int t = 0; t < kNumDataTypes; ++t) {
    Column col("c", static_cast<DataType>(t));
    DispatchDataType(col.type(), [&]<typename T>() {
      col.Append<T>(static_cast<T>(7));
    });
    EXPECT_EQ(col.GetDouble(0), 7.0) << DataTypeName(col.type());
    EXPECT_EQ(col.GetInt64(0), 7) << DataTypeName(col.type());
  }
}

// ---------------- Schema / FlatTable ----------------

// ---------------- shared, append-only column buffers ----------------

uint64_t BytesCopied() {
  return telemetry::MetricsRegistry::Global()
      .GetCounter("geocol_column_bytes_copied_total")
      .Value();
}

/// A float64 column holding 0, 1, ..., n-1 with room for `capacity` rows.
ColumnPtr CountingColumn(size_t n, size_t capacity) {
  auto col = std::make_shared<Column>("v", DataType::kFloat64);
  col->Reserve(capacity);
  for (size_t i = 0; i < n; ++i) col->Append<double>(static_cast<double>(i));
  return col;
}

std::vector<double> Ramp(double first, size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), first);
  return v;
}

void ExpectRamp(const Column& col, size_t n) {
  ASSERT_EQ(col.size(), n);
  auto vals = col.Values<double>();
  for (size_t i = 0; i < n; ++i) {
    ASSERT_EQ(vals[i], static_cast<double>(i)) << "row " << i;
  }
}

TEST(ColumnBufferTest, PinnedBaseKeepsBytesAfterInPlaceAppend) {
  ColumnPtr base = CountingColumn(100, 1000);
  const uint32_t crc = base->payload_crc32c();
  const uint64_t copied = BytesCopied();

  auto tail = Ramp(100, 50);
  auto next = Column::CloneAppend(base, tail.data(), tail.size());
  ASSERT_TRUE(next.ok());
  // In place: the successor shares base's buffer and nothing was copied.
  EXPECT_EQ((*next)->raw_data(), base->raw_data());
  EXPECT_EQ(BytesCopied(), copied);
  ExpectRamp(**next, 150);
  // The pinned base still sees exactly its own rows.
  ExpectRamp(*base, 100);
  EXPECT_EQ(base->payload_crc32c(), crc);
  EXPECT_EQ((*next)->base(), base);
  EXPECT_EQ((*next)->base_rows(), 100u);
}

TEST(ColumnBufferTest, SecondCloneAppendFromSameBaseCopies) {
  ColumnPtr base = CountingColumn(100, 1000);
  auto tail_a = Ramp(100, 20);
  auto tail_b = Ramp(100, 30);
  auto a = Column::CloneAppend(base, tail_a.data(), tail_a.size());
  ASSERT_TRUE(a.ok());
  const uint64_t copied = BytesCopied();
  // `base` no longer ends at the tip: the branch must copy base's rows.
  auto b = Column::CloneAppend(base, tail_b.data(), tail_b.size());
  ASSERT_TRUE(b.ok());
  EXPECT_NE((*b)->raw_data(), base->raw_data());
  EXPECT_EQ(BytesCopied() - copied, base->raw_size_bytes());
  ExpectRamp(**a, 120);
  ExpectRamp(**b, 130);
  ExpectRamp(*base, 100);
  // Each branch keeps appending correctly on its own.
  auto more = Ramp(120, 5);
  auto a2 = Column::CloneAppend(*a, more.data(), more.size());
  ASSERT_TRUE(a2.ok());
  ExpectRamp(**a2, 125);
  ExpectRamp(**b, 130);
}

TEST(ColumnBufferTest, RawUpdateOnSharedBufferLeavesOtherVersionUntouched) {
  ColumnPtr base = CountingColumn(100, 1000);
  auto tail = Ramp(100, 50);
  ColumnPtr next = *Column::CloneAppend(base, tail.data(), tail.size());
  ASSERT_EQ(next->raw_data(), base->raw_data());

  // A shuffle of the base version copies first.
  FlatTable t("t");
  ASSERT_TRUE(t.AddColumn(base).ok());
  std::vector<uint64_t> reverse(100);
  for (size_t i = 0; i < 100; ++i) reverse[i] = 99 - i;
  const uint64_t copied = BytesCopied();
  ASSERT_TRUE(t.PermuteRows(reverse).ok());
  EXPECT_EQ(BytesCopied() - copied, base->raw_size_bytes());
  EXPECT_NE(base->raw_data(), next->raw_data());
  EXPECT_EQ(base->GetDouble(0), 99.0);
  ExpectRamp(*next, 150);

  // A raw rewrite of the successor leaves the (permuted) base alone.
  const uint32_t base_crc = base->payload_crc32c();
  ColumnPtr third = *Column::CloneAppend(next, tail.data(), 1);
  uint8_t* raw = third->BeginRawUpdate();
  std::memset(raw, 0xff, third->raw_size_bytes());
  ExpectRamp(*next, 150);
  EXPECT_EQ(base->payload_crc32c(), base_crc);
}

TEST(ColumnBufferTest, ClearAndRestage) {
  // Unshared (an appender's staging column): Clear keeps the buffer.
  Column staging("v", DataType::kFloat64);
  auto first = Ramp(0, 64);
  staging.AppendSpan<double>(first);
  const uint8_t* buffer = staging.raw_data();
  const uint64_t copied = BytesCopied();
  for (int round = 0; round < 3; ++round) {
    staging.Clear();
    EXPECT_TRUE(staging.empty());
    auto batch = Ramp(0, 40 + round);
    staging.AppendSpan<double>(batch);
    ExpectRamp(staging, 40 + round);
    EXPECT_EQ(staging.raw_data(), buffer);
  }
  EXPECT_EQ(BytesCopied(), copied);

  // Shared: Clear releases the buffer to the version still reading it.
  ColumnPtr base = CountingColumn(100, 1000);
  auto tail = Ramp(100, 10);
  ColumnPtr next = *Column::CloneAppend(base, tail.data(), tail.size());
  base->Clear();
  EXPECT_TRUE(base->empty());
  auto restage = Ramp(1000, 7);
  base->AppendSpan<double>(restage);
  ASSERT_EQ(base->size(), 7u);
  EXPECT_EQ(base->GetDouble(0), 1000.0);
  EXPECT_EQ(base->GetDouble(6), 1006.0);
  ExpectRamp(*next, 110);
}

TEST(ColumnBufferTest, ReadersScanPinnedVersionsWhileWriterChainsAppends) {
  constexpr size_t kBase = 4096;
  constexpr size_t kBatch = 97;
  constexpr int kAppends = 100;
  std::mutex mu;
  ColumnPtr current = CountingColumn(kBase, kBase);
  std::atomic<bool> done{false};
  std::atomic<uint64_t> scans{0};

  auto reader = [&] {
    while (!done.load(std::memory_order_acquire)) {
      ColumnPtr pinned;
      {
        std::lock_guard<std::mutex> lock(mu);
        pinned = current;
      }
      const size_t n = pinned->size();
      ASSERT_EQ((n - kBase) % kBatch, 0u);
      auto vals = pinned->Values<double>();
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(vals[i], static_cast<double>(i)) << "row " << i;
      }
      scans.fetch_add(1, std::memory_order_relaxed);
    }
  };
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) readers.emplace_back(reader);

  std::vector<ColumnPtr> chain = {current};
  for (int k = 0; k < kAppends; ++k) {
    auto tail = Ramp(static_cast<double>(chain.back()->size()), kBatch);
    auto next = Column::CloneAppend(chain.back(), tail.data(), tail.size());
    ASSERT_TRUE(next.ok());
    chain.push_back(*next);
    std::lock_guard<std::mutex> lock(mu);
    current = *next;
  }
  while (scans.load(std::memory_order_relaxed) < 3) std::this_thread::yield();
  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  // Every version of the chain still reads exactly its own prefix.
  for (size_t k = 0; k < chain.size(); ++k) {
    ExpectRamp(*chain[k], kBase + k * kBatch);
  }
}

TEST(ColumnBufferTest, ReadColumnFileDecodesStraightIntoTheColumn) {
  TempDir tmp;
  auto col = Column::FromVector<int16_t>("c", {5, -6, 7, 8});
  ASSERT_TRUE(WriteColumnFile(*col, tmp.File("c.gcl")).ok());
  auto back = ReadColumnFile(tmp.File("c.gcl"), "c");
  ASSERT_TRUE(back.ok());
  // One append: the epoch a paged open pins, so sidecars validate in both.
  EXPECT_EQ((*back)->epoch(), 1u);
  EXPECT_EQ((*back)->payload_crc32c(), col->payload_crc32c());
  EXPECT_EQ((*back)->GetInt64(1), -6);
}

TEST(SchemaTest, FieldLookup) {
  Schema s({{"x", DataType::kFloat64}, {"y", DataType::kFloat64}});
  EXPECT_EQ(s.num_fields(), 2u);
  EXPECT_EQ(s.FieldIndex("y"), 1);
  EXPECT_EQ(s.FieldIndex("nope"), -1);
  EXPECT_TRUE(s.HasField("x"));
  Schema t({{"x", DataType::kFloat64}, {"y", DataType::kFloat64}});
  EXPECT_TRUE(s == t);
  Schema u({{"x", DataType::kFloat32}, {"y", DataType::kFloat64}});
  EXPECT_FALSE(s == u);
}

TEST(FlatTableTest, SchemaConstruction) {
  FlatTable t("pc", Schema({{"x", DataType::kFloat64},
                            {"i", DataType::kUInt16}}));
  EXPECT_EQ(t.num_columns(), 2u);
  EXPECT_EQ(t.num_rows(), 0u);
  EXPECT_NE(t.column("x"), nullptr);
  EXPECT_EQ(t.column("nope"), nullptr);
}

TEST(FlatTableTest, AddColumnRejectsDuplicatesAndRaggedness) {
  FlatTable t("t");
  ASSERT_TRUE(t.AddColumn(Column::FromVector<double>("a", {1, 2})).ok());
  EXPECT_EQ(t.AddColumn(Column::FromVector<double>("a", {1, 2})).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(t.AddColumn(Column::FromVector<double>("b", {1})).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(t.AddColumn(nullptr).code(), StatusCode::kInvalidArgument);
}

TEST(FlatTableTest, ValidateDetectsRaggedTable) {
  FlatTable t("t");
  ASSERT_TRUE(t.AddColumn(Column::FromVector<double>("a", {1, 2})).ok());
  ASSERT_TRUE(t.AddColumn(Column::FromVector<double>("b", {3, 4})).ok());
  EXPECT_TRUE(t.Validate().ok());
  t.column("b")->Append<double>(5);
  EXPECT_EQ(t.Validate().code(), StatusCode::kCorruption);
}

TEST(FlatTableTest, GetColumnErrors) {
  FlatTable t("t");
  EXPECT_EQ(t.GetColumn("missing").status().code(), StatusCode::kNotFound);
}

TEST(FlatTableTest, DataBytes) {
  FlatTable t("t");
  ASSERT_TRUE(t.AddColumn(Column::FromVector<double>("a", {1, 2})).ok());
  ASSERT_TRUE(t.AddColumn(Column::FromVector<uint8_t>("b", {1, 2})).ok());
  EXPECT_EQ(t.DataBytes(), 2 * 8u + 2 * 1u);
}

// ---------------- column files ----------------

TEST(ColumnFileTest, RoundTrip) {
  TempDir tmp;
  auto col = Column::FromVector<int32_t>("c", {1, -2, 3});
  ASSERT_TRUE(WriteColumnFile(*col, tmp.File("c.gcl")).ok());
  auto back = ReadColumnFile(tmp.File("c.gcl"), "c");
  ASSERT_TRUE(back.ok());
  EXPECT_EQ((*back)->type(), DataType::kInt32);
  ASSERT_EQ((*back)->size(), 3u);
  EXPECT_EQ((*back)->GetInt64(1), -2);
}

TEST(ColumnFileTest, AppendAccumulates) {
  TempDir tmp;
  auto col = Column::FromVector<double>("c", {1.0, 2.0});
  ASSERT_TRUE(WriteColumnFile(*col, tmp.File("c.gcl")).ok());
  Column dst("c", DataType::kFloat64);
  ASSERT_TRUE(AppendColumnFile(tmp.File("c.gcl"), &dst).ok());
  ASSERT_TRUE(AppendColumnFile(tmp.File("c.gcl"), &dst).ok());
  EXPECT_EQ(dst.size(), 4u);
  EXPECT_EQ(dst.GetDouble(3), 2.0);
}

TEST(ColumnFileTest, AppendTypeMismatchRejected) {
  TempDir tmp;
  auto col = Column::FromVector<double>("c", {1.0});
  ASSERT_TRUE(WriteColumnFile(*col, tmp.File("c.gcl")).ok());
  Column dst("c", DataType::kInt32);
  EXPECT_EQ(AppendColumnFile(tmp.File("c.gcl"), &dst).code(),
            StatusCode::kInvalidArgument);
}

TEST(ColumnFileTest, CorruptMagicRejected) {
  TempDir tmp;
  ASSERT_TRUE(WriteFileBytes(tmp.File("bad.gcl"), "XXXXYYYY", 8).ok());
  EXPECT_EQ(ReadColumnFile(tmp.File("bad.gcl"), "c").status().code(),
            StatusCode::kCorruption);
}

TEST(ColumnFileTest, TruncatedFileRejected) {
  TempDir tmp;
  auto col = Column::FromVector<double>("c", {1.0, 2.0, 3.0});
  ASSERT_TRUE(WriteColumnFile(*col, tmp.File("c.gcl")).ok());
  // Truncate the value payload.
  std::vector<uint8_t> bytes;
  ASSERT_TRUE(ReadFileBytes(tmp.File("c.gcl"), &bytes).ok());
  bytes.resize(bytes.size() - 5);
  ASSERT_TRUE(WriteFileBytes(tmp.File("c.gcl"), bytes.data(), bytes.size()).ok());
  EXPECT_EQ(ReadColumnFile(tmp.File("c.gcl"), "c").status().code(),
            StatusCode::kCorruption);
}

TEST(ColumnFileTest, RawDumpRoundTrip) {
  TempDir tmp;
  auto col = Column::FromVector<uint16_t>("i", {7, 8, 9});
  ASSERT_TRUE(WriteRawDump(*col, tmp.File("i.bin")).ok());
  auto size = FileSizeBytes(tmp.File("i.bin"));
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, 6u);  // raw C-array: no header at all
  // COPY BINARY reads the dump straight into its rows of a grown column.
  Column dst("i", DataType::kUInt16);
  dst.Append<uint16_t>(1);
  ASSERT_TRUE(
      ReadRawDump(tmp.File("i.bin"), dst.AppendUninitialized(3), 6).ok());
  ASSERT_EQ(dst.size(), 4u);
  EXPECT_EQ(dst.GetInt64(0), 1);
  EXPECT_EQ(dst.GetInt64(3), 9);
}

TEST(ColumnFileTest, RawDumpWrongSizeRejected) {
  TempDir tmp;
  ASSERT_TRUE(WriteFileBytes(tmp.File("odd.bin"), "abc", 3).ok());
  uint16_t slot[2] = {0, 0};
  for (uint64_t expected : {2u, 4u}) {  // short and long of the 3 bytes
    Status st = ReadRawDump(tmp.File("odd.bin"), slot, expected);
    EXPECT_EQ(st.code(), StatusCode::kCorruption);
    EXPECT_NE(st.message().find("odd.bin"), std::string::npos) << st.message();
  }
}

TEST(TableDirTest, RoundTrip) {
  TempDir tmp;
  FlatTable t("survey");
  ASSERT_TRUE(t.AddColumn(Column::FromVector<double>("x", {1, 2, 3})).ok());
  ASSERT_TRUE(t.AddColumn(Column::FromVector<uint8_t>("c", {4, 5, 6})).ok());
  ASSERT_TRUE(WriteTableDir(t, tmp.File("tbl")).ok());
  auto back = ReadTableDir(tmp.File("tbl"));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->name(), "survey");
  EXPECT_EQ(back->num_columns(), 2u);
  EXPECT_EQ(back->num_rows(), 3u);
  EXPECT_EQ(back->column("c")->GetInt64(2), 6);
  EXPECT_TRUE(back->schema() == t.schema());
}

TEST(TableDirTest, MissingDirFails) {
  EXPECT_FALSE(ReadTableDir("/nonexistent/table").ok());
}

// ---------------- CSV ----------------

TEST(CsvTest, RoundTrip) {
  TempDir tmp;
  FlatTable t("t");
  ASSERT_TRUE(t.AddColumn(Column::FromVector<double>("x", {1.25, -2.5})).ok());
  ASSERT_TRUE(t.AddColumn(Column::FromVector<int32_t>("n", {7, -8})).ok());
  ASSERT_TRUE(WriteCsv(t, tmp.File("t.csv")).ok());
  auto back = ReadCsv(tmp.File("t.csv"), t.schema());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->num_rows(), 2u);
  EXPECT_EQ(back->column("x")->GetDouble(0), 1.25);
  EXPECT_EQ(back->column("n")->GetInt64(1), -8);
}

TEST(CsvTest, HeaderMismatchRejected) {
  TempDir tmp;
  ASSERT_TRUE(WriteFileBytes(tmp.File("bad.csv"), "a,b\n1,2\n", 8).ok());
  FlatTable t("t", Schema({{"x", DataType::kFloat64},
                           {"y", DataType::kFloat64}}));
  EXPECT_EQ(AppendCsv(tmp.File("bad.csv"), &t).code(),
            StatusCode::kCorruption);
}

TEST(CsvTest, ArityMismatchRejected) {
  TempDir tmp;
  ASSERT_TRUE(
      WriteFileBytes(tmp.File("bad.csv"), "x,y\n1,2\n3\n", 10).ok());
  FlatTable t("t", Schema({{"x", DataType::kFloat64},
                           {"y", DataType::kFloat64}}));
  EXPECT_EQ(AppendCsv(tmp.File("bad.csv"), &t).code(),
            StatusCode::kCorruption);
}

TEST(CsvTest, GarbageValueRejected) {
  TempDir tmp;
  ASSERT_TRUE(
      WriteFileBytes(tmp.File("bad.csv"), "x\nfoo\n", 6).ok());
  FlatTable t("t", Schema({{"x", DataType::kFloat64}}));
  EXPECT_EQ(AppendCsv(tmp.File("bad.csv"), &t).code(),
            StatusCode::kCorruption);
}

TEST(CsvTest, AllIntegerTypesSurviveRoundTrip) {
  TempDir tmp;
  FlatTable t("t");
  ASSERT_TRUE(t.AddColumn(Column::FromVector<int8_t>("i8", {-128, 127})).ok());
  ASSERT_TRUE(t.AddColumn(Column::FromVector<uint8_t>("u8", {0, 255})).ok());
  ASSERT_TRUE(
      t.AddColumn(Column::FromVector<int16_t>("i16", {-32768, 32767})).ok());
  ASSERT_TRUE(
      t.AddColumn(Column::FromVector<uint16_t>("u16", {0, 65535})).ok());
  ASSERT_TRUE(t.AddColumn(Column::FromVector<int64_t>(
                             "i64", {-123456789012345LL, 5})).ok());
  ASSERT_TRUE(t.AddColumn(Column::FromVector<uint64_t>(
                             "u64", {0, 987654321098765ULL})).ok());
  ASSERT_TRUE(WriteCsv(t, tmp.File("t.csv")).ok());
  auto back = ReadCsv(tmp.File("t.csv"), t.schema());
  ASSERT_TRUE(back.ok());
  for (size_t c = 0; c < t.num_columns(); ++c) {
    for (uint64_t r = 0; r < t.num_rows(); ++r) {
      EXPECT_EQ(back->column(c)->GetInt64(r), t.column(c)->GetInt64(r))
          << t.column(c)->name() << " row " << r;
    }
  }
}

}  // namespace
}  // namespace geocol
