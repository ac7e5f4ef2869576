// Crash-point sweeps and corruption-detection tests for every persisted
// format. The invariant under test: a crash injected at ANY file
// operation leaves the store readable as exactly the old state or exactly
// the new state — never garbage, never an error — and a single flipped
// bit in any durable file surfaces as Corruption, never as wrong data.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "columns/column_file.h"
#include "core/imprints_io.h"
#include "core/spatial_engine.h"
#include "gis/layer_io.h"
#include "pointcloud/terrain.h"
#include "pointcloud/vector_gen.h"
#include "util/binary_io.h"
#include "util/crc32c.h"
#include "util/fault_injection.h"
#include "util/rng.h"
#include "util/tempdir.h"

namespace geocol {
namespace {

class DurabilityTest : public ::testing::Test {
 protected:
  void TearDown() override { FaultInjector::Global().Disarm(); }
  TempDir tmp_;
};

FlatTable MakeTable(const std::string& name, size_t rows, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> x(rows), y(rows);
  std::vector<int32_t> c(rows);
  for (size_t i = 0; i < rows; ++i) {
    x[i] = rng.UniformDouble(0, 1000);
    y[i] = rng.UniformDouble(0, 1000);
    c[i] = static_cast<int32_t>(rng.Uniform(32));
  }
  FlatTable t(name);
  EXPECT_TRUE(t.AddColumn(Column::FromVector("x", x)).ok());
  EXPECT_TRUE(t.AddColumn(Column::FromVector("y", y)).ok());
  EXPECT_TRUE(t.AddColumn(Column::FromVector("c", c)).ok());
  return t;
}

/// True when `t` holds exactly the columns and values of `expect`.
void ExpectTablesEqual(const FlatTable& t, const FlatTable& expect) {
  ASSERT_EQ(t.num_columns(), expect.num_columns());
  for (const auto& ec : expect.columns()) {
    ColumnPtr c = t.column(ec->name());
    ASSERT_NE(c, nullptr) << ec->name();
    ASSERT_EQ(c->type(), ec->type()) << ec->name();
    ASSERT_EQ(c->size(), ec->size()) << ec->name();
    ASSERT_EQ(std::memcmp(c->raw_data(), ec->raw_data(),
                          c->size() * DataTypeSize(c->type())),
              0)
        << ec->name();
  }
}

// ---------------------------------------------------------------------------
// Crash-point sweeps: old-or-new, never garbage.
// ---------------------------------------------------------------------------

/// Sweeps every injectable crash point of `write_new` (run against a store
/// freshly reset by `reset_old`), asserting after each crash that
/// `check_old_or_new` still sees a consistent store.
template <typename ResetFn, typename WriteFn, typename CheckFn>
void CrashSweep(ResetFn reset_old, WriteFn write_new,
                CheckFn check_old_or_new) {
  auto& fi = FaultInjector::Global();
  reset_old();
  fi.StartCounting();
  ASSERT_TRUE(write_new().ok());
  uint64_t total = fi.StopCounting();
  ASSERT_GT(total, 0u);

  for (uint64_t k = 1; k <= total; ++k) {
    SCOPED_TRACE("crash at op " + std::to_string(k) + " of " +
                 std::to_string(total));
    reset_old();
    fi.ArmCrashAtOp(k);
    Status st = write_new();  // expected to fail at op k (ignored)
    fi.Disarm();
    (void)st;
    check_old_or_new();
  }
}

TEST_F(DurabilityTest, TableDirCrashSweep) {
  std::string dir = tmp_.File("tbl");
  FlatTable old_table = MakeTable("pts", 500, 1);
  FlatTable new_table = MakeTable("pts", 700, 2);

  CrashSweep(
      [&] {
        ASSERT_TRUE(RemoveDirRecursive(dir).ok());
        ASSERT_TRUE(WriteTableDir(old_table, dir).ok());
      },
      [&] { return WriteTableDir(new_table, dir); },
      [&] {
        auto got = ReadTableDir(dir);
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        if (got->column("x")->size() == 700) {
          ExpectTablesEqual(*got, new_table);
        } else {
          ExpectTablesEqual(*got, old_table);
        }
      });
}

TEST_F(DurabilityTest, CompressedTableDirCrashSweep) {
  std::string dir = tmp_.File("ctbl");
  FlatTable old_table = MakeTable("pts", 400, 3);
  FlatTable new_table = MakeTable("pts", 600, 4);

  CrashSweep(
      [&] {
        ASSERT_TRUE(RemoveDirRecursive(dir).ok());
        ASSERT_TRUE(WriteChunkedCompressedTableDir(old_table, dir).ok());
      },
      [&] { return WriteChunkedCompressedTableDir(new_table, dir); },
      [&] {
        auto got = ReadTableDir(dir);
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        if (got->column("x")->size() == 600) {
          ExpectTablesEqual(*got, new_table);
        } else {
          ExpectTablesEqual(*got, old_table);
        }
      });
}

TEST_F(DurabilityTest, ImprintsSidecarCrashSweep) {
  std::string path = tmp_.File("c.gim");
  ColumnPtr col = Column::FromVector(
      "c", std::vector<double>{1, 5, 2, 8, 3, 9, 4, 7, 6, 0});
  auto old_ix = ImprintsIndex::Build(*col);
  ASSERT_TRUE(old_ix.ok());
  col->Append<double>(42.0);
  auto new_ix = ImprintsIndex::Build(*col);
  ASSERT_TRUE(new_ix.ok());

  CrashSweep(
      [&] {
        (void)RemoveFile(path);
        ASSERT_TRUE(WriteImprintsFile(*old_ix, path).ok());
      },
      [&] { return WriteImprintsFile(*new_ix, path); },
      [&] {
        auto got = ReadImprintsFile(path);
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        EXPECT_TRUE(got->num_rows() == old_ix->num_rows() ||
                    got->num_rows() == new_ix->num_rows());
      });
}

TEST_F(DurabilityTest, LayerFileCrashSweep) {
  std::string path = tmp_.File("roads.layer");
  TerrainModel terrain(7);
  OsmGenerator gen(7, Box(0, 0, 500, 500), terrain);
  auto old_layer = VectorLayer::FromFeatures("roads", gen.GenerateRoads(3));
  auto new_layer = VectorLayer::FromFeatures("roads", gen.GenerateRoads(5));
  ASSERT_NE(old_layer->features().size(), new_layer->features().size());

  CrashSweep(
      [&] {
        (void)RemoveFile(path);
        ASSERT_TRUE(WriteLayerFile(*old_layer, path).ok());
      },
      [&] { return WriteLayerFile(*new_layer, path); },
      [&] {
        auto got = ReadLayerFile(path);
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        size_t n = (*got)->features().size();
        EXPECT_TRUE(n == old_layer->features().size() ||
                    n == new_layer->features().size());
      });
}

TEST_F(DurabilityTest, RawDumpCrashLeavesOldDump) {
  // Raw dumps are headerless (paper fidelity), so they cannot carry a
  // checksum — but the atomic protocol still guarantees old-or-new.
  std::string path = tmp_.File("x.dump");
  ColumnPtr old_col = Column::FromVector("x", std::vector<double>{1, 2, 3});
  ColumnPtr new_col =
      Column::FromVector("x", std::vector<double>{4, 5, 6, 7, 8});

  CrashSweep(
      [&] {
        (void)RemoveFile(path);
        ASSERT_TRUE(WriteRawDump(*old_col, path).ok());
      },
      [&] { return WriteRawDump(*new_col, path); },
      [&] {
        auto size = FileSizeBytes(path);
        ASSERT_TRUE(size.ok());
        EXPECT_TRUE(*size == 3 * sizeof(double) || *size == 5 * sizeof(double))
            << *size;
      });
}

// ---------------------------------------------------------------------------
// Bit-flip detection: every byte of every checksummed format.
// ---------------------------------------------------------------------------

/// Flips one bit in every byte of the file at `path` in turn and asserts
/// `read_fails` observes Corruption each time.
template <typename ReadFn>
void SweepBitFlips(const std::string& path, ReadFn read_fails) {
  std::vector<uint8_t> good;
  ASSERT_TRUE(ReadFileBytes(path, &good).ok());
  ASSERT_FALSE(good.empty());
  Rng rng(99);
  for (size_t byte = 0; byte < good.size(); ++byte) {
    SCOPED_TRACE("bit flip in byte " + std::to_string(byte) + " of " +
                 std::to_string(good.size()));
    auto bad = good;
    bad[byte] ^= static_cast<uint8_t>(1u << rng.Uniform(8));
    ASSERT_TRUE(WriteFileBytes(path, bad.data(), bad.size()).ok());
    read_fails();
  }
  ASSERT_TRUE(WriteFileBytes(path, good.data(), good.size()).ok());
}

TEST_F(DurabilityTest, ColumnFileDetectsEveryBitFlip) {
  ColumnPtr col = Column::FromVector(
      "x", std::vector<double>{1.5, -2.25, 3.75, 0.0, 1e9});
  std::string path = tmp_.File("x.gcl");
  ASSERT_TRUE(WriteColumnFile(*col, path).ok());
  SweepBitFlips(path, [&] {
    auto got = ReadColumnFile(path, "x");
    EXPECT_FALSE(got.ok());
    if (!got.ok()) {
      EXPECT_EQ(got.status().code(), StatusCode::kCorruption)
          << got.status().ToString();
    }
  });
}

TEST_F(DurabilityTest, CompressedColumnDetectsEveryBitFlip) {
  std::vector<int32_t> vals(300);
  for (size_t i = 0; i < vals.size(); ++i) vals[i] = static_cast<int32_t>(i % 7);
  ColumnPtr col = Column::FromVector("c", vals);
  std::string path = tmp_.File("c.gcz");
  ASSERT_TRUE(WriteChunkedCompressedColumnFile(*col, path).ok());
  SweepBitFlips(path, [&] {
    auto got = ReadColumnFile(path, "c");
    EXPECT_FALSE(got.ok());
    if (!got.ok()) {
      EXPECT_EQ(got.status().code(), StatusCode::kCorruption)
          << got.status().ToString();
      // Errors name the file, not the column.
      EXPECT_NE(got.status().message().find(path), std::string::npos)
          << got.status().ToString();
    }
  });
}

TEST_F(DurabilityTest, ManifestDetectsEveryBitFlip) {
  std::string dir = tmp_.File("tbl");
  FlatTable table = MakeTable("pts", 50, 5);
  ASSERT_TRUE(WriteTableDir(table, dir).ok());
  SweepBitFlips(dir + "/schema.gct", [&] {
    auto got = ReadTableManifest(dir);
    EXPECT_FALSE(got.ok());
    if (!got.ok()) {
      EXPECT_EQ(got.status().code(), StatusCode::kCorruption)
          << got.status().ToString();
    }
  });
}

TEST_F(DurabilityTest, ImprintsFileDetectsEveryBitFlip) {
  ColumnPtr col = Column::FromVector(
      "c", std::vector<double>{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5});
  auto ix = ImprintsIndex::Build(*col);
  ASSERT_TRUE(ix.ok());
  std::string path = tmp_.File("c.gim");
  ASSERT_TRUE(WriteImprintsFile(*ix, path).ok());
  SweepBitFlips(path, [&] {
    auto got = ReadImprintsFile(path);
    EXPECT_FALSE(got.ok());
    if (!got.ok()) {
      EXPECT_EQ(got.status().code(), StatusCode::kCorruption)
          << got.status().ToString();
    }
  });
}

TEST_F(DurabilityTest, LayerFileDetectsDataBitFlips) {
  TerrainModel terrain(11);
  OsmGenerator gen(11, Box(0, 0, 200, 200), terrain);
  auto layer = VectorLayer::FromFeatures("roads", gen.GenerateRoads(2));
  std::string path = tmp_.File("roads.layer");
  ASSERT_TRUE(WriteLayerFile(*layer, path).ok());
  // The text footer protects all feature bytes; a flip inside the footer
  // itself can only invalidate the footer, never alter feature data — so
  // the property is "fails, or reads back identical data".
  std::vector<uint8_t> good;
  ASSERT_TRUE(ReadFileBytes(path, &good).ok());
  size_t detected = 0;
  Rng rng(12);
  for (size_t byte = 0; byte < good.size(); ++byte) {
    SCOPED_TRACE("bit flip in byte " + std::to_string(byte));
    auto bad = good;
    bad[byte] ^= static_cast<uint8_t>(1u << rng.Uniform(8));
    ASSERT_TRUE(WriteFileBytes(path, bad.data(), bad.size()).ok());
    auto got = ReadLayerFile(path);
    if (!got.ok()) {
      ++detected;
      continue;
    }
    ASSERT_EQ((*got)->features().size(), layer->features().size());
    for (size_t i = 0; i < layer->features().size(); ++i) {
      EXPECT_EQ((*got)->features()[i].id, layer->features()[i].id);
      EXPECT_EQ((*got)->features()[i].name, layer->features()[i].name);
    }
  }
  // Every flip in the feature bytes (all but the ~17-byte footer) must be
  // caught by the checksum.
  EXPECT_GE(detected, good.size() - 18) << "of " << good.size();
}

// ---------------------------------------------------------------------------
// Hostile counts: corrupt sizes must fail cleanly, not allocate.
// ---------------------------------------------------------------------------

TEST_F(DurabilityTest, HugeCountWithValidCrcIsRejected) {
  ColumnPtr col = Column::FromVector("c", std::vector<double>{1, 2, 3, 4});
  auto ix = ImprintsIndex::Build(*col);
  ASSERT_TRUE(ix.ok());
  std::string path = tmp_.File("c.gim");
  ASSERT_TRUE(WriteImprintsFile(*ix, path).ok());

  std::vector<uint8_t> bytes;
  ASSERT_TRUE(ReadFileBytes(path, &bytes).ok());
  // Overwrite the dictionary count (after magic, fingerprint, epoch, rows,
  // vpl, nbins, and the nbins bounds) with an absurd value, then re-seal
  // the CRC so only the bounded-count check can reject it.
  uint32_t nbins = 0;
  std::memcpy(&nbins, bytes.data() + 4 + 4 + 8 + 8 + 4, 4);
  size_t dict_at = 4 + 4 + 8 + 8 + 4 + 4 + size_t{nbins} * 8;
  ASSERT_LT(dict_at + 8, bytes.size());
  uint64_t huge = uint64_t{1} << 60;
  std::memcpy(bytes.data() + dict_at, &huge, 8);
  uint32_t crc = Crc32c(bytes.data(), bytes.size() - 4);
  std::memcpy(bytes.data() + bytes.size() - 4, &crc, 4);
  ASSERT_TRUE(WriteFileBytes(path, bytes.data(), bytes.size()).ok());

  auto got = ReadImprintsFile(path);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kCorruption)
      << got.status().ToString();
}

TEST_F(DurabilityTest, HugeColumnCountIsRejected) {
  ColumnPtr col = Column::FromVector("x", std::vector<double>{1, 2, 3});
  std::string path = tmp_.File("x.gcl");
  ASSERT_TRUE(WriteColumnFile(*col, path).ok());
  std::vector<uint8_t> bytes;
  ASSERT_TRUE(ReadFileBytes(path, &bytes).ok());
  // Row count lives after magic(4) + type(1); blow it up without fixing
  // the header CRC — either check may fire, but never an allocation.
  uint64_t huge = uint64_t{1} << 50;
  std::memcpy(bytes.data() + 5, &huge, 8);
  ASSERT_TRUE(WriteFileBytes(path, bytes.data(), bytes.size()).ok());
  auto got = ReadColumnFile(path, "x");
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kCorruption)
      << got.status().ToString();
}

// ---------------------------------------------------------------------------
// Graceful degradation: corrupt sidecars never fail a query.
// ---------------------------------------------------------------------------

TEST_F(DurabilityTest, CorruptSidecarQuarantinedAndQueriesStillCorrect) {
  std::string idx_dir = tmp_.File("imprints");
  ASSERT_TRUE(MakeDir(idx_dir).ok());
  auto table = std::make_shared<FlatTable>(MakeTable("pts", 4000, 21));
  Box box(100, 100, 400, 400);

  EngineOptions opts;
  opts.num_threads = 1;
  opts.imprints_dir = idx_dir;
  uint64_t expect_count = 0;
  {
    SpatialQueryEngine engine(table, opts);
    auto res = engine.SelectInBox(box);
    ASSERT_TRUE(res.ok()) << res.status().ToString();
    expect_count = res->count();
    // The first query persisted sidecars for x and y.
    EXPECT_TRUE(PathExists(idx_dir + "/x.gim"));
    EXPECT_TRUE(PathExists(idx_dir + "/y.gim"));
  }
  // Cross-check against a no-imprints engine.
  {
    EngineOptions scan_opts;
    scan_opts.use_imprints = false;
    scan_opts.num_threads = 1;
    SpatialQueryEngine engine(table, scan_opts);
    auto res = engine.SelectInBox(box);
    ASSERT_TRUE(res.ok());
    ASSERT_EQ(res->count(), expect_count);
  }

  // Corrupt x's sidecar in the middle; a fresh engine must quarantine it,
  // rebuild transparently, and return the same rows.
  std::vector<uint8_t> bytes;
  ASSERT_TRUE(ReadFileBytes(idx_dir + "/x.gim", &bytes).ok());
  bytes[bytes.size() / 2] ^= 0xFF;
  ASSERT_TRUE(WriteFileBytes(idx_dir + "/x.gim", bytes.data(), bytes.size())
                  .ok());
  {
    SpatialQueryEngine engine(table, opts);
    auto res = engine.SelectInBox(box);
    ASSERT_TRUE(res.ok()) << res.status().ToString();
    EXPECT_EQ(res->count(), expect_count);
  }
  // The damaged file was preserved for forensics and replaced by a fresh,
  // loadable sidecar.
  EXPECT_TRUE(PathExists(idx_dir + "/x.gim.quarantined"));
  auto reloaded = ReadImprintsFile(idx_dir + "/x.gim");
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  EXPECT_EQ(reloaded->num_rows(), table->column("x")->size());
}

TEST_F(DurabilityTest, StaleSidecarRebuiltAfterAppend) {
  std::string idx_dir = tmp_.File("imprints");
  ASSERT_TRUE(MakeDir(idx_dir).ok());
  auto table = std::make_shared<FlatTable>(MakeTable("pts", 2000, 22));
  EngineOptions opts;
  opts.num_threads = 1;
  opts.imprints_dir = idx_dir;
  Box box(0, 0, 500, 500);
  {
    SpatialQueryEngine engine(table, opts);
    ASSERT_TRUE(engine.SelectInBox(box).ok());
  }
  // Append moves the epoch: the persisted sidecar is now stale.
  table->column("x")->Append<double>(250.0);
  table->column("y")->Append<double>(250.0);
  table->column("c")->Append<int32_t>(1);
  {
    SpatialQueryEngine engine(table, opts);
    auto res = engine.SelectInBox(box);
    ASSERT_TRUE(res.ok()) << res.status().ToString();
    // The appended point is inside the box and must be found.
    bool found = false;
    for (uint64_t r : res->row_ids) found |= r == table->column("x")->size() - 1;
    EXPECT_TRUE(found);
  }
  auto reloaded = ReadImprintsFile(idx_dir + "/x.gim");
  ASSERT_TRUE(reloaded.ok());
  EXPECT_EQ(reloaded->built_epoch(), table->column("x")->epoch());
}

// ---------------------------------------------------------------------------
// Layer files are hand-editable text: a footer-less one stays readable.
// ---------------------------------------------------------------------------

TEST_F(DurabilityTest, LegacyLayerFileWithoutFooterStillLoads) {
  // A file written before the CRC footer existed: feature lines only.
  std::string text = "1\t2\tmain st\tLINESTRING (0 0, 10 10)\n";
  std::string path = tmp_.File("old.layer");
  ASSERT_TRUE(WriteFileBytes(path, text.data(), text.size()).ok());
  auto got = ReadLayerFile(path);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_EQ((*got)->features().size(), 1u);
  EXPECT_EQ((*got)->features()[0].name, "main st");
}

}  // namespace
}  // namespace geocol
