// Loader pipeline tests: the binary (dump + COPY BINARY) path, the CSV
// baseline path, and the key equivalence property — both loaders and the
// direct in-memory append produce identical tables. The binary loader's
// scratch dumps must never be fsynced and must be gone after every load,
// failed or not.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>

#include "core/live_table.h"
#include "core/table_appender.h"
#include "las/las_reader.h"
#include "las/las_writer.h"
#include "las/laz.h"
#include "loader/binary_loader.h"
#include "loader/csv_loader.h"
#include "pointcloud/generator.h"
#include "telemetry/metrics.h"
#include "util/binary_io.h"
#include "util/fault_injection.h"
#include "util/tempdir.h"

namespace geocol {
namespace {

AhnGeneratorOptions TinyOptions() {
  AhnGeneratorOptions opts;
  opts.extent = Box(85000, 444000, 85100, 444100);
  opts.point_density = 2.0;
  opts.strip_width = 40.0;
  opts.scan_line_spacing = 0.7;
  opts.target_points_per_tile = 8000;
  return opts;
}

/// Cuts a two-chunk LAZ tile's payload to three quarters and patches its
/// size to match, so the file opens, the first chunk decodes and the
/// second is cut short.
void CutLazPayload(const std::string& path) {
  constexpr size_t kSizeOffset = 4 + 8 + 12 * 8 + 2 + 1;
  std::vector<uint8_t> bytes;
  ASSERT_TRUE(ReadFileBytes(path, &bytes).ok());
  uint64_t payload = 0;
  std::memcpy(&payload, bytes.data() + kSizeOffset, 8);
  ASSERT_GT(payload, 2 * kLasAttributeCount * 100u);
  payload = payload * 3 / 4;
  bytes.resize(kSizeOffset + 8 + payload);
  std::memcpy(bytes.data() + kSizeOffset, &payload, 8);
  ASSERT_TRUE(WriteFileBytes(path, bytes.data(), bytes.size()).ok());
}

class LoaderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    gen_ = std::make_unique<AhnGenerator>(TinyOptions());
    ASSERT_TRUE(MakeDir(tiles_dir()).ok());
    ASSERT_TRUE(MakeDir(scratch_dir()).ok());
    auto tiles = gen_->WriteTileDirectory(tiles_dir(), /*compress=*/false);
    ASSERT_TRUE(tiles.ok());
    num_tiles_ = *tiles;
    // In-memory reference table (no file round trip).
    reference_ = std::make_shared<FlatTable>("ref", LasPointSchema());
    ASSERT_TRUE(gen_->GenerateTiles([&](LasTile& tile, uint64_t) {
      return AppendTileToTable(tile.header, tile.points, reference_.get());
    }).ok());
  }

  std::string tiles_dir() const { return tmp_.File("tiles"); }
  std::string scratch_dir() const { return tmp_.File("scratch"); }

  std::vector<std::string> ScratchFiles() const {
    std::vector<std::string> files;
    EXPECT_TRUE(ListFiles(scratch_dir(), "", &files).ok());
    return files;
  }

  static void ExpectTablesEqual(const FlatTable& a, const FlatTable& b) {
    ASSERT_EQ(a.num_columns(), b.num_columns());
    ASSERT_EQ(a.num_rows(), b.num_rows());
    for (size_t c = 0; c < a.num_columns(); ++c) {
      ASSERT_EQ(a.column(c)->type(), b.column(c)->type());
      ASSERT_EQ(a.column(c)->raw_size_bytes(), b.column(c)->raw_size_bytes());
      EXPECT_EQ(std::memcmp(a.column(c)->raw_data(), b.column(c)->raw_data(),
                            a.column(c)->raw_size_bytes()),
                0)
          << "column " << a.column(c)->name();
    }
  }

  TempDir tmp_;
  std::unique_ptr<AhnGenerator> gen_;
  std::shared_ptr<FlatTable> reference_;
  uint64_t num_tiles_ = 0;
};

TEST_F(LoaderTest, BinaryLoaderMatchesDirectAppend) {
  BinaryLoader loader(scratch_dir());
  LoadStats stats;
  auto table = loader.LoadDirectory(tiles_dir(), &stats);
  ASSERT_TRUE(table.ok());
  ExpectTablesEqual(*reference_, **table);
  EXPECT_EQ(stats.files, num_tiles_);
  EXPECT_EQ(stats.points, reference_->num_rows());
  EXPECT_GT(stats.bytes_read, 0u);
  EXPECT_GT(stats.TotalSeconds(), 0.0);
  EXPECT_GT(stats.PointsPerSecond(), 0.0);
  EXPECT_TRUE(ScratchFiles().empty());
}

TEST_F(LoaderTest, MultiBlockTilesMatchReference) {
  // Tiles of ~2.5 blocks: every tile streams several full blocks and ends
  // in a ragged one, uncompressed and LAZ alike.
  AhnGeneratorOptions opts = TinyOptions();
  opts.extent = Box(85000, 444000, 85200, 444200);
  opts.target_points_per_tile = 2 * kLoadBlockRecords + kLoadBlockRecords / 2;
  AhnGenerator gen(opts);
  FlatTable reference("ref", LasPointSchema());
  ASSERT_TRUE(gen.GenerateTiles([&](LasTile& tile, uint64_t) {
    return AppendTileToTable(tile.header, tile.points, &reference);
  }).ok());
  for (bool compress : {false, true}) {
    std::string dir = tmp_.File(compress ? "big_laz" : "big_las");
    ASSERT_TRUE(MakeDir(dir).ok());
    ASSERT_TRUE(gen.WriteTileDirectory(dir, compress).ok());
    std::vector<std::string> files;
    ASSERT_TRUE(ListFiles(dir, compress ? ".laz" : ".las", &files).ok());
    ASSERT_GE(files.size(), 2u);
    bool ragged = false;
    for (const std::string& f : files) {
      auto header = ReadLasHeader(f);
      ASSERT_TRUE(header.ok());
      EXPECT_GT(header->point_count, kLoadBlockRecords) << f;
      ragged |= header->point_count % kLoadBlockRecords != 0;
    }
    EXPECT_TRUE(ragged);
    BinaryLoader loader(scratch_dir());
    auto table = loader.LoadDirectory(dir);
    ASSERT_TRUE(table.ok()) << table.status().ToString();
    ExpectTablesEqual(reference, **table);
    EXPECT_TRUE(ScratchFiles().empty());
    if (!compress) continue;
    // LAZ blocks end at chunk boundaries too: blocks smaller than, equal
    // to and larger than a chunk all rebuild the same table.
    for (size_t block_records : {size_t{1000}, kLazChunkSize, size_t{5000}}) {
      FlatTable streamed("streamed", LasPointSchema());
      for (const std::string& f : files) {
        LasTileReader reader;
        ASSERT_TRUE(reader.Open(f).ok());
        while (true) {
          auto block = reader.NextBlock(block_records);
          ASSERT_TRUE(block.ok()) << block.status().ToString();
          if (block->empty()) break;
          ASSERT_LE(block->size(), block_records);
          ASSERT_TRUE(
              AppendTileToTable(reader.header(), *block, &streamed).ok());
        }
      }
      ExpectTablesEqual(reference, streamed);
    }
  }
}

TEST_F(LoaderTest, LoadDirectoryIssuesNoFsyncs) {
  // The scratch dumps are transient: a crashed load restarts from the
  // tiles, so nothing is fsynced or committed atomically.
  auto& registry = telemetry::MetricsRegistry::Global();
  telemetry::Counter& fsyncs = registry.GetCounter("geocol_io_fsyncs_total");
  telemetry::Counter& commits =
      registry.GetCounter("geocol_io_atomic_commits_total");
  const uint64_t fsyncs_before = fsyncs.Value();
  const uint64_t commits_before = commits.Value();
  BinaryLoader loader(scratch_dir());
  ASSERT_TRUE(loader.LoadDirectory(tiles_dir()).ok());
  EXPECT_EQ(fsyncs.Value() - fsyncs_before, 0u);
  EXPECT_EQ(commits.Value() - commits_before, 0u);
}

TEST_F(LoaderTest, TruncatedTileAmongGoodTilesFailsAndCleansUp) {
  std::vector<std::string> files;
  ASSERT_TRUE(ListFiles(tiles_dir(), ".las", &files).ok());
  ASSERT_GE(files.size(), 3u);
  const std::string& victim = files[files.size() / 2];
  std::vector<uint8_t> bytes;
  ASSERT_TRUE(ReadFileBytes(victim, &bytes).ok());
  ASSERT_TRUE(WriteFileBytes(victim, bytes.data(), bytes.size() - 100).ok());
  BinaryLoader loader(scratch_dir());
  auto table = loader.LoadDirectory(tiles_dir());
  ASSERT_EQ(table.status().code(), StatusCode::kCorruption);
  EXPECT_NE(table.status().message().find(victim), std::string::npos)
      << table.status().message();
  EXPECT_TRUE(ScratchFiles().empty());
}

TEST_F(LoaderTest, CutLazChunkAmongGoodTilesFailsAndCleansUp) {
  // The victim's payload size matches its file, so it opens; the cut chunk
  // fails mid-stream, after its first chunk went into its dumps.
  std::string laz_dir = tmp_.File("laz_tiles");
  ASSERT_TRUE(MakeDir(laz_dir).ok());
  ASSERT_TRUE(gen_->WriteTileDirectory(laz_dir, /*compress=*/true).ok());
  std::vector<std::string> files;
  ASSERT_TRUE(ListFiles(laz_dir, ".laz", &files).ok());
  ASSERT_GE(files.size(), 3u);
  const std::string& victim = files[files.size() / 2];
  CutLazPayload(victim);
  LasTileReader reader;
  ASSERT_TRUE(reader.Open(victim).ok());
  BinaryLoader loader(scratch_dir());
  auto table = loader.LoadDirectory(laz_dir);
  ASSERT_EQ(table.status().code(), StatusCode::kCorruption);
  EXPECT_NE(table.status().message().find(victim), std::string::npos)
      << table.status().message();
  EXPECT_TRUE(ScratchFiles().empty());
}

TEST_F(LoaderTest, CutLazTileStagesNothing) {
  // A tile that fails part way through leaves the appender's staging as
  // it was, so a later commit publishes only the rows staged before it.
  std::string laz_dir = tmp_.File("laz_tiles");
  ASSERT_TRUE(MakeDir(laz_dir).ok());
  ASSERT_TRUE(gen_->WriteTileDirectory(laz_dir, /*compress=*/true).ok());
  std::vector<std::string> files;
  ASSERT_TRUE(ListFiles(laz_dir, ".laz", &files).ok());
  ASSERT_GE(files.size(), 2u);
  CutLazPayload(files[1]);
  auto live = LiveTable::Create(
      std::make_shared<FlatTable>("ahn2", LasPointSchema()));
  ASSERT_TRUE(live.ok()) << live.status().ToString();
  TableAppender appender(*live);
  ASSERT_TRUE(appender.StageLasFile(files[0]).ok());
  const uint64_t staged = appender.staged_rows();
  EXPECT_GT(staged, 0u);
  EXPECT_EQ(appender.StageLasFile(files[1]).code(), StatusCode::kCorruption);
  EXPECT_EQ(appender.staged_rows(), staged);
  ASSERT_TRUE(appender.Commit().ok());
  EXPECT_EQ((*live)->Pin().table->num_rows(), staged);
}

TEST_F(LoaderTest, InjectedWriteFailureFailsLoadAndCleansUp) {
  auto& fi = FaultInjector::Global();
  BinaryLoader loader(scratch_dir());
  fi.StartCounting();
  ASSERT_TRUE(loader.LoadDirectory(tiles_dir()).ok());
  const uint64_t total = fi.StopCounting();
  ASSERT_GT(total, 0u);
  // From op k on every file operation fails and op k, if a write, lands
  // only a torn prefix: the device died mid-load.
  for (uint64_t k : {uint64_t{1}, total / 3, 2 * total / 3}) {
    fi.ArmTornWrite(k, 5);
    auto table = loader.LoadDirectory(tiles_dir());
    fi.Disarm();
    EXPECT_FALSE(table.ok()) << "op " << k << " of " << total;
    EXPECT_TRUE(ScratchFiles().empty()) << "op " << k;
  }
}

TEST_F(LoaderTest, CsvLoaderMatchesBinaryLoaderExactly) {
  BinaryLoader bloader(scratch_dir());
  CsvLoader cloader(scratch_dir());
  auto bt = bloader.LoadDirectory(tiles_dir());
  auto ct = cloader.LoadDirectory(tiles_dir());
  ASSERT_TRUE(bt.ok());
  ASSERT_TRUE(ct.ok());
  // CSV doubles are written with %.17g (round-trip exact), so the two load
  // paths must produce bit-identical tables.
  ExpectTablesEqual(**bt, **ct);
}

TEST_F(LoaderTest, CompressedTilesLoadIdentically) {
  std::string laz_dir = tmp_.File("laz_tiles");
  ASSERT_TRUE(MakeDir(laz_dir).ok());
  ASSERT_TRUE(gen_->WriteTileDirectory(laz_dir, /*compress=*/true).ok());
  BinaryLoader loader(scratch_dir());
  auto table = loader.LoadDirectory(laz_dir);
  ASSERT_TRUE(table.ok());
  ExpectTablesEqual(*reference_, **table);
}

TEST_F(LoaderTest, ConvertToDumpsProduces26Files) {
  std::vector<std::string> files;
  ASSERT_TRUE(ListFiles(tiles_dir(), ".las", &files).ok());
  ASSERT_FALSE(files.empty());
  BinaryLoader loader(scratch_dir());
  auto dumps = loader.ConvertToDumps(files[0], "t0");
  ASSERT_TRUE(dumps.ok());
  auto header = ReadLasHeader(files[0]);
  ASSERT_TRUE(header.ok());
  EXPECT_EQ(dumps->rows, header->point_count);
  ASSERT_EQ(dumps->paths.size(), kLasAttributeCount);
  for (size_t c = 0; c < kLasAttributeCount; ++c) {
    auto size = FileSizeBytes(dumps->paths[c]);
    ASSERT_TRUE(size.ok());
    EXPECT_EQ(*size, dumps->rows * DataTypeSize(LasPointFields()[c].type));
  }
}

TEST_F(LoaderTest, EmptyDirectoryIsNotFound) {
  std::string empty = tmp_.File("empty");
  ASSERT_TRUE(MakeDir(empty).ok());
  BinaryLoader loader(scratch_dir());
  EXPECT_EQ(loader.LoadDirectory(empty).status().code(),
            StatusCode::kNotFound);
  CsvLoader cloader(scratch_dir());
  EXPECT_EQ(cloader.LoadDirectory(empty).status().code(),
            StatusCode::kNotFound);
}

TEST_F(LoaderTest, CorruptTileSurfacesError) {
  std::string bad_dir = tmp_.File("bad");
  ASSERT_TRUE(MakeDir(bad_dir).ok());
  ASSERT_TRUE(WriteFileBytes(bad_dir + "/junk.las", "GARBAGE!", 8).ok());
  BinaryLoader loader(scratch_dir());
  EXPECT_EQ(loader.LoadDirectory(bad_dir).status().code(),
            StatusCode::kCorruption);
}

TEST_F(LoaderTest, StatsPhasesAllPopulated) {
  BinaryLoader loader(scratch_dir());
  LoadStats stats;
  ASSERT_TRUE(loader.LoadDirectory(tiles_dir(), &stats).ok());
  EXPECT_GT(stats.read_seconds, 0.0);
  EXPECT_GT(stats.convert_seconds, 0.0);
  EXPECT_GT(stats.append_seconds, 0.0);
}

}  // namespace
}  // namespace geocol
