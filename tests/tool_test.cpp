// End-to-end smoke tests of the geocol CLI: each subcommand is exercised
// on a temporary workspace via std::system. The binary path is injected at
// compile time (GEOCOL_TOOL_PATH).
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "columns/column_file.h"
#include "core/imprints_io.h"
#include "simd/dispatch.h"
#include "util/binary_io.h"
#include "util/crc32c.h"
#include "util/tempdir.h"

namespace geocol {
namespace {

#ifndef GEOCOL_TOOL_PATH
#define GEOCOL_TOOL_PATH "geocol"
#endif

int RunTool(const std::string& args, std::string* out_path = nullptr,
        TempDir* tmp = nullptr) {
  static int counter = 0;
  std::string capture =
      tmp != nullptr ? tmp->File("out" + std::to_string(counter++) + ".txt")
                     : "/dev/null";
  if (out_path != nullptr) *out_path = capture;
  std::string cmd = std::string(GEOCOL_TOOL_PATH) + " " + args + " > " +
                    capture + " 2>&1";
  int rc = std::system(cmd.c_str());
  return rc;
}

std::string Slurp(const std::string& path) {
  std::vector<uint8_t> bytes;
  if (!ReadFileBytes(path, &bytes).ok()) return "";
  return std::string(bytes.begin(), bytes.end());
}

class ToolTest : public ::testing::Test {
 protected:
  // One workspace for the whole fixture run, built once.
  static void SetUpTestSuite() {
    tmp_ = new TempDir("tool");
    ASSERT_EQ(RunTool("generate " + tmp_->File("tiles") + " --points 40000 " +
                      "--layers " + tmp_->File("layers"),
                  nullptr, tmp_),
              0);
    ASSERT_EQ(RunTool("load " + tmp_->File("tiles") + " " + tmp_->File("table"),
                  nullptr, tmp_),
              0);
  }
  static void TearDownTestSuite() {
    delete tmp_;
    tmp_ = nullptr;
  }
  static TempDir* tmp_;
};

TempDir* ToolTest::tmp_ = nullptr;

TEST_F(ToolTest, NoArgsShowsUsage) {
  EXPECT_NE(RunTool(""), 0);
  EXPECT_NE(RunTool("frobnicate"), 0);
}

TEST_F(ToolTest, GenerateProducedTilesAndLayers) {
  std::vector<std::string> tiles, layers;
  ASSERT_TRUE(ListFiles(tmp_->File("tiles"), ".las", &tiles).ok());
  EXPECT_FALSE(tiles.empty());
  ASSERT_TRUE(ListFiles(tmp_->File("layers"), ".layer", &layers).ok());
  EXPECT_EQ(layers.size(), 2u);
}

TEST_F(ToolTest, InfoListsTiles) {
  std::string out;
  ASSERT_EQ(RunTool("info " + tmp_->File("tiles"), &out, tmp_), 0);
  std::string text = Slurp(out);
  EXPECT_NE(text.find("TOTAL:"), std::string::npos);
  EXPECT_NE(text.find("pts"), std::string::npos);
}

TEST_F(ToolTest, LoadPersistedQueryableTable) {
  EXPECT_TRUE(PathExists(tmp_->File("table") + "/schema.gct"));
  std::string out;
  ASSERT_EQ(RunTool("query " + tmp_->File("table") +
                    " \"SELECT COUNT(*) FROM ahn2\"",
                &out, tmp_),
            0);
  std::string text = Slurp(out);
  EXPECT_NE(text.find("COUNT(*)"), std::string::npos);
  EXPECT_NE(text.find("(1 rows)"), std::string::npos);
}

TEST_F(ToolTest, QueryWithLayersAndProfile) {
  std::string out;
  ASSERT_EQ(
      RunTool("query " + tmp_->File("table") +
              " \"SELECT COUNT(*) FROM ahn2 WHERE NEAR(urban_atlas, 12210, "
              "15)\" --layers " + tmp_->File("layers") + " --profile",
          &out, tmp_),
      0);
  std::string text = Slurp(out);
  EXPECT_NE(text.find("plan for:"), std::string::npos);
  EXPECT_NE(text.find("TOTAL"), std::string::npos);
}

TEST_F(ToolTest, QueryErrorsSurface) {
  std::string out;
  EXPECT_NE(RunTool("query " + tmp_->File("table") +
                    " \"SELECT bogus FROM ahn2\"",
                &out, tmp_),
            0);
  EXPECT_NE(Slurp(out).find("error:"), std::string::npos);
}

TEST_F(ToolTest, SortAndIndexThenQueryStillWorks) {
  ASSERT_EQ(RunTool("sort " + tmp_->File("tiles"), nullptr, tmp_), 0);
  ASSERT_EQ(RunTool("index " + tmp_->File("tiles"), nullptr, tmp_), 0);
  std::vector<std::string> lax;
  ASSERT_TRUE(ListFiles(tmp_->File("tiles"), ".lax", &lax).ok());
  EXPECT_FALSE(lax.empty());
}

TEST_F(ToolTest, CompressedLoadRoundTrip) {
  ASSERT_EQ(RunTool("load " + tmp_->File("tiles") + " " + tmp_->File("ctable") +
                    " --compressed",
                nullptr, tmp_),
            0);
  std::vector<std::string> gcz;
  ASSERT_TRUE(ListFiles(tmp_->File("ctable"), ".gcz", &gcz).ok());
  EXPECT_EQ(gcz.size(), 26u);
  std::string out, paged_out;
  ASSERT_EQ(RunTool("query " + tmp_->File("ctable") +
                    " \"SELECT COUNT(*) FROM ahn2\"",
                &out, tmp_),
            0);
  EXPECT_NE(Slurp(out).find("(1 rows)"), std::string::npos);
  // The GPC1 table opens paged too, with the same answer.
  ASSERT_EQ(RunTool("query " + tmp_->File("ctable") +
                    " \"SELECT COUNT(*) FROM ahn2\" --paged",
                &paged_out, tmp_),
            0);
  EXPECT_EQ(Slurp(out).substr(Slurp(out).find('\n')),
            Slurp(paged_out).substr(Slurp(paged_out).find('\n')));
  ASSERT_EQ(RunTool("verify " + tmp_->File("ctable"), &out, tmp_), 0);
  EXPECT_NE(Slurp(out).find("all checks passed"), std::string::npos)
      << Slurp(out);
}

// Formats nothing writes any more: GCL1 columns, GCT1 manifests,
// whole-column GCC1/GCC2 .gcz files and GIM1 imprint sidecars. Each is
// rejected as Corruption naming its path, and `geocol verify` fails on a
// table holding one. A GIM1 sidecar is quarantined and rebuilt on use.
TEST_F(ToolTest, RetiredFormatsAreRejected) {
  const std::vector<double> values = {3, 1, 4, 1, 5, 9, 2, 6};
  ColumnPtr x = Column::FromVector("x", values);
  auto append = [](std::vector<uint8_t>* out, const void* data, size_t n) {
    const auto* p = static_cast<const uint8_t*>(data);
    out->insert(out->end(), p, p + n);
  };
  // A v1 column: magic | type u8 | [codec u8 (raw)] | count u64 | values.
  auto v1_column = [&](const char* magic, bool with_codec) {
    std::vector<uint8_t> out(magic, magic + 4);
    out.push_back(static_cast<uint8_t>(DataType::kFloat64));
    if (with_codec) out.push_back(0);
    const uint64_t count = values.size();
    append(&out, &count, sizeof(count));
    append(&out, values.data(), values.size() * sizeof(double));
    return out;
  };
  std::vector<uint8_t> gcc2 = v1_column("GCC2", true);
  const uint32_t crc = Crc32c(gcc2.data(), gcc2.size());
  append(&gcc2, &crc, sizeof(crc));
  // A v1 manifest: magic | table name | ncols | {name, type}, no footer.
  BufferWriter gct1;
  gct1.WriteBytes("GCT1", 4);
  gct1.WriteString("pts");
  gct1.WriteScalar<uint32_t>(1);
  gct1.WriteString("x");
  gct1.WriteScalar<uint8_t>(static_cast<uint8_t>(DataType::kFloat64));
  // A GIM1 sidecar is the GIM2 body minus the fingerprint and footer.
  std::vector<uint8_t> gim1 = {'G', 'I', 'M', '1'};
  {
    auto ix = ImprintsIndex::Build(*x);
    ASSERT_TRUE(ix.ok());
    const std::string gim2 = tmp_->File("x-gim2.gim");
    ASSERT_TRUE(WriteImprintsFile(*ix, gim2, ColumnFingerprint(*x)).ok());
    std::vector<uint8_t> bytes;
    ASSERT_TRUE(ReadFileBytes(gim2, &bytes).ok());
    gim1.insert(gim1.end(), bytes.begin() + 8, bytes.end() - 4);
  }

  const struct {
    const char* magic;
    const char* file;  // where the fixture lands in the table dir
    std::vector<uint8_t> bytes;
  } cases[] = {
      {"GCL1", "x.gcl", v1_column("GCL1", false)},
      {"GCT1", "schema.gct", gct1.buffer()},
      {"GCC1", "x.gcz", v1_column("GCC1", true)},
      {"GCC2", "x.gcz", gcc2},
      {"GIM1", "x.gim", gim1},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.magic);
    const std::string dir = tmp_->File(std::string("retired-") + c.magic);
    FlatTable table("pts");
    ASSERT_TRUE(table.AddColumn(x).ok());
    ASSERT_TRUE(WriteTableDir(table, dir).ok());
    const std::string path = dir + "/" + c.file;
    ASSERT_TRUE(WriteFileBytes(path, c.bytes.data(), c.bytes.size()).ok());

    Status st;
    const std::string file = c.file;
    if (file == "schema.gct") {
      st = ReadTableManifest(dir).status();
    } else if (file == "x.gim") {
      st = ReadImprintsFile(path).status();
    } else {
      // Point the manifest's only column at the fixture.
      auto m = ReadTableManifest(dir);
      ASSERT_TRUE(m.ok());
      m->columns[0].filename = file;
      ASSERT_TRUE(WriteTableManifest(dir, *m).ok());
      st = ReadColumnFile(path, "x").status();
      EXPECT_EQ(ReadTableDir(dir).status().code(), StatusCode::kCorruption);
    }
    EXPECT_EQ(st.code(), StatusCode::kCorruption) << st.ToString();
    EXPECT_NE(st.message().find(path), std::string::npos) << st.ToString();

    std::string out;
    EXPECT_NE(RunTool("verify " + dir, &out, tmp_), 0);
    EXPECT_NE(Slurp(out).find("CORRUPT"), std::string::npos) << Slurp(out);

    if (file == "x.gim") {
      auto rebuilt = LoadOrBuildImprints(*x, path);
      ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
      EXPECT_TRUE(PathExists(path + ".quarantined"));
      ImprintsFileMeta meta;
      ASSERT_TRUE(ReadImprintsFile(path, &meta).ok());
      EXPECT_EQ(meta.column_fingerprint, ColumnFingerprint(*x));
    }
  }
}

TEST_F(ToolTest, RasterWritesPpm) {
  std::string ppm = tmp_->File("dsm.ppm");
  ASSERT_EQ(RunTool("raster " + tmp_->File("table") + " " + ppm + " --cols 64",
                nullptr, tmp_),
            0);
  auto size = FileSizeBytes(ppm);
  ASSERT_TRUE(size.ok());
  EXPECT_GT(*size, 64u * 3);
  std::vector<uint8_t> head;
  BinaryReader r;
  ASSERT_TRUE(r.Open(ppm).ok());
  char magic[2];
  ASSERT_TRUE(r.ReadBytes(magic, 2).ok());
  EXPECT_EQ(magic[0], 'P');
  EXPECT_EQ(magic[1], '6');
}

TEST_F(ToolTest, VerifyPassesOnCleanTable) {
  std::string out;
  ASSERT_EQ(RunTool("verify " + tmp_->File("table"), &out, tmp_), 0);
  std::string text = Slurp(out);
  EXPECT_NE(text.find("schema.gct"), std::string::npos);
  EXPECT_NE(text.find("OK"), std::string::npos);
  EXPECT_NE(text.find("all checks passed"), std::string::npos);
  EXPECT_EQ(text.find("CORRUPT"), std::string::npos) << text;
}

TEST_F(ToolTest, VerifyDetectsCorruptedColumn) {
  // A private copy of the table, so the damage cannot leak into other
  // tests' fixtures.
  std::string dir = tmp_->File("vtable");
  ASSERT_EQ(RunTool("load " + tmp_->File("tiles") + " " + dir, nullptr, tmp_),
            0);
  std::vector<std::string> gcl;
  ASSERT_TRUE(ListFiles(dir, ".gcl", &gcl).ok());
  ASSERT_FALSE(gcl.empty());
  std::vector<uint8_t> bytes;
  ASSERT_TRUE(ReadFileBytes(gcl[0], &bytes).ok());
  bytes[bytes.size() / 2] ^= 0x01;
  ASSERT_TRUE(WriteFileBytes(gcl[0], bytes.data(), bytes.size()).ok());

  std::string out;
  EXPECT_NE(RunTool("verify " + dir, &out, tmp_), 0);
  std::string text = Slurp(out);
  EXPECT_NE(text.find("CORRUPT"), std::string::npos) << text;
  EXPECT_NE(text.find("corrupt file(s)"), std::string::npos) << text;
  // The other columns still verify OK in the same report.
  EXPECT_NE(text.find("OK"), std::string::npos) << text;
}

TEST_F(ToolTest, ExplainAnalyzeRendersSpans) {
  std::string out;
  ASSERT_EQ(RunTool("query " + tmp_->File("table") +
                    " \"EXPLAIN ANALYZE SELECT COUNT(*) FROM ahn2\"",
                &out, tmp_),
            0);
  std::string text = Slurp(out);
  EXPECT_NE(text.find("explain analyze"), std::string::npos);
  EXPECT_NE(text.find("spans ("), std::string::npos);
  EXPECT_NE(text.find("filter"), std::string::npos);
  EXPECT_NE(text.find("WALL (critical path)"), std::string::npos);
}

TEST_F(ToolTest, MetricsPrometheusAndJson) {
  std::string out;
  ASSERT_EQ(RunTool("metrics " + tmp_->File("table") +
                    " \"SELECT COUNT(*) FROM ahn2\"",
                &out, tmp_),
            0);
  std::string text = Slurp(out);
  EXPECT_NE(text.find("# TYPE geocol_queries_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("geocol_imprint_scans_total"), std::string::npos);
  EXPECT_NE(text.find("geocol_io_read_bytes_total"), std::string::npos);

  ASSERT_EQ(RunTool("metrics " + tmp_->File("table") + " --format json", &out,
                tmp_),
            0);
  text = Slurp(out);
  EXPECT_NE(text.find("\"counters\""), std::string::npos);
  EXPECT_NE(text.find("\"histograms\""), std::string::npos);

  EXPECT_NE(RunTool("metrics " + tmp_->File("table") + " --format xml", &out,
                tmp_),
            0);
}

TEST_F(ToolTest, TraceExportsChromeJson) {
  std::string trace = tmp_->File("trace.json");
  std::string out;
  ASSERT_EQ(RunTool("trace " + tmp_->File("table") +
                    " \"SELECT COUNT(*) FROM ahn2\" --out " + trace,
                &out, tmp_),
            0);
  std::string json = Slurp(trace);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);

  // JSONL variant to stdout: one object per line.
  ASSERT_EQ(RunTool("trace " + tmp_->File("table") +
                    " \"SELECT COUNT(*) FROM ahn2\" --jsonl",
                &out, tmp_),
            0);
  std::string text = Slurp(out);
  EXPECT_EQ(text.find('{'), 0u);
}

TEST_F(ToolTest, VerifyPrintsTelemetrySummaryWhenEnabled) {
  static int counter = 0;
  std::string capture = tmp_->File("env" + std::to_string(counter++) + ".txt");
  std::string cmd = "GEOCOL_METRICS=1 " + std::string(GEOCOL_TOOL_PATH) +
                    " verify " + tmp_->File("table") + " > " + capture +
                    " 2>&1";
  ASSERT_EQ(std::system(cmd.c_str()), 0);
  std::string text = Slurp(capture);
  EXPECT_NE(text.find("[telemetry]"), std::string::npos);
  EXPECT_NE(text.find("crc_verifies="), std::string::npos);
}

TEST_F(ToolTest, ShardBuildVerifyAndQuery) {
  std::string sharded = tmp_->File("sharded");
  std::string out;
  ASSERT_EQ(RunTool("shard " + tmp_->File("table") + " " + sharded +
                    " --shards 8",
                &out, tmp_),
            0);
  std::string text = Slurp(out);
  EXPECT_NE(text.find("8 Hilbert shards"), std::string::npos) << text;
  EXPECT_TRUE(PathExists(sharded + "/shards.gsm"));

  // verify walks the manifest and every shard directory.
  ASSERT_EQ(RunTool("verify " + sharded, &out, tmp_), 0);
  text = Slurp(out);
  EXPECT_NE(text.find("shards.gsm"), std::string::npos) << text;
  EXPECT_NE(text.find("generation 1, 8 shards"), std::string::npos) << text;
  EXPECT_NE(text.find("all checks passed"), std::string::npos) << text;
  EXPECT_EQ(text.find("CORRUPT"), std::string::npos) << text;

  // Identical COUNT through the sharded and the flat layout.
  std::string flat_out, shard_out;
  ASSERT_EQ(RunTool("query " + tmp_->File("table") +
                    " \"SELECT COUNT(*) FROM ahn2\"",
                &flat_out, tmp_),
            0);
  ASSERT_EQ(RunTool("query " + sharded + " \"SELECT COUNT(*) FROM ahn2\"",
                &shard_out, tmp_),
            0);
  EXPECT_EQ(Slurp(flat_out).substr(Slurp(flat_out).find('\n')),
            Slurp(shard_out).substr(Slurp(shard_out).find('\n')));

  // EXPLAIN ANALYZE on a viewport query surfaces the scatter-gather
  // footer with a non-zero prune count.
  ASSERT_EQ(RunTool("query " + sharded +
                    " \"EXPLAIN ANALYZE SELECT COUNT(*) FROM ahn2 WHERE "
                    "ST_Within(pt, 'BOX(85000 444000, 85010 444010)')\"",
                &out, tmp_),
            0);
  text = Slurp(out);
  EXPECT_NE(text.find("shard.route"), std::string::npos) << text;
  EXPECT_NE(text.find("shards: scanned "), std::string::npos) << text;
  EXPECT_EQ(text.find(" (0 pruned)"), std::string::npos) << text;
}

TEST_F(ToolTest, VerifyDetectsCorruptedShardColumn) {
  std::string dir = tmp_->File("vsharded");
  ASSERT_EQ(RunTool("shard " + tmp_->File("table") + " " + dir + " --shards 4",
                nullptr, tmp_),
            0);
  // Damage one column file inside the first shard directory.
  std::vector<std::string> shard_dirs;
  ASSERT_TRUE(ListFiles(dir + "/shard_0000.g1", ".gcl", &shard_dirs).ok());
  ASSERT_FALSE(shard_dirs.empty());
  std::vector<uint8_t> bytes;
  ASSERT_TRUE(ReadFileBytes(shard_dirs[0], &bytes).ok());
  bytes[bytes.size() / 2] ^= 0x01;
  ASSERT_TRUE(WriteFileBytes(shard_dirs[0], bytes.data(), bytes.size()).ok());

  std::string out;
  EXPECT_NE(RunTool("verify " + dir, &out, tmp_), 0);
  std::string text = Slurp(out);
  EXPECT_NE(text.find("CORRUPT"), std::string::npos) << text;
  // The shard-qualified label points at the damaged directory.
  EXPECT_NE(text.find("shard_0000.g1/"), std::string::npos) << text;
}

TEST_F(ToolTest, ParallelLoadMatchesSequential) {
  ASSERT_EQ(RunTool("load " + tmp_->File("tiles") + " " + tmp_->File("ptable"),
                    nullptr, tmp_),
            0);
  // Both loads keep file order, so even AVG (row-order dependent,
  // bit-wise) agrees.
  std::string out1, out2;
  ASSERT_EQ(RunTool("query " + tmp_->File("table") +
                    " \"SELECT COUNT(*), MIN(z), MAX(z), AVG(z) FROM ahn2\"",
                &out1, tmp_),
            0);
  ASSERT_EQ(RunTool("query " + tmp_->File("ptable") +
                    " \"SELECT COUNT(*), MIN(z), MAX(z), AVG(z) FROM ahn2\"",
                &out2, tmp_),
            0);
  // Identical result rows (the first line after the header separator).
  EXPECT_EQ(Slurp(out1).substr(Slurp(out1).find('\n')),
            Slurp(out2).substr(Slurp(out2).find('\n')));
}

TEST_F(ToolTest, FlightRecorderOnByDefaultAndNoFlightOptsOut) {
  const std::string on = tmp_->File("flight_on");
  const std::string off = tmp_->File("flight_off");
  for (const std::string& dir : {on, off}) {
    ASSERT_EQ(RunTool("load " + tmp_->File("tiles") + " " + dir, nullptr,
                      tmp_),
              0);
  }
  const std::string sql = " \"SELECT COUNT(*) FROM ahn2\"";
  ASSERT_EQ(RunTool("query " + on + sql, nullptr, tmp_), 0);
  ASSERT_EQ(RunTool("query " + off + sql + " --no-flight", nullptr, tmp_), 0);
  EXPECT_TRUE(PathExists(on + "/flight/flight.gfr"));
  EXPECT_FALSE(PathExists(off + "/flight/flight.gfr"));
}

// The third run of a statement is the first result-cache hit (run 1
// misses, run 2 is admitted) when the table is registered with a cache,
// and no run hits when it is registered without one.
TEST_F(ToolTest, CacheSubcommandHitsOnlyWithABudget) {
  const std::string cmd =
      "cache " + tmp_->File("table") +
      " \"SELECT COUNT(*) FROM ahn2 WHERE x BETWEEN 85020 AND 85050 AND y "
      "BETWEEN 444020 AND 444050\" --repeat 3 --no-flight --budget-mb ";
  auto run_line = [](const std::string& text, int run) {
    const std::string tag = "run " + std::to_string(run) + ":";
    const size_t at = text.find(tag);
    return at == std::string::npos
               ? std::string()
               : text.substr(at, text.find('\n', at) - at);
  };
  std::string out;
  ASSERT_EQ(RunTool(cmd + "32", &out, tmp_), 0);
  std::string text = Slurp(out);
  EXPECT_EQ(run_line(text, 2).find("[cache hit]"), std::string::npos) << text;
  EXPECT_NE(run_line(text, 3).find("[cache hit]"), std::string::npos) << text;
  ASSERT_EQ(RunTool(cmd + "0", &out, tmp_), 0);
  text = Slurp(out);
  EXPECT_NE(run_line(text, 3).find("run 3:"), std::string::npos) << text;
  EXPECT_EQ(text.find("[cache hit]"), std::string::npos) << text;
}

// `geocol top` is the slow-query log: its slowest section lists recorded
// statements by text.
TEST_F(ToolTest, TopListsSlowestRecordedStatements) {
  const std::string dir = tmp_->File("top_table");
  ASSERT_EQ(RunTool("load " + tmp_->File("tiles") + " " + dir, nullptr, tmp_),
            0);
  const std::string q1 = "SELECT COUNT(*) FROM ahn2";
  const std::string q2 =
      "SELECT AVG(z) FROM ahn2 WHERE x BETWEEN 85010 AND 85040";
  ASSERT_EQ(RunTool("query " + dir + " \"" + q1 + "\"", nullptr, tmp_), 0);
  ASSERT_EQ(RunTool("query " + dir + " \"" + q2 + "\"", nullptr, tmp_), 0);
  std::string out;
  ASSERT_EQ(RunTool("top " + dir + " --once", &out, tmp_), 0);
  const std::string text = Slurp(out);
  const size_t slowest = text.find("slowest 2 of 2:");
  ASSERT_NE(slowest, std::string::npos) << text;
  EXPECT_NE(text.find(q1, slowest), std::string::npos) << text;
  EXPECT_NE(text.find(q2, slowest), std::string::npos) << text;
}

// An unrecognised GEOCOL_SIMD value (here the retired "sse2" tier) is
// ignored with one warning naming the value and the level used instead.
TEST_F(ToolTest, SimdWarnsOnUnrecognisedOverride) {
  ASSERT_EQ(::setenv("GEOCOL_SIMD", "sse2", 1), 0);
  std::string out;
  const int rc = RunTool("simd", &out, tmp_);
  ::unsetenv("GEOCOL_SIMD");
  ASSERT_EQ(rc, 0);
  const std::string text = Slurp(out);
  const std::string level =
      simd::SimdLevelName(simd::MaxSupportedSimdLevel());
  const size_t warning = text.find("ignoring unrecognised GEOCOL_SIMD");
  ASSERT_NE(warning, std::string::npos) << text;
  EXPECT_EQ(text.find("ignoring unrecognised", warning + 1), std::string::npos)
      << text;
  EXPECT_NE(text.find("value=sse2 level=" + level), std::string::npos)
      << text;
  EXPECT_NE(text.find("active dispatch level: " + level + "\n"),
            std::string::npos)
      << text;
}

}  // namespace
}  // namespace geocol
