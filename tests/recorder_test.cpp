// Flight recorder tests: event round-trip, crash-safe log prefix recovery
// (truncation sweep + bit flips), rotation, heat drain semantics, and the
// end-to-end contract behind `geocol replay` — events recorded through a
// Session carry result digests that re-execution reproduces bit-for-bit.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "gis/catalog.h"
#include "pointcloud/generator.h"
#include "sql/executor.h"
#include "sql/session.h"
#include "telemetry/heat.h"
#include "telemetry/metrics.h"
#include "telemetry/recorder.h"
#include "util/binary_io.h"
#include "util/tempdir.h"

namespace geocol {
namespace {

using telemetry::DeserializeEvent;
using telemetry::EventToJson;
using telemetry::FlightRecorder;
using telemetry::QueryEvent;
using telemetry::ReadFlightLog;
using telemetry::ReadFlightLogWithRotation;
using telemetry::SerializeEvent;
using telemetry::TruncateToValidPrefix;

/// A fully populated event with every field keyed off `i`, so prefix
/// recovery tests can identify which events survived.
QueryEvent MakeEvent(int i) {
  QueryEvent ev;
  ev.start_unix_nanos = 1700000000000000000LL + i;
  ev.wall_nanos = 1000 + i;
  ev.query = "SELECT COUNT(*) FROM t WHERE z > " + std::to_string(i);
  ev.table = "t";
  ev.generation = 3;
  ev.sharded = (i % 2) == 0;
  ev.column_epochs = {1, 2, static_cast<uint64_t>(i)};
  ev.shards_total = 16;
  ev.shards_scanned = 4;
  ev.shards_pruned = 11;
  ev.shards_covered = 1;
  for (int t = 0; t < 3; ++t) {
    ev.cache_hits[t] = static_cast<uint64_t>(10 * t + i);
    ev.cache_misses[t] = static_cast<uint64_t>(t);
  }
  ev.chunk_faults = 7;
  ev.chunk_cache_hits = 21;
  ev.io_read_bytes = 1 << 20;
  ev.imprint_scans = 2;
  ev.imprint_cachelines_probed = 512;
  ev.imprint_cachelines_full = 100;
  ev.imprint_values_checked = 4096;
  ev.rows_out = static_cast<uint64_t>(i);
  ev.ok = true;
  ev.digest_valid = true;
  ev.result_digest = 0xdeadbeefu + static_cast<uint32_t>(i);
  ev.span_nanos = {{"engine.select_in_box", 500}, {"sql.parse", 20}};
  ev.critical_path_nanos = 900;
  ev.shard_heat.push_back({static_cast<uint32_t>(i), 1, 0, 100});
  ev.chunk_heat.push_back({"/data/x.gcol", 5, 3, 1});
  return ev;
}

TEST(QueryEventTest, SerializeDeserializeRoundTrip) {
  QueryEvent in = MakeEvent(42);
  in.ok = false;
  in.error = "boom: \"quoted\"\npath\\seg";
  auto out = DeserializeEvent(SerializeEvent(in));
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->start_unix_nanos, in.start_unix_nanos);
  EXPECT_EQ(out->wall_nanos, in.wall_nanos);
  EXPECT_EQ(out->query, in.query);
  EXPECT_EQ(out->table, in.table);
  EXPECT_EQ(out->generation, in.generation);
  EXPECT_EQ(out->sharded, in.sharded);
  EXPECT_EQ(out->column_epochs, in.column_epochs);
  EXPECT_EQ(out->shards_total, in.shards_total);
  EXPECT_EQ(out->shards_scanned, in.shards_scanned);
  EXPECT_EQ(out->shards_pruned, in.shards_pruned);
  EXPECT_EQ(out->shards_covered, in.shards_covered);
  for (int t = 0; t < 3; ++t) {
    EXPECT_EQ(out->cache_hits[t], in.cache_hits[t]);
    EXPECT_EQ(out->cache_misses[t], in.cache_misses[t]);
  }
  EXPECT_EQ(out->chunk_faults, in.chunk_faults);
  EXPECT_EQ(out->chunk_cache_hits, in.chunk_cache_hits);
  EXPECT_EQ(out->io_read_bytes, in.io_read_bytes);
  EXPECT_EQ(out->imprint_scans, in.imprint_scans);
  EXPECT_EQ(out->imprint_cachelines_probed, in.imprint_cachelines_probed);
  EXPECT_EQ(out->imprint_cachelines_full, in.imprint_cachelines_full);
  EXPECT_EQ(out->imprint_values_checked, in.imprint_values_checked);
  EXPECT_EQ(out->rows_out, in.rows_out);
  EXPECT_EQ(out->ok, in.ok);
  EXPECT_EQ(out->error, in.error);
  EXPECT_EQ(out->digest_valid, in.digest_valid);
  EXPECT_EQ(out->result_digest, in.result_digest);
  EXPECT_EQ(out->span_nanos, in.span_nanos);
  EXPECT_EQ(out->critical_path_nanos, in.critical_path_nanos);
  ASSERT_EQ(out->shard_heat.size(), 1u);
  EXPECT_EQ(out->shard_heat[0].shard, 42u);
  EXPECT_EQ(out->shard_heat[0].rows, 100u);
  ASSERT_EQ(out->chunk_heat.size(), 1u);
  EXPECT_EQ(out->chunk_heat[0].file, "/data/x.gcol");
  EXPECT_EQ(out->chunk_heat[0].faults, 1u);
}

TEST(QueryEventTest, DeserializeRejectsGarbage) {
  EXPECT_FALSE(DeserializeEvent({}).ok());
  EXPECT_FALSE(DeserializeEvent({1, 2, 3}).ok());
  // Trailing bytes after a valid image are corruption, not slack.
  std::vector<uint8_t> img = SerializeEvent(MakeEvent(1));
  img.push_back(0);
  EXPECT_FALSE(DeserializeEvent(img).ok());
  // Unsupported version.
  std::vector<uint8_t> v2 = SerializeEvent(MakeEvent(1));
  v2[0] = 99;
  EXPECT_FALSE(DeserializeEvent(v2).ok());
}

TEST(QueryEventTest, JsonExportShape) {
  QueryEvent ev = MakeEvent(3);
  ev.query = "SELECT \"x\"\nFROM t";
  std::string j = EventToJson(ev);
  EXPECT_EQ(j.find('\n'), std::string::npos) << "JSONL must be one line";
  EXPECT_NE(j.find("\"type\": \"query_event\""), std::string::npos);
  EXPECT_NE(j.find("\"query\": \"SELECT \\\"x\\\"\\nFROM t\""),
            std::string::npos);
  EXPECT_NE(j.find("\"shards\": {\"total\": 16"), std::string::npos);
  EXPECT_NE(j.find("\"cache\": {\"selection\""), std::string::npos);
  EXPECT_NE(j.find("\"digest_valid\": true"), std::string::npos);
  EXPECT_NE(j.find("\"shard_heat\": [{\"shard\": 3"), std::string::npos);
}

class RecorderFileTest : public ::testing::Test {
 protected:
  void TearDown() override { FlightRecorder::Global().Close(); }

  /// Opens the global recorder at `path` and appends events 0..n-1.
  void Record(const std::string& path, int n,
              uint64_t max_bytes = 64ull << 20) {
    FlightRecorder::Options opt;
    opt.max_bytes = max_bytes;
    ASSERT_TRUE(FlightRecorder::Global().Open(path, opt).ok());
    for (int i = 0; i < n; ++i) {
      ASSERT_TRUE(FlightRecorder::Global().Append(MakeEvent(i)).ok());
    }
    FlightRecorder::Global().Close();
  }

  TempDir dir_{"flightrec"};
};

TEST_F(RecorderFileTest, AppendAndReadBack) {
  const std::string path = dir_.File("flight.gfr");
  Record(path, 5);
  auto events = ReadFlightLog(path);
  ASSERT_TRUE(events.ok()) << events.status().ToString();
  ASSERT_EQ(events->size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ((*events)[i].rows_out, static_cast<uint64_t>(i));
    EXPECT_EQ((*events)[i].query, MakeEvent(i).query);
  }
}

TEST_F(RecorderFileTest, ReopenAppendsAfterCleanClose) {
  const std::string path = dir_.File("flight.gfr");
  Record(path, 3);
  Record(path, 2);  // reopen resumes, does not restart
  auto events = ReadFlightLog(path);
  ASSERT_TRUE(events.ok());
  EXPECT_EQ(events->size(), 5u);
}

// The crash-safety sweep: cut the log at EVERY byte offset and require
// (a) the reader returns a clean prefix of whole events, and (b) reopening
// for append on the cut file recovers and future appends are readable.
TEST_F(RecorderFileTest, TruncationSweepRecoversValidPrefix) {
  const std::string path = dir_.File("flight.gfr");
  Record(path, 4);
  std::vector<uint8_t> bytes;
  ASSERT_TRUE(ReadFileBytes(path, &bytes).ok());

  // Frame boundaries, to check the recovered count is exactly the number
  // of fully written frames before the cut.
  std::vector<uint64_t> frame_ends;  // cumulative end offset of frame i
  {
    uint64_t pos = 8;
    while (pos < bytes.size()) {
      uint32_t len = 0;
      std::memcpy(&len, bytes.data() + pos, sizeof(len));
      pos += 8 + len;
      frame_ends.push_back(pos);
    }
    ASSERT_EQ(frame_ends.size(), 4u);
  }

  for (size_t cut = 0; cut <= bytes.size(); ++cut) {
    const std::string cut_path = dir_.File("cut.gfr");
    std::vector<uint8_t> prefix(bytes.begin(),
                                bytes.begin() + static_cast<ptrdiff_t>(cut));
    ASSERT_TRUE(WriteFileAtomic(cut_path, prefix.data(), prefix.size()).ok());

    size_t expect = 0;
    while (expect < frame_ends.size() && frame_ends[expect] <= cut) ++expect;

    auto events = ReadFlightLog(cut_path);
    ASSERT_TRUE(events.ok()) << "cut=" << cut;
    ASSERT_EQ(events->size(), expect) << "cut=" << cut;
    for (size_t i = 0; i < expect; ++i) {
      ASSERT_EQ((*events)[i].query, MakeEvent(static_cast<int>(i)).query);
    }

    // Reopen-for-append must truncate the torn tail and keep working.
    ASSERT_TRUE(FlightRecorder::Global().Open(cut_path).ok());
    ASSERT_TRUE(FlightRecorder::Global().Append(MakeEvent(99)).ok());
    FlightRecorder::Global().Close();
    auto after = ReadFlightLog(cut_path);
    ASSERT_TRUE(after.ok()) << "cut=" << cut;
    ASSERT_EQ(after->size(), expect + 1) << "cut=" << cut;
    EXPECT_EQ(after->back().rows_out, 99u);
  }
}

TEST_F(RecorderFileTest, BitFlipInTailFrameDropsOnlyThatFrame) {
  const std::string path = dir_.File("flight.gfr");
  Record(path, 3);
  std::vector<uint8_t> bytes;
  ASSERT_TRUE(ReadFileBytes(path, &bytes).ok());
  // Flip one payload byte in the last frame.
  bytes[bytes.size() - 5] ^= 0x40;
  ASSERT_TRUE(WriteFileAtomic(path, bytes.data(), bytes.size()).ok());
  auto events = ReadFlightLog(path);
  ASSERT_TRUE(events.ok());
  EXPECT_EQ(events->size(), 2u);

  auto prefix = TruncateToValidPrefix(path);
  ASSERT_TRUE(prefix.ok());
  auto size = FileSizeBytes(path);
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, *prefix);
}

TEST_F(RecorderFileTest, CorruptHeaderYieldsEmptyLogAndCleanReopen) {
  const std::string path = dir_.File("flight.gfr");
  const char junk[] = "not a flight log at all";
  ASSERT_TRUE(WriteFileAtomic(path, junk, sizeof(junk)).ok());
  auto events = ReadFlightLog(path);
  ASSERT_TRUE(events.ok());
  EXPECT_TRUE(events->empty());
  // Open rewrites a fresh header over the junk.
  ASSERT_TRUE(FlightRecorder::Global().Open(path).ok());
  ASSERT_TRUE(FlightRecorder::Global().Append(MakeEvent(1)).ok());
  FlightRecorder::Global().Close();
  auto after = ReadFlightLog(path);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->size(), 1u);
}

TEST_F(RecorderFileTest, RotationBoundsDiskAndKeepsContiguousSuffix) {
  const std::string path = dir_.File("flight.gfr");
  const uint64_t kMax = 4096;
  Record(path, 64, kMax);
  ASSERT_TRUE(PathExists(path + ".1"));
  auto cur_size = FileSizeBytes(path);
  auto old_size = FileSizeBytes(path + ".1");
  ASSERT_TRUE(cur_size.ok());
  ASSERT_TRUE(old_size.ok());
  EXPECT_LE(*cur_size, kMax);
  EXPECT_LE(*old_size, kMax);

  auto events = ReadFlightLogWithRotation(path);
  ASSERT_TRUE(events.ok());
  ASSERT_FALSE(events->empty());
  EXPECT_LT(events->size(), 64u);  // older rotations were replaced
  // Retained history is a contiguous suffix ending at the last append.
  const uint64_t first = (*events)[0].rows_out;
  for (size_t i = 0; i < events->size(); ++i) {
    EXPECT_EQ((*events)[i].rows_out, first + i);
  }
  EXPECT_EQ(events->back().rows_out, 63u);
}

TEST_F(RecorderFileTest, AppendWhenClosedFails) {
  EXPECT_FALSE(FlightRecorder::Global().enabled());
  EXPECT_FALSE(FlightRecorder::Global().Append(MakeEvent(0)).ok());
}

TEST(HeatTest, DrainReturnsAndClearsSortedDeltas) {
  telemetry::ResetHeat();
  telemetry::TouchShardHeat("t", 3, /*covered=*/false, 10);
  telemetry::TouchShardHeat("t", 1, /*covered=*/true, 5);
  telemetry::TouchShardHeat("t", 3, /*covered=*/false, 7);
  telemetry::TouchChunkHeat("b.gcol", 0, /*fault=*/true);
  telemetry::TouchChunkHeat("a.gcol", 2, /*fault=*/false);
  telemetry::TouchChunkHeat("b.gcol", 0, /*fault=*/false);

  auto shards = telemetry::DrainShardHeat();
  ASSERT_EQ(shards.size(), 2u);
  EXPECT_EQ(shards[0].shard, 1u);
  EXPECT_EQ(shards[0].covered, 1u);
  EXPECT_EQ(shards[0].rows, 5u);
  EXPECT_EQ(shards[1].shard, 3u);
  EXPECT_EQ(shards[1].scans, 2u);
  EXPECT_EQ(shards[1].rows, 17u);

  auto chunks = telemetry::DrainChunkHeat();
  ASSERT_EQ(chunks.size(), 2u);
  EXPECT_EQ(chunks[0].file, "a.gcol");
  EXPECT_EQ(chunks[1].file, "b.gcol");
  EXPECT_EQ(chunks[1].touches, 2u);
  EXPECT_EQ(chunks[1].faults, 1u);

  // Delta semantics: the drain cleared everything.
  EXPECT_TRUE(telemetry::DrainShardHeat().empty());
  EXPECT_TRUE(telemetry::DrainChunkHeat().empty());
}

// ---------------- end-to-end: Session -> log -> replay ----------------

class SessionRecordingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    AhnGeneratorOptions opts;
    opts.extent = Box(85000, 444000, 85200, 444200);
    AhnGenerator gen(opts);
    auto table = gen.GenerateTable(8000);
    ASSERT_TRUE(table.ok());
    ASSERT_TRUE(catalog_.AddPointCloud("ahn2", *table).ok());
    session_ = std::make_unique<sql::Session>(&catalog_);
  }

  void TearDown() override { FlightRecorder::Global().Close(); }

  TempDir dir_{"flightsess"};
  Catalog catalog_;
  std::unique_ptr<sql::Session> session_;
};

TEST_F(SessionRecordingTest, ExecuteRecordsEventsWithDigests) {
  const std::string path = dir_.File("flight.gfr");
  ASSERT_TRUE(FlightRecorder::Global().Open(path).ok());
  auto& tax = telemetry::MetricsRegistry::Global().GetCounter(
      "geocol_flight_overhead_nanos_total");
  const uint64_t tax_before = tax.Value();

  const std::vector<std::string> workload = {
      "SELECT COUNT(*), AVG(z) FROM ahn2",
      "SELECT x, y, z FROM ahn2 WHERE ST_Within(pt, "
      "ST_GeomFromText('BOX(85050 444050, 85100 444100)')) LIMIT 50",
      "SELECT COUNT(*) FROM ahn2 WHERE classification BETWEEN 2 AND 5",
  };
  for (const auto& q : workload) {
    ASSERT_TRUE(session_->Execute(q).ok()) << q;
  }
  // A statement that fails to plan is still recorded.
  ASSERT_FALSE(session_->Execute("SELECT z FROM no_such_table").ok());
  FlightRecorder::Global().Close();

  auto events = ReadFlightLog(path);
  ASSERT_TRUE(events.ok()) << events.status().ToString();
  ASSERT_EQ(events->size(), 4u);
  for (size_t i = 0; i < workload.size(); ++i) {
    const QueryEvent& ev = (*events)[i];
    EXPECT_EQ(ev.query, workload[i]);
    EXPECT_EQ(ev.table, "ahn2");
    EXPECT_TRUE(ev.ok);
    EXPECT_TRUE(ev.digest_valid);
    EXPECT_GT(ev.wall_nanos, 0);
    EXPECT_GT(ev.start_unix_nanos, 0);
    EXPECT_FALSE(ev.span_nanos.empty());
  }
  EXPECT_EQ((*events)[0].rows_out, 1u);   // one aggregate row
  EXPECT_EQ((*events)[1].rows_out, 50u);  // LIMIT 50
  const QueryEvent& bad = (*events)[3];
  EXPECT_FALSE(bad.ok);
  EXPECT_FALSE(bad.error.empty());
  EXPECT_FALSE(bad.digest_valid);
  // The recorder self-measures its per-statement tax (E17).
  EXPECT_GT(tax.Value(), tax_before);
}

TEST_F(SessionRecordingTest, ReplayReproducesDigestsBitForBit) {
  const std::string path = dir_.File("flight.gfr");
  ASSERT_TRUE(FlightRecorder::Global().Open(path).ok());
  const std::vector<std::string> workload = {
      "SELECT COUNT(*), AVG(z), MIN(z), MAX(z) FROM ahn2",
      "SELECT x, y, z FROM ahn2 WHERE ST_Within(pt, "
      "ST_GeomFromText('BOX(85020 444020, 85180 444180)')) LIMIT 200",
      "SELECT COUNT(*) FROM ahn2 WHERE classification BETWEEN 2 AND 5",
      "SELECT COUNT(*), AVG(z), MIN(z), MAX(z) FROM ahn2",  // cache hit path
  };
  for (const auto& q : workload) {
    ASSERT_TRUE(session_->Execute(q).ok()) << q;
  }
  FlightRecorder::Global().Close();

  auto events = ReadFlightLog(path);
  ASSERT_TRUE(events.ok());
  ASSERT_EQ(events->size(), workload.size());

  // Replay with a non-recording session (the `geocol replay` setup) and
  // compare canonical result digests bit-for-bit.
  sql::SessionOptions replay_opts;
  replay_opts.record_flight = false;
  sql::Session replayer(&catalog_, replay_opts);
  for (const QueryEvent& ev : *events) {
    ASSERT_TRUE(ev.digest_valid);
    auto rs = replayer.Execute(ev.query);
    ASSERT_TRUE(rs.ok()) << ev.query;
    EXPECT_EQ(sql::ResultSetDigest(*rs), ev.result_digest) << ev.query;
    EXPECT_EQ(rs->rows.size(), ev.rows_out) << ev.query;
  }
}

TEST_F(SessionRecordingTest, ExplainIsDigestValidButAnalyzeIsNot) {
  const std::string path = dir_.File("flight.gfr");
  ASSERT_TRUE(FlightRecorder::Global().Open(path).ok());
  ASSERT_TRUE(session_->Execute("EXPLAIN SELECT COUNT(*) FROM ahn2").ok());
  ASSERT_TRUE(
      session_->Execute("EXPLAIN ANALYZE SELECT COUNT(*) FROM ahn2").ok());
  FlightRecorder::Global().Close();
  auto events = ReadFlightLog(path);
  ASSERT_TRUE(events.ok());
  ASSERT_EQ(events->size(), 2u);
  EXPECT_TRUE((*events)[0].digest_valid);   // plan text is deterministic
  EXPECT_FALSE((*events)[1].digest_valid);  // embeds timings
}

// A statement that builds the imprint indexes records the build as its own
// filter.build span ahead of the scan, so the profile's TOTAL and the
// recorded span_nanos account for it; a warm statement has no build span.
TEST_F(SessionRecordingTest, ColdImprintBuildIsItsOwnSpan) {
  const std::string path = dir_.File("flight.gfr");
  ASSERT_TRUE(FlightRecorder::Global().Open(path).ok());
  auto span_index = [](const QueryProfile& profile, const std::string& name) {
    const auto& ops = profile.operators();
    for (size_t i = 0; i < ops.size(); ++i) {
      if (ops[i].name == name) return static_cast<int>(i);
    }
    return -1;
  };

  ASSERT_TRUE(session_->Execute("SELECT COUNT(*) FROM ahn2").ok());
  const QueryProfile cold = session_->last_profile();
  const int build = span_index(cold, "filter.build");
  ASSERT_GE(build, 0) << cold.ToString();
  EXPECT_LT(build, span_index(cold, "filter.imprints")) << cold.ToString();
  const int64_t build_nanos = cold.operators()[build].nanos;
  EXPECT_GT(build_nanos, 0);
  EXPECT_GE(cold.TotalNanos(), build_nanos);

  ASSERT_TRUE(session_
                  ->Execute("SELECT COUNT(*) FROM ahn2 WHERE x BETWEEN 85050 "
                            "AND 85100")
                  .ok());
  const QueryProfile& warm = session_->last_profile();
  EXPECT_GE(span_index(warm, "filter.imprints"), 0) << warm.ToString();
  EXPECT_EQ(span_index(warm, "filter.build"), -1) << warm.ToString();
  FlightRecorder::Global().Close();

  auto events = ReadFlightLog(path);
  ASSERT_TRUE(events.ok()) << events.status().ToString();
  ASSERT_EQ(events->size(), 2u);
  auto recorded = [](const QueryEvent& ev) -> int64_t {
    for (const auto& [name, nanos] : ev.span_nanos) {
      if (name == "filter.build") return nanos;
    }
    return -1;
  };
  EXPECT_EQ(recorded((*events)[0]), build_nanos);
  EXPECT_EQ(recorded((*events)[1]), -1);
}

TEST_F(SessionRecordingTest, RecordFlightOffSkipsRecorder) {
  const std::string path = dir_.File("flight.gfr");
  ASSERT_TRUE(FlightRecorder::Global().Open(path).ok());
  sql::SessionOptions opts;
  opts.record_flight = false;
  sql::Session quiet(&catalog_, opts);
  ASSERT_TRUE(quiet.Execute("SELECT COUNT(*) FROM ahn2").ok());
  FlightRecorder::Global().Close();
  auto events = ReadFlightLog(path);
  ASSERT_TRUE(events.ok());
  EXPECT_TRUE(events->empty());
}

}  // namespace
}  // namespace geocol
