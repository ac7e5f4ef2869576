// Epoch-snapshot isolation unit suite (DESIGN.md §13): LiveTable /
// TableAppender semantics — pinned snapshots stay bit-identical under
// commits, appends to an empty table, bbox growth past the initial
// extent, durable reopen — plus the sharded live-append edge cases: a
// shard growing past its creation bbox, two appenders racing disjoint
// shards, and a reader whose pinned view is superseded by appends or a
// re-shard. Also proves the incremental imprint stitch is byte-identical
// to a from-scratch build, that a failed stitch quarantines + rebuilds,
// and that a commit (live or sharded) stitches even when no reader pins
// the old version.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "columns/column_file.h"
#include "columns/paged_column.h"
#include "columns/sharded_table.h"
#include "core/imprints_io.h"
#include "core/live_table.h"
#include "core/shard_router.h"
#include "core/table_appender.h"
#include "telemetry/metrics.h"
#include "util/binary_io.h"
#include "util/fault_injection.h"
#include "util/rng.h"
#include "util/tempdir.h"

namespace geocol {
namespace {

/// x/y/z point table with `n` uniform points in `extent`.
std::shared_ptr<FlatTable> MakePoints(size_t n, uint64_t seed,
                                      const Box& extent) {
  Rng rng(seed);
  std::vector<double> xs(n), ys(n), zs(n);
  for (size_t i = 0; i < n; ++i) {
    xs[i] = rng.UniformDouble(extent.min_x, extent.max_x);
    ys[i] = rng.UniformDouble(extent.min_y, extent.max_y);
    zs[i] = rng.UniformDouble(-5, 40);
  }
  auto t = std::make_shared<FlatTable>("pc");
  EXPECT_TRUE(t->AddColumn(Column::FromVector("x", xs)).ok());
  EXPECT_TRUE(t->AddColumn(Column::FromVector("y", ys)).ok());
  EXPECT_TRUE(t->AddColumn(Column::FromVector("z", zs)).ok());
  return t;
}

FlatTable MakeBatch(size_t n, uint64_t seed, const Box& extent) {
  return *MakePoints(n, seed, extent);
}

/// Brute-force oracle: global row ids of points inside `box`, reading the
/// concatenation implied by `view` (or a flat table) row by row.
std::vector<uint64_t> BruteForceInBox(const FlatTable& t, const Box& box) {
  std::vector<uint64_t> out;
  ColumnPtr x = t.column("x"), y = t.column("y");
  for (uint64_t r = 0; r < t.num_rows(); ++r) {
    if (box.Contains(Point{x->GetDouble(r), y->GetDouble(r)})) {
      out.push_back(r);
    }
  }
  return out;
}

void ExpectTablesEqual(const FlatTable& t, const FlatTable& expect) {
  ASSERT_EQ(t.num_columns(), expect.num_columns());
  for (const auto& ec : expect.columns()) {
    ColumnPtr c = t.column(ec->name());
    ASSERT_NE(c, nullptr) << ec->name();
    ASSERT_EQ(c->size(), ec->size()) << ec->name();
    ASSERT_EQ(std::memcmp(c->raw_data(), ec->raw_data(),
                          c->size() * DataTypeSize(c->type())),
              0)
        << ec->name();
  }
}

// ---------------------------------------------------------------------------
// Flat LiveTable: epoch semantics.
// ---------------------------------------------------------------------------

TEST(LiveTableTest, AppendToEmptyTablePublishesFirstRows) {
  auto schema_donor = MakePoints(1, 1, Box(0, 0, 1, 1));
  auto initial = std::make_shared<FlatTable>("pc", schema_donor->schema());
  auto live = LiveTable::Create(initial);
  ASSERT_TRUE(live.ok()) << live.status().ToString();

  EpochSnapshot s0 = (*live)->Pin();
  EXPECT_EQ(s0.epoch, 0u);
  EXPECT_EQ(s0.table->num_rows(), 0u);
  EXPECT_TRUE(s0.bbox.empty());
  // Queries against the empty epoch are legal and empty.
  auto sel0 = s0.engine->SelectInBox(Box(0, 0, 100, 100));
  ASSERT_TRUE(sel0.ok()) << sel0.status().ToString();
  EXPECT_EQ(sel0->count(), 0u);

  TableAppender app(*live);
  ASSERT_TRUE(app.StageBatch(MakeBatch(300, 2, Box(0, 0, 50, 50))).ok());
  ASSERT_TRUE(app.Commit().ok());

  EpochSnapshot s1 = (*live)->Pin();
  EXPECT_EQ(s1.epoch, 1u);
  EXPECT_EQ(s1.table->num_rows(), 300u);
  EXPECT_FALSE(s1.bbox.empty());
  auto sel1 = s1.engine->SelectInBox(Box(0, 0, 50, 50));
  ASSERT_TRUE(sel1.ok()) << sel1.status().ToString();
  EXPECT_EQ(sel1->count(), 300u);
  // The pinned epoch-0 snapshot is untouched by the publish.
  EXPECT_EQ(s0.table->num_rows(), 0u);
}

TEST(LiveTableTest, PinnedSnapshotBitIdenticalUnderCommits) {
  Box box(10, 10, 80, 80);
  auto live = LiveTable::Create(MakePoints(4000, 3, Box(0, 0, 100, 100)));
  ASSERT_TRUE(live.ok());

  EpochSnapshot s0 = (*live)->Pin();
  const uint64_t rows0 = s0.table->num_rows();
  const void* x_bytes = s0.table->column("x")->raw_data();
  auto before = s0.engine->SelectInBox(box);
  ASSERT_TRUE(before.ok());

  TableAppender app(*live);
  ASSERT_TRUE(app.StageBatch(MakeBatch(700, 4, box)).ok());
  ASSERT_TRUE(app.Commit().ok());
  EXPECT_EQ((*live)->epoch(), 1u);

  // The pinned snapshot's columns are the SAME objects, not copies — the
  // publish built a new version instead of mutating in place.
  EXPECT_EQ(s0.table->num_rows(), rows0);
  EXPECT_EQ(s0.table->column("x")->raw_data(), x_bytes);
  auto after = s0.engine->SelectInBox(box);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->row_ids, before->row_ids);

  // A fresh pin sees every appended row exactly once.
  EpochSnapshot s1 = (*live)->Pin();
  EXPECT_EQ(s1.table->num_rows(), rows0 + 700);
  auto sel1 = s1.engine->SelectInBox(box);
  ASSERT_TRUE(sel1.ok());
  EXPECT_EQ(sel1->row_ids, BruteForceInBox(*s1.table, box));
}

TEST(LiveTableTest, AppendGrowsBboxPastInitialExtent) {
  auto live = LiveTable::Create(MakePoints(1000, 5, Box(0, 0, 100, 100)));
  ASSERT_TRUE(live.ok());
  const uint64_t rows0 = (*live)->Pin().table->num_rows();

  FlatTable far_batch("pc");
  ASSERT_TRUE(
      far_batch.AddColumn(Column::FromVector("x", std::vector<double>{1000}))
          .ok());
  ASSERT_TRUE(
      far_batch.AddColumn(Column::FromVector("y", std::vector<double>{1000}))
          .ok());
  ASSERT_TRUE(
      far_batch.AddColumn(Column::FromVector("z", std::vector<double>{7}))
          .ok());
  TableAppender app(*live);
  ASSERT_TRUE(app.StageBatch(far_batch).ok());
  ASSERT_TRUE(app.Commit().ok());

  EpochSnapshot s1 = (*live)->Pin();
  EXPECT_GE(s1.bbox.max_x, 1000.0);
  EXPECT_GE(s1.bbox.max_y, 1000.0);
  auto sel = s1.engine->SelectInBox(Box(999, 999, 1001, 1001));
  ASSERT_TRUE(sel.ok()) << sel.status().ToString();
  ASSERT_EQ(sel->count(), 1u);
  EXPECT_EQ(sel->row_ids[0], rows0);
}

TEST(LiveTableTest, DurableCommitsReopenToLatestEpoch) {
  TempDir tmp;
  std::string dir = tmp.File("live");
  LiveTableOptions opts;
  opts.dir = dir;
  auto live = LiveTable::Create(MakePoints(500, 6, Box(0, 0, 100, 100)), opts);
  ASSERT_TRUE(live.ok()) << live.status().ToString();

  TableAppender app(*live);
  ASSERT_TRUE(app.StageBatch(MakeBatch(200, 7, Box(0, 0, 100, 100))).ok());
  ASSERT_TRUE(app.Commit().ok());
  ASSERT_TRUE(app.StageBatch(MakeBatch(300, 8, Box(0, 0, 100, 100))).ok());
  ASSERT_TRUE(app.Commit().ok());
  EXPECT_EQ((*live)->epoch(), 2u);

  auto reopened = LiveTable::Open(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EpochSnapshot got = (*reopened)->Pin();
  EXPECT_EQ(got.table->num_rows(), 1000u);
  ExpectTablesEqual(*got.table, *(*live)->Pin().table);
}

uint64_t ColumnBytesCopied() {
  return telemetry::MetricsRegistry::Global()
      .GetCounter("geocol_column_bytes_copied_total")
      .Value();
}

void AppendRows(const FlatTable& src, FlatTable* dst) {
  for (const ColumnPtr& col : dst->columns()) {
    const ColumnPtr& from = src.column(col->name());
    col->AppendRaw(from->raw_data(), from->size());
  }
}

/// The serial oracle of a commit chain: a fresh table holding the rows of
/// `parts` (same schema) one after the other.
FlatTable Concat(std::initializer_list<const FlatTable*> parts) {
  FlatTable out("pc", (*parts.begin())->schema());
  for (const FlatTable* part : parts) AppendRows(*part, &out);
  return out;
}

TEST(LiveTableTest, CommitsCopyOnlyTheRowsTheyAdd) {
  const Box extent(0, 0, 100, 100);
  auto base = MakePoints(100000, 21, extent);
  const FlatTable oracle_base = Concat({base.get()});
  auto live = LiveTable::Create(base);
  ASSERT_TRUE(live.ok()) << live.status().ToString();

  TableAppender app(*live);
  std::vector<FlatTable> batches;
  for (int k = 0; k < 50; ++k) {
    batches.push_back(MakeBatch(1000, 100 + k, extent));
  }
  const uint64_t copied_before = ColumnBytesCopied();
  for (const FlatTable& batch : batches) {
    ASSERT_TRUE(app.StageBatch(batch).ok());
    ASSERT_TRUE(app.Commit().ok());
  }
  const uint64_t copied = ColumnBytesCopied() - copied_before;

  EpochSnapshot last = (*live)->Pin();
  ASSERT_EQ(last.table->num_rows(), 150000u);
  FlatTable oracle = Concat({&oracle_base});
  for (const FlatTable& batch : batches) AppendRows(batch, &oracle);
  ExpectTablesEqual(*last.table, oracle);
  // The first commit moves each base column once into a buffer twice its
  // size; the other 49 commits append in place.
  EXPECT_EQ(copied, oracle_base.DataBytes());
  EXPECT_LE(copied, 2 * last.table->DataBytes());
}

TEST(LiveTableTest, FailedDurableWriteAfterInPlaceClaimKeepsEpochAndRetries) {
  TempDir tmp;
  const Box extent(0, 0, 100, 100);
  LiveTableOptions opts;
  opts.dir = tmp.File("live");
  auto base = MakePoints(2000, 31, extent);
  const FlatTable oracle_base = Concat({base.get()});
  auto live = LiveTable::Create(base, opts);
  ASSERT_TRUE(live.ok()) << live.status().ToString();

  // The first commit regrows the columns, leaving room past the tip.
  TableAppender app(*live);
  const FlatTable b1 = MakeBatch(500, 32, extent);
  ASSERT_TRUE(app.StageBatch(b1).ok());
  ASSERT_TRUE(app.Commit().ok());
  const FlatTable oracle1 = Concat({&oracle_base, &b1});
  EpochSnapshot s1 = (*live)->Pin();

  // The second commit claims the tip in place, then its durable write
  // fails: nothing is published and the pinned epoch keeps its bytes.
  const FlatTable b2 = MakeBatch(300, 33, extent);
  ASSERT_TRUE(app.StageBatch(b2).ok());
  const uint64_t copied = ColumnBytesCopied();
  FaultInjector::Global().ArmCrashAtOp(1);
  Status st = app.Commit();
  FaultInjector::Global().Disarm();
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(ColumnBytesCopied(), copied);
  EXPECT_EQ((*live)->epoch(), 1u);
  ExpectTablesEqual(*(*live)->Pin().table, oracle1);
  ExpectTablesEqual(*s1.table, oracle1);

  // The staged rows survive; the retry finds the tip taken and copies.
  ASSERT_EQ(app.staged_rows(), b2.num_rows());
  ASSERT_TRUE(app.Commit().ok());
  EXPECT_EQ(ColumnBytesCopied() - copied, oracle1.DataBytes());
  const FlatTable oracle2 = Concat({&oracle1, &b2});
  EXPECT_EQ((*live)->epoch(), 2u);
  ExpectTablesEqual(*(*live)->Pin().table, oracle2);
  ExpectTablesEqual(*s1.table, oracle1);

  auto reopened = LiveTable::Open(opts.dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  ExpectTablesEqual(*(*reopened)->Pin().table, oracle2);
}

/// Like ExpectTablesEqual, but reads `t` through chunk pins, so it also
/// covers paged tables.
void ExpectPinnedBytesEqual(const FlatTable& t, const FlatTable& expect) {
  ASSERT_EQ(t.num_columns(), expect.num_columns());
  for (const auto& ec : expect.columns()) {
    ColumnPtr c = t.column(ec->name());
    ASSERT_NE(c, nullptr) << ec->name();
    ASSERT_EQ(c->type(), ec->type()) << ec->name();
    ASSERT_EQ(c->size(), ec->size()) << ec->name();
    for (size_t k = 0; k < c->num_chunks(); ++k) {
      auto pin = c->PinChunk(k);
      ASSERT_TRUE(pin.ok()) << pin.status().ToString();
      EXPECT_EQ(std::memcmp(pin->data,
                            ec->raw_data() + pin->first_row * ec->width(),
                            pin->row_count * ec->width()),
                0)
          << ec->name() << " chunk " << k;
    }
  }
}

TEST(LiveTableTest, CompressedTableOpensResidentPagedAndLive) {
  // 100k doubles span four 256 KiB chunks per column.
  const Box extent(0, 0, 100, 100);
  auto source = MakePoints(100000, 11, extent);
  TempDir tmp;
  std::string dir = tmp.File("gpc");
  ASSERT_TRUE(WriteChunkedCompressedTableDir(*source, dir).ok());

  auto resident = ReadTableDir(dir);
  ASSERT_TRUE(resident.ok()) << resident.status().ToString();
  ExpectPinnedBytesEqual(*resident, *source);

  auto paged = ReadTableDirPaged(dir);
  ASSERT_TRUE(paged.ok()) << paged.status().ToString();
  ASSERT_TRUE(paged->column("x")->paged());
  ExpectPinnedBytesEqual(*paged, *source);

  auto live = LiveTable::Open(dir);
  ASSERT_TRUE(live.ok()) << live.status().ToString();
  ExpectPinnedBytesEqual(*(*live)->Pin().table, *source);

  // One commit rewrites the table; it reopens as source + batch.
  FlatTable batch = MakeBatch(500, 12, extent);
  TableAppender app(*live);
  ASSERT_TRUE(app.StageBatch(batch).ok());
  ASSERT_TRUE(app.Commit().ok());
  auto expect = MakePoints(100000, 11, extent);
  for (const auto& col : expect->columns()) {
    col->AppendRaw(batch.column(col->name())->raw_data(), batch.num_rows());
  }
  ExpectPinnedBytesEqual(*(*live)->Pin().table, *expect);
  auto reopened = ReadTableDir(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  ExpectPinnedBytesEqual(*reopened, *expect);
}

TEST(LiveTableTest, IncrementalStitchByteIdenticalAndQuarantineFallback) {
  TempDir tmp;
  std::string idx_dir = tmp.File("imprints");
  ASSERT_TRUE(MakeDir(idx_dir).ok());
  Box extent(0, 0, 100, 100);
  LiveTableOptions opts;
  opts.engine.num_threads = 1;
  opts.engine.imprints_dir = idx_dir;
  auto live = LiveTable::Create(MakePoints(8192, 9, extent), opts);
  ASSERT_TRUE(live.ok());

  // First query builds (and persists) the x/y imprints of epoch 0.
  Box box(20, 20, 70, 70);
  ASSERT_TRUE((*live)->Pin().engine->SelectInBox(box).ok());
  auto base_ix =
      (*live)->imprint_manager()->GetOrBuild((*live)->Pin().table->column("x"));
  ASSERT_TRUE(base_ix.ok());

  TableAppender app(*live);
  ASSERT_TRUE(app.StageBatch(MakeBatch(600, 10, extent)).ok());
  ASSERT_TRUE(app.Commit().ok());
  EpochSnapshot s1 = (*live)->Pin();
  auto sel = s1.engine->SelectInBox(box);
  ASSERT_TRUE(sel.ok()) << sel.status().ToString();
  EXPECT_EQ(sel->row_ids, BruteForceInBox(*s1.table, box));

  // The incrementally extended index is byte-identical (on disk) to a
  // from-scratch build over the full appended column with epoch 0's bins
  // (ExtendAppend's contract; a build that samples its own bins from the
  // appended column may draw other bounds).
  auto inc = (*live)->imprint_manager()->GetOrBuild(s1.table->column("x"));
  ASSERT_TRUE(inc.ok()) << inc.status().ToString();
  auto scratch = ImprintsIndex::BuildWithBins(*s1.table->column("x"),
                                              (*base_ix)->bins());
  ASSERT_TRUE(scratch.ok());
  std::string p_inc = tmp.File("inc.gim"), p_scratch = tmp.File("scratch.gim");
  ASSERT_TRUE(WriteImprintsFile(**inc, p_inc).ok());
  ASSERT_TRUE(WriteImprintsFile(*scratch, p_scratch).ok());
  std::vector<uint8_t> b_inc, b_scratch;
  ASSERT_TRUE(ReadFileBytes(p_inc, &b_inc).ok());
  ASSERT_TRUE(ReadFileBytes(p_scratch, &b_scratch).ok());
  EXPECT_EQ(b_inc, b_scratch);

  // A stitch that fails probe verification quarantines the sidecar and
  // rebuilds from scratch — queries stay correct throughout.
  (*live)->imprint_manager()->InjectStitchFault();
  ASSERT_TRUE(app.StageBatch(MakeBatch(600, 11, extent)).ok());
  ASSERT_TRUE(app.Commit().ok());
  EpochSnapshot s2 = (*live)->Pin();
  auto sel2 = s2.engine->SelectInBox(box);
  ASSERT_TRUE(sel2.ok()) << sel2.status().ToString();
  EXPECT_EQ(sel2->row_ids, BruteForceInBox(*s2.table, box));
  EXPECT_TRUE(PathExists(idx_dir + "/x.gim.quarantined") ||
              PathExists(idx_dir + "/y.gim.quarantined"));
}

uint64_t CounterValue(const char* name) {
  return telemetry::MetricsRegistry::Global().GetCounter(name).Value();
}

// The commit stitches the new epoch's imprints while the old epoch's
// columns are still alive, so a reader that arrives after every pin of the
// old epoch is gone finds them instead of rebuilding from scratch.
TEST(LiveTableTest, CommitStitchesImprintsWithNoReaderPinned) {
  const Box extent(0, 0, 100, 100);
  LiveTableOptions opts;
  opts.engine.num_threads = 1;
  auto live = LiveTable::Create(MakePoints(200000, 31, extent), opts);
  ASSERT_TRUE(live.ok()) << live.status().ToString();
  const Box box(20, 20, 70, 70);
  // Index epoch 0's x and y; the temporary pin is gone before the commit.
  ASSERT_TRUE((*live)->Pin().engine->SelectInBox(box).ok());

  const uint64_t builds0 = CounterValue("geocol_imprint_builds_total");
  const uint64_t incr0 =
      CounterValue("geocol_imprint_incremental_builds_total");
  TableAppender app(*live);
  ASSERT_TRUE(app.StageBatch(MakeBatch(5000, 32, extent)).ok());
  ASSERT_TRUE(app.Commit().ok());
  EpochSnapshot s1 = (*live)->Pin();
  auto sel = s1.engine->SelectInBox(box);
  ASSERT_TRUE(sel.ok()) << sel.status().ToString();
  EXPECT_EQ(sel->row_ids, BruteForceInBox(*s1.table, box));
  const uint64_t builds =
      CounterValue("geocol_imprint_builds_total") - builds0;
  const uint64_t incr =
      CounterValue("geocol_imprint_incremental_builds_total") - incr0;
  EXPECT_EQ(incr, 2u);  // x and y, each extended over the batch
  EXPECT_EQ(builds, incr);
}

// ---------------------------------------------------------------------------
// Sharded live appends: routing, isolation, races.
// ---------------------------------------------------------------------------

TEST(ShardedLiveAppendTest, AppendGrowsShardPastCreationBbox) {
  auto source = MakePoints(4000, 12, Box(0, 0, 100, 100));
  ShardingOptions so;
  so.num_shards = 4;
  auto sharded = ShardedTable::Create(*source, so);
  ASSERT_TRUE(sharded.ok());
  EngineOptions eo;
  eo.num_threads = 1;
  ShardRouter router(*sharded, eo);

  // The batch lies entirely OUTSIDE the creation extent: routing clamps
  // its Hilbert keys to the fixed layout extent, but the owning shard's
  // bbox (and the answers) must cover the true coordinates.
  FlatTable batch = MakeBatch(50, 13, Box(150, 150, 200, 200));
  ASSERT_TRUE(router.Append(batch).ok());

  ShardsView view = router.View();
  EXPECT_EQ(view.total_rows(), 4050u);
  auto sel = router.SelectInBox(Box(140, 140, 210, 210));
  ASSERT_TRUE(sel.ok()) << sel.status().ToString();
  EXPECT_EQ(sel->count(), 50u);

  // Oracle over the implied concatenation for a box straddling old and
  // new territory.
  Box straddle(50, 50, 160, 160);
  auto got = router.SelectInBox(straddle);
  ASSERT_TRUE(got.ok());
  uint64_t expect = 0;
  ColumnPtr sx = source->column("x"), sy = source->column("y");
  for (uint64_t r = 0; r < source->num_rows(); ++r) {
    expect += straddle.Contains(Point{sx->GetDouble(r), sy->GetDouble(r)});
  }
  ColumnPtr bx = batch.column("x"), by = batch.column("y");
  for (uint64_t r = 0; r < batch.num_rows(); ++r) {
    expect += straddle.Contains(Point{bx->GetDouble(r), by->GetDouble(r)});
  }
  EXPECT_EQ(got->count(), expect);
}

// The sharded twin of CommitStitchesImprintsWithNoReaderPinned: Append
// stitches every affected shard's new columns while the shards it
// replaces are still alive, so no pinned view is needed for the next
// query to extend instead of rebuilding, and each stitched index is
// byte-identical to a build with its base's bins.
TEST(ShardedLiveAppendTest, AppendStitchesImprintsWithNoViewPinned) {
  const Box extent(0, 0, 100, 100);
  auto source = MakePoints(200000, 33, extent);
  ShardingOptions so;
  so.num_shards = 4;
  auto sharded = ShardedTable::Create(*source, so);
  ASSERT_TRUE(sharded.ok());
  EngineOptions eo;
  eo.num_threads = 1;
  ShardRouter router(*sharded, eo);

  // A box inside the extent scans every shard and covers none, so x and y
  // get indexed in all four; keep only the indexes (and so the bins), not
  // the view that would pin the base columns.
  const Box box(0.5, 0.5, 99.5, 99.5);
  ASSERT_TRUE(router.SelectInBox(box).ok());
  std::vector<BinBounds> base_bins;
  for (const auto& shard : router.View().shards) {
    auto local = std::dynamic_pointer_cast<LocalShard>(shard);
    ASSERT_NE(local, nullptr);
    for (const char* name : {"x", "y"}) {
      auto ix = local->engine().imprint_manager().GetOrBuild(
          local->table().column(name));
      ASSERT_TRUE(ix.ok()) << ix.status().ToString();
      base_bins.push_back((*ix)->bins());
    }
  }

  const uint64_t builds0 = CounterValue("geocol_imprint_builds_total");
  const uint64_t incr0 =
      CounterValue("geocol_imprint_incremental_builds_total");
  FlatTable batch = MakeBatch(2000, 34, extent);
  ASSERT_TRUE(router.Append(batch).ok());
  auto sel = router.SelectInBox(box);
  ASSERT_TRUE(sel.ok()) << sel.status().ToString();
  uint64_t expect = BruteForceInBox(*source, box).size() +
                    BruteForceInBox(batch, box).size();
  EXPECT_EQ(sel->count(), expect);
  const uint64_t builds =
      CounterValue("geocol_imprint_builds_total") - builds0;
  const uint64_t incr =
      CounterValue("geocol_imprint_incremental_builds_total") - incr0;
  EXPECT_EQ(incr, 8u);  // x and y of every shard, each extended
  EXPECT_EQ(builds, incr);

  TempDir tmp;
  ShardsView view = router.View();
  for (size_t s = 0; s < view.shards.size(); ++s) {
    auto local = std::dynamic_pointer_cast<LocalShard>(view.shards[s]);
    ASSERT_NE(local, nullptr);
    for (size_t c = 0; c < 2; ++c) {
      ColumnPtr col = local->table().column(c == 0 ? "x" : "y");
      auto stitched = local->engine().imprint_manager().GetOrBuild(col);
      ASSERT_TRUE(stitched.ok()) << stitched.status().ToString();
      auto scratch = ImprintsIndex::BuildWithBins(*col, base_bins[2 * s + c]);
      ASSERT_TRUE(scratch.ok());
      const std::string p_st = tmp.File("st.gim"), p_sc = tmp.File("sc.gim");
      ASSERT_TRUE(WriteImprintsFile(**stitched, p_st).ok());
      ASSERT_TRUE(WriteImprintsFile(*scratch, p_sc).ok());
      std::vector<uint8_t> b_st, b_sc;
      ASSERT_TRUE(ReadFileBytes(p_st, &b_st).ok());
      ASSERT_TRUE(ReadFileBytes(p_sc, &b_sc).ok());
      EXPECT_EQ(b_st, b_sc) << "shard " << s << " column " << col->name();
    }
  }
}

TEST(ShardedLiveAppendTest, TwoAppendersRacingDisjointShardsLoseNothing) {
  auto source = MakePoints(4000, 14, Box(0, 0, 100, 100));
  ShardingOptions so;
  so.num_shards = 8;
  auto sharded = ShardedTable::Create(*source, so);
  ASSERT_TRUE(sharded.ok());
  EngineOptions eo;
  eo.num_threads = 1;
  ShardRouter router(*sharded, eo);

  // Writer A targets the low corner (start of the Hilbert curve), writer
  // B the opposite end — disjoint shard sets racing through Append.
  constexpr int kBatches = 12;
  constexpr size_t kRows = 64;
  auto writer = [&](uint64_t seed, const Box& region) {
    for (int b = 0; b < kBatches; ++b) {
      FlatTable batch = MakeBatch(kRows, seed + b, region);
      ASSERT_TRUE(router.Append(batch).ok());
    }
  };
  std::thread ta(writer, 100, Box(1, 1, 9, 9));
  std::thread tb(writer, 200, Box(91, 91, 99, 99));
  ta.join();
  tb.join();

  const uint64_t expect_rows = 4000 + 2 * kBatches * kRows;
  ShardsView view = router.View();
  EXPECT_EQ(view.total_rows(), expect_rows);
  auto all = router.SelectInBox(Box(0, 0, 100, 100));
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->count(), expect_rows);

  // Value-level check: the multiset of z values selected in each corner
  // equals initial points there plus every appended batch.
  auto CountIn = [&](const Box& box) -> uint64_t {
    auto sel = router.SelectInBox(box);
    EXPECT_TRUE(sel.ok());
    return sel.ok() ? sel->count() : 0;
  };
  uint64_t base_a = 0, base_b = 0;
  ColumnPtr sx = source->column("x"), sy = source->column("y");
  for (uint64_t r = 0; r < source->num_rows(); ++r) {
    Point p{sx->GetDouble(r), sy->GetDouble(r)};
    base_a += Box(1, 1, 9, 9).Contains(p);
    base_b += Box(91, 91, 99, 99).Contains(p);
  }
  EXPECT_EQ(CountIn(Box(1, 1, 9, 9)), base_a + kBatches * kRows);
  EXPECT_EQ(CountIn(Box(91, 91, 99, 99)), base_b + kBatches * kRows);
}

TEST(ShardedLiveAppendTest, PinnedViewSupersededByAppendsStaysIdentical) {
  auto source = MakePoints(3000, 15, Box(0, 0, 100, 100));
  ShardingOptions so;
  so.num_shards = 4;
  auto sharded = ShardedTable::Create(*source, so);
  ASSERT_TRUE(sharded.ok());
  EngineOptions eo;
  eo.num_threads = 1;
  ShardRouter router(*sharded, eo);

  Box box(10, 10, 90, 90);
  ShardsView view0 = router.View();
  auto before = view0.Select(Geometry(box), 0.0, {});
  ASSERT_TRUE(before.ok());

  for (int i = 0; i < 3; ++i) {
    FlatTable batch = MakeBatch(128, 300 + i, box);
    ASSERT_TRUE(router.Append(batch).ok());
  }

  // The superseded view answers bit-identically: same shard handles, same
  // bases, no appended row visible.
  auto again = view0.Select(Geometry(box), 0.0, {});
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->row_ids, before->row_ids);
  EXPECT_EQ(view0.total_rows(), 3000u);

  ShardsView view1 = router.View();
  EXPECT_GT(view1.version, view0.version);
  EXPECT_EQ(view1.total_rows(), 3000u + 3 * 128);
  auto now = view1.Select(Geometry(box), 0.0, {});
  ASSERT_TRUE(now.ok());
  EXPECT_EQ(now->count(), before->count() + 3 * 128);
}

TEST(ShardedLiveAppendTest, PinnedViewSurvivesReShardAndRouterTeardown) {
  auto source = MakePoints(2000, 16, Box(0, 0, 100, 100));
  ShardingOptions so;
  so.num_shards = 4;
  auto sharded = ShardedTable::Create(*source, so);
  ASSERT_TRUE(sharded.ok());

  ShardsView pinned;
  std::vector<uint64_t> expect_rows;
  {
    EngineOptions eo;
    eo.num_threads = 1;
    ShardRouter router(*sharded, eo);
    pinned = router.View();
    auto sel = router.SelectInBox(Box(25, 25, 75, 75));
    ASSERT_TRUE(sel.ok());
    expect_rows = sel->row_ids;
    // A concurrent re-shard supersedes the layout entirely...
    ShardingOptions re;
    re.num_shards = 16;
    auto resharded = ShardedTable::Create(*source, re);
    ASSERT_TRUE(resharded.ok());
    // ...and the old router goes away with its scope.
  }

  // The pinned view owns its shard handles: reads through it remain valid
  // and value-identical after re-shard + router teardown.
  ASSERT_EQ(pinned.total_rows(), 2000u);
  auto parts = pinned.Columns("z");
  ASSERT_TRUE(parts.ok()) << parts.status().ToString();
  for (uint64_t r : expect_rows) {
    const size_t s = pinned.ShardOf(r);
    double z = (*parts)[s]->GetDouble(r - pinned.bases[s]);
    EXPECT_GE(z, -5.0);
    EXPECT_LE(z, 40.0);
  }
}

}  // namespace
}  // namespace geocol
