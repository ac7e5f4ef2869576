// Imprints persistence tests: exact round trip, staleness handling,
// corruption rejection, and LoadOrBuild behaviour.
#include <gtest/gtest.h>

#include "core/imprints_io.h"
#include "util/binary_io.h"
#include "util/rng.h"
#include "util/tempdir.h"

namespace geocol {
namespace {

ColumnPtr MakeColumn(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> vals(n);
  double walk = 0;
  for (auto& v : vals) {
    walk += rng.NextGaussian();
    v = walk;
  }
  return Column::FromVector("c", vals);
}

void ExpectIndexesEqual(const ImprintsIndex& a, const ImprintsIndex& b) {
  EXPECT_EQ(a.num_bins(), b.num_bins());
  EXPECT_EQ(a.values_per_line(), b.values_per_line());
  EXPECT_EQ(a.num_lines(), b.num_lines());
  EXPECT_EQ(a.num_rows(), b.num_rows());
  EXPECT_EQ(a.built_epoch(), b.built_epoch());
  EXPECT_EQ(a.vectors(), b.vectors());
  ASSERT_EQ(a.dictionary().size(), b.dictionary().size());
  for (size_t i = 0; i < a.dictionary().size(); ++i) {
    EXPECT_EQ(a.dictionary()[i].count, b.dictionary()[i].count);
    EXPECT_EQ(a.dictionary()[i].repeat, b.dictionary()[i].repeat);
  }
  for (uint32_t i = 0; i < a.num_bins(); ++i) {
    EXPECT_EQ(a.bins().upper(i), b.bins().upper(i));
  }
}

TEST(ImprintsIoTest, RoundTripExact) {
  TempDir tmp;
  ColumnPtr col = MakeColumn(30000, 301);
  auto ix = ImprintsIndex::Build(*col);
  ASSERT_TRUE(ix.ok());
  ASSERT_TRUE(WriteImprintsFile(*ix, tmp.File("c.gim")).ok());
  auto back = ReadImprintsFile(tmp.File("c.gim"));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ExpectIndexesEqual(*ix, *back);

  // The restored index answers queries identically.
  BitVector a, b, fa, fb;
  ix->FilterRange(-10, 10, &a, &fa);
  back->FilterRange(-10, 10, &b, &fb);
  EXPECT_TRUE(a == b);
  EXPECT_TRUE(fa == fb);
}

TEST(ImprintsIoTest, RoundTripFewBins) {
  TempDir tmp;
  // Few distinct values => small, padded bin array.
  std::vector<double> vals;
  for (int i = 0; i < 5000; ++i) vals.push_back(i % 3);
  auto col = Column::FromVector("c", vals);
  auto ix = ImprintsIndex::Build(*col);
  ASSERT_TRUE(ix.ok());
  ASSERT_TRUE(WriteImprintsFile(*ix, tmp.File("c.gim")).ok());
  auto back = ReadImprintsFile(tmp.File("c.gim"));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ExpectIndexesEqual(*ix, *back);
}

TEST(ImprintsIoTest, CorruptFilesRejected) {
  TempDir tmp;
  ColumnPtr col = MakeColumn(5000, 302);
  auto ix = ImprintsIndex::Build(*col);
  ASSERT_TRUE(ix.ok());
  std::string path = tmp.File("c.gim");
  ASSERT_TRUE(WriteImprintsFile(*ix, path).ok());

  std::vector<uint8_t> bytes;
  ASSERT_TRUE(ReadFileBytes(path, &bytes).ok());
  {
    auto bad = bytes;
    bad[1] = 'X';
    ASSERT_TRUE(WriteFileBytes(path, bad.data(), bad.size()).ok());
    EXPECT_FALSE(ReadImprintsFile(path).ok());
  }
  {
    auto bad = bytes;
    bad.resize(bad.size() / 2);
    ASSERT_TRUE(WriteFileBytes(path, bad.data(), bad.size()).ok());
    EXPECT_FALSE(ReadImprintsFile(path).ok());
  }
  {
    // Flip a dictionary count so coverage breaks.
    auto bad = bytes;
    // Dictionary starts after: 4 magic + 4 fingerprint + 8 + 8 + 4 + 4 +
    // bins*8 + 8.
    size_t dict_at = 4 + 4 + 8 + 8 + 4 + 4 + ix->num_bins() * 8 + 8;
    ASSERT_LT(dict_at + 4, bad.size());
    bad[dict_at] ^= 0x3F;
    ASSERT_TRUE(WriteFileBytes(path, bad.data(), bad.size()).ok());
    auto res = ReadImprintsFile(path);
    EXPECT_FALSE(res.ok()) << "tampered dictionary must be rejected";
  }
}

TEST(ImprintsIoTest, RestoreValidatesInvariants) {
  // Dictionary covering the wrong number of lines.
  auto bins = BinBounds::FromBounds({1.0, 2.0});
  ASSERT_TRUE(bins.ok());
  EXPECT_FALSE(ImprintsIndex::Restore(*bins, 8, 100, 0, {0x1},
                                      {{5, false}})
                   .ok());
  // Vector count mismatch.
  EXPECT_FALSE(ImprintsIndex::Restore(*bins, 8, 16, 0, {0x1},
                                      {{2, false}})
                   .ok());
  // Valid: 2 lines, one repeat entry, one vector.
  EXPECT_TRUE(ImprintsIndex::Restore(*bins, 8, 16, 0, {0x1},
                                     {{2, true}})
                  .ok());
}

TEST(ImprintsIoTest, LoadOrBuildCachesAndRebuilds) {
  TempDir tmp;
  std::string path = tmp.File("c.gim");
  ColumnPtr col = MakeColumn(20000, 303);

  // First call: builds and writes the sidecar.
  auto first = LoadOrBuildImprints(*col, path);
  ASSERT_TRUE(first.ok());
  EXPECT_TRUE(PathExists(path));

  // Second call: loads (same epoch) — results must match.
  auto second = LoadOrBuildImprints(*col, path);
  ASSERT_TRUE(second.ok());
  ExpectIndexesEqual(*first, *second);

  // Append invalidates: LoadOrBuild must rebuild with the new epoch.
  col->Append<double>(123.0);
  auto third = LoadOrBuildImprints(*col, path);
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(third->built_epoch(), col->epoch());
  EXPECT_EQ(third->num_rows(), col->size());
}

TEST(ImprintsIoTest, SidecarForDifferentColumnContentIsNotAdopted) {
  TempDir tmp;
  std::string path = tmp.File("c.gim");
  // Two same-named, same-sized, same-epoch columns with different values —
  // exactly what two tables sharing one imprints dir can produce. Name,
  // epoch and row count all collide; only the payload fingerprint can
  // tell the sidecars apart.
  ColumnPtr a = MakeColumn(20000, 311);
  ColumnPtr b = MakeColumn(20000, 312);
  ASSERT_EQ(a->epoch(), b->epoch());
  ASSERT_EQ(a->size(), b->size());
  ASSERT_TRUE(LoadOrBuildImprints(*a, path).ok());

  auto got = LoadOrBuildImprints(*b, path);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  // b must get an index built from its own data, identical to a fresh
  // build, not a's sidecar.
  auto fresh = ImprintsIndex::Build(*b);
  ASSERT_TRUE(fresh.ok());
  ExpectIndexesEqual(*fresh, *got);
  // And the sidecar was rewritten under b's fingerprint.
  ImprintsFileMeta meta;
  ASSERT_TRUE(ReadImprintsFile(path, &meta).ok());
  EXPECT_EQ(meta.column_fingerprint, ColumnFingerprint(*b));
}

TEST(ImprintsIoTest, LoadOrBuildSurvivesGarbageSidecar) {
  TempDir tmp;
  std::string path = tmp.File("c.gim");
  ASSERT_TRUE(WriteFileBytes(path, "garbage", 7).ok());
  ColumnPtr col = MakeColumn(1000, 304);
  auto ix = LoadOrBuildImprints(*col, path);
  ASSERT_TRUE(ix.ok());
  EXPECT_EQ(ix->num_rows(), col->size());
}

}  // namespace
}  // namespace geocol
