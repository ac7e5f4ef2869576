// Column imprints tests: construction, dictionary compression invariants,
// query masks, and — as a parameterised property suite — filter soundness
// (no false negatives) across data distributions, orderings, types and bin
// counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/imprints.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace geocol {
namespace {

// ---------------- construction & structure ----------------

TEST(ImprintsBuildTest, EmptyColumnRejected) {
  Column col("c", DataType::kFloat64);
  EXPECT_FALSE(ImprintsIndex::Build(col).ok());
}

TEST(ImprintsBuildTest, ValuesPerLineByType) {
  auto dcol = Column::FromVector<double>("d", std::vector<double>(100, 1.0));
  auto ix = ImprintsIndex::Build(*dcol);
  ASSERT_TRUE(ix.ok());
  EXPECT_EQ(ix->values_per_line(), 8u);  // 64B / 8B
  EXPECT_EQ(ix->num_lines(), 13u);       // ceil(100/8)

  auto bcol = Column::FromVector<uint8_t>("b", std::vector<uint8_t>(100, 1));
  auto ix2 = ImprintsIndex::Build(*bcol);
  ASSERT_TRUE(ix2.ok());
  EXPECT_EQ(ix2->values_per_line(), 64u);
  EXPECT_EQ(ix2->num_lines(), 2u);
}

TEST(ImprintsBuildTest, IncompatibleCachelineRejected) {
  auto col = Column::FromVector<double>("d", {1, 2, 3});
  ImprintsOptions opts;
  opts.cacheline_bytes = 4;  // smaller than a double
  EXPECT_FALSE(ImprintsIndex::Build(*col, opts).ok());
}

TEST(ImprintsBuildTest, DictionaryCountsCoverAllLines) {
  Rng rng(3);
  std::vector<double> vals(10000);
  for (auto& v : vals) v = rng.UniformDouble(0, 100);
  auto col = Column::FromVector<double>("c", vals);
  auto ix = ImprintsIndex::Build(*col);
  ASSERT_TRUE(ix.ok());
  uint64_t total = 0, vectors = 0;
  for (const auto& e : ix->dictionary()) {
    total += e.count;
    vectors += e.repeat ? 1 : e.count;
  }
  EXPECT_EQ(total, ix->num_lines());
  EXPECT_EQ(vectors, ix->vectors().size());
}

TEST(ImprintsBuildTest, ConstantColumnCompressesToOneVector) {
  auto col = Column::FromVector<double>("c", std::vector<double>(8192, 7.0));
  auto ix = ImprintsIndex::Build(*col);
  ASSERT_TRUE(ix.ok());
  EXPECT_EQ(ix->vectors().size(), 1u);
  ASSERT_EQ(ix->dictionary().size(), 1u);
  EXPECT_TRUE(ix->dictionary()[0].repeat);
  EXPECT_EQ(ix->dictionary()[0].count, ix->num_lines());
}

TEST(ImprintsBuildTest, SortedDataCompressesWell) {
  std::vector<double> vals(100000);
  for (size_t i = 0; i < vals.size(); ++i) vals[i] = static_cast<double>(i);
  auto col = Column::FromVector<double>("c", vals);
  auto ix = ImprintsIndex::Build(*col);
  ASSERT_TRUE(ix.ok());
  // Sorted data: long runs of cache lines share a bin -> far fewer stored
  // vectors than lines.
  EXPECT_LT(ix->vectors().size(), ix->num_lines() / 4);
}

TEST(ImprintsBuildTest, ShuffledDataStillBuilds) {
  Rng rng(17);
  std::vector<double> vals(100000);
  for (size_t i = 0; i < vals.size(); ++i) vals[i] = static_cast<double>(i);
  for (size_t i = vals.size() - 1; i > 0; --i) {
    std::swap(vals[i], vals[rng.Uniform(i + 1)]);
  }
  auto col = Column::FromVector<double>("c", vals);
  auto ix = ImprintsIndex::Build(*col);
  ASSERT_TRUE(ix.ok());
  EXPECT_LE(ix->vectors().size(), ix->num_lines());
}

TEST(ImprintsBuildTest, StorageOverheadWithinPaperBand) {
  // Acquisition-like data (smooth drift + noise): the paper reports 5-12%
  // overhead; a 64-bit vector per 64-byte cache line is 12.5% worst case,
  // so compression must bring typical data under that.
  Rng rng(23);
  std::vector<double> vals(200000);
  double drift = 0;
  for (auto& v : vals) {
    drift += rng.NextGaussian() * 0.1;
    v = drift + rng.NextGaussian() * 0.01;
  }
  auto col = Column::FromVector<double>("c", vals);
  auto ix = ImprintsIndex::Build(*col);
  ASSERT_TRUE(ix.ok());
  ImprintsStorage s = ix->Storage(col->raw_size_bytes());
  EXPECT_GT(s.overhead_fraction, 0.0);
  EXPECT_LE(s.overhead_fraction, 0.13);
  EXPECT_EQ(s.total_bytes, s.vector_bytes + s.dict_bytes + s.bounds_bytes);
}

TEST(ImprintsBuildTest, EpochRecorded) {
  auto col = Column::FromVector<double>("c", {1, 2, 3});
  auto ix = ImprintsIndex::Build(*col);
  ASSERT_TRUE(ix.ok());
  EXPECT_EQ(ix->built_epoch(), col->epoch());
  col->Append<double>(4);
  EXPECT_NE(ix->built_epoch(), col->epoch());
}

// ---------------- masks ----------------

TEST(ImprintsMaskTest, QueryMaskCoversRange) {
  std::vector<double> vals;
  for (int i = 0; i < 6400; ++i) vals.push_back(i % 64);
  auto col = Column::FromVector<double>("c", vals);
  ImprintsOptions opts;
  opts.sample_size = 6400;
  auto ix = ImprintsIndex::Build(*col, opts);
  ASSERT_TRUE(ix.ok());
  ImprintMask m = ix->MaskForRange(10, 20);
  EXPECT_NE(m.query, 0u);
  // inner is a subset of query.
  EXPECT_EQ(m.inner & ~m.query, 0u);
  // A wider range has a superset query mask.
  ImprintMask wide = ix->MaskForRange(5, 25);
  EXPECT_EQ(m.query & ~wide.query, 0u);
}

TEST(ImprintsMaskTest, EmptyRangeMatchesNothing) {
  auto col = Column::FromVector<double>("c", {1, 2, 3, 4});
  auto ix = ImprintsIndex::Build(*col);
  ASSERT_TRUE(ix.ok());
  ImprintMask m = ix->MaskForRange(10, 5);
  EXPECT_EQ(m.query, 0u);
  BitVector cand;
  ix->FilterRange(10, 5, &cand);
  EXPECT_EQ(cand.Count(), 0u);
}

TEST(ImprintsMaskTest, FullDomainSelectsAllLines) {
  Rng rng(31);
  std::vector<double> vals(10000);
  for (auto& v : vals) v = rng.UniformDouble(-10, 10);
  auto col = Column::FromVector<double>("c", vals);
  auto ix = ImprintsIndex::Build(*col);
  ASSERT_TRUE(ix.ok());
  BitVector cand, full;
  ix->FilterRange(-1e18, 1e18, &cand, &full);
  EXPECT_EQ(cand.Count(), ix->num_lines());
  // Lines touching only interior bins qualify wholesale; the extreme bins
  // are unbounded so the index cannot prove containment for them.
  EXPECT_GT(full.Count(), 0u);
  EXPECT_LE(full.Count(), cand.Count());
}

TEST(ImprintsMaskTest, LineRows) {
  auto col = Column::FromVector<double>("c", std::vector<double>(20, 1.0));
  auto ix = ImprintsIndex::Build(*col);
  ASSERT_TRUE(ix.ok());
  ASSERT_EQ(ix->values_per_line(), 8u);
  EXPECT_EQ(ix->LineRows(0), (std::pair<uint64_t, uint64_t>{0, 8}));
  EXPECT_EQ(ix->LineRows(2), (std::pair<uint64_t, uint64_t>{16, 20}));  // tail
}

// ---------------- filter runs ----------------

TEST(ImprintsRunsTest, RunsAreCoalescedAndOrdered) {
  Rng rng(41);
  std::vector<double> vals(50000);
  for (auto& v : vals) v = rng.UniformDouble(0, 1000);
  auto col = Column::FromVector<double>("c", vals);
  auto ix = ImprintsIndex::Build(*col);
  ASSERT_TRUE(ix.ok());
  uint64_t prev_end = 0;
  bool first = true;
  bool prev_full = false;
  ix->CandidateRuns(ix->MaskForRange(100, 200), 0, ix->num_lines(),
                    [&](uint64_t start, uint64_t count, bool full) {
    ASSERT_GT(count, 0u);
    if (!first) {
      // Strictly ordered and never adjacent-with-same-status (else they
      // would have been coalesced).
      ASSERT_GE(start, prev_end);
      if (start == prev_end) ASSERT_NE(full, prev_full);
    }
    first = false;
    prev_end = start + count;
    prev_full = full;
  });
  EXPECT_LE(prev_end, ix->num_lines());
}

// ---------------- property suite: soundness ----------------

struct PropertyParam {
  const char* name;
  int distribution;  // 0 uniform, 1 gaussian, 2 clustered walk, 3 few-distinct
  int ordering;      // 0 as-generated, 1 sorted, 2 shuffled
  uint32_t max_bins;
  DataType type;
};

class ImprintsPropertyTest : public ::testing::TestWithParam<PropertyParam> {};

std::vector<double> MakeData(int distribution, size_t n, Rng* rng) {
  std::vector<double> vals(n);
  switch (distribution) {
    case 0:
      for (auto& v : vals) v = rng->UniformDouble(-500, 500);
      break;
    case 1:
      for (auto& v : vals) v = rng->NextGaussian() * 100;
      break;
    case 2: {
      double walk = 0;
      for (auto& v : vals) {
        walk += rng->NextGaussian();
        v = walk;
      }
      break;
    }
    default:
      for (auto& v : vals) v = static_cast<double>(rng->Uniform(7));
      break;
  }
  return vals;
}

TEST_P(ImprintsPropertyTest, FilterIsSoundAndFullLinesExact) {
  const PropertyParam& p = GetParam();
  Rng rng(0xBEEF ^ p.distribution * 31 ^ p.ordering * 7 ^ p.max_bins);
  const size_t n = 20000;
  std::vector<double> vals = MakeData(p.distribution, n, &rng);
  if (p.ordering == 1) std::sort(vals.begin(), vals.end());
  if (p.ordering == 2) {
    for (size_t i = n - 1; i > 0; --i) {
      std::swap(vals[i], vals[rng.Uniform(i + 1)]);
    }
  }
  auto col = std::make_shared<Column>("c", p.type);
  DispatchDataType(p.type, [&]<typename T>() {
    for (double v : vals) col->Append<T>(static_cast<T>(v));
  });

  ImprintsOptions opts;
  opts.max_bins = p.max_bins;
  auto ix = ImprintsIndex::Build(*col, opts);
  ASSERT_TRUE(ix.ok());

  // Exercise 20 random ranges, including degenerate and out-of-domain.
  for (int q = 0; q < 20; ++q) {
    double a = rng.UniformDouble(-600, 600);
    double b = rng.UniformDouble(-600, 600);
    double lo = std::min(a, b), hi = std::max(a, b);
    if (q == 0) lo = hi;                 // point query
    if (q == 1) { lo = 1e7; hi = 2e7; }  // empty: beyond domain

    BitVector cand, full;
    ix->FilterRange(lo, hi, &cand, &full);

    for (uint64_t line = 0; line < ix->num_lines(); ++line) {
      auto [first, last] = ix->LineRows(line);
      bool any = false, all = true;
      for (uint64_t r = first; r < last; ++r) {
        double v = col->GetDouble(r);
        bool in = v >= lo && v <= hi;
        any |= in;
        all &= in;
      }
      // Soundness: a line holding a match must be a candidate.
      if (any) {
        ASSERT_TRUE(cand.Get(line))
            << "false negative at line " << line << " range [" << lo << ","
            << hi << "]";
      }
      // Full-line flags must be exact (every value matches).
      if (full.Get(line)) {
        ASSERT_TRUE(all) << "bogus full line " << line;
        ASSERT_TRUE(cand.Get(line)) << "full implies candidate";
      }
      (void)all;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ImprintsPropertyTest,
    ::testing::Values(
        PropertyParam{"uniform_asgen_64_f64", 0, 0, 64, DataType::kFloat64},
        PropertyParam{"uniform_sorted_64_f64", 0, 1, 64, DataType::kFloat64},
        PropertyParam{"uniform_shuffled_64_f64", 0, 2, 64, DataType::kFloat64},
        PropertyParam{"gauss_asgen_64_f64", 1, 0, 64, DataType::kFloat64},
        PropertyParam{"gauss_shuffled_32_f64", 1, 2, 32, DataType::kFloat64},
        PropertyParam{"walk_asgen_64_f64", 2, 0, 64, DataType::kFloat64},
        PropertyParam{"walk_sorted_16_f64", 2, 1, 16, DataType::kFloat64},
        PropertyParam{"walk_shuffled_64_f64", 2, 2, 64, DataType::kFloat64},
        PropertyParam{"fewdistinct_asgen_64_f64", 3, 0, 64, DataType::kFloat64},
        PropertyParam{"fewdistinct_shuffled_8_f64", 3, 2, 8, DataType::kFloat64},
        PropertyParam{"uniform_asgen_64_i32", 0, 0, 64, DataType::kInt32},
        PropertyParam{"walk_asgen_64_i32", 2, 0, 64, DataType::kInt32},
        PropertyParam{"uniform_shuffled_64_i16", 0, 2, 64, DataType::kInt16},
        PropertyParam{"fewdistinct_asgen_64_u8", 3, 0, 64, DataType::kUInt8},
        PropertyParam{"gauss_asgen_8_f32", 1, 0, 8, DataType::kFloat32},
        PropertyParam{"uniform_asgen_16_u16", 0, 0, 16, DataType::kUInt16}),
    [](const ::testing::TestParamInfo<PropertyParam>& info) {
      return info.param.name;
    });

// ---------------- parallel build ----------------

// The chunked build stitches per-chunk run-length pieces at the seams; its
// promise is a byte-identical index, so compare the raw vectors and the
// dictionary entry by entry across distributions.
TEST(ImprintsParallelBuildTest, ByteIdenticalToSerialBuild) {
  ThreadPool pool(3);
  Rng rng(91);
  const size_t n = 300000;  // above the parallel-build threshold
  std::vector<std::vector<double>> datasets;
  {
    std::vector<double> walk(n);
    double w = 0;
    for (auto& v : walk) {
      w += rng.NextGaussian();
      v = w;
    }
    datasets.push_back(std::move(walk));
  }
  {
    std::vector<double> uniform(n);
    for (auto& v : uniform) v = rng.UniformDouble(0, 1000);
    datasets.push_back(std::move(uniform));
  }
  {
    // Long constant runs: stresses seam stitching of repeat entries.
    std::vector<double> steps(n);
    for (size_t i = 0; i < n; ++i) steps[i] = static_cast<double>(i / 20000);
    datasets.push_back(std::move(steps));
  }
  for (size_t d = 0; d < datasets.size(); ++d) {
    auto col = Column::FromVector<double>("c", datasets[d]);
    auto serial = ImprintsIndex::Build(*col);
    auto parallel = ImprintsIndex::Build(*col, {}, &pool);
    ASSERT_TRUE(serial.ok());
    ASSERT_TRUE(parallel.ok());
    EXPECT_EQ(parallel->vectors(), serial->vectors()) << "dataset " << d;
    ASSERT_EQ(parallel->dictionary().size(), serial->dictionary().size())
        << "dataset " << d;
    for (size_t i = 0; i < serial->dictionary().size(); ++i) {
      EXPECT_EQ(parallel->dictionary()[i].count, serial->dictionary()[i].count)
          << "dataset " << d << " entry " << i;
      EXPECT_EQ(parallel->dictionary()[i].repeat,
                serial->dictionary()[i].repeat)
          << "dataset " << d << " entry " << i;
    }
    EXPECT_EQ(parallel->num_lines(), serial->num_lines());
    EXPECT_EQ(parallel->num_rows(), serial->num_rows());
    EXPECT_EQ(parallel->built_epoch(), serial->built_epoch());
  }
}

TEST(ImprintsParallelBuildTest, SmallColumnFallsBackToSerial) {
  ThreadPool pool(3);
  auto col = Column::FromVector<double>("c", std::vector<double>(500, 1.0));
  auto serial = ImprintsIndex::Build(*col);
  auto parallel = ImprintsIndex::Build(*col, {}, &pool);
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(parallel.ok());
  EXPECT_EQ(parallel->vectors(), serial->vectors());
  EXPECT_EQ(parallel->dictionary().size(), serial->dictionary().size());
}

// ---------------- cursor & checkpoints ----------------

// Every line's vector, decoded by walking the whole dictionary.
std::vector<uint64_t> FullDecode(const ImprintsIndex& ix) {
  std::vector<uint64_t> out;
  size_t vec = 0;
  for (const ImprintsIndex::DictEntry& e : ix.dictionary()) {
    for (uint32_t j = 0; j < e.count; ++j) {
      out.push_back(ix.vectors()[e.repeat ? vec : vec + j]);
    }
    vec += e.repeat ? 1 : e.count;
  }
  return out;
}

// VectorAtLine and a Cursor — walked forward, seeking backward, jumping
// far ahead — agree with the full decode on every line, and run_end never
// claims a line whose vector differs.
void ExpectCursorMatchesDecode(const ImprintsIndex& ix, const char* what) {
  const std::vector<uint64_t> want = FullDecode(ix);
  ASSERT_EQ(want.size(), ix.num_lines()) << what;
  ImprintsIndex::Cursor forward(&ix);
  for (uint64_t line = 0; line < ix.num_lines(); ++line) {
    ASSERT_EQ(ix.VectorAtLine(line), want[line]) << what << " line " << line;
    ASSERT_EQ(forward.Seek(line), want[line]) << what << " line " << line;
    ASSERT_GT(forward.run_end(), line);
    ASSERT_LE(forward.run_end(), ix.num_lines());
    for (uint64_t l = line; l < forward.run_end() && l < line + 200; ++l) {
      ASSERT_EQ(want[l], want[line]) << what << " run from " << line;
    }
  }
  ImprintsIndex::Cursor backward(&ix);
  for (uint64_t line = ix.num_lines(); line-- > 0;) {
    ASSERT_EQ(backward.Seek(line), want[line]) << what << " line " << line;
  }
  Rng rng(ix.num_lines());
  ImprintsIndex::Cursor random(&ix);
  for (int i = 0; i < 2000; ++i) {
    const uint64_t line = rng.Uniform(ix.num_lines());
    ASSERT_EQ(random.Seek(line), want[line]) << what << " line " << line;
  }
}

// Every block summary is the OR of VectorAtLine over its block's lines,
// including a last block of fewer than kCheckpointLines lines.
void ExpectSummariesMatchLines(const ImprintsIndex& ix, const char* what) {
  const uint64_t block = ImprintsIndex::kCheckpointLines;
  const std::vector<uint64_t>& summaries = ix.block_summaries();
  ASSERT_EQ(summaries.size(), (ix.num_lines() + block - 1) / block) << what;
  for (uint64_t b = 0; b < summaries.size(); ++b) {
    uint64_t want = 0;
    for (uint64_t line = b * block;
         line < std::min(ix.num_lines(), (b + 1) * block); ++line) {
      want |= ix.VectorAtLine(line);
    }
    ASSERT_EQ(summaries[b], want) << what << " block " << b;
  }
}

TEST(ImprintsCursorTest, MatchesFullDecodeOnBuiltExtendedRestored) {
  ThreadPool pool(3);
  Rng rng(93);
  // Ragged: 70,001 rows leave a 1-row tail line; long constant stretches
  // give repeat entries spanning many checkpoints, noise gives literals.
  const size_t n = 70001;
  std::vector<double> vals(n);
  for (size_t i = 0; i < n; ++i) {
    vals[i] = (i / 3000) % 3 == 0 ? static_cast<double>(i / 3000)
                                  : rng.UniformDouble(0, 1000);
  }
  auto col = Column::FromVector<double>("c", vals);
  auto serial = ImprintsIndex::Build(*col);
  auto parallel = ImprintsIndex::Build(*col, {}, &pool);
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(parallel.ok());
  ExpectCursorMatchesDecode(*serial, "serial build");
  ExpectCursorMatchesDecode(*parallel, "parallel build");
  // 70,001 rows at 8 per line are 8,751 lines: the last block holds 47.
  ASSERT_NE(serial->num_lines() % ImprintsIndex::kCheckpointLines, 0u);
  ExpectSummariesMatchLines(*serial, "serial build");
  ExpectSummariesMatchLines(*parallel, "parallel build");

  // Extended over an appended tail whose seam line is partial.
  std::vector<double> head(vals.begin(), vals.begin() + 50003);
  auto base_col = Column::FromVector<double>("c", head);
  auto base = ImprintsIndex::Build(*base_col);
  ASSERT_TRUE(base.ok());
  auto extended = ImprintsIndex::ExtendAppend(*base, *col, &pool);
  ASSERT_TRUE(extended.ok());
  ExpectCursorMatchesDecode(*extended, "extended");
  ExpectSummariesMatchLines(*extended, "extended");
  auto rebuilt = ImprintsIndex::BuildWithBins(*col, base->bins());
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_EQ(FullDecode(*extended), FullDecode(*rebuilt));
  EXPECT_EQ(extended->block_summaries(), rebuilt->block_summaries());

  auto restored = ImprintsIndex::Restore(
      serial->bins(), serial->values_per_line(), serial->num_rows(),
      serial->built_epoch(), serial->vectors(), serial->dictionary());
  ASSERT_TRUE(restored.ok());
  ExpectCursorMatchesDecode(*restored, "restored");
  ExpectSummariesMatchLines(*restored, "restored");
  EXPECT_EQ(restored->block_summaries(), serial->block_summaries());
}

// The encoder splits runs longer than its 2^30-line cap into adjacent
// entries with the same vector. Such a dictionary (emulated at small
// counts) and a ragged row count must still decode line for line.
TEST(ImprintsCursorTest, SplitRunsAndRaggedTailRestore) {
  auto bins = BinBounds::FromBounds({1, 2, 3});
  ASSERT_TRUE(bins.ok());
  using E = ImprintsIndex::DictEntry;
  std::vector<E> dict = {{130, true}, {70, true}, {1, false}, {3, false},
                         {2, false},  {64, true}, {64, true}, {5, false}};
  std::vector<uint64_t> vectors = {1, 1, 2, 4, 8, 2, 1, 2,
                                   4, 4, 1, 2, 8, 4, 2};
  uint64_t lines = 0;
  for (const E& e : dict) lines += e.count;
  const uint32_t vpl = 8;
  auto ix = ImprintsIndex::Restore(*bins, vpl, (lines - 1) * vpl + 3, 0,
                                   vectors, dict);
  ASSERT_TRUE(ix.ok()) << ix.status().ToString();
  EXPECT_EQ(ix->num_lines(), lines);
  EXPECT_EQ(ix->LineRows(lines - 1).second - ix->LineRows(lines - 1).first,
            3u);
  ExpectCursorMatchesDecode(*ix, "split runs");
  // 339 lines: repeat entries cross block seams, and the last block
  // holds 19 lines.
  ASSERT_EQ(ix->num_lines() % ImprintsIndex::kCheckpointLines, 19u);
  ExpectSummariesMatchLines(*ix, "split runs");
}

// ---------------- compression effectiveness contrast ----------------

TEST(ImprintsCompressionTest, ClusteredBeatsShuffled) {
  Rng rng(51);
  const size_t n = 200000;
  std::vector<double> clustered(n);
  double walk = 0;
  for (auto& v : clustered) {
    walk += rng.NextGaussian();
    v = walk;
  }
  std::vector<double> shuffled = clustered;
  for (size_t i = n - 1; i > 0; --i) {
    std::swap(shuffled[i], shuffled[rng.Uniform(i + 1)]);
  }
  auto c1 = Column::FromVector<double>("c", clustered);
  auto c2 = Column::FromVector<double>("c", shuffled);
  auto ix1 = ImprintsIndex::Build(*c1);
  auto ix2 = ImprintsIndex::Build(*c2);
  ASSERT_TRUE(ix1.ok());
  ASSERT_TRUE(ix2.ok());
  double r1 = ix1->Storage(c1->raw_size_bytes()).vectors_per_line;
  double r2 = ix2->Storage(c2->raw_size_bytes()).vectors_per_line;
  EXPECT_LT(r1, r2) << "clustered data must compress at least as well";
}

}  // namespace
}  // namespace geocol
