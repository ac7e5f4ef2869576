// Imprint-accelerated range selection: equivalence with the full scan
// oracle, work accounting, staleness detection, and the ImprintManager's
// lazy build/rebuild behaviour.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <thread>
#include <vector>

#include "columns/column_file.h"
#include "columns/paged_column.h"
#include "core/imprint_scan.h"
#include "core/native_range.h"
#include "pointcloud/generator.h"
#include "util/rng.h"
#include "util/tempdir.h"
#include "util/thread_pool.h"

namespace geocol {
namespace {

ColumnPtr MakeWalkColumn(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> vals(n);
  double walk = 0;
  for (auto& v : vals) {
    walk += rng.NextGaussian();
    v = walk;
  }
  return Column::FromVector<double>("c", vals);
}

TEST(ImprintScanTest, MatchesFullScanOracle) {
  ColumnPtr col = MakeWalkColumn(30000, 61);
  auto ix = ImprintsIndex::Build(*col);
  ASSERT_TRUE(ix.ok());
  Rng rng(62);
  for (int q = 0; q < 25; ++q) {
    double a = rng.UniformDouble(-100, 100);
    double b = rng.UniformDouble(-100, 100);
    double lo = std::min(a, b), hi = std::max(a, b);
    BitVector via_imprints, via_scan;
    ASSERT_TRUE(ImprintRangeSelect(*col, *ix, lo, hi, &via_imprints).ok());
    FullScanRangeSelect(*col, lo, hi, &via_scan);
    EXPECT_TRUE(via_imprints == via_scan) << "range [" << lo << "," << hi << "]";
  }
}

TEST(ImprintScanTest, EmptyRange) {
  ColumnPtr col = MakeWalkColumn(1000, 63);
  auto ix = ImprintsIndex::Build(*col);
  ASSERT_TRUE(ix.ok());
  BitVector rows;
  ImprintScanStats stats;
  ASSERT_TRUE(ImprintRangeSelect(*col, *ix, 5, 4, &rows, &stats).ok());
  EXPECT_EQ(rows.Count(), 0u);
  EXPECT_EQ(stats.rows_selected, 0u);
  EXPECT_EQ(stats.lines_candidate, 0u);
}

TEST(ImprintScanTest, StatsAreConsistent) {
  ColumnPtr col = MakeWalkColumn(50000, 64);
  auto ix = ImprintsIndex::Build(*col);
  ASSERT_TRUE(ix.ok());
  BitVector rows;
  ImprintScanStats stats;
  ASSERT_TRUE(ImprintRangeSelect(*col, *ix, -5, 5, &rows, &stats).ok());
  EXPECT_EQ(stats.lines_total, ix->num_lines());
  EXPECT_LE(stats.lines_full, stats.lines_candidate);
  EXPECT_EQ(stats.rows_selected, rows.Count());
  // values_checked counts only non-full candidate lines' values.
  EXPECT_LE(stats.values_checked,
            (stats.lines_candidate - stats.lines_full) * ix->values_per_line());
  EXPECT_LE(stats.TouchedFraction(), 1.0);
}

TEST(ImprintScanTest, SelectiveQueryTouchesFewLines) {
  // Clustered data + narrow range: the imprint filter must skip most of
  // the column (the whole point of the index).
  ColumnPtr col = MakeWalkColumn(200000, 65);
  auto ix = ImprintsIndex::Build(*col);
  ASSERT_TRUE(ix.ok());
  const auto& stats_col = *col;
  double mid = stats_col.Stats().min;  // range near the domain edge
  BitVector rows;
  ImprintScanStats stats;
  ASSERT_TRUE(
      ImprintRangeSelect(*col, *ix, mid, mid + 0.5, &rows, &stats).ok());
  EXPECT_LT(stats.TouchedFraction(), 0.5);
}

TEST(ImprintScanTest, StaleIndexRejected) {
  ColumnPtr col = MakeWalkColumn(1000, 66);
  auto ix = ImprintsIndex::Build(*col);
  ASSERT_TRUE(ix.ok());
  col->Append<double>(1.0);
  BitVector rows;
  EXPECT_EQ(ImprintRangeSelect(*col, *ix, 0, 1, &rows).code(),
            StatusCode::kInternal);
}

TEST(ImprintScanTest, IntegerColumnExactBoundaries) {
  std::vector<int32_t> vals;
  for (int i = 0; i < 10000; ++i) vals.push_back(i % 100);
  auto col = Column::FromVector<int32_t>("c", vals);
  auto ix = ImprintsIndex::Build(*col);
  ASSERT_TRUE(ix.ok());
  BitVector rows;
  ASSERT_TRUE(ImprintRangeSelect(*col, *ix, 10, 19, &rows).ok());
  EXPECT_EQ(rows.Count(), 1000u);  // 10 values x 100 repetitions
}

TEST(ImprintScanTest, NativeInt64BoundariesAreExact) {
  // Regression: values near 2^62 differ by 1 — indistinguishable after a
  // double round-trip. The scan must compare in the native type, so
  // base + 1 stays outside [0, 2^62] even though (double)(base + 1) == 2^62.
  const int64_t base = int64_t{1} << 62;
  std::vector<int64_t> vals;
  for (int i = 0; i < 1000; ++i) vals.push_back(i);
  vals.push_back(base - 1);
  vals.push_back(base);
  vals.push_back(base + 1);
  vals.push_back(base + 1025);
  auto col = Column::FromVector<int64_t>("c", vals);
  const double hi = 4611686018427387904.0;  // exactly 2^62

  BitVector scan;
  FullScanRangeSelect(*col, 0.0, hi, &scan);
  EXPECT_EQ(scan.Count(), 1002u);  // 0..999, base-1, base
  EXPECT_TRUE(scan.Get(1000));     // base - 1
  EXPECT_TRUE(scan.Get(1001));     // base
  EXPECT_FALSE(scan.Get(1002));    // base + 1 rounds to 2^62 as double
  EXPECT_FALSE(scan.Get(1003));

  auto ix = ImprintsIndex::Build(*col);
  ASSERT_TRUE(ix.ok());
  BitVector via_imprints;
  ASSERT_TRUE(ImprintRangeSelect(*col, *ix, 0.0, hi, &via_imprints).ok());
  EXPECT_TRUE(via_imprints == scan);
}

// Rows of the blocks whose summary hits the range's query mask: the rows a
// one-term scan keeps after block pruning.
uint64_t SurvivingRows(const ImprintsIndex& ix, double lo, double hi) {
  const ImprintMask m = ix.MaskForRange(lo, hi);
  const uint64_t block_rows =
      ImprintsIndex::kCheckpointLines * ix.values_per_line();
  uint64_t rows = 0;
  for (uint64_t b = 0; b < ix.block_summaries().size(); ++b) {
    if ((ix.block_summaries()[b] & m.query) == 0) continue;
    rows += std::min(ix.num_rows(), (b + 1) * block_rows) - b * block_rows;
  }
  return rows;
}

TEST(ImprintScanTest, ParallelScanMatchesSerial) {
  // The morsel-driven scan produces the identical selection and identical
  // merged stats. It forks exactly when the rows that survive block
  // pruning reach kMinParallelScanRows; the whole-column window always
  // does.
  ColumnPtr col = MakeWalkColumn(400000, 67);
  auto ix = ImprintsIndex::Build(*col);
  ASSERT_TRUE(ix.ok());
  ThreadPool pool(3);
  Rng rng(68);
  bool forked = false;
  for (int q = 0; q < 11; ++q) {
    double a = rng.UniformDouble(-300, 300);
    double b = rng.UniformDouble(-300, 300);
    double lo = std::min(a, b), hi = std::max(a, b);
    if (q == 10) {
      lo = -std::numeric_limits<double>::infinity();
      hi = std::numeric_limits<double>::infinity();
    }
    BitVector serial_rows, parallel_rows;
    ImprintScanStats serial_stats, parallel_stats;
    ASSERT_TRUE(
        ImprintRangeSelect(*col, *ix, lo, hi, &serial_rows, &serial_stats)
            .ok());
    ASSERT_TRUE(ImprintRangeSelect(*col, *ix, lo, hi, &parallel_rows,
                                   &parallel_stats, &pool)
                    .ok());
    EXPECT_TRUE(serial_rows == parallel_rows) << "[" << lo << "," << hi << "]";
    EXPECT_EQ(parallel_stats.lines_total, serial_stats.lines_total);
    EXPECT_EQ(parallel_stats.lines_candidate, serial_stats.lines_candidate);
    EXPECT_EQ(parallel_stats.lines_full, serial_stats.lines_full);
    EXPECT_EQ(parallel_stats.blocks_visited, serial_stats.blocks_visited);
    EXPECT_EQ(parallel_stats.lines_visited, serial_stats.lines_visited);
    EXPECT_EQ(parallel_stats.values_checked, serial_stats.values_checked);
    EXPECT_EQ(parallel_stats.rows_selected, serial_stats.rows_selected);
    EXPECT_EQ(parallel_stats.rows_full, serial_stats.rows_full);
    EXPECT_DOUBLE_EQ(parallel_stats.FalsePositiveRate(),
                     serial_stats.FalsePositiveRate());
    EXPECT_EQ(serial_stats.workers, 1u);
    const bool fork = SurvivingRows(*ix, lo, hi) >= kMinParallelScanRows;
    EXPECT_EQ(parallel_stats.workers > 1, fork) << "[" << lo << "," << hi
                                                << "]";
    forked |= fork;
  }
  EXPECT_TRUE(forked);
}

TEST(ImprintScanTest, RowsFullAndFalsePositiveRate) {
  ColumnPtr col = MakeWalkColumn(100000, 71);
  auto ix = ImprintsIndex::Build(*col);
  ASSERT_TRUE(ix.ok());

  // Full-extent query: everything is selected. Lines touching the extreme
  // histogram bins still get value-checked, but every checked value
  // matches, so the false-positive rate is exactly zero and the full-line
  // rows plus the checked values cover the whole column.
  BitVector all;
  ImprintScanStats st_all;
  ASSERT_TRUE(ImprintRangeSelect(*col, *ix, -1e18, 1e18, &all, &st_all).ok());
  EXPECT_EQ(st_all.rows_selected, col->size());
  EXPECT_EQ(st_all.rows_full + st_all.values_checked, col->size());
  EXPECT_DOUBLE_EQ(st_all.FalsePositiveRate(), 0.0);

  // Narrow query: boundary lines get checked; the rate is a valid
  // fraction and rows_full never exceeds the selection.
  BitVector narrow;
  ImprintScanStats st;
  ASSERT_TRUE(ImprintRangeSelect(*col, *ix, -2, 2, &narrow, &st).ok());
  EXPECT_LE(st.rows_full, st.rows_selected);
  EXPECT_GE(st.FalsePositiveRate(), 0.0);
  EXPECT_LE(st.FalsePositiveRate(), 1.0);
}

TEST(ImprintScanTest, SmallColumnIgnoresPool) {
  // Below the threshold the pool must not change anything.
  ColumnPtr col = MakeWalkColumn(5000, 69);
  auto ix = ImprintsIndex::Build(*col);
  ASSERT_TRUE(ix.ok());
  ThreadPool pool(3);
  BitVector rows;
  ImprintScanStats stats;
  ASSERT_TRUE(ImprintRangeSelect(*col, *ix, -5, 5, &rows, &stats, &pool).ok());
  EXPECT_EQ(stats.workers, 1u);
  BitVector oracle;
  FullScanRangeSelect(*col, -5, 5, &oracle);
  EXPECT_TRUE(rows == oracle);
}

// Regression: a range inside one bin whose lower edge it does not reach
// (`classification BETWEEN 3 AND 3` on a bin (1, 3]) must not mark that bin
// inner — lines holding only that bin would be accepted whole, returning
// the bin's other values too.
TEST(ImprintScanTest, SingleBinRangeIsNotInner) {
  std::vector<uint8_t> vals;
  for (int run = 0; run < 200; ++run) {
    vals.insert(vals.end(), 256, static_cast<uint8_t>(2 + run % 2));
  }
  auto col = Column::FromVector<uint8_t>("classification", vals);
  auto bins = BinBounds::FromBounds({1, 3, 7});
  ASSERT_TRUE(bins.ok());
  auto ix = ImprintsIndex::BuildWithBins(*col, *bins);
  ASSERT_TRUE(ix.ok());
  const ImprintMask m = ix->MaskForRange(3, 3);
  EXPECT_EQ(m.query, uint64_t{1} << 1);
  EXPECT_EQ(m.inner, 0u);
  BitVector rows;
  ASSERT_TRUE(ImprintRangeSelect(*col, *ix, 3, 3, &rows).ok());
  EXPECT_EQ(rows.Count(), vals.size() / 2);
  // The whole bin is inner once the range reaches both of its edges.
  EXPECT_EQ(ix->MaskForRange(1, 3).inner, uint64_t{1} << 1);
  EXPECT_EQ(ix->MaskForRange(-std::numeric_limits<double>::infinity(), 1)
                .inner,
            uint64_t{1});
}

// Small-domain integer columns laid out in runs, so many cache lines hold
// a single bin and take the full-line path; every single-value range and
// every pair of bin edges / domain values must select exactly what the full
// scan selects, under sampled (merged) and explicit bins.
template <typename T>
void CheckSmallDomainRanges(int min_v, int max_v, uint64_t seed) {
  Rng rng(seed);
  std::vector<T> vals;
  while (vals.size() < 6000) {
    const T v = static_cast<T>(min_v + static_cast<int>(
                                           rng.Uniform(max_v - min_v + 1)));
    vals.insert(vals.end(), 1 + rng.Uniform(200), v);
  }
  auto col = Column::FromVector<T>("c", vals);
  std::vector<ImprintsIndex> indexes;
  for (uint32_t max_bins : {4u, 8u, 64u}) {
    ImprintsOptions opts;
    opts.max_bins = max_bins;
    auto ix = ImprintsIndex::Build(*col, opts);
    ASSERT_TRUE(ix.ok());
    indexes.push_back(std::move(*ix));
  }
  auto bins = BinBounds::FromBounds(
      {static_cast<double>(min_v + 1), static_cast<double>(min_v + 3),
       static_cast<double>((min_v + max_v) / 2)});
  ASSERT_TRUE(bins.ok());
  auto explicit_ix = ImprintsIndex::BuildWithBins(*col, *bins);
  ASSERT_TRUE(explicit_ix.ok());
  indexes.push_back(std::move(*explicit_ix));

  const double inf = std::numeric_limits<double>::infinity();
  for (const ImprintsIndex& ix : indexes) {
    std::vector<double> points = {-inf, inf};
    for (int v = min_v - 1; v <= max_v + 1; ++v) {
      points.push_back(v);
      points.push_back(v + 0.5);
    }
    for (uint32_t b = 0; b < ix.num_bins(); ++b) {
      points.push_back(ix.bins().upper(b));
    }
    for (double lo : points) {
      for (double hi : points) {
        if (lo > hi) continue;
        BitVector via_imprints, via_scan;
        ASSERT_TRUE(ImprintRangeSelect(*col, ix, lo, hi, &via_imprints).ok());
        ASSERT_TRUE(FullScanRangeSelect(*col, lo, hi, &via_scan).ok());
        ASSERT_TRUE(via_imprints == via_scan)
            << "bins=" << ix.num_bins() << " range [" << lo << ", " << hi
            << "]: " << via_imprints.Count() << " vs " << via_scan.Count();
      }
    }
  }
}

TEST(ImprintScanTest, SmallDomainUint8RangesMatchFullScan) {
  CheckSmallDomainRanges<uint8_t>(0, 12, 71);
}

TEST(ImprintScanTest, SmallDomainInt16RangesMatchFullScan) {
  CheckSmallDomainRanges<int16_t>(-9, 9, 72);
}

// ---------------- conjunctive scan ----------------

// Five clustered columns of different widths, so the scan maps lines
// across values-per-line: f64 (8 per line), f32 (16), u8 (64), u16 (32)
// and i32 (16).
FlatTable MakeMixedTable(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> a(n);
  std::vector<float> b(n);
  std::vector<uint8_t> c(n);
  std::vector<uint16_t> d(n);
  std::vector<int32_t> e(n);
  double walk = 0;
  for (size_t i = 0; i < n; ++i) {
    walk += rng.NextGaussian();
    a[i] = walk;
    b[i] = static_cast<float>((i % 5000) * 0.2 + rng.UniformDouble(0, 3));
    c[i] = static_cast<uint8_t>((i / 700) % 12);
    d[i] = static_cast<uint16_t>(rng.Uniform(4096));
    e[i] = static_cast<int32_t>(i / 3) - 20000 +
           static_cast<int32_t>(rng.Uniform(50));
  }
  FlatTable t("mixed");
  EXPECT_TRUE(t.AddColumn(Column::FromVector<double>("a", a)).ok());
  EXPECT_TRUE(t.AddColumn(Column::FromVector<float>("b", b)).ok());
  EXPECT_TRUE(t.AddColumn(Column::FromVector<uint8_t>("c", c)).ok());
  EXPECT_TRUE(t.AddColumn(Column::FromVector<uint16_t>("d", d)).ok());
  EXPECT_TRUE(t.AddColumn(Column::FromVector<int32_t>("e", e)).ok());
  return t;
}

struct Range {
  double lo, hi;
};

// The oracle: AND of a full scan per term, as ascending row ids.
std::vector<uint64_t> AndOfFullScans(const std::vector<ColumnPtr>& cols,
                                     const std::vector<Range>& ranges) {
  BitVector acc;
  for (size_t t = 0; t < cols.size(); ++t) {
    BitVector rows;
    EXPECT_TRUE(FullScanRangeSelect(*cols[t], ranges[t].lo, ranges[t].hi,
                                    &rows).ok());
    if (t == 0) {
      acc = std::move(rows);
    } else {
      acc.And(rows);
    }
  }
  std::vector<uint64_t> out;
  acc.CollectSetBits(&out);
  return out;
}

struct BruteCounts {
  uint64_t candidate = 0;
  uint64_t full = 0;
  uint64_t values_checked = 0;
  uint64_t rows_full = 0;
};

// Brute-force work accounting of a conjunctive scan, from fully decoded
// imprints and full scans, with no block pruning: a line of the driving
// column (the one of the first two terms with the shorter dictionary) is a
// candidate when some row in it hits every term's imprint, and full when
// no such row needs a value check (its line is full in every term). A term
// without an imprint hits every line and is never full. Value checks run
// over maximal runs of rows with the same terms to check, cut at the
// scan's 4,096-row check grid; each piece checks its terms in order and
// stops after the first whose AND leaves no row. An unsatisfiable term,
// after clamping into the column's type, scans nothing.
BruteCounts BruteForceScan(const std::vector<ColumnPtr>& cols,
                           const std::vector<const ImprintsIndex*>& indexes,
                           const std::vector<Range>& ranges) {
  BruteCounts out;
  size_t lead = 0;
  if (indexes.size() > 1 && indexes[0] != nullptr && indexes[1] != nullptr &&
      indexes[1]->dictionary().size() < indexes[0]->dictionary().size()) {
    lead = 1;
  }
  for (size_t t = 0; t < cols.size(); ++t) {
    bool empty = false;
    DispatchDataType(cols[t]->type(), [&]<typename T>() {
      empty = ClampRangeToType<T>(ranges[t].lo, ranges[t].hi).empty;
    });
    if (empty) return out;
  }
  const uint64_t n = cols[0]->size();
  // Per term and row: 0 = miss, 1 = full, 2 = partial.
  std::vector<std::vector<uint8_t>> status(cols.size(),
                                           std::vector<uint8_t>(n, 2));
  std::vector<BitVector> selected(cols.size());
  for (size_t t = 0; t < cols.size(); ++t) {
    EXPECT_TRUE(FullScanRangeSelect(*cols[t], ranges[t].lo, ranges[t].hi,
                                    &selected[t]).ok());
    const ImprintsIndex* ix = indexes[t];
    if (ix == nullptr) continue;
    const ImprintMask m = ix->MaskForRange(ranges[t].lo, ranges[t].hi);
    uint64_t line = 0;
    size_t vec = 0;
    for (const ImprintsIndex::DictEntry& e : ix->dictionary()) {
      for (uint32_t j = 0; j < e.count; ++j, ++line) {
        const uint64_t v = ix->vectors()[e.repeat ? vec : vec + j];
        const uint8_t st = (v & m.query) == 0    ? 0
                           : (v & ~m.inner) == 0 ? 1
                                                 : 2;
        auto [first, last] = ix->LineRows(line);
        for (uint64_t r = first; r < last; ++r) status[t][r] = st;
      }
      vec += e.repeat ? 1 : e.count;
    }
  }
  // Terms to check at row r (0 when r is a miss or full in every term),
  // and whether every term hits r.
  auto check_mask = [&](uint64_t r, bool* hit) {
    uint64_t mask = 0;
    *hit = true;
    for (size_t t = 0; t < cols.size(); ++t) {
      *hit &= status[t][r] != 0;
      if (status[t][r] == 2) mask |= uint64_t{1} << t;
    }
    return *hit ? mask : 0;
  };
  for (uint64_t p = 0; p < n;) {
    bool hit = false;
    const uint64_t mask = check_mask(p, &hit);
    uint64_t q = p + 1;
    bool next_hit = false;
    while (q < n && q % 4096 != 0 && check_mask(q, &next_hit) == mask &&
           next_hit == hit) {
      ++q;
    }
    if (hit && mask == 0) out.rows_full += q - p;
    if (hit && mask != 0) {
      std::vector<bool> acc(q - p, true);
      for (size_t t = 0; t < cols.size(); ++t) {
        if ((mask >> t & 1) == 0) continue;
        out.values_checked += q - p;
        bool any = false;
        for (uint64_t r = p; r < q; ++r) {
          acc[r - p] = acc[r - p] && selected[t].Get(r);
          any |= acc[r - p];
        }
        if (!any) break;
      }
    }
    p = q;
  }
  if (indexes[lead] == nullptr) return out;
  const ImprintsIndex& d = *indexes[lead];
  for (uint64_t line = 0; line < d.num_lines(); ++line) {
    auto [first, last] = d.LineRows(line);
    bool candidate = false, checked = false;
    for (uint64_t r = first; r < last; ++r) {
      bool hit = false;
      const uint64_t mask = check_mask(r, &hit);
      candidate |= hit;
      checked |= hit && mask != 0;
    }
    out.candidate += candidate;
    out.full += candidate && !checked;
  }
  return out;
}

// The conjunctive scan equals the AND of full scans over mixed types and
// values-per-line, on row counts that divide by neither 64 nor any
// values-per-line, for random, empty, NaN, inverted and whole-column
// ranges, on resident and paged columns, serially and pooled; its line
// counts equal the brute-force counts, and every configuration reports
// the same stats.
TEST(ConjunctiveScanTest, MatchesAndOfFullScans) {
  ThreadPool pool(3);
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (size_t n : {1000u, 4099u, 150001u}) {
    SCOPED_TRACE(testing::Message() << "rows=" << n);
    FlatTable resident = MakeMixedTable(n, 500 + n);
    TempDir dir("conj-scan");
    ASSERT_TRUE(WriteTableDir(resident, dir.File("t")).ok());
    auto paged = ReadTableDirPaged(dir.File("t"));
    ASSERT_TRUE(paged.ok()) << paged.status().ToString();

    // Indexes are built per tier; a paged build reads the same values.
    std::map<std::string, ImprintsIndex> resident_ix, paged_ix;
    for (const std::string name : {"a", "b", "c", "d", "e"}) {
      auto r = ImprintsIndex::Build(**resident.GetColumn(name));
      auto p = ImprintsIndex::Build(**paged->GetColumn(name));
      ASSERT_TRUE(r.ok());
      ASSERT_TRUE(p.ok());
      ASSERT_TRUE((*paged->GetColumn(name))->paged());
      resident_ix.emplace(name, std::move(*r));
      paged_ix.emplace(name, std::move(*p));
    }

    // Column sets; a "-" suffix scans that term without its imprint.
    const std::vector<std::vector<std::string>> sets = {
        {"a", "b", "c", "d", "e"}, {"b", "a", "c"}, {"c", "d"},
        {"e", "a", "c-"},          {"a-", "b-", "d"}, {"d", "e", "b"}};
    Rng rng(n);
    for (const auto& set : sets) {
      std::vector<std::string> names;
      std::vector<bool> use_index;
      for (const std::string& s : set) {
        names.push_back(s.substr(0, 1));
        use_index.push_back(s.size() == 1);
      }
      std::vector<ColumnPtr> cols;
      for (const std::string& name : names) {
        cols.push_back(*resident.GetColumn(name));
      }
      for (int q = 0; q < 24; ++q) {
        std::vector<Range> ranges;
        for (const ColumnPtr& col : cols) {
          double u = col->GetDouble(rng.Uniform(n));
          double v = col->GetDouble(rng.Uniform(n));
          if (u > v) std::swap(u, v);
          ranges.push_back({u, v});
        }
        // One term of the query gets a special range.
        const size_t t = rng.Uniform(cols.size());
        switch (q % 6) {
          case 1: ranges[t] = {1e12, 2e12}; break;         // matches nothing
          case 2: ranges[t].lo = nan; break;                // NaN bound
          case 3: ranges[t] = {ranges[t].hi + 1, ranges[t].lo}; break;
          case 4: ranges[t] = {-inf, inf}; break;           // whole column
          case 5:
            for (Range& r : ranges) r = {-inf, inf};        // every row
            break;
          default: break;
        }
        SCOPED_TRACE(testing::Message() << "set " << set[0] << "... query "
                                        << q);
        const std::vector<uint64_t> want = AndOfFullScans(cols, ranges);
        std::vector<const ImprintsIndex*> brute_ix;
        for (size_t i = 0; i < names.size(); ++i) {
          brute_ix.push_back(use_index[i] ? &resident_ix.at(names[i])
                                          : nullptr);
        }
        const BruteCounts brute = BruteForceScan(cols, brute_ix, ranges);

        ImprintScanStats first_stats;
        bool have_first = false;
        for (bool use_paged : {false, true}) {
          for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
            std::vector<RangeTerm> terms;
            for (size_t i = 0; i < names.size(); ++i) {
              const Column* col =
                  use_paged ? paged->GetColumn(names[i])->get()
                            : resident.GetColumn(names[i])->get();
              auto& ixs = use_paged ? paged_ix : resident_ix;
              terms.push_back({col, use_index[i] ? &ixs.at(names[i]) : nullptr,
                               ranges[i].lo, ranges[i].hi});
            }
            std::vector<uint64_t> got;
            ImprintScanStats st;
            ASSERT_TRUE(ConjunctiveRangeSelect(terms, &got, &st, p).ok());
            SCOPED_TRACE(testing::Message()
                         << (use_paged ? "paged" : "resident")
                         << (p != nullptr ? " pooled" : " serial"));
            ASSERT_EQ(got, want);
            EXPECT_EQ(st.rows_selected, got.size());
            EXPECT_LE(st.rows_full, st.rows_selected);
            // Block pruning drops only rows some imprint misses, so the
            // work equals the unpruned model's exactly.
            EXPECT_EQ(st.lines_candidate, brute.candidate);
            EXPECT_EQ(st.lines_full, brute.full);
            EXPECT_EQ(st.values_checked, brute.values_checked);
            EXPECT_EQ(st.rows_full, brute.rows_full);
            EXPECT_LE(st.lines_candidate, st.lines_visited);
            if (!have_first) {
              first_stats = st;
              have_first = true;
            } else {
              EXPECT_EQ(st.lines_total, first_stats.lines_total);
              EXPECT_EQ(st.blocks_visited, first_stats.blocks_visited);
              EXPECT_EQ(st.lines_visited, first_stats.lines_visited);
            }
          }
        }
      }
    }
  }
}

// On a generator survey (flight strips 120 m wide, rows in acquisition
// order) a viewport's walk follows the window: block pruning keeps only
// the driving column's candidate lines in blocks that the other imprint
// admits too. Windows keep the survey's aspect ratio. Every 512-row block
// of x spans a whole strip, so a window keeps the blocks of the 1 to 4 of
// the survey's 8.3 strips it touches: 0.2 % and 1 % windows touch at most
// two (a quarter of the lines the driving column admits), 4 % windows up
// to four (at most half). A 2-row window scans on the calling thread.
TEST(ConjunctiveScanTest, BlockPruningFollowsTheWindow) {
  AhnGenerator gen;
  auto table = gen.GenerateTable(300000);
  ASSERT_TRUE(table.ok());
  ColumnPtr x = *(*table)->GetColumn("x");
  ColumnPtr y = *(*table)->GetColumn("y");
  auto xi = ImprintsIndex::Build(*x);
  auto yi = ImprintsIndex::Build(*y);
  ASSERT_TRUE(xi.ok());
  ASSERT_TRUE(yi.ok());
  // The scan drives from y, whose dictionary is the shorter one.
  ASSERT_LT(yi->dictionary().size(), xi->dictionary().size());
  ThreadPool pool(3);
  const Box e = gen.options().extent;
  for (double area : {0.002, 0.01, 0.04}) {
    const double side = std::sqrt(area);
    for (double at : {0.1, 0.3, 0.5, 0.7, 0.9}) {
      const double x0 = e.min_x + at * (1 - side) * e.width();
      const double y0 = e.min_y + at * (1 - side) * e.height();
      const double x1 = x0 + side * e.width(), y1 = y0 + side * e.height();
      SCOPED_TRACE(testing::Message() << "area " << area << " at " << at);
      std::vector<uint64_t> rows;
      ImprintScanStats st;
      ASSERT_TRUE(ConjunctiveRangeSelect({{x.get(), &*xi, x0, x1},
                                          {y.get(), &*yi, y0, y1}},
                                         &rows, &st, &pool)
                      .ok());
      ASSERT_EQ(rows, AndOfFullScans({x, y}, {{x0, x1}, {y0, y1}}));
      uint64_t admitted = 0;
      yi->CandidateRuns(yi->MaskForRange(y0, y1), 0, yi->num_lines(),
                        [&](uint64_t, uint64_t count, bool) {
                          admitted += count;
                        });
      EXPECT_GE(st.lines_visited, st.lines_candidate);
      EXPECT_GE(st.blocks_visited * ImprintsIndex::kCheckpointLines,
                st.lines_visited);
      EXPECT_LE(st.lines_visited * (area < 0.04 ? 4 : 2), admitted)
          << st.lines_visited << " of " << admitted;
    }
  }

  // Two neighbouring points along a scan line.
  const uint64_t r = x->size() / 3;
  const double x0 = std::min(x->GetDouble(r), x->GetDouble(r + 1));
  const double x1 = std::max(x->GetDouble(r), x->GetDouble(r + 1));
  const double y0 = std::min(y->GetDouble(r), y->GetDouble(r + 1));
  const double y1 = std::max(y->GetDouble(r), y->GetDouble(r + 1));
  std::vector<uint64_t> rows;
  ImprintScanStats st;
  ASSERT_TRUE(ConjunctiveRangeSelect(
                  {{x.get(), &*xi, x0, x1}, {y.get(), &*yi, y0, y1}}, &rows,
                  &st, &pool)
                  .ok());
  EXPECT_EQ(rows, AndOfFullScans({x, y}, {{x0, x1}, {y0, y1}}));
  EXPECT_GE(rows.size(), 2u);
  EXPECT_LE(rows.size(), 4u);
  EXPECT_EQ(st.workers, 1u);
  EXPECT_LE(st.blocks_visited, 4u);
}

TEST(ConjunctiveScanTest, RejectsStaleIndexAndMismatchedLengths) {
  auto col = Column::FromVector<double>("c", {1, 2, 3, 4});
  auto ix = ImprintsIndex::Build(*col);
  ASSERT_TRUE(ix.ok());
  auto shorter = Column::FromVector<double>("s", {1, 2, 3});
  std::vector<uint64_t> rows;
  EXPECT_FALSE(ConjunctiveRangeSelect({{col.get(), &*ix, 0, 9},
                                       {shorter.get(), nullptr, 0, 9}},
                                      &rows)
                   .ok());
  col->Append<double>(5.0);
  EXPECT_EQ(ConjunctiveRangeSelect({{col.get(), &*ix, 0, 9}}, &rows).code(),
            StatusCode::kInternal);
}

// ---------------- FullScanRangeSelect ----------------

TEST(FullScanTest, InclusiveBounds) {
  auto col = Column::FromVector<double>("c", {1, 2, 3, 4, 5});
  BitVector rows;
  FullScanRangeSelect(*col, 2, 4, &rows);
  EXPECT_EQ(rows.Count(), 3u);
  EXPECT_TRUE(rows.Get(1));
  EXPECT_TRUE(rows.Get(3));
  EXPECT_FALSE(rows.Get(0));
}

// ---------------- ImprintManager ----------------

TEST(ImprintManagerTest, BuildsLazilyAndCaches) {
  ImprintManager mgr;
  ColumnPtr col = MakeWalkColumn(5000, 70);
  EXPECT_EQ(mgr.num_indexes(), 0u);
  auto ix1 = mgr.GetOrBuild(col);
  ASSERT_TRUE(ix1.ok());
  EXPECT_EQ(mgr.num_indexes(), 1u);
  auto ix2 = mgr.GetOrBuild(col);
  ASSERT_TRUE(ix2.ok());
  EXPECT_EQ(*ix1, *ix2) << "second call must return the cached index";
}

TEST(ImprintManagerTest, RebuildsAfterAppend) {
  ImprintManager mgr;
  ColumnPtr col = MakeWalkColumn(5000, 71);
  auto ix1 = mgr.GetOrBuild(col);
  ASSERT_TRUE(ix1.ok());
  uint64_t lines_before = (*ix1)->num_lines();
  for (int i = 0; i < 1000; ++i) col->Append<double>(i);
  auto ix2 = mgr.GetOrBuild(col);
  ASSERT_TRUE(ix2.ok());
  EXPECT_EQ((*ix2)->built_epoch(), col->epoch());
  EXPECT_GT((*ix2)->num_lines(), lines_before);
  EXPECT_EQ(mgr.num_indexes(), 1u);  // replaced, not duplicated
}

TEST(ImprintManagerTest, NullColumnRejected) {
  ImprintManager mgr;
  EXPECT_FALSE(mgr.GetOrBuild(nullptr).ok());
}

TEST(ImprintManagerTest, ConcurrentFirstQueriesBuildOnce) {
  // Racing first queries on the same column must serialise on the
  // per-column build mutex and all receive the one built index.
  ImprintManager mgr;
  ColumnPtr col = MakeWalkColumn(100000, 74);
  constexpr int kThreads = 8;
  std::vector<std::shared_ptr<const ImprintsIndex>> got(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&mgr, &col, &got, t] {
      auto r = mgr.GetOrBuild(col);
      ASSERT_TRUE(r.ok());
      got[t] = *r;
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(mgr.num_indexes(), 1u);
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(got[t], got[0]) << "thread " << t << " got a different index";
  }
}

TEST(ImprintManagerTest, RebuildKeepsOldIndexAlive) {
  // A rebuild after an append must not invalidate the index an earlier
  // caller still holds (shared ownership, not replacement-in-place).
  ImprintManager mgr;
  ColumnPtr col = MakeWalkColumn(5000, 75);
  auto ix1 = mgr.GetOrBuild(col);
  ASSERT_TRUE(ix1.ok());
  uint64_t old_epoch = (*ix1)->built_epoch();
  for (int i = 0; i < 100; ++i) col->Append<double>(i);
  auto ix2 = mgr.GetOrBuild(col);
  ASSERT_TRUE(ix2.ok());
  EXPECT_NE(*ix1, *ix2);
  EXPECT_EQ((*ix1)->built_epoch(), old_epoch);  // old handle still valid
  EXPECT_EQ((*ix2)->built_epoch(), col->epoch());
}

TEST(ImprintManagerTest, TotalStorageAndClear) {
  ImprintManager mgr;
  ColumnPtr a = MakeWalkColumn(5000, 72);
  ColumnPtr b = MakeWalkColumn(5000, 73);
  ASSERT_TRUE(mgr.GetOrBuild(a).ok());
  ASSERT_TRUE(mgr.GetOrBuild(b).ok());
  EXPECT_EQ(mgr.num_indexes(), 2u);
  EXPECT_GT(mgr.TotalStorageBytes(), 0u);
  mgr.Clear();
  EXPECT_EQ(mgr.num_indexes(), 0u);
  EXPECT_EQ(mgr.TotalStorageBytes(), 0u);
}

}  // namespace
}  // namespace geocol
