// Parity suite of the SIMD kernel layer: every kernel, at every dispatch
// level the CPU supports, must be bit-identical to the scalar reference —
// same selection words, same gathered values, same cell ids, same masks,
// same FP distances (NaN payloads included, compared by bit pattern).
// Inputs are adversarial: NaN, +-Inf, +-0, denormals, values exactly on
// range/cell/edge boundaries, and every lane-remainder length.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "core/imprint_scan.h"
#include "core/refinement.h"
#include "geom/grid.h"
#include "geom/predicates.h"
#include "simd/kernels_generic.h"
#include "util/rng.h"

namespace geocol {
namespace {

using simd::SimdLevel;

// Restores the startup dispatch level when a test exits.
class LevelGuard {
 public:
  LevelGuard() : saved_(simd::ActiveSimdLevel()) {}
  ~LevelGuard() { simd::SetSimdLevel(saved_); }

 private:
  SimdLevel saved_;
};

// Runs `fn(level)` at every dispatch level this machine supports.
template <typename Fn>
void ForEachLevel(Fn&& fn) {
  LevelGuard guard;
  for (SimdLevel want : {SimdLevel::kScalar, SimdLevel::kAvx2}) {
    if (simd::SetSimdLevel(want) != want) continue;  // not supported here
    fn(want);
  }
}

const char* Name(SimdLevel l) { return simd::SimdLevelName(l); }

// The remainder lengths that exercise every tail path of 2/4/8/16/32-lane
// kernels plus whole-word and cross-word cases.
const size_t kLengths[] = {0, 1, 2, 3,  4,  5,   6,   7,   8,
                           9, 63, 64, 65, 127, 128, 200, 1000};

template <typename T>
std::vector<T> AdversarialValues(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<T> v(n);
  for (size_t i = 0; i < n; ++i) {
    if constexpr (std::is_floating_point_v<T>) {
      switch (rng.Uniform(12)) {
        case 0: v[i] = std::numeric_limits<T>::quiet_NaN(); break;
        case 1: v[i] = std::numeric_limits<T>::infinity(); break;
        case 2: v[i] = -std::numeric_limits<T>::infinity(); break;
        case 3: v[i] = T(0.0); break;
        case 4: v[i] = T(-0.0); break;
        case 5: v[i] = std::numeric_limits<T>::denorm_min(); break;
        case 6: v[i] = -std::numeric_limits<T>::denorm_min(); break;
        case 7: v[i] = T(-1.0); break;  // exact range boundary below
        case 8: v[i] = T(1.0); break;   // exact range boundary below
        default: v[i] = static_cast<T>(rng.UniformDouble(-3.0, 3.0)); break;
      }
    } else {
      switch (rng.Uniform(8)) {
        case 0: v[i] = std::numeric_limits<T>::min(); break;
        case 1: v[i] = std::numeric_limits<T>::max(); break;
        case 2: v[i] = T(0); break;
        case 3: v[i] = T(10); break;  // exact boundary of the test ranges
        case 4: v[i] = T(90); break;  // exact boundary of the test ranges
        default:
          v[i] = static_cast<T>(rng.Uniform(200));
          break;
      }
    }
  }
  return v;
}

template <typename T>
void CheckRangeParity(T lo, T hi, uint64_t seed) {
  for (size_t n : kLengths) {
    std::vector<T> vals = AdversarialValues<T>(n, seed + n);
    const size_t nwords = (n + 63) / 64;
    std::vector<uint64_t> want(nwords + 1, 0xABABABABABABABABull);
    const uint64_t want_sel = simd::generic::RangeSelectBits(
        vals.data(), n, lo, hi, want.data());
    ForEachLevel([&](SimdLevel level) {
      std::vector<uint64_t> got(nwords + 1, 0xABABABABABABABABull);
      const uint64_t got_sel =
          simd::RangeSelectBits(vals.data(), n, lo, hi, got.data());
      EXPECT_EQ(got_sel, want_sel) << Name(level) << " n=" << n;
      for (size_t w = 0; w < nwords; ++w) {
        EXPECT_EQ(got[w], want[w]) << Name(level) << " n=" << n << " word " << w;
      }
      // One-past-the-end word untouched.
      EXPECT_EQ(got[nwords], 0xABABABABABABABABull) << Name(level) << " n=" << n;
    });
  }
}

TEST(SimdRange, Int8) { CheckRangeParity<int8_t>(10, 90, 1); }
TEST(SimdRange, UInt8) { CheckRangeParity<uint8_t>(10, 90, 2); }
TEST(SimdRange, Int16) { CheckRangeParity<int16_t>(10, 90, 3); }
TEST(SimdRange, UInt16) { CheckRangeParity<uint16_t>(10, 90, 4); }
TEST(SimdRange, Int32) { CheckRangeParity<int32_t>(10, 90, 5); }
TEST(SimdRange, UInt32) { CheckRangeParity<uint32_t>(10, 90, 6); }
TEST(SimdRange, Int64) { CheckRangeParity<int64_t>(10, 90, 7); }
TEST(SimdRange, UInt64) { CheckRangeParity<uint64_t>(10, 90, 8); }
TEST(SimdRange, Float32) { CheckRangeParity<float>(-1.0f, 1.0f, 9); }
TEST(SimdRange, Float64) { CheckRangeParity<double>(-1.0, 1.0, 10); }

TEST(SimdRange, ExtremeSignedBounds) {
  CheckRangeParity<int8_t>(std::numeric_limits<int8_t>::min(),
                           std::numeric_limits<int8_t>::max(), 11);
  CheckRangeParity<int64_t>(std::numeric_limits<int64_t>::min(), -1, 12);
  CheckRangeParity<uint64_t>(1ull << 63, std::numeric_limits<uint64_t>::max(),
                             13);
}

TEST(SimdRange, NaNBoundsSelectNothing) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> vals = AdversarialValues<double>(200, 14);
  ForEachLevel([&](SimdLevel level) {
    std::vector<uint64_t> words((vals.size() + 63) / 64);
    EXPECT_EQ(simd::RangeSelectBits(vals.data(), vals.size(), nan, nan,
                                    words.data()),
              0u)
        << Name(level);
    for (uint64_t w : words) EXPECT_EQ(w, 0u) << Name(level);
  });
}

template <typename T>
void CheckGatherParity(uint64_t seed) {
  Rng rng(seed);
  std::vector<T> base = AdversarialValues<T>(4096, seed);
  for (size_t n : kLengths) {
    std::vector<uint64_t> rows(n);
    for (auto& r : rows) r = rng.Uniform(base.size());
    std::vector<double> want(n + 1, -123.0), got(n + 1, -123.0);
    simd::generic::GatherDouble(base.data(), rows.data(), n, want.data());
    ForEachLevel([&](SimdLevel level) {
      std::fill(got.begin(), got.end(), -123.0);
      simd::GatherDouble(base.data(), rows.data(), n, got.data());
      EXPECT_EQ(std::memcmp(got.data(), want.data(), (n + 1) * sizeof(double)),
                0)
          << Name(level) << " n=" << n;
    });
  }
}

TEST(SimdGather, Int8) { CheckGatherParity<int8_t>(21); }
TEST(SimdGather, UInt16) { CheckGatherParity<uint16_t>(22); }
TEST(SimdGather, Int32) { CheckGatherParity<int32_t>(23); }
TEST(SimdGather, UInt32) { CheckGatherParity<uint32_t>(24); }
TEST(SimdGather, Int64) { CheckGatherParity<int64_t>(25); }
TEST(SimdGather, Float32) { CheckGatherParity<float>(26); }
TEST(SimdGather, Float64) { CheckGatherParity<double>(27); }

std::vector<double> AdversarialCoords(size_t n, uint64_t seed, double lo,
                                      double hi) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (size_t i = 0; i < n; ++i) {
    switch (rng.Uniform(10)) {
      case 0: v[i] = std::numeric_limits<double>::quiet_NaN(); break;
      case 1: v[i] = std::numeric_limits<double>::infinity(); break;
      case 2: v[i] = -std::numeric_limits<double>::infinity(); break;
      case 3: v[i] = lo; break;  // exactly on the extent edge
      case 4: v[i] = hi; break;
      case 5: v[i] = lo - 1e9; break;
      case 6: v[i] = hi + 1e9; break;
      default: v[i] = rng.UniformDouble(lo - 1.0, hi + 1.0); break;
    }
  }
  return v;
}

TEST(SimdCellOf, MatchesScalarCellOf) {
  RegularGrid grid(Box(0.0, -5.0, 100.0, 45.0), 37, 53);
  for (size_t n : kLengths) {
    std::vector<double> xs = AdversarialCoords(n, 31 + n, 0.0, 100.0);
    std::vector<double> ys = AdversarialCoords(n, 32 + n, -5.0, 45.0);
    ForEachLevel([&](SimdLevel level) {
      std::vector<uint64_t> cells(n + 1, ~uint64_t{0});
      grid.CellOfBatch(xs.data(), ys.data(), n, cells.data());
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(cells[i], grid.CellOf(xs[i], ys[i]))
            << Name(level) << " i=" << i << " p=(" << xs[i] << "," << ys[i]
            << ")";
      }
      EXPECT_EQ(cells[n], ~uint64_t{0}) << Name(level);
    });
  }
}

TEST(SimdCellOf, EdgeClampingAtMaxResolution) {
  RegularGrid grid(Box(0.0, 0.0, 1.0, 1.0), 4096, 4096);
  const double eps = std::nextafter(1.0, 2.0);
  std::vector<double> xs = {0.0, 1.0, eps, -0.0, 0.5, 1e308,
                            std::numeric_limits<double>::quiet_NaN()};
  std::vector<double> ys = xs;
  ForEachLevel([&](SimdLevel level) {
    std::vector<uint64_t> cells(xs.size());
    grid.CellOfBatch(xs.data(), ys.data(), xs.size(), cells.data());
    for (size_t i = 0; i < xs.size(); ++i) {
      EXPECT_EQ(cells[i], grid.CellOf(xs[i], ys[i])) << Name(level) << " " << i;
      EXPECT_LT(cells[i], grid.num_cells()) << Name(level) << " " << i;
    }
  });
}

Ring MakeStar(size_t spikes, double cx, double cy, double r) {
  Ring ring;
  for (size_t i = 0; i < 2 * spikes; ++i) {
    double a = M_PI * static_cast<double>(i) / spikes;
    double rr = (i % 2 == 0) ? r : r * 0.4;
    ring.points.push_back({cx + rr * std::cos(a), cy + rr * std::sin(a)});
  }
  return ring;
}

// Points likely to hit ring vertices, edge midpoints and horizontal-ray
// degeneracies exactly, plus NaN/Inf.
std::vector<Point> AdversarialPoints(const Ring& ring, size_t n,
                                     uint64_t seed) {
  Rng rng(seed);
  std::vector<Point> pts(n);
  const size_t nr = ring.points.size();
  for (size_t i = 0; i < n; ++i) {
    switch (rng.Uniform(8)) {
      case 0: pts[i] = ring.points[rng.Uniform(nr)]; break;  // exact vertex
      case 1: {  // exact edge midpoint
        size_t e = rng.Uniform(nr);
        const Point& a = ring.points[e];
        const Point& b = ring.points[(e + 1) % nr];
        pts[i] = {(a.x + b.x) / 2, (a.y + b.y) / 2};
        break;
      }
      case 2: {  // same y as a vertex: horizontal-ray degeneracy
        pts[i] = {rng.UniformDouble(-12, 12), ring.points[rng.Uniform(nr)].y};
        break;
      }
      case 3:
        pts[i] = {std::numeric_limits<double>::quiet_NaN(),
                  rng.UniformDouble(-12, 12)};
        break;
      case 4:
        pts[i] = {rng.UniformDouble(-12, 12),
                  std::numeric_limits<double>::infinity()};
        break;
      default:
        pts[i] = {rng.UniformDouble(-12, 12), rng.UniformDouble(-12, 12)};
        break;
    }
  }
  return pts;
}

TEST(SimdRingMasks, MatchesPointInRing) {
  Ring ring = MakeStar(9, 0.0, 0.0, 10.0);
  for (size_t n : kLengths) {
    std::vector<Point> pts = AdversarialPoints(ring, n, 41 + n);
    std::vector<double> xs(n), ys(n);
    for (size_t i = 0; i < n; ++i) {
      xs[i] = pts[i].x;
      ys[i] = pts[i].y;
    }
    ForEachLevel([&](SimdLevel level) {
      std::vector<uint8_t> in(n + 1, 0xCC), edge(n + 1, 0xCC);
      simd::Kernels().ring_masks(xs.data(), ys.data(), n, ring.points.data(),
                                 ring.points.size(), in.data(), edge.data());
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(in[i] != 0, PointInRing(pts[i], ring))
            << Name(level) << " i=" << i;
      }
      EXPECT_EQ(in[n], 0xCC) << Name(level);
      EXPECT_EQ(edge[n], 0xCC) << Name(level);
    });
  }
}

TEST(SimdRingMasks, DegenerateRings) {
  Ring tiny;  // < 3 points: nothing is inside
  tiny.points = {{0, 0}, {1, 1}};
  std::vector<double> xs = {0.0, 0.5, 2.0}, ys = {0.0, 0.5, 2.0};
  ForEachLevel([&](SimdLevel level) {
    std::vector<uint8_t> in(3, 0xCC), edge(3, 0xCC);
    simd::Kernels().ring_masks(xs.data(), ys.data(), 3, tiny.points.data(),
                               tiny.points.size(), in.data(), edge.data());
    for (size_t i = 0; i < 3; ++i) {
      EXPECT_EQ(in[i], 0) << Name(level);
      EXPECT_EQ(edge[i], 0) << Name(level);
    }
  });
}

TEST(SimdPredicates, PointInPolygonBatchWithHoles) {
  Polygon poly;
  poly.shell = MakeStar(8, 0.0, 0.0, 10.0);
  Ring hole;
  hole.points = {{-2, -2}, {2, -2}, {2, 2}, {-2, 2}};
  poly.holes.push_back(hole);
  for (size_t n : kLengths) {
    std::vector<Point> pts = AdversarialPoints(poly.shell, n, 51 + n);
    // Mix in points exactly on the hole boundary (they stay inside).
    for (size_t i = 0; i + 4 < n; i += 5) pts[i] = {2.0, 0.0};
    std::vector<double> xs(n), ys(n);
    for (size_t i = 0; i < n; ++i) {
      xs[i] = pts[i].x;
      ys[i] = pts[i].y;
    }
    ForEachLevel([&](SimdLevel level) {
      std::vector<uint8_t> got(n);
      PointInPolygonBatch(xs.data(), ys.data(), n, poly, got.data());
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(got[i] != 0, PointInPolygon(pts[i], poly))
            << Name(level) << " i=" << i;
      }
    });
  }
}

TEST(SimdPredicates, ContainsBatchAllGeometryTypes) {
  LineString line;
  line.points = {{0, 0}, {4, 4}, {8, 0}};
  Polygon poly;
  poly.shell = MakeStar(6, 0.0, 0.0, 8.0);
  MultiPolygon mp;
  mp.polygons.push_back(poly);
  Polygon poly2;
  poly2.shell.points = {{20, 20}, {30, 20}, {30, 30}, {20, 30}};
  mp.polygons.push_back(poly2);
  const Geometry geoms[] = {Geometry(Point{1.0, 2.0}),
                            Geometry(Box(0, 0, 5, 5)), Geometry(line),
                            Geometry(poly), Geometry(mp)};
  const size_t n = 257;
  std::vector<Point> pts = AdversarialPoints(poly.shell, n, 61);
  pts[0] = {1.0, 2.0};  // exact point-geometry hit
  pts[1] = {2.0, 2.0};  // exactly on the linestring
  pts[2] = {25.0, 25.0};  // inside the second multipolygon member
  std::vector<double> xs(n), ys(n);
  for (size_t i = 0; i < n; ++i) {
    xs[i] = pts[i].x;
    ys[i] = pts[i].y;
  }
  for (const Geometry& g : geoms) {
    ForEachLevel([&](SimdLevel level) {
      std::vector<uint8_t> got(n);
      GeometryContainsPointBatch(g, xs.data(), ys.data(), n, got.data());
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(got[i] != 0, GeometryContainsPoint(g, pts[i]))
            << Name(level) << " type=" << static_cast<int>(g.type())
            << " i=" << i;
      }
    });
  }
}

TEST(SimdPredicates, DistanceBatchBitIdentical) {
  LineString line;
  line.points = {{0, 0}, {4, 4}, {8, 0}, {8, 8}};
  Polygon poly;
  poly.shell = MakeStar(7, 0.0, 0.0, 9.0);
  Ring hole;
  hole.points = {{-1, -1}, {1, -1}, {1, 1}, {-1, 1}};
  poly.holes.push_back(hole);
  MultiPolygon mp;
  mp.polygons.push_back(poly);
  const Geometry geoms[] = {Geometry(line), Geometry(poly), Geometry(mp),
                            Geometry(Box(0, 0, 5, 5)),
                            Geometry(Point{3.0, 3.0})};
  const size_t n = 130;
  std::vector<Point> pts = AdversarialPoints(poly.shell, n, 71);
  std::vector<double> xs(n), ys(n);
  for (size_t i = 0; i < n; ++i) {
    xs[i] = pts[i].x;
    ys[i] = pts[i].y;
  }
  for (const Geometry& g : geoms) {
    ForEachLevel([&](SimdLevel level) {
      std::vector<double> got(n);
      GeometryPointDistanceBatch(g, xs.data(), ys.data(), n, got.data());
      for (size_t i = 0; i < n; ++i) {
        const double want = GeometryPointDistance(g, pts[i]);
        EXPECT_EQ(std::memcmp(&got[i], &want, sizeof(double)), 0)
            << Name(level) << " type=" << static_cast<int>(g.type())
            << " i=" << i << " got=" << got[i] << " want=" << want;
      }
      std::vector<uint8_t> within(n);
      GeometryDWithinBatch(g, 2.5, xs.data(), ys.data(), n, within.data());
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(within[i] != 0, GeometryDWithin(g, pts[i], 2.5))
            << Name(level) << " type=" << static_cast<int>(g.type())
            << " i=" << i;
      }
    });
  }
}

// ---- BitVector word-granular additions ----------------------------------

TEST(BitVectorSimd, CountInRange) {
  Rng rng(81);
  BitVector bv(1000);
  for (size_t i = 0; i < 1000; ++i) {
    if (rng.NextBool(0.3)) bv.Set(i);
  }
  const size_t ranges[][2] = {{0, 0},   {0, 1},    {0, 64},   {1, 63},
                              {63, 65}, {64, 128}, {100, 900}, {0, 1000},
                              {999, 1000}, {500, 2000}};
  for (auto [b, e] : ranges) {
    size_t want = 0;
    for (size_t i = b; i < std::min<size_t>(e, 1000); ++i) {
      want += bv.Get(i) ? 1 : 0;
    }
    EXPECT_EQ(bv.CountInRange(b, e), want) << "[" << b << "," << e << ")";
  }
  EXPECT_EQ(bv.CountInRange(0, 1000), bv.Count());
}

TEST(BitVectorSimd, OrWordsAtAlignedAndShifted) {
  for (size_t offset : {0ul, 64ul, 1ul, 7ul, 63ul, 65ul, 130ul}) {
    for (size_t nbits : {1ul, 5ul, 63ul, 64ul, 65ul, 128ul, 200ul}) {
      BitVector got(400), want(400);
      got.Set(3);  // pre-existing bits survive the OR
      want.Set(3);
      Rng rng(offset * 1000 + nbits);
      std::vector<uint64_t> words((nbits + 63) / 64, 0);
      for (size_t i = 0; i < nbits; ++i) {
        if (rng.NextBool()) {
          words[i / 64] |= uint64_t{1} << (i % 64);
          want.Set(offset + i);
        }
      }
      got.OrWordsAt(offset, words.data(), nbits);
      EXPECT_TRUE(got == want) << "offset=" << offset << " nbits=" << nbits;
    }
  }
}

// ---- end-to-end: filter and refine agree across levels ------------------

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

TEST(SimdEndToEnd, ImprintSelectIdenticalAcrossLevels) {
  ColumnPtr col = MakeWalkColumn(50000, 91);
  auto ix = ImprintsIndex::Build(*col);
  ASSERT_TRUE(ix.ok());
  Rng rng(92);
  for (int q = 0; q < 10; ++q) {
    double a = rng.UniformDouble(-80, 80), b = rng.UniformDouble(-80, 80);
    double lo = std::min(a, b), hi = std::max(a, b);
    BitVector want;
    ImprintScanStats want_stats;
    {
      LevelGuard guard;
      simd::SetSimdLevel(SimdLevel::kScalar);
      ASSERT_TRUE(ImprintRangeSelect(*col, *ix, lo, hi, &want, &want_stats).ok());
    }
    ForEachLevel([&](SimdLevel level) {
      BitVector got;
      ImprintScanStats stats;
      ASSERT_TRUE(ImprintRangeSelect(*col, *ix, lo, hi, &got, &stats).ok());
      EXPECT_TRUE(got == want) << Name(level) << " q=" << q;
      EXPECT_EQ(stats.rows_selected, want_stats.rows_selected) << Name(level);
      EXPECT_EQ(stats.values_checked, want_stats.values_checked) << Name(level);
      BitVector full;
      FullScanRangeSelect(*col, lo, hi, &full);
      ASSERT_EQ(full.size(), got.size());
      EXPECT_TRUE(full == got) << Name(level) << " (full scan) q=" << q;
    });
  }
}

TEST(SimdEndToEnd, GridRefineIdenticalAcrossLevels) {
  const size_t n = 20000;
  Rng rng(101);
  std::vector<double> xs(n), ys(n);
  for (size_t i = 0; i < n; ++i) {
    xs[i] = rng.UniformDouble(-12, 12);
    ys[i] = rng.UniformDouble(-12, 12);
  }
  ColumnPtr x = Column::FromVector<double>("x", xs);
  ColumnPtr y = Column::FromVector<double>("y", ys);
  std::vector<uint64_t> candidates;
  for (size_t i = 0; i < n; ++i) {
    if (rng.NextBool(0.7)) candidates.push_back(i);
  }
  Polygon poly;
  poly.shell = MakeStar(11, 0.0, 0.0, 10.0);
  Geometry geom(poly);

  for (double buffer : {0.0, 1.5}) {
    std::vector<uint64_t> want;
    RefinementStats want_stats;
    {
      LevelGuard guard;
      simd::SetSimdLevel(SimdLevel::kScalar);
      RefineOptions opt;
      ASSERT_TRUE(GridRefine(*x, *y, candidates, geom, buffer, opt, &want,
                             &want_stats)
                      .ok());
    }
    ForEachLevel([&](SimdLevel level) {
      RefineOptions opt;
      std::vector<uint64_t> got;
      RefinementStats stats;
      ASSERT_TRUE(
          GridRefine(*x, *y, candidates, geom, buffer, opt, &got, &stats).ok());
      EXPECT_EQ(got, want) << Name(level) << " buffer=" << buffer;
      EXPECT_EQ(stats.accepted, want_stats.accepted) << Name(level);
      EXPECT_EQ(stats.exact_tests, want_stats.exact_tests) << Name(level);
      EXPECT_EQ(stats.cells_boundary, want_stats.cells_boundary) << Name(level);

      std::vector<uint64_t> exhaustive;
      RefineOptions no_grid;
      no_grid.use_grid = false;
      ASSERT_TRUE(GridRefine(*x, *y, candidates, geom, buffer, no_grid,
                             &exhaustive, nullptr)
                      .ok());
      EXPECT_EQ(exhaustive, want) << Name(level) << " (exhaustive)";
    });
  }
}

// ---- dispatch plumbing --------------------------------------------------

TEST(SimdDispatch, ParseAndName) {
  SimdLevel lv;
  EXPECT_TRUE(simd::ParseSimdLevel("scalar", &lv));
  EXPECT_EQ(lv, SimdLevel::kScalar);
  EXPECT_TRUE(simd::ParseSimdLevel("avx2", &lv));
  EXPECT_EQ(lv, SimdLevel::kAvx2);
  // The retired SSE2 tier is no longer a level.
  EXPECT_FALSE(simd::ParseSimdLevel("sse2", &lv));
  EXPECT_FALSE(simd::ParseSimdLevel("avx512", &lv));
  EXPECT_FALSE(simd::ParseSimdLevel("", &lv));
  EXPECT_FALSE(simd::ParseSimdLevel(nullptr, &lv));
  EXPECT_STREQ(simd::SimdLevelName(SimdLevel::kScalar), "scalar");
  EXPECT_STREQ(simd::SimdLevelName(SimdLevel::kAvx2), "avx2");
}

TEST(SimdDispatch, SetLevelClampsToHardware) {
  LevelGuard guard;
  const SimdLevel max = simd::MaxSupportedSimdLevel();
  EXPECT_EQ(simd::SetSimdLevel(SimdLevel::kAvx2), max);
  EXPECT_EQ(simd::SetSimdLevel(SimdLevel::kScalar), SimdLevel::kScalar);
  EXPECT_EQ(simd::ActiveSimdLevel(), SimdLevel::kScalar);
}

TEST(SimdDispatch, FeatureBitsAreConsistent) {
  const simd::CpuFeatures& f = simd::DetectCpuFeatures();
  if (simd::MaxSupportedSimdLevel() >= SimdLevel::kAvx2) {
    EXPECT_TRUE(f.avx2);
    EXPECT_TRUE(f.avx);
    EXPECT_TRUE(f.os_ymm);
  }
}

}  // namespace
}  // namespace geocol
