// Scalar reference implementations of every kernel in simd/kernels.h.
// These are the parity oracles: the AVX2 translation unit reuses them for
// remainder tails, and the scalar dispatch level binds them directly.
// The formulas mirror geom/predicates.cpp and geom/grid.h operation by
// operation — do not "simplify" an expression here without changing the
// scalar predicate the same way, or the bit-identical contract breaks.
#ifndef GEOCOL_SIMD_KERNELS_GENERIC_H_
#define GEOCOL_SIMD_KERNELS_GENERIC_H_

#include <algorithm>
#include <bit>

#include "simd/kernels.h"

namespace geocol {
namespace simd {
namespace generic {

template <typename T>
inline uint64_t RangeSelectBits(const T* values, size_t n, T lo, T hi,
                                uint64_t* out) {
  const size_t nwords = (n + 63) / 64;
  uint64_t selected = 0;
  for (size_t w = 0; w < nwords; ++w) {
    const size_t base = w * 64;
    const size_t m = n - base < 64 ? n - base : 64;
    uint64_t word = 0;
    for (size_t k = 0; k < m; ++k) {
      T v = values[base + k];
      word |= static_cast<uint64_t>(v >= lo && v <= hi) << k;
    }
    out[w] = word;
    selected += static_cast<uint64_t>(std::popcount(word));
  }
  return selected;
}

template <typename T>
inline void GatherDouble(const T* base, const uint64_t* rows, size_t n,
                         double* out) {
  for (size_t i = 0; i < n; ++i) {
    out[i] = static_cast<double>(base[rows[i]]);
  }
}

inline void CellOf(const double* xs, const double* ys, size_t n,
                   const GridParams& g, uint64_t* cells) {
  const double colsd = static_cast<double>(g.cols);
  const double rowsd = static_cast<double>(g.rows);
  for (size_t i = 0; i < n; ++i) {
    double fx = (xs[i] - g.min_x) * g.inv_w;
    double fy = (ys[i] - g.min_y) * g.inv_h;
    // NaN and out-of-extent coordinates clamp to the edge cells; the
    // comparisons keep the float->int conversion in-range (never UB).
    int64_t cx = fx > 0.0 ? (fx < colsd ? static_cast<int64_t>(fx) : g.cols - 1)
                          : 0;
    int64_t cy = fy > 0.0 ? (fy < rowsd ? static_cast<int64_t>(fy) : g.rows - 1)
                          : 0;
    cells[i] = static_cast<uint64_t>(cy) * static_cast<uint64_t>(g.cols) +
               static_cast<uint64_t>(cx);
  }
}

// Mirrors PointInRing: per edge, the boundary test (Orient2D == 0 inside
// the segment bbox) and the even-odd crossing toggle. The loop is
// edge-major so the vector versions can share the per-edge scalar
// precomputation; &=/^= accumulation is order-independent, so the result
// equals the point-major scalar walk.
inline void RingMasks(const double* xs, const double* ys, size_t n,
                      const Point* pts, size_t npts, uint8_t* in_out,
                      uint8_t* edge_out) {
  std::fill_n(in_out, n, uint8_t{0});
  std::fill_n(edge_out, n, uint8_t{0});
  if (npts < 3) return;
  for (size_t e = 0, j = npts - 1; e < npts; j = e++) {
    const Point& a = pts[e];
    const Point& b = pts[j];
    const double dxab = b.x - a.x;
    const double dyab = b.y - a.y;
    const double mnx = std::min(a.x, b.x), mxx = std::max(a.x, b.x);
    const double mny = std::min(a.y, b.y), mxy = std::max(a.y, b.y);
    for (size_t i = 0; i < n; ++i) {
      const double px = xs[i], py = ys[i];
      const double pya = py - a.y;
      const double o = dxab * pya - dyab * (px - a.x);
      const bool on = o == 0.0 && px >= mnx && px <= mxx && py >= mny &&
                      py <= mxy;
      edge_out[i] |= static_cast<uint8_t>(on);
      const bool cross = (a.y > py) != (b.y > py);
      if (cross) {
        // cross implies a.y != b.y, so the division is well defined.
        const double x_cross = dxab * pya / dyab + a.x;
        in_out[i] ^= static_cast<uint8_t>(px < x_cross);
      }
    }
  }
  for (size_t i = 0; i < n; ++i) {
    in_out[i] = static_cast<uint8_t>((in_out[i] | edge_out[i]) != 0);
  }
}

inline void OnSegments(const double* xs, const double* ys, size_t n,
                       const Point* pts, size_t npts, uint8_t* out) {
  std::fill_n(out, n, uint8_t{0});
  for (size_t s = 1; s < npts; ++s) {
    const Point& a = pts[s - 1];
    const Point& b = pts[s];
    const double dxab = b.x - a.x;
    const double dyab = b.y - a.y;
    const double mnx = std::min(a.x, b.x), mxx = std::max(a.x, b.x);
    const double mny = std::min(a.y, b.y), mxy = std::max(a.y, b.y);
    for (size_t i = 0; i < n; ++i) {
      const double px = xs[i], py = ys[i];
      const double o = dxab * (py - a.y) - dyab * (px - a.x);
      out[i] |= static_cast<uint8_t>(o == 0.0 && px >= mnx && px <= mxx &&
                                     py >= mny && py <= mxy);
    }
  }
}

// One segment of a min-accumulated distance walk; `a`/`b` play the same
// roles as in PointSegmentDistanceSquared(p, a, b).
inline void SegmentDist2Accum(const double* xs, const double* ys, size_t n,
                              const Point& a, const Point& b, double* best) {
  const double abx = b.x - a.x, aby = b.y - a.y;
  const double len2 = abx * abx + aby * aby;
  for (size_t i = 0; i < n; ++i) {
    const double px = xs[i], py = ys[i];
    double d;
    if (len2 == 0.0) {
      const double dx = px - a.x, dy = py - a.y;
      d = dx * dx + dy * dy;
    } else {
      double t = ((px - a.x) * abx + (py - a.y) * aby) / len2;
      t = std::clamp(t, 0.0, 1.0);
      const double projx = a.x + t * abx, projy = a.y + t * aby;
      const double dx = px - projx, dy = py - projy;
      d = dx * dx + dy * dy;
    }
    best[i] = d < best[i] ? d : best[i];  // std::min(best, d)
  }
}

inline void SegmentsDist2(const double* xs, const double* ys, size_t n,
                          const Point* pts, size_t npts, bool closed,
                          double* best) {
  if (npts == 0) return;
  if (closed) {
    // Closed rings pair pts[s] with the trailing vertex, exactly like
    // PointRingBoundaryDistanceSquared(p, ring) does.
    for (size_t s = 0, j = npts - 1; s < npts; j = s++) {
      SegmentDist2Accum(xs, ys, n, pts[s], pts[j], best);
    }
  } else {
    for (size_t s = 1; s < npts; ++s) {
      SegmentDist2Accum(xs, ys, n, pts[s - 1], pts[s], best);
    }
  }
}

inline void BoxContains(const double* xs, const double* ys, size_t n,
                        const Box& box, uint8_t* out) {
  for (size_t i = 0; i < n; ++i) {
    out[i] = static_cast<uint8_t>(xs[i] >= box.min_x && xs[i] <= box.max_x &&
                                  ys[i] >= box.min_y && ys[i] <= box.max_y);
  }
}

}  // namespace generic

/// Fills `table` with the scalar reference kernels.
void BindScalarKernels(KernelTable* table);
/// Overlays the AVX2 kernels (no-op when not compiled for x86-64).
void BindAvx2Kernels(KernelTable* table);

}  // namespace simd
}  // namespace geocol

#endif  // GEOCOL_SIMD_KERNELS_GENERIC_H_
