// AVX2 kernel overlay: 256-bit versions of the filter/refine inner loops,
// plus hardware gathers for the types the ISA covers. This translation
// unit is compiled with -mavx2 (per-file); dispatch only binds it when
// cpuid + xgetbv report AVX2 with OS ymm support. Remainder tails always
// run the scalar reference, so results stay bit-identical.
#include "simd/kernels_generic.h"

#if defined(__AVX2__)

#include <immintrin.h>

namespace geocol {
namespace simd {
namespace {

// std::min(best, d): d replaces best only when d < best; NaN d keeps best.
inline __m256d MinStd(__m256d best, __m256d d) {
  return _mm256_blendv_pd(best, d, _mm256_cmp_pd(d, best, _CMP_LT_OQ));
}

// ---- range-compare -----------------------------------------------------

uint64_t RangeF64(const double* v, size_t n, double lo, double hi,
                  uint64_t* out) {
  const __m256d vlo = _mm256_set1_pd(lo), vhi = _mm256_set1_pd(hi);
  const size_t full = n / 64;
  uint64_t selected = 0;
  size_t w = 0;
  for (; w < full; ++w) {
    const double* p = v + w * 64;
    uint64_t word = 0;
    for (int k = 0; k < 16; ++k) {
      __m256d x = _mm256_loadu_pd(p + 4 * k);
      __m256d m = _mm256_and_pd(_mm256_cmp_pd(x, vlo, _CMP_GE_OQ),
                                _mm256_cmp_pd(x, vhi, _CMP_LE_OQ));
      word |= static_cast<uint64_t>(_mm256_movemask_pd(m)) << (4 * k);
    }
    out[w] = word;
    selected += static_cast<uint64_t>(std::popcount(word));
  }
  const size_t done = full * 64;
  if (done < n) {
    selected += generic::RangeSelectBits(v + done, n - done, lo, hi, out + w);
  }
  return selected;
}

uint64_t RangeF32(const float* v, size_t n, float lo, float hi,
                  uint64_t* out) {
  const __m256 vlo = _mm256_set1_ps(lo), vhi = _mm256_set1_ps(hi);
  const size_t full = n / 64;
  uint64_t selected = 0;
  size_t w = 0;
  for (; w < full; ++w) {
    const float* p = v + w * 64;
    uint64_t word = 0;
    for (int k = 0; k < 8; ++k) {
      __m256 x = _mm256_loadu_ps(p + 8 * k);
      __m256 m = _mm256_and_ps(_mm256_cmp_ps(x, vlo, _CMP_GE_OQ),
                               _mm256_cmp_ps(x, vhi, _CMP_LE_OQ));
      word |= static_cast<uint64_t>(
                  static_cast<uint32_t>(_mm256_movemask_ps(m)) & 0xFFu)
              << (8 * k);
    }
    out[w] = word;
    selected += static_cast<uint64_t>(std::popcount(word));
  }
  const size_t done = full * 64;
  if (done < n) {
    selected += generic::RangeSelectBits(v + done, n - done, lo, hi, out + w);
  }
  return selected;
}

template <typename T>
uint64_t Range8(const T* v, size_t n, T lo, T hi, uint64_t* out) {
  // AVX2 has only signed byte compares; unsigned values get the sign bit
  // flipped so the signed order matches the unsigned one.
  const __m256i bias = std::is_signed_v<T>
                           ? _mm256_setzero_si256()
                           : _mm256_set1_epi8(static_cast<char>(0x80));
  const __m256i vlo =
      _mm256_xor_si256(_mm256_set1_epi8(static_cast<char>(lo)), bias);
  const __m256i vhi =
      _mm256_xor_si256(_mm256_set1_epi8(static_cast<char>(hi)), bias);
  const size_t full = n / 64;
  uint64_t selected = 0;
  size_t w = 0;
  for (; w < full; ++w) {
    const __m256i* p = reinterpret_cast<const __m256i*>(v + w * 64);
    uint64_t word = 0;
    for (int k = 0; k < 2; ++k) {
      __m256i x = _mm256_xor_si256(_mm256_loadu_si256(p + k), bias);
      __m256i bad = _mm256_or_si256(_mm256_cmpgt_epi8(vlo, x),
                                    _mm256_cmpgt_epi8(x, vhi));
      uint64_t good = ~static_cast<uint32_t>(_mm256_movemask_epi8(bad));
      word |= good << (32 * k);
    }
    out[w] = word;
    selected += static_cast<uint64_t>(std::popcount(word));
  }
  const size_t done = full * 64;
  if (done < n) {
    selected += generic::RangeSelectBits(v + done, n - done, lo, hi, out + w);
  }
  return selected;
}

template <typename T>
uint64_t Range16(const T* v, size_t n, T lo, T hi, uint64_t* out) {
  // Two 16-lane compares pack to one 32-byte mask. packs interleaves the
  // 128-bit halves, so a cross-lane permute restores the sequential order
  // before movemask.
  const __m256i bias = std::is_signed_v<T>
                           ? _mm256_setzero_si256()
                           : _mm256_set1_epi16(short(0x8000));
  const __m256i vlo =
      _mm256_xor_si256(_mm256_set1_epi16(static_cast<short>(lo)), bias);
  const __m256i vhi =
      _mm256_xor_si256(_mm256_set1_epi16(static_cast<short>(hi)), bias);
  const size_t full = n / 64;
  uint64_t selected = 0;
  size_t w = 0;
  for (; w < full; ++w) {
    const __m256i* p = reinterpret_cast<const __m256i*>(v + w * 64);
    uint64_t word = 0;
    for (int k = 0; k < 2; ++k) {
      __m256i x0 = _mm256_xor_si256(_mm256_loadu_si256(p + 2 * k), bias);
      __m256i x1 = _mm256_xor_si256(_mm256_loadu_si256(p + 2 * k + 1), bias);
      __m256i bad0 = _mm256_or_si256(_mm256_cmpgt_epi16(vlo, x0),
                                     _mm256_cmpgt_epi16(x0, vhi));
      __m256i bad1 = _mm256_or_si256(_mm256_cmpgt_epi16(vlo, x1),
                                     _mm256_cmpgt_epi16(x1, vhi));
      __m256i bad = _mm256_permute4x64_epi64(_mm256_packs_epi16(bad0, bad1),
                                             _MM_SHUFFLE(3, 1, 2, 0));
      uint64_t good = ~static_cast<uint32_t>(_mm256_movemask_epi8(bad));
      word |= good << (32 * k);
    }
    out[w] = word;
    selected += static_cast<uint64_t>(std::popcount(word));
  }
  const size_t done = full * 64;
  if (done < n) {
    selected += generic::RangeSelectBits(v + done, n - done, lo, hi, out + w);
  }
  return selected;
}

template <typename T>
uint64_t Range32(const T* v, size_t n, T lo, T hi, uint64_t* out) {
  const __m256i bias = std::is_signed_v<T>
                           ? _mm256_setzero_si256()
                           : _mm256_set1_epi32(static_cast<int>(0x80000000u));
  const __m256i vlo =
      _mm256_xor_si256(_mm256_set1_epi32(static_cast<int>(lo)), bias);
  const __m256i vhi =
      _mm256_xor_si256(_mm256_set1_epi32(static_cast<int>(hi)), bias);
  const size_t full = n / 64;
  uint64_t selected = 0;
  size_t w = 0;
  for (; w < full; ++w) {
    const __m256i* p = reinterpret_cast<const __m256i*>(v + w * 64);
    uint64_t word = 0;
    for (int k = 0; k < 8; ++k) {
      __m256i x = _mm256_xor_si256(_mm256_loadu_si256(p + k), bias);
      __m256i bad = _mm256_or_si256(_mm256_cmpgt_epi32(vlo, x),
                                    _mm256_cmpgt_epi32(x, vhi));
      uint64_t good =
          ~static_cast<uint32_t>(_mm256_movemask_ps(_mm256_castsi256_ps(bad))) &
          0xFFu;
      word |= good << (8 * k);
    }
    out[w] = word;
    selected += static_cast<uint64_t>(std::popcount(word));
  }
  const size_t done = full * 64;
  if (done < n) {
    selected += generic::RangeSelectBits(v + done, n - done, lo, hi, out + w);
  }
  return selected;
}

template <typename T>
uint64_t Range64(const T* v, size_t n, T lo, T hi, uint64_t* out) {
  const __m256i bias =
      std::is_signed_v<T>
          ? _mm256_setzero_si256()
          : _mm256_set1_epi64x(static_cast<long long>(0x8000000000000000ull));
  const __m256i vlo =
      _mm256_xor_si256(_mm256_set1_epi64x(static_cast<long long>(lo)), bias);
  const __m256i vhi =
      _mm256_xor_si256(_mm256_set1_epi64x(static_cast<long long>(hi)), bias);
  const size_t full = n / 64;
  uint64_t selected = 0;
  size_t w = 0;
  for (; w < full; ++w) {
    const __m256i* p = reinterpret_cast<const __m256i*>(v + w * 64);
    uint64_t word = 0;
    for (int k = 0; k < 16; ++k) {
      __m256i x = _mm256_xor_si256(_mm256_loadu_si256(p + k), bias);
      __m256i bad = _mm256_or_si256(_mm256_cmpgt_epi64(vlo, x),
                                    _mm256_cmpgt_epi64(x, vhi));
      uint64_t good =
          ~static_cast<uint32_t>(_mm256_movemask_pd(_mm256_castsi256_pd(bad))) &
          0xFu;
      word |= good << (4 * k);
    }
    out[w] = word;
    selected += static_cast<uint64_t>(std::popcount(word));
  }
  const size_t done = full * 64;
  if (done < n) {
    selected += generic::RangeSelectBits(v + done, n - done, lo, hi, out + w);
  }
  return selected;
}

// ---- gathers -----------------------------------------------------------

void GatherF64(const double* base, const uint64_t* rows, size_t n,
               double* out) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256i idx =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(rows + i));
    _mm256_storeu_pd(out + i, _mm256_i64gather_pd(base, idx, 8));
  }
  if (i < n) generic::GatherDouble(base, rows + i, n - i, out + i);
}

void GatherF32(const float* base, const uint64_t* rows, size_t n,
               double* out) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256i idx =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(rows + i));
    __m128 v = _mm256_i64gather_ps(base, idx, 4);
    _mm256_storeu_pd(out + i, _mm256_cvtps_pd(v));
  }
  if (i < n) generic::GatherDouble(base, rows + i, n - i, out + i);
}

void GatherI32(const int32_t* base, const uint64_t* rows, size_t n,
               double* out) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256i idx =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(rows + i));
    __m128i v = _mm256_i64gather_epi32(base, idx, 4);
    _mm256_storeu_pd(out + i, _mm256_cvtepi32_pd(v));
  }
  if (i < n) generic::GatherDouble(base, rows + i, n - i, out + i);
}

// ---- grid cell assignment ---------------------------------------------

// Picks the high dword of each 64-bit compare mask, giving a 4x32-bit mask.
inline __m128i NarrowMask(__m256d m) {
  const __m256 mps = _mm256_castpd_ps(m);
  const __m128 lo = _mm256_castps256_ps128(mps);
  const __m128 hi = _mm256_extractf128_ps(mps, 1);
  return _mm_castps_si128(_mm_shuffle_ps(lo, hi, _MM_SHUFFLE(3, 1, 3, 1)));
}

void CellOf(const double* xs, const double* ys, size_t n, const GridParams& g,
            uint64_t* cells) {
  const __m256d minx = _mm256_set1_pd(g.min_x), miny = _mm256_set1_pd(g.min_y);
  const __m256d invw = _mm256_set1_pd(g.inv_w), invh = _mm256_set1_pd(g.inv_h);
  const __m256d colsd = _mm256_set1_pd(static_cast<double>(g.cols));
  const __m256d rowsd = _mm256_set1_pd(static_cast<double>(g.rows));
  const __m256d zero = _mm256_setzero_pd();
  const __m128i colsm1 = _mm_set1_epi32(static_cast<int>(g.cols - 1));
  const __m128i rowsm1 = _mm_set1_epi32(static_cast<int>(g.rows - 1));
  const __m128i cols32 = _mm_set1_epi32(static_cast<int>(g.cols));
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d fx =
        _mm256_mul_pd(_mm256_sub_pd(_mm256_loadu_pd(xs + i), minx), invw);
    const __m256d fy =
        _mm256_mul_pd(_mm256_sub_pd(_mm256_loadu_pd(ys + i), miny), invh);
    const __m256d posx = _mm256_cmp_pd(fx, zero, _CMP_GT_OQ);
    const __m256d ltx = _mm256_cmp_pd(fx, colsd, _CMP_LT_OQ);
    const __m256d posy = _mm256_cmp_pd(fy, zero, _CMP_GT_OQ);
    const __m256d lty = _mm256_cmp_pd(fy, rowsd, _CMP_LT_OQ);
    // In-range lanes convert directly; others are zeroed first so the
    // float->int conversion never sees an out-of-range value, then the
    // clamped edge cell is blended in from the masks.
    const __m128i cxi =
        _mm256_cvttpd_epi32(_mm256_and_pd(fx, _mm256_and_pd(posx, ltx)));
    const __m128i cyi =
        _mm256_cvttpd_epi32(_mm256_and_pd(fy, _mm256_and_pd(posy, lty)));
    const __m128i posx32 = NarrowMask(posx), ltx32 = NarrowMask(ltx);
    const __m128i posy32 = NarrowMask(posy), lty32 = NarrowMask(lty);
    const __m128i cx = _mm_blendv_epi8(
        cxi, colsm1, _mm_andnot_si128(ltx32, posx32));
    const __m128i cy = _mm_blendv_epi8(
        cyi, rowsm1, _mm_andnot_si128(lty32, posy32));
    // cols, rows <= 4096, so cell ids fit comfortably in 32 bits.
    const __m128i cell = _mm_add_epi32(_mm_mullo_epi32(cy, cols32), cx);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(cells + i),
                        _mm256_cvtepu32_epi64(cell));
  }
  if (i < n) generic::CellOf(xs + i, ys + i, n - i, g, cells + i);
}

// ---- point-in-ring masks ----------------------------------------------

void RingMasks(const double* xs, const double* ys, size_t n, const Point* pts,
               size_t npts, uint8_t* in_out, uint8_t* edge_out) {
  if (npts < 3) {
    std::fill_n(in_out, n, uint8_t{0});
    std::fill_n(edge_out, n, uint8_t{0});
    return;
  }
  const __m256d zero = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d px = _mm256_loadu_pd(xs + i), py = _mm256_loadu_pd(ys + i);
    __m256d parity = zero, edge = zero;
    for (size_t e = 0, j = npts - 1; e < npts; j = e++) {
      const Point& a = pts[e];
      const Point& b = pts[j];
      const double dxab = b.x - a.x, dyab = b.y - a.y;
      const __m256d pya = _mm256_sub_pd(py, _mm256_set1_pd(a.y));
      const __m256d pxa = _mm256_sub_pd(px, _mm256_set1_pd(a.x));
      const __m256d t1 = _mm256_mul_pd(_mm256_set1_pd(dxab), pya);
      const __m256d o =
          _mm256_sub_pd(t1, _mm256_mul_pd(_mm256_set1_pd(dyab), pxa));
      __m256d on = _mm256_cmp_pd(o, zero, _CMP_EQ_OQ);
      on = _mm256_and_pd(
          on, _mm256_cmp_pd(px, _mm256_set1_pd(std::min(a.x, b.x)),
                            _CMP_GE_OQ));
      on = _mm256_and_pd(
          on, _mm256_cmp_pd(px, _mm256_set1_pd(std::max(a.x, b.x)),
                            _CMP_LE_OQ));
      on = _mm256_and_pd(
          on, _mm256_cmp_pd(py, _mm256_set1_pd(std::min(a.y, b.y)),
                            _CMP_GE_OQ));
      on = _mm256_and_pd(
          on, _mm256_cmp_pd(py, _mm256_set1_pd(std::max(a.y, b.y)),
                            _CMP_LE_OQ));
      edge = _mm256_or_pd(edge, on);
      const __m256d ca = _mm256_cmp_pd(_mm256_set1_pd(a.y), py, _CMP_GT_OQ);
      const __m256d cb = _mm256_cmp_pd(_mm256_set1_pd(b.y), py, _CMP_GT_OQ);
      const __m256d cross = _mm256_xor_pd(ca, cb);
      // Division is unconditional; lanes where cross is false (including
      // dyab == 0) are masked out, matching the scalar guard.
      const __m256d xc = _mm256_add_pd(
          _mm256_div_pd(t1, _mm256_set1_pd(dyab)), _mm256_set1_pd(a.x));
      const __m256d lt = _mm256_cmp_pd(px, xc, _CMP_LT_OQ);
      parity = _mm256_xor_pd(parity, _mm256_and_pd(cross, lt));
    }
    const int mi = _mm256_movemask_pd(_mm256_or_pd(parity, edge));
    const int me = _mm256_movemask_pd(edge);
    for (int k = 0; k < 4; ++k) {
      in_out[i + k] = static_cast<uint8_t>((mi >> k) & 1);
      edge_out[i + k] = static_cast<uint8_t>((me >> k) & 1);
    }
  }
  if (i < n) {
    generic::RingMasks(xs + i, ys + i, n - i, pts, npts, in_out + i,
                       edge_out + i);
  }
}

void OnSegments(const double* xs, const double* ys, size_t n, const Point* pts,
                size_t npts, uint8_t* out) {
  const __m256d zero = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d px = _mm256_loadu_pd(xs + i), py = _mm256_loadu_pd(ys + i);
    __m256d acc = zero;
    for (size_t s = 1; s < npts; ++s) {
      const Point& a = pts[s - 1];
      const Point& b = pts[s];
      const double dxab = b.x - a.x, dyab = b.y - a.y;
      const __m256d o = _mm256_sub_pd(
          _mm256_mul_pd(_mm256_set1_pd(dxab),
                        _mm256_sub_pd(py, _mm256_set1_pd(a.y))),
          _mm256_mul_pd(_mm256_set1_pd(dyab),
                        _mm256_sub_pd(px, _mm256_set1_pd(a.x))));
      __m256d on = _mm256_cmp_pd(o, zero, _CMP_EQ_OQ);
      on = _mm256_and_pd(
          on, _mm256_cmp_pd(px, _mm256_set1_pd(std::min(a.x, b.x)),
                            _CMP_GE_OQ));
      on = _mm256_and_pd(
          on, _mm256_cmp_pd(px, _mm256_set1_pd(std::max(a.x, b.x)),
                            _CMP_LE_OQ));
      on = _mm256_and_pd(
          on, _mm256_cmp_pd(py, _mm256_set1_pd(std::min(a.y, b.y)),
                            _CMP_GE_OQ));
      on = _mm256_and_pd(
          on, _mm256_cmp_pd(py, _mm256_set1_pd(std::max(a.y, b.y)),
                            _CMP_LE_OQ));
      acc = _mm256_or_pd(acc, on);
    }
    const int m = _mm256_movemask_pd(acc);
    for (int k = 0; k < 4; ++k) {
      out[i + k] = static_cast<uint8_t>((m >> k) & 1);
    }
  }
  if (i < n) generic::OnSegments(xs + i, ys + i, n - i, pts, npts, out + i);
}

// ---- point-segment squared distance (min-accumulated) ------------------

inline void SegmentDist2AccumV(const double* xs, const double* ys, size_t n,
                               const Point& a, const Point& b, double* best) {
  const double abx = b.x - a.x, aby = b.y - a.y;
  const double len2 = abx * abx + aby * aby;
  const __m256d ax = _mm256_set1_pd(a.x), ay = _mm256_set1_pd(a.y);
  size_t i = 0;
  if (len2 == 0.0) {
    for (; i + 4 <= n; i += 4) {
      const __m256d dx = _mm256_sub_pd(_mm256_loadu_pd(xs + i), ax);
      const __m256d dy = _mm256_sub_pd(_mm256_loadu_pd(ys + i), ay);
      const __m256d d =
          _mm256_add_pd(_mm256_mul_pd(dx, dx), _mm256_mul_pd(dy, dy));
      _mm256_storeu_pd(best + i, MinStd(_mm256_loadu_pd(best + i), d));
    }
  } else {
    const __m256d vabx = _mm256_set1_pd(abx), vaby = _mm256_set1_pd(aby);
    const __m256d vlen2 = _mm256_set1_pd(len2);
    const __m256d zero = _mm256_setzero_pd(), one = _mm256_set1_pd(1.0);
    for (; i + 4 <= n; i += 4) {
      const __m256d px = _mm256_loadu_pd(xs + i), py = _mm256_loadu_pd(ys + i);
      const __m256d pax = _mm256_sub_pd(px, ax), pay = _mm256_sub_pd(py, ay);
      __m256d t = _mm256_div_pd(
          _mm256_add_pd(_mm256_mul_pd(pax, vabx), _mm256_mul_pd(pay, vaby)),
          vlen2);
      // std::clamp(t, 0, 1): the low clamp wins when both apply; NaN stays.
      t = _mm256_blendv_pd(t, one, _mm256_cmp_pd(one, t, _CMP_LT_OQ));
      t = _mm256_blendv_pd(t, zero, _mm256_cmp_pd(t, zero, _CMP_LT_OQ));
      const __m256d projx = _mm256_add_pd(ax, _mm256_mul_pd(t, vabx));
      const __m256d projy = _mm256_add_pd(ay, _mm256_mul_pd(t, vaby));
      const __m256d dx = _mm256_sub_pd(px, projx);
      const __m256d dy = _mm256_sub_pd(py, projy);
      const __m256d d =
          _mm256_add_pd(_mm256_mul_pd(dx, dx), _mm256_mul_pd(dy, dy));
      _mm256_storeu_pd(best + i, MinStd(_mm256_loadu_pd(best + i), d));
    }
  }
  if (i < n) generic::SegmentDist2Accum(xs + i, ys + i, n - i, a, b, best + i);
}

void SegmentsDist2(const double* xs, const double* ys, size_t n,
                   const Point* pts, size_t npts, bool closed, double* best) {
  if (npts == 0) return;
  if (closed) {
    for (size_t s = 0, j = npts - 1; s < npts; j = s++) {
      SegmentDist2AccumV(xs, ys, n, pts[s], pts[j], best);
    }
  } else {
    for (size_t s = 1; s < npts; ++s) {
      SegmentDist2AccumV(xs, ys, n, pts[s - 1], pts[s], best);
    }
  }
}

void BoxContains(const double* xs, const double* ys, size_t n, const Box& box,
                 uint8_t* out) {
  const __m256d mnx = _mm256_set1_pd(box.min_x);
  const __m256d mxx = _mm256_set1_pd(box.max_x);
  const __m256d mny = _mm256_set1_pd(box.min_y);
  const __m256d mxy = _mm256_set1_pd(box.max_y);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d px = _mm256_loadu_pd(xs + i), py = _mm256_loadu_pd(ys + i);
    __m256d m = _mm256_and_pd(_mm256_cmp_pd(px, mnx, _CMP_GE_OQ),
                              _mm256_cmp_pd(px, mxx, _CMP_LE_OQ));
    m = _mm256_and_pd(m, _mm256_and_pd(_mm256_cmp_pd(py, mny, _CMP_GE_OQ),
                                       _mm256_cmp_pd(py, mxy, _CMP_LE_OQ)));
    const int bits = _mm256_movemask_pd(m);
    for (int k = 0; k < 4; ++k) {
      out[i + k] = static_cast<uint8_t>((bits >> k) & 1);
    }
  }
  if (i < n) generic::BoxContains(xs + i, ys + i, n - i, box, out + i);
}

}  // namespace

void BindAvx2Kernels(KernelTable* t) {
  t->range_i8 = &Range8<int8_t>;
  t->range_u8 = &Range8<uint8_t>;
  t->range_i16 = &Range16<int16_t>;
  t->range_u16 = &Range16<uint16_t>;
  t->range_i32 = &Range32<int32_t>;
  t->range_u32 = &Range32<uint32_t>;
  t->range_i64 = &Range64<int64_t>;
  t->range_u64 = &Range64<uint64_t>;
  t->range_f32 = &RangeF32;
  t->range_f64 = &RangeF64;
  // Hardware gathers where the ISA has them; the narrow integer types and
  // u32/u64 (no unsigned int->double conversion) keep the scalar binding.
  t->gather_i32 = &GatherI32;
  t->gather_f32 = &GatherF32;
  t->gather_f64 = &GatherF64;
  t->cell_of = &CellOf;
  t->ring_masks = &RingMasks;
  t->on_segments = &OnSegments;
  t->segments_dist2 = &SegmentsDist2;
  t->box_contains = &BoxContains;
}

}  // namespace simd
}  // namespace geocol

#else  // !defined(__AVX2__)

namespace geocol {
namespace simd {
void BindAvx2Kernels(KernelTable*) {}
}  // namespace simd
}  // namespace geocol

#endif
