// Scalar binding of the kernel table. These are the reference kernels used
// directly at the kScalar dispatch level (GEOCOL_SIMD=scalar) and as the
// remainder tails of the AVX2 kernels.
#include "simd/kernels_generic.h"

namespace geocol {
namespace simd {

void BindScalarKernels(KernelTable* t) {
  t->range_i8 = &generic::RangeSelectBits<int8_t>;
  t->range_u8 = &generic::RangeSelectBits<uint8_t>;
  t->range_i16 = &generic::RangeSelectBits<int16_t>;
  t->range_u16 = &generic::RangeSelectBits<uint16_t>;
  t->range_i32 = &generic::RangeSelectBits<int32_t>;
  t->range_u32 = &generic::RangeSelectBits<uint32_t>;
  t->range_i64 = &generic::RangeSelectBits<int64_t>;
  t->range_u64 = &generic::RangeSelectBits<uint64_t>;
  t->range_f32 = &generic::RangeSelectBits<float>;
  t->range_f64 = &generic::RangeSelectBits<double>;

  t->gather_i8 = &generic::GatherDouble<int8_t>;
  t->gather_u8 = &generic::GatherDouble<uint8_t>;
  t->gather_i16 = &generic::GatherDouble<int16_t>;
  t->gather_u16 = &generic::GatherDouble<uint16_t>;
  t->gather_i32 = &generic::GatherDouble<int32_t>;
  t->gather_u32 = &generic::GatherDouble<uint32_t>;
  t->gather_i64 = &generic::GatherDouble<int64_t>;
  t->gather_u64 = &generic::GatherDouble<uint64_t>;
  t->gather_f32 = &generic::GatherDouble<float>;
  t->gather_f64 = &generic::GatherDouble<double>;

  t->cell_of = &generic::CellOf;
  t->ring_masks = &generic::RingMasks;
  t->on_segments = &generic::OnSegments;
  t->segments_dist2 = &generic::SegmentsDist2;
  t->box_contains = &generic::BoxContains;
}

}  // namespace simd
}  // namespace geocol
