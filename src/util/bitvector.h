// A dense bit vector with word-level scan helpers, used for selection
// vectors produced by the imprint filter and for grid-cell occupancy masks.
#ifndef GEOCOL_UTIL_BITVECTOR_H_
#define GEOCOL_UTIL_BITVECTOR_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace geocol {

/// Fixed-size dense bitset sized at runtime.
///
/// Bits are stored LSB-first inside 64-bit words. All operations that take
/// an index assume `index < size()`; debug builds assert.
class BitVector {
 public:
  BitVector() = default;
  explicit BitVector(size_t size, bool initial = false);

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  void Resize(size_t size, bool value = false);

  bool Get(size_t i) const {
    return (words_[i >> 6] >> (i & 63)) & 1;
  }
  void Set(size_t i) { words_[i >> 6] |= (uint64_t{1} << (i & 63)); }
  void Clear(size_t i) { words_[i >> 6] &= ~(uint64_t{1} << (i & 63)); }
  void Assign(size_t i, bool v) { v ? Set(i) : Clear(i); }

  /// Sets bits [begin, end).
  void SetRange(size_t begin, size_t end);

  void SetAll();
  void ClearAll();

  /// Number of set bits.
  size_t Count() const;

  /// Number of set bits in [begin, end). Lets callers pre-size row-id
  /// buffers for one morsel without paying a full-vector Count().
  size_t CountInRange(size_t begin, size_t end) const;

  /// Index of the first set bit at or after `from`, or size() if none.
  size_t FindNext(size_t from) const;

  /// In-place logical ops; both operands must have equal size.
  void And(const BitVector& other);
  void Or(const BitVector& other);
  void Not();

  bool operator==(const BitVector& other) const {
    return size_ == other.size_ && words_ == other.words_;
  }

  /// Appends the index of every set bit to `out`.
  void CollectSetBits(std::vector<uint64_t>* out) const;

  /// Writes `first_id + (i - begin)` for every set bit i in [begin, end)
  /// to `out`, in ascending order, and returns one past the last id
  /// written. The morsel-driven scan writes each morsel's rows at its own
  /// offset, mapping the morsel's bits back to its row ids.
  uint64_t* CollectSetBitsInRange(size_t begin, size_t end, uint64_t first_id,
                                  uint64_t* out) const;

  /// ORs `nbits` bits from `words` (LSB-first) into the vector starting at
  /// `bit_offset`. Bits >= nbits in the source must be zero. This is the
  /// word-granular sink of the SIMD range kernels: a whole selection word
  /// lands with two |= instead of 64 Set() calls. Safe under the morsel
  /// executor because morsel boundaries are 64-aligned, so concurrent
  /// writers touch disjoint words whenever bit_offset is 64-aligned.
  void OrWordsAt(size_t bit_offset, const uint64_t* words, size_t nbits);

  const std::vector<uint64_t>& words() const { return words_; }
  uint64_t* mutable_words() { return words_.data(); }

  /// Heap bytes used by the word array.
  size_t MemoryBytes() const { return words_.size() * sizeof(uint64_t); }

 private:
  // Zeroes bits beyond size_ in the last word so Count() stays exact.
  void MaskTail();

  size_t size_ = 0;
  std::vector<uint64_t> words_;
};

}  // namespace geocol

#endif  // GEOCOL_UTIL_BITVECTOR_H_
