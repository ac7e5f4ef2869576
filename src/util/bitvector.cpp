#include "util/bitvector.h"

#include <bit>
#include <cassert>

namespace geocol {

BitVector::BitVector(size_t size, bool initial) { Resize(size, initial); }

void BitVector::Resize(size_t size, bool value) {
  size_ = size;
  words_.assign((size + 63) / 64, value ? ~uint64_t{0} : 0);
  if (value) MaskTail();
}

void BitVector::SetRange(size_t begin, size_t end) {
  assert(begin <= end && end <= size_);
  if (begin >= end) return;
  size_t wb = begin >> 6, we = (end - 1) >> 6;
  uint64_t first_mask = ~uint64_t{0} << (begin & 63);
  uint64_t last_mask = ~uint64_t{0} >> (63 - ((end - 1) & 63));
  if (wb == we) {
    words_[wb] |= first_mask & last_mask;
    return;
  }
  words_[wb] |= first_mask;
  for (size_t w = wb + 1; w < we; ++w) words_[w] = ~uint64_t{0};
  words_[we] |= last_mask;
}

void BitVector::SetAll() {
  for (auto& w : words_) w = ~uint64_t{0};
  MaskTail();
}

void BitVector::ClearAll() {
  for (auto& w : words_) w = 0;
}

size_t BitVector::Count() const {
  size_t n = 0;
  for (uint64_t w : words_) n += std::popcount(w);
  return n;
}

size_t BitVector::CountInRange(size_t begin, size_t end) const {
  if (end > size_) end = size_;
  if (begin >= end) return 0;
  const size_t wb = begin >> 6, we = (end - 1) >> 6;
  const uint64_t first_mask = ~uint64_t{0} << (begin & 63);
  const uint64_t last_mask = ~uint64_t{0} >> (63 - ((end - 1) & 63));
  if (wb == we) {
    return static_cast<size_t>(
        std::popcount(words_[wb] & first_mask & last_mask));
  }
  size_t n = static_cast<size_t>(std::popcount(words_[wb] & first_mask));
  for (size_t w = wb + 1; w < we; ++w) {
    n += static_cast<size_t>(std::popcount(words_[w]));
  }
  n += static_cast<size_t>(std::popcount(words_[we] & last_mask));
  return n;
}

size_t BitVector::FindNext(size_t from) const {
  if (from >= size_) return size_;
  size_t w = from >> 6;
  uint64_t word = words_[w] & (~uint64_t{0} << (from & 63));
  while (true) {
    if (word != 0) {
      size_t idx = (w << 6) + static_cast<size_t>(std::countr_zero(word));
      return idx < size_ ? idx : size_;
    }
    if (++w >= words_.size()) return size_;
    word = words_[w];
  }
}

void BitVector::And(const BitVector& other) {
  assert(size_ == other.size_);
  for (size_t i = 0; i < words_.size(); ++i) words_[i] &= other.words_[i];
}

void BitVector::Or(const BitVector& other) {
  assert(size_ == other.size_);
  for (size_t i = 0; i < words_.size(); ++i) words_[i] |= other.words_[i];
}

void BitVector::Not() {
  for (auto& w : words_) w = ~w;
  MaskTail();
}

void BitVector::CollectSetBits(std::vector<uint64_t>* out) const {
  for (size_t w = 0; w < words_.size(); ++w) {
    uint64_t word = words_[w];
    while (word != 0) {
      int bit = std::countr_zero(word);
      out->push_back((static_cast<uint64_t>(w) << 6) + bit);
      word &= word - 1;
    }
  }
}

uint64_t* BitVector::CollectSetBitsInRange(size_t begin, size_t end,
                                           uint64_t first_id,
                                           uint64_t* out) const {
  if (end > size_) end = size_;
  if (begin >= end) return out;
  const uint64_t delta = first_id - begin;  // wraps when first_id < begin
  const size_t wb = begin >> 6, we = (end - 1) >> 6;
  const uint64_t first_mask = ~uint64_t{0} << (begin & 63);
  const uint64_t last_mask = ~uint64_t{0} >> (63 - ((end - 1) & 63));
  for (size_t w = wb; w <= we; ++w) {
    uint64_t word = words_[w];
    if (w == wb) word &= first_mask;
    if (w == we) word &= last_mask;
    // Zero words skip in one compare; set bits pop via ctz.
    while (word != 0) {
      int bit = std::countr_zero(word);
      *out++ = (static_cast<uint64_t>(w) << 6) + bit + delta;
      word &= word - 1;
    }
  }
  return out;
}

void BitVector::OrWordsAt(size_t bit_offset, const uint64_t* words,
                          size_t nbits) {
  if (nbits == 0) return;
  assert(bit_offset + nbits <= size_);
  const size_t nwords = (nbits + 63) / 64;
  const size_t w0 = bit_offset >> 6;
  const unsigned shift = bit_offset & 63;
  if (shift == 0) {
    for (size_t i = 0; i < nwords; ++i) words_[w0 + i] |= words[i];
    return;
  }
  // Each source word straddles two destination words. The final carry word
  // w0 + nwords is in bounds exactly when the last source word's high part
  // is nonzero, which the bits >= nbits precondition guarantees.
  uint64_t carry = 0;
  for (size_t i = 0; i < nwords; ++i) {
    words_[w0 + i] |= (words[i] << shift) | carry;
    carry = words[i] >> (64 - shift);
  }
  if (carry != 0) words_[w0 + nwords] |= carry;
}

void BitVector::MaskTail() {
  size_t rem = size_ & 63;
  if (rem != 0 && !words_.empty()) {
    words_.back() &= ~uint64_t{0} >> (64 - rem);
  }
}

}  // namespace geocol
