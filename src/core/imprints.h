// Column Imprints — the secondary index of the paper (§2.1.1), after
// Sidirourgos & Kersten, SIGMOD 2013.
//
// An imprint is a 64-bit vector per cache line of column data: bit b is set
// when the cache line contains at least one value falling in global bin b.
// Runs of identical vectors are collapsed through the imprint dictionary: a
// list of (count, repeat) entries where a repeat entry covers `count` cache
// lines with one stored vector, exploiting the local clustering that data
// acquisition imposes (flight strips, in the LIDAR case).
//
// A range query [lo, hi] builds a query mask (bins overlapping the range)
// and an inner mask (bins fully contained in it). A cache line is a
// candidate iff its imprint intersects the query mask; it qualifies fully —
// no per-value checks needed — iff its imprint has no bits outside the
// inner mask.
#ifndef GEOCOL_CORE_IMPRINTS_H_
#define GEOCOL_CORE_IMPRINTS_H_

#include <cstdint>
#include <vector>

#include "columns/column.h"
#include "core/binning.h"
#include "util/bitvector.h"
#include "util/status.h"

namespace geocol {

class ThreadPool;

/// Build-time knobs for an imprints index.
struct ImprintsOptions {
  /// Upper bound on bins; the build may choose fewer (power of two) when
  /// the sample shows few distinct values.
  uint32_t max_bins = 64;
  /// Sample size used to derive the global bin bounds.
  uint32_t sample_size = 4096;
  /// Sampling seed (determinism for tests/benchmarks).
  uint64_t seed = 42;
  /// Cache line size the imprint granularity is derived from.
  uint32_t cacheline_bytes = 64;
};

/// Size/compression statistics of a built index (E2/E7).
struct ImprintsStorage {
  uint64_t num_lines = 0;         ///< cache lines covered
  uint64_t num_vectors = 0;       ///< imprint vectors actually stored
  uint64_t num_dict_entries = 0;  ///< dictionary entries
  uint64_t vector_bytes = 0;
  uint64_t dict_bytes = 0;
  uint64_t bounds_bytes = 0;
  uint64_t total_bytes = 0;
  /// total_bytes / column payload bytes — the paper reports 5-12%.
  double overhead_fraction = 0.0;
  /// stored vectors / cache lines — < 1 when dictionary compression bites.
  double vectors_per_line = 0.0;
};

/// Query mask pair for a range predicate.
struct ImprintMask {
  uint64_t query = 0;  ///< bins overlapping [lo, hi]
  uint64_t inner = 0;  ///< bins fully inside [lo, hi] — no boundary checks
};

/// An immutable imprints index over one column.
class ImprintsIndex {
 public:
  /// Scans `column` once and builds the index. The column must be
  /// non-empty. When `pool` is non-null the column is chunked across its
  /// workers: each chunk produces per-line vectors as maximal runs, and the
  /// run-length dictionary is stitched at chunk seams — the result is
  /// byte-identical to the serial build.
  static Result<ImprintsIndex> Build(const Column& column,
                                     const ImprintsOptions& options = {},
                                     ThreadPool* pool = nullptr);

  /// As Build, but with caller-provided bin bounds instead of sampling.
  /// This is the primitive incremental maintenance rests on: extending an
  /// index over appended rows must keep the original bins (resampling
  /// would shift every boundary and invalidate the untouched prefix).
  static Result<ImprintsIndex> BuildWithBins(const Column& column,
                                             BinBounds bins,
                                             const ImprintsOptions& options = {},
                                             ThreadPool* pool = nullptr);

  /// Incremental maintenance: extends `base` (built over a prefix of
  /// `column`) to cover all of `column` by binarising only the appended
  /// tail and stitching it onto the decoded prefix runs with the same
  /// seam logic as the parallel build. The caller must guarantee that
  /// `column`'s first `base.num_rows()` values are the values `base` was
  /// built from (the COW append lineage provides this); out-of-range tail
  /// values clamp into the unbounded end bins, so the original bounds stay
  /// valid. The result is byte-identical to
  /// `BuildWithBins(column, base.bins())`.
  static Result<ImprintsIndex> ExtendAppend(const ImprintsIndex& base,
                                            const Column& column,
                                            ThreadPool* pool = nullptr);

  uint32_t num_bins() const { return bins_.num_bins(); }
  uint32_t values_per_line() const { return values_per_line_; }
  uint64_t num_lines() const { return num_lines_; }
  uint64_t num_rows() const { return num_rows_; }
  const BinBounds& bins() const { return bins_; }

  /// Epoch of the column at build time; a mismatch with the live column
  /// means the index is stale (column was appended to).
  uint64_t built_epoch() const { return built_epoch_; }

  /// Builds the query/inner masks for the inclusive range [lo, hi].
  ImprintMask MaskForRange(double lo, double hi) const;

  /// Range filter: sets bit L in `candidates` when cache line L may hold a
  /// value in [lo, hi], and in `full_lines` (if non-null) when *every*
  /// value in the line is guaranteed to match. Both vectors are resized to
  /// num_lines(). This touches only the compressed imprint stream — never
  /// the column data.
  void FilterRange(double lo, double hi, BitVector* candidates,
                   BitVector* full_lines = nullptr) const;

  /// As FilterRange but invokes `fn(first_line, line_count, full)` per
  /// maximal run, avoiding bit vector materialisation.
  template <typename Fn>
  void FilterRangeRuns(double lo, double hi, Fn&& fn) const;

  ImprintsStorage Storage(uint64_t column_payload_bytes) const;

  /// Row range [first, last) covered by cache line `line`.
  std::pair<uint64_t, uint64_t> LineRows(uint64_t line) const {
    uint64_t first = line * values_per_line_;
    uint64_t last = first + values_per_line_;
    if (last > num_rows_) last = num_rows_;
    return {first, last};
  }

  /// Dictionary entry (exposed for tests/benchmarks).
  struct DictEntry {
    uint32_t count;
    bool repeat;
  };
  const std::vector<uint64_t>& vectors() const { return vectors_; }
  const std::vector<DictEntry>& dictionary() const { return dict_; }

  /// Imprint vector stored for cache line `line` (walks the compressed
  /// dictionary, O(dict entries)). Used by the incremental-stitch probe
  /// verification; not a scan-path primitive.
  uint64_t VectorAtLine(uint64_t line) const;

  /// Reassembles an index from persisted parts (see core/imprints_io.h).
  /// Validates structural invariants (dictionary covers all lines, vector
  /// count matches) and returns Corruption otherwise.
  static Result<ImprintsIndex> Restore(BinBounds bins,
                                       uint32_t values_per_line,
                                       uint64_t num_rows, uint64_t built_epoch,
                                       std::vector<uint64_t> vectors,
                                       std::vector<DictEntry> dict);

 private:
  ImprintsIndex() = default;

  BinBounds bins_;
  uint32_t values_per_line_ = 0;
  uint64_t num_lines_ = 0;
  uint64_t num_rows_ = 0;
  uint64_t built_epoch_ = 0;
  std::vector<uint64_t> vectors_;
  std::vector<DictEntry> dict_;
};

template <typename Fn>
void ImprintsIndex::FilterRangeRuns(double lo, double hi, Fn&& fn) const {
  ImprintMask mask = MaskForRange(lo, hi);
  uint64_t line = 0;
  size_t vec_idx = 0;
  // Coalesce adjacent emissions with equal `full` status.
  uint64_t run_start = 0, run_len = 0;
  bool run_full = false;
  auto emit = [&](uint64_t start, uint64_t count, bool full) {
    if (count == 0) return;
    if (run_len > 0 && run_full == full && run_start + run_len == start) {
      run_len += count;
      return;
    }
    if (run_len > 0) fn(run_start, run_len, run_full);
    run_start = start;
    run_len = count;
    run_full = full;
  };
  for (const DictEntry& e : dict_) {
    if (e.repeat) {
      uint64_t v = vectors_[vec_idx++];
      if ((v & mask.query) != 0) {
        emit(line, e.count, (v & ~mask.inner) == 0);
      }
      line += e.count;
    } else {
      for (uint32_t j = 0; j < e.count; ++j) {
        uint64_t v = vectors_[vec_idx++];
        if ((v & mask.query) != 0) {
          emit(line, 1, (v & ~mask.inner) == 0);
        }
        ++line;
      }
    }
  }
  if (run_len > 0) fn(run_start, run_len, run_full);
}

}  // namespace geocol

#endif  // GEOCOL_CORE_IMPRINTS_H_
