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
//
// Random access: every index keeps one checkpoint (dictionary entry,
// vector index, first line of that entry) per kCheckpointLines cache
// lines, so a Cursor reaches any line after walking at most that many
// dictionary entries. Each checkpoint block of kCheckpointLines lines also
// keeps a summary vector, the OR of its line vectors: a block whose summary
// misses a query mask holds no candidate line, so a scan can skip it
// without walking its dictionary entries. Checkpoints and summaries are
// derived from the dictionary in memory whenever an index is built,
// extended or restored; the on-disk GIM2 format (core/imprints_io.h) does
// not store them and is unchanged.
#ifndef GEOCOL_CORE_IMPRINTS_H_
#define GEOCOL_CORE_IMPRINTS_H_

#include <algorithm>
#include <cassert>
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

  /// As FilterRange for the lines [line_begin, line_end), but invokes
  /// `fn(first_line, line_count, full)` per maximal run of candidate lines
  /// with equal `full`, avoiding bit vector materialisation. The walk
  /// starts at line_begin's checkpoint.
  template <typename Fn>
  void CandidateRuns(const ImprintMask& mask, uint64_t line_begin,
                     uint64_t line_end, Fn&& fn) const;

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

  /// Cache lines between two checkpoints.
  static constexpr uint64_t kCheckpointLines = 64;

  /// Forward cursor over the per-line vectors. Seek() starts from the
  /// cursor's current dictionary entry when the target line is at most
  /// kCheckpointLines past it, and from the target's checkpoint otherwise,
  /// so any seek walks at most about kCheckpointLines entries and an
  /// ascending walk costs O(1) per line. A cursor must not outlive its
  /// index; distinct cursors over one index are independent.
  class Cursor {
   public:
    explicit Cursor(const ImprintsIndex* index) : ix_(index) {}

    /// Imprint vector of cache line `line` (< num_lines()).
    uint64_t Seek(uint64_t line);

    /// One past the last line known to share the vector the last Seek
    /// returned: the end of its repeat entry, or line + 1 inside a
    /// literal entry.
    uint64_t run_end() const { return run_end_; }

   private:
    const ImprintsIndex* ix_ = nullptr;
    size_t entry_ = 0;          ///< dictionary entry holding the last line
    size_t vec_ = 0;            ///< vectors_ index of that entry's first vector
    uint64_t entry_first_ = 0;  ///< first line of that entry
    uint64_t run_end_ = 0;
  };

  /// Imprint vector stored for cache line `line`, through the checkpoints
  /// (O(kCheckpointLines)). Used by the incremental-stitch probe
  /// verification.
  uint64_t VectorAtLine(uint64_t line) const { return Cursor(this).Seek(line); }

  /// One summary per checkpoint block: entry b is the OR of the vectors of
  /// lines [b * kCheckpointLines, (b + 1) * kCheckpointLines).
  const std::vector<uint64_t>& block_summaries() const { return summaries_; }

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

  /// Where the walk to line k * kCheckpointLines starts: the dictionary
  /// entry holding that line, its first vector and its first line.
  struct Checkpoint {
    uint64_t first_line;
    uint64_t vec;
    uint64_t entry;
  };

  /// Derives checkpoints_ and summaries_ from dict_; every constructor
  /// path ends here.
  void BuildCheckpoints();

  BinBounds bins_;
  uint32_t values_per_line_ = 0;
  uint64_t num_lines_ = 0;
  uint64_t num_rows_ = 0;
  uint64_t built_epoch_ = 0;
  std::vector<uint64_t> vectors_;
  std::vector<DictEntry> dict_;
  std::vector<Checkpoint> checkpoints_;
  std::vector<uint64_t> summaries_;  ///< per checkpoint block
};

inline uint64_t ImprintsIndex::Cursor::Seek(uint64_t line) {
  assert(line < ix_->num_lines_);
  const std::vector<DictEntry>& dict = ix_->dict_;
  if (line < entry_first_ ||
      line >= entry_first_ + dict[entry_].count + kCheckpointLines) {
    const Checkpoint& c = ix_->checkpoints_[line / kCheckpointLines];
    entry_ = c.entry;
    vec_ = c.vec;
    entry_first_ = c.first_line;
  }
  while (line >= entry_first_ + dict[entry_].count) {
    const DictEntry& e = dict[entry_++];
    entry_first_ += e.count;
    vec_ += e.repeat ? 1 : e.count;
  }
  const DictEntry& e = dict[entry_];
  if (e.repeat) {
    run_end_ = entry_first_ + e.count;
    return ix_->vectors_[vec_];
  }
  run_end_ = line + 1;
  return ix_->vectors_[vec_ + (line - entry_first_)];
}

template <typename Fn>
void ImprintsIndex::CandidateRuns(const ImprintMask& mask, uint64_t line_begin,
                                  uint64_t line_end, Fn&& fn) const {
  if (line_begin >= line_end) return;
  const Checkpoint& c = checkpoints_[line_begin / kCheckpointLines];
  uint64_t line = c.first_line;
  size_t vec_idx = c.vec;
  // Coalesce adjacent emissions with equal `full` status.
  uint64_t run_start = 0, run_len = 0;
  bool run_full = false;
  auto emit = [&](uint64_t start, uint64_t count, bool full) {
    if (run_len > 0 && run_full == full && run_start + run_len == start) {
      run_len += count;
      return;
    }
    if (run_len > 0) fn(run_start, run_len, run_full);
    run_start = start;
    run_len = count;
    run_full = full;
  };
  for (size_t i = c.entry; line < line_end; ++i) {
    const DictEntry& e = dict_[i];
    if (e.repeat) {
      const uint64_t v = vectors_[vec_idx++];
      const uint64_t first = std::max(line, line_begin);
      const uint64_t last = std::min(line + e.count, line_end);
      if ((v & mask.query) != 0 && first < last) {
        emit(first, last - first, (v & ~mask.inner) == 0);
      }
    } else {
      const uint64_t j_end = std::min<uint64_t>(e.count, line_end - line);
      for (uint64_t j = line < line_begin ? line_begin - line : 0; j < j_end;
           ++j) {
        const uint64_t v = vectors_[vec_idx + j];
        if ((v & mask.query) != 0) {
          emit(line + j, 1, (v & ~mask.inner) == 0);
        }
      }
      vec_idx += e.count;
    }
    line += e.count;
  }
  if (run_len > 0) fn(run_start, run_len, run_full);
}
}  // namespace geocol

#endif  // GEOCOL_CORE_IMPRINTS_H_
