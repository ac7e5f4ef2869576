#include "core/imprints.h"

#include <algorithm>
#include <limits>

#include "util/thread_pool.h"

namespace geocol {

namespace {

constexpr uint32_t kMaxCount = (1u << 30);  // headroom below the 31-bit cap

// Chunks below this many cache lines are not worth forking for.
constexpr uint64_t kMinParallelBuildLines = 1 << 12;

/// A maximal run of identical imprint vectors inside one build chunk.
struct VectorRun {
  uint64_t vec;
  uint64_t count;
};

/// Binarises lines [line_begin, line_end) of the column into per-chunk
/// maximal runs of identical imprint vectors. Chunked across `pool` when
/// the range is large enough; callers concatenate the chunk sequences in
/// order (RunEmitter below merges runs that touch across chunk seams).
/// Values are reached through ForEachValueRun, so paged columns binarise
/// one faulted paging chunk at a time — paging-chunk boundaries are
/// multiples of every values-per-line, so a cache line never straddles two
/// runs. The only Status source is a paged chunk fault.
Status BinarizeLines(const Column& column, const BinBounds& bins,
                     uint32_t values_per_line, uint64_t num_rows,
                     uint64_t line_begin, uint64_t line_end, ThreadPool* pool,
                     std::vector<std::vector<VectorRun>>* out) {
  uint64_t total = line_end - line_begin;
  uint64_t num_chunks = 1;
  if (pool != nullptr && pool->num_threads() > 0 &&
      total >= kMinParallelBuildLines) {
    num_chunks = std::min<uint64_t>(total / (kMinParallelBuildLines / 8),
                                    (pool->num_threads() + 1) * 8);
    if (num_chunks < 2) num_chunks = 2;
  }
  uint64_t chunk_lines = (total + num_chunks - 1) / num_chunks;
  num_chunks = chunk_lines > 0 ? (total + chunk_lines - 1) / chunk_lines : 0;
  std::vector<std::vector<VectorRun>> chunk_runs(num_chunks);
  std::vector<Status> chunk_status(num_chunks);
  auto do_chunk = [&](size_t c) {
    uint64_t begin = line_begin + c * chunk_lines;
    uint64_t end = std::min<uint64_t>(line_end, begin + chunk_lines);
    std::vector<VectorRun>& runs = chunk_runs[c];
    DispatchDataType(column.type(), [&]<typename T>() {
      uint64_t row_begin = begin * values_per_line;
      uint64_t row_end = std::min<uint64_t>(end * values_per_line, num_rows);
      chunk_status[c] = ForEachValueRun<T>(
          column, row_begin, row_end,
          [&](const T* vals, uint64_t first, size_t count) {
            for (uint64_t line = first / values_per_line;
                 line * values_per_line < first + count; ++line) {
              uint64_t lf = line * values_per_line;
              uint64_t ll = std::min<uint64_t>(lf + values_per_line,
                                               first + count);
              uint64_t v = 0;
              for (uint64_t i = lf; i < ll; ++i) {
                v |= uint64_t{1}
                     << bins.BinOf(static_cast<double>(vals[i - first]));
              }
              if (!runs.empty() && runs.back().vec == v) {
                ++runs.back().count;
              } else {
                runs.push_back({v, 1});
              }
            }
          });
    });
  };
  if (num_chunks > 1) {
    pool->ParallelFor(num_chunks, do_chunk);
  } else if (num_chunks == 1) {
    do_chunk(0);
  }
  for (Status& st : chunk_status) GEOCOL_RETURN_NOT_OK(std::move(st));
  *out = std::move(chunk_runs);
  return Status::OK();
}

/// Canonical greedy dictionary encoding over a stream of vector runs:
/// runs of >= 2 lines become repeat entries, singletons coalesce into
/// literal entries. Adjacent Add() calls with equal vectors merge, so
/// chunk/seam boundaries in the input stream never show in the output.
class RunEmitter {
 public:
  RunEmitter(std::vector<uint64_t>* vectors,
             std::vector<ImprintsIndex::DictEntry>* dict)
      : vectors_(vectors), dict_(dict) {}

  void Add(uint64_t vec, uint64_t count) {
    if (count == 0) return;
    if (pending_count_ > 0 && pending_vec_ == vec) {
      pending_count_ += count;
      return;
    }
    Flush();
    pending_vec_ = vec;
    pending_count_ = count;
  }

  void Finish() { Flush(); }

 private:
  void Flush() {
    uint64_t count = pending_count_;
    pending_count_ = 0;
    while (count > 0) {
      uint64_t piece = std::min<uint64_t>(count, kMaxCount);
      count -= piece;
      vectors_->push_back(pending_vec_);
      if (piece >= 2) {
        dict_->push_back({static_cast<uint32_t>(piece), true});
      } else if (!dict_->empty() && !dict_->back().repeat &&
                 dict_->back().count < kMaxCount) {
        ++dict_->back().count;
      } else {
        dict_->push_back({1, false});
      }
    }
  }

  std::vector<uint64_t>* vectors_;
  std::vector<ImprintsIndex::DictEntry>* dict_;
  uint64_t pending_vec_ = 0;
  uint64_t pending_count_ = 0;
};

}  // namespace

Result<ImprintsIndex> ImprintsIndex::Build(const Column& column,
                                           const ImprintsOptions& options,
                                           ThreadPool* pool) {
  GEOCOL_ASSIGN_OR_RETURN(
      BinBounds bins,
      BinBounds::Sample(column, options.max_bins, options.sample_size,
                        options.seed));
  return BuildWithBins(column, std::move(bins), options, pool);
}

Result<ImprintsIndex> ImprintsIndex::BuildWithBins(const Column& column,
                                                   BinBounds bins,
                                                   const ImprintsOptions& options,
                                                   ThreadPool* pool) {
  if (column.empty()) {
    return Status::InvalidArgument("cannot build imprints on empty column");
  }
  if (options.cacheline_bytes < column.width() ||
      options.cacheline_bytes % column.width() != 0) {
    return Status::InvalidArgument("cacheline size incompatible with type width");
  }

  ImprintsIndex ix;
  ix.bins_ = bins;
  ix.values_per_line_ =
      static_cast<uint32_t>(options.cacheline_bytes / column.width());
  ix.num_rows_ = column.size();
  ix.num_lines_ = (ix.num_rows_ + ix.values_per_line_ - 1) / ix.values_per_line_;
  ix.built_epoch_ = column.epoch();
  ix.vectors_.reserve(ix.num_lines_ / 4 + 16);

  // Binarise the lines into maximal runs of identical vectors (in chunks
  // across `pool` when the column is large), then encode the runs in
  // order. RunEmitter merges runs that touch across chunk seams, so the
  // index does not depend on the chunking: serial and parallel builds are
  // byte-identical.
  std::vector<std::vector<VectorRun>> chunk_runs;
  GEOCOL_RETURN_NOT_OK(BinarizeLines(column, bins, ix.values_per_line_,
                                     ix.num_rows_, 0, ix.num_lines_, pool,
                                     &chunk_runs));
  RunEmitter emitter(&ix.vectors_, &ix.dict_);
  for (const auto& runs : chunk_runs) {
    for (const VectorRun& r : runs) emitter.Add(r.vec, r.count);
  }
  emitter.Finish();
  ix.BuildCheckpoints();
  return ix;
}

Result<ImprintsIndex> ImprintsIndex::ExtendAppend(const ImprintsIndex& base,
                                                  const Column& column,
                                                  ThreadPool* pool) {
  if (column.size() < base.num_rows_) {
    return Status::InvalidArgument(
        "imprints extend: column shrank below the indexed prefix");
  }

  ImprintsIndex ix;
  ix.bins_ = base.bins_;
  ix.values_per_line_ = base.values_per_line_;
  ix.num_rows_ = column.size();
  ix.num_lines_ =
      (ix.num_rows_ + ix.values_per_line_ - 1) / ix.values_per_line_;
  ix.built_epoch_ = column.epoch();
  ix.vectors_.reserve(base.vectors_.size() + 16);

  // Only lines whose every value came from the base prefix keep their old
  // vectors; the seam line (partial when base rows don't divide evenly)
  // and everything after is binarised fresh from the column.
  uint64_t seam_line = base.num_rows_ / ix.values_per_line_;

  // Walk the base's per-line vectors up to the seam; the emitter below
  // re-coalesces adjacent equal runs (also runs the encoder split at the
  // kMaxCount cap), so it sees the maximal runs a from-scratch build
  // would and reproduces its encoding byte-for-byte.
  RunEmitter emitter(&ix.vectors_, &ix.dict_);
  Cursor cursor(&base);
  for (uint64_t line = 0; line < seam_line; line = cursor.run_end()) {
    const uint64_t v = cursor.Seek(line);
    emitter.Add(v, std::min(cursor.run_end(), seam_line) - line);
  }

  std::vector<std::vector<VectorRun>> tail_chunks;
  GEOCOL_RETURN_NOT_OK(BinarizeLines(column, ix.bins_, ix.values_per_line_,
                                     ix.num_rows_, seam_line, ix.num_lines_,
                                     pool, &tail_chunks));

  for (const auto& runs : tail_chunks) {
    for (const VectorRun& r : runs) emitter.Add(r.vec, r.count);
  }
  emitter.Finish();
  ix.BuildCheckpoints();
  return ix;
}

Result<ImprintsIndex> ImprintsIndex::Restore(BinBounds bins,
                                             uint32_t values_per_line,
                                             uint64_t num_rows,
                                             uint64_t built_epoch,
                                             std::vector<uint64_t> vectors,
                                             std::vector<DictEntry> dict) {
  if (values_per_line == 0 || num_rows == 0) {
    return Status::Corruption("imprints restore: empty geometry");
  }
  uint64_t lines = (num_rows + values_per_line - 1) / values_per_line;
  uint64_t covered = 0, stored = 0;
  for (const DictEntry& e : dict) {
    if (e.count == 0) return Status::Corruption("imprints restore: zero run");
    covered += e.count;
    stored += e.repeat ? 1 : e.count;
  }
  if (covered != lines) {
    return Status::Corruption("imprints restore: dictionary covers " +
                              std::to_string(covered) + " of " +
                              std::to_string(lines) + " lines");
  }
  if (stored != vectors.size()) {
    return Status::Corruption("imprints restore: vector count mismatch");
  }
  ImprintsIndex ix;
  ix.bins_ = bins;
  ix.values_per_line_ = values_per_line;
  ix.num_rows_ = num_rows;
  ix.num_lines_ = lines;
  ix.built_epoch_ = built_epoch;
  ix.vectors_ = std::move(vectors);
  ix.dict_ = std::move(dict);
  ix.BuildCheckpoints();
  return ix;
}

void ImprintsIndex::BuildCheckpoints() {
  const uint64_t blocks =
      (num_lines_ + kCheckpointLines - 1) / kCheckpointLines;
  checkpoints_.clear();
  checkpoints_.reserve(blocks);
  summaries_.assign(blocks, 0);
  uint64_t first = 0, vec = 0;
  for (size_t e = 0; e < dict_.size(); ++e) {
    const uint64_t end = first + dict_[e].count;
    while (checkpoints_.size() * kCheckpointLines < end) {
      checkpoints_.push_back({first, vec, e});
    }
    if (dict_[e].repeat) {
      // One vector over every block the run touches.
      for (uint64_t b = first / kCheckpointLines;
           b * kCheckpointLines < end; ++b) {
        summaries_[b] |= vectors_[vec];
      }
    } else {
      for (uint64_t line = first; line < end; ++line) {
        summaries_[line / kCheckpointLines] |= vectors_[vec + line - first];
      }
    }
    first = end;
    vec += dict_[e].repeat ? 1 : dict_[e].count;
  }
}

ImprintMask ImprintsIndex::MaskForRange(double lo, double hi) const {
  ImprintMask m;
  if (lo > hi) return m;  // empty query mask: nothing matches
  uint32_t nbins = bins_.num_bins();
  uint32_t bin_lo = bins_.BinOf(lo);
  uint32_t bin_hi = bins_.BinOf(hi);
  // Query mask: all bins from bin_lo to bin_hi inclusive. Inner mask: the
  // bins whose whole interval (upper(b-1), upper(b)] — (-inf, upper(0)]
  // for bin 0 — lies inside [lo, hi]. That holds for every bin strictly
  // between bin_lo and bin_hi; a boundary bin qualifies only when the
  // query reaches both of its edges. Since BinOf(lo) == bin_lo puts lo
  // above bin_lo's lower edge, bin_lo is inner only as bin 0 with
  // lo == -inf, and a single-bin query [lo, hi] inside one bin never is.
  for (uint32_t b = bin_lo; b <= bin_hi && b < nbins; ++b) {
    const uint64_t bit = uint64_t{1} << b;
    m.query |= bit;
    const double lower =
        b == 0 ? -std::numeric_limits<double>::infinity() : bins_.upper(b - 1);
    if (lo <= lower && hi >= bins_.upper(b)) m.inner |= bit;
  }
  return m;
}

void ImprintsIndex::FilterRange(double lo, double hi, BitVector* candidates,
                                BitVector* full_lines) const {
  candidates->Resize(num_lines_);
  if (full_lines != nullptr) full_lines->Resize(num_lines_);
  CandidateRuns(MaskForRange(lo, hi), 0, num_lines_,
                [&](uint64_t first, uint64_t count, bool full) {
                  candidates->SetRange(first, first + count);
                  if (full && full_lines != nullptr) {
                    full_lines->SetRange(first, first + count);
                  }
                });
}

ImprintsStorage ImprintsIndex::Storage(uint64_t column_payload_bytes) const {
  ImprintsStorage s;
  s.num_lines = num_lines_;
  s.num_vectors = vectors_.size();
  s.num_dict_entries = dict_.size();
  s.vector_bytes = vectors_.size() * sizeof(uint64_t);
  s.dict_bytes = dict_.size() * sizeof(uint32_t);  // packed (count,repeat)
  s.bounds_bytes = bins_.num_bins() * sizeof(double);
  s.total_bytes = s.vector_bytes + s.dict_bytes + s.bounds_bytes;
  s.overhead_fraction =
      column_payload_bytes > 0
          ? static_cast<double>(s.total_bytes) / column_payload_bytes
          : 0.0;
  s.vectors_per_line =
      num_lines_ > 0 ? static_cast<double>(vectors_.size()) / num_lines_ : 0.0;
  return s;
}

}  // namespace geocol
