#include "core/imprints.h"

#include <algorithm>
#include <limits>
#include <span>

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

/// Canonical greedy dictionary encoding over a stream of vector runs.
/// Feeding it the maximal-run decomposition of the per-line vectors
/// reproduces the serial build byte-for-byte (PR 1's stitching invariant:
/// runs of >= 2 lines become repeat entries, singletons coalesce into
/// literal entries). Adjacent Add() calls with equal vectors merge, so
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
      if (piece >= 2) {
        vectors_->push_back(pending_vec_);
        dict_->push_back({static_cast<uint32_t>(piece), true});
      } else {
        vectors_->push_back(pending_vec_);
        if (!dict_->empty() && !dict_->back().repeat &&
            dict_->back().count < kMaxCount) {
          ++dict_->back().count;
        } else {
          dict_->push_back({1, false});
        }
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
  if (column.empty()) {
    return Status::InvalidArgument("cannot build imprints on empty column");
  }
  if (options.cacheline_bytes < column.width() ||
      options.cacheline_bytes % column.width() != 0) {
    return Status::InvalidArgument("cacheline size incompatible with type width");
  }
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

  if (pool != nullptr && pool->num_threads() > 0 &&
      ix.num_lines_ >= kMinParallelBuildLines) {
    // Parallel build: workers binarise disjoint line chunks into maximal
    // runs of identical vectors; the dictionary is then stitched serially,
    // merging runs that touch across chunk seams. The emission rules below
    // reproduce the serial greedy encoding exactly (runs of >= 2 lines
    // become repeat entries, singleton runs coalesce into literal entries),
    // so parallel and serial builds are byte-identical.
    std::vector<std::vector<VectorRun>> chunk_runs;
    GEOCOL_RETURN_NOT_OK(BinarizeLines(column, bins, ix.values_per_line_,
                                       ix.num_rows_, 0, ix.num_lines_, pool,
                                       &chunk_runs));
    RunEmitter emitter(&ix.vectors_, &ix.dict_);
    for (const auto& runs : chunk_runs) {
      for (const VectorRun& r : runs) emitter.Add(r.vec, r.count);
    }
    emitter.Finish();
    return ix;
  }

  Status build_status;
  DispatchDataType(column.type(), [&]<typename T>() {
    uint64_t prev_vector = 0;
    bool have_prev = false;
    // Lines arrive through ForEachValueRun: resident columns see the whole
    // span in one run (exactly the old direct-indexing loop), paged
    // columns binarise one faulted chunk at a time. Paging-chunk
    // boundaries are multiples of values_per_line, so a cache line never
    // straddles two runs and the greedy encoding state (prev_vector, the
    // open dictionary entry) simply carries across run seams.
    build_status = ForEachValueRun<T>(
        column, 0, ix.num_rows_, [&](const T* vals, uint64_t first,
                                     size_t count) {
          for (uint64_t line = first / ix.values_per_line_;
               line * ix.values_per_line_ < first + count; ++line) {
            uint64_t lf = line * ix.values_per_line_;
            uint64_t ll =
                std::min<uint64_t>(lf + ix.values_per_line_, first + count);
            uint64_t v = 0;
            for (uint64_t i = lf; i < ll; ++i) {
              v |= uint64_t{1}
                   << bins.BinOf(static_cast<double>(vals[i - first]));
            }
            if (have_prev && v == prev_vector && !ix.dict_.empty() &&
                ix.dict_.back().count < kMaxCount) {
              DictEntry& back = ix.dict_.back();
              if (back.repeat) {
                // Extend the run of identical vectors.
                ++back.count;
              } else if (back.count == 1) {
                // The single vector becomes a repeat group of two lines.
                back.repeat = true;
                back.count = 2;
              } else {
                // Detach the trailing vector from the literal run; it seeds
                // a new repeat group (the vector is already the last one
                // stored).
                --back.count;
                ix.dict_.push_back({2, true});
              }
            } else {
              ix.vectors_.push_back(v);
              if (!ix.dict_.empty() && !ix.dict_.back().repeat &&
                  ix.dict_.back().count < kMaxCount) {
                ++ix.dict_.back().count;
              } else {
                ix.dict_.push_back({1, false});
              }
              prev_vector = v;
              have_prev = true;
            }
          }
        });
  });
  GEOCOL_RETURN_NOT_OK(build_status);
  return ix;
}

Result<ImprintsIndex> ImprintsIndex::ExtendAppend(const ImprintsIndex& base,
                                                  const Column& column,
                                                  ThreadPool* pool) {
  if (column.empty()) {
    return Status::InvalidArgument("cannot extend imprints over empty column");
  }
  if (column.size() < base.num_rows_) {
    return Status::InvalidArgument(
        "imprints extend: column shrank below the indexed prefix");
  }
  if (base.values_per_line_ == 0) {
    return Status::InvalidArgument("imprints extend: bad base geometry");
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

  // Decode the base dictionary back into the maximal-run decomposition of
  // its per-line vectors, truncated at the seam. Adjacent equal runs are
  // re-coalesced here so runs the encoder split at the kMaxCount cap come
  // back as one — the emitter below must see maximal runs to reproduce the
  // from-scratch encoding byte-for-byte.
  std::vector<VectorRun> head;
  head.reserve(base.dict_.size());
  auto add_head = [&head](uint64_t vec, uint64_t count) {
    if (count == 0) return;
    if (!head.empty() && head.back().vec == vec) {
      head.back().count += count;
    } else {
      head.push_back({vec, count});
    }
  };
  uint64_t line = 0;
  size_t vec_idx = 0;
  for (const DictEntry& e : base.dict_) {
    if (line >= seam_line) break;
    if (e.repeat) {
      uint64_t v = base.vectors_[vec_idx++];
      add_head(v, std::min<uint64_t>(e.count, seam_line - line));
      line += e.count;
    } else {
      for (uint32_t j = 0; j < e.count && line < seam_line; ++j, ++line) {
        add_head(base.vectors_[vec_idx + j], 1);
      }
      vec_idx += e.count;
    }
  }

  std::vector<std::vector<VectorRun>> tail_chunks;
  GEOCOL_RETURN_NOT_OK(BinarizeLines(column, ix.bins_, ix.values_per_line_,
                                     ix.num_rows_, seam_line, ix.num_lines_,
                                     pool, &tail_chunks));

  RunEmitter emitter(&ix.vectors_, &ix.dict_);
  for (const VectorRun& r : head) emitter.Add(r.vec, r.count);
  for (const auto& runs : tail_chunks) {
    for (const VectorRun& r : runs) emitter.Add(r.vec, r.count);
  }
  emitter.Finish();
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
  return ix;
}

uint64_t ImprintsIndex::VectorAtLine(uint64_t line) const {
  assert(line < num_lines_);
  uint64_t at = 0;
  size_t vec_idx = 0;
  for (const DictEntry& e : dict_) {
    if (line < at + e.count) {
      return e.repeat ? vectors_[vec_idx] : vectors_[vec_idx + (line - at)];
    }
    at += e.count;
    vec_idx += e.repeat ? 1 : e.count;
  }
  return 0;
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
  FilterRangeRuns(lo, hi, [&](uint64_t first, uint64_t count, bool full) {
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
