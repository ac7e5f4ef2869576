#include "core/imprint_scan.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <functional>
#include <numeric>
#include <span>
#include <vector>

#include "core/imprints_io.h"
#include "core/native_range.h"
#include "simd/kernels.h"
#include "telemetry/metrics.h"
#include "util/binary_io.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace geocol {

namespace {

// Morsel granularity (rows); rounded up to a multiple of lcm(64, values
// per line) so every morsel covers whole cache lines of every column and
// whole 64-bit words.
constexpr uint64_t kTargetMorselRows = 1 << 16;
// Value checks run on the pieces of a segment cut by this global row grid:
// one stack scratch per piece, and a piece never straddles a paging chunk
// (chunk_rows is a power of two >= 32768).
constexpr uint64_t kCheckRows = 4096;

/// Writes the selection bits of rows [a, b) of one term — a piece inside
/// one paging chunk — to `words` (bit 0 = row a); returns how many are set.
using CheckFn =
    std::function<Result<uint64_t>(uint64_t a, uint64_t b, uint64_t* words)>;

/// A term prepared for one scan.
struct ScanTerm {
  const ImprintsIndex* index = nullptr;
  uint64_t vpl = 1;   ///< rows per cache line (1 without an index)
  ImprintMask mask;
  CheckFn check;
};

/// Rows [begin, end) that survived block pruning: a run of blocks, or its
/// piece inside one morsel, whose selection bits start at bit `bit` of the
/// scan's bitmap. Both ends are multiples of 64 and of every
/// values-per-line, except an end at the column length.
struct ScanRun {
  uint64_t begin = 0, end = 0, bit = 0;
};

/// Bit of term `t` in a segment's mask of terms whose values need checks.
/// Terms past the 63rd share the last bit and are checked together.
inline uint64_t TermBit(size_t t) {
  return uint64_t{1} << std::min<size_t>(t, 63);
}

/// Intersects the ascending, disjoint row ranges `runs` with the blocks of
/// `t` whose summary hits its query mask: rows of a block that misses hold
/// no line that term admits, so no row there can be selected. Adjacent
/// surviving blocks merge into one range.
std::vector<ScanRun> PruneBlocks(const std::vector<ScanRun>& runs,
                                 const ScanTerm& t) {
  const std::vector<uint64_t>& summaries = t.index->block_summaries();
  const uint64_t block_rows = ImprintsIndex::kCheckpointLines * t.vpl;
  std::vector<ScanRun> out;
  for (const ScanRun& r : runs) {
    for (uint64_t b = r.begin / block_rows; b * block_rows < r.end; ++b) {
      if ((summaries[b] & t.mask.query) == 0) continue;
      const uint64_t a = std::max(r.begin, b * block_rows);
      const uint64_t e = std::min(r.end, (b + 1) * block_rows);
      if (!out.empty() && out.back().end == a) {
        out.back().end = e;
      } else {
        out.push_back({a, e, 0});
      }
    }
  }
  return out;
}

/// Scans the rows of `runs` — ascending, each covering whole cache lines of
/// every term and whole words of `bits` — setting the bits of the selected
/// rows. Segments are maximal row ranges over which every term's imprint
/// status (miss, full, partial) is constant; adjacent segments with the
/// same partial terms coalesce before their values are checked.
Status ScanMorsel(const std::vector<ScanTerm>& terms, size_t lead,
                  std::span<const ScanRun> runs, BitVector* bits,
                  ImprintScanStats& st) {
  const size_t nt = terms.size();
  std::vector<ImprintsIndex::Cursor> cursors;
  for (const ScanTerm& t : terms) cursors.emplace_back(t.index);
  const ScanTerm& d = terms[lead];
  const uint64_t vd = d.vpl;
  const bool count_lines = d.index != nullptr;
  uint64_t cand_next = 0, checked_next = 0, lines_checked = 0;
  auto new_lines = [vd](uint64_t a, uint64_t b, uint64_t* next) {
    const uint64_t la = std::max(a / vd, *next);
    const uint64_t lb = (b - 1) / vd + 1;
    *next = lb;
    return lb > la ? lb - la : 0;
  };
  // The run being scanned: rows [row_begin, row_end) land at bits
  // [row_begin + to_bit, ...) (unsigned wrap-around when the bit lies below
  // the row).
  uint64_t row_end = 0, to_bit = 0;

  uint64_t acc[kCheckRows / 64], tmp[kCheckRows / 64];
  // Checks the values of one coalesced segment, piece by piece. Each
  // piece stops at the first term whose AND leaves no row.
  auto check_segment = [&](uint64_t a, uint64_t b, uint64_t mask) -> Status {
    for (uint64_t p = a; p < b;) {
      const uint64_t q = std::min(b, (p / kCheckRows + 1) * kCheckRows);
      const uint64_t nw = (q - p + 63) / 64;
      bool first = true;
      uint64_t selected = 0;
      for (uint64_t m = mask; m != 0 && (first || selected != 0); m &= m - 1) {
        const size_t bit = std::countr_zero(m);
        const size_t last = bit == 63 ? nt : bit + 1;
        for (size_t t = bit; t < last && (first || selected != 0); ++t) {
          GEOCOL_ASSIGN_OR_RETURN(
              selected, terms[t].check(p, q, first ? acc : tmp));
          st.values_checked += q - p;
          if (!first) {
            selected = 0;
            for (uint64_t w = 0; w < nw; ++w) {
              acc[w] &= tmp[w];
              selected += std::popcount(acc[w]);
            }
          }
          first = false;
        }
      }
      if (selected != 0) {
        bits->OrWordsAt(p + to_bit, acc, q - p);
        st.rows_selected += selected;
      }
      p = q;
    }
    return Status::OK();
  };

  uint64_t pend_a = 0, pend_b = 0, pend_mask = 0;
  auto flush = [&]() -> Status {
    if (pend_b == pend_a) return Status::OK();
    if (count_lines) {
      st.lines_candidate += new_lines(pend_a, pend_b, &cand_next);
      if (pend_mask != 0) {
        lines_checked += new_lines(pend_a, pend_b, &checked_next);
      }
    }
    const uint64_t a = pend_a;
    pend_a = pend_b;
    if (pend_mask != 0) return check_segment(a, pend_b, pend_mask);
    bits->SetRange(a + to_bit, pend_b + to_bit);
    st.rows_selected += pend_b - a;
    st.rows_full += pend_b - a;
    return Status::OK();
  };
  auto emit = [&](uint64_t a, uint64_t b, uint64_t mask) -> Status {
    if (a != pend_b || mask != pend_mask) {
      GEOCOL_RETURN_NOT_OK(flush());
      pend_a = a;
      pend_mask = mask;
    }
    pend_b = b;
    return Status::OK();
  };

  // Per probed term, the stretch of rows ending at end_row (before line
  // end_line) over which its imprint status holds: 0 miss, 1 full, 2
  // partial.
  struct Stretch {
    uint64_t end_row = 0, end_line = 0;
    int state = 0;
  };
  std::vector<Stretch> stretches(nt);
  // Splits the lead column's candidate rows [r, r1) into segments by probing
  // every other term's imprint at the row's cache line. A stretch extends
  // over following lines of the same status up to r1. Rows only ascend,
  // so a term is re-sought only past its stretch, and a contiguous walk
  // continues at end_line without dividing.
  auto probe = [&](uint64_t r, uint64_t r1, uint64_t lead_mask) -> Status {
    while (r < r1) {
      uint64_t end = r1;
      uint64_t mask = lead_mask;
      bool miss = false;
      for (size_t t = 0; t < nt && !miss; ++t) {
        if (t == lead) continue;
        const ScanTerm& pt = terms[t];
        if (pt.index == nullptr) {
          mask |= TermBit(t);
          continue;
        }
        Stretch& s = stretches[t];
        if (r >= s.end_row) {
          ImprintsIndex::Cursor& c = cursors[t];
          auto state = [&pt](uint64_t v) {
            if ((v & pt.mask.query) == 0) return 0;
            return (v & ~pt.mask.inner) == 0 ? 1 : 2;
          };
          s.state = state(c.Seek(r == s.end_row ? s.end_line : r / pt.vpl));
          s.end_line = c.run_end();
          while (s.end_line * pt.vpl < r1 &&
                 state(c.Seek(s.end_line)) == s.state) {
            s.end_line = c.run_end();
          }
          s.end_row = std::min(s.end_line * pt.vpl, row_end);
        }
        miss = s.state == 0;
        if (s.state == 2) mask |= TermBit(t);
        end = miss ? std::min(s.end_row, r1) : std::min(end, s.end_row);
      }
      if (!miss) GEOCOL_RETURN_NOT_OK(emit(r, end, mask));
      r = end;
    }
    return Status::OK();
  };

  for (const ScanRun& run : runs) {
    // Runs never touch, so the pending segment ends with its run; the
    // stretches restart, as a stretch clipped at the last run's end
    // carries no line past it.
    GEOCOL_RETURN_NOT_OK(flush());
    row_end = run.end;
    to_bit = run.bit - run.begin;
    std::fill(stretches.begin(), stretches.end(), Stretch{});
    if (d.index == nullptr) {
      GEOCOL_RETURN_NOT_OK(probe(run.begin, run.end, TermBit(lead)));
      continue;
    }
    Status status;
    d.index->CandidateRuns(
        d.mask, run.begin / vd, (run.end + vd - 1) / vd,
        [&](uint64_t first, uint64_t count, bool full) {
          if (!status.ok()) return;
          st.lines_visited += count;
          status = probe(first * vd, std::min((first + count) * vd, run.end),
                         full ? 0 : TermBit(lead));
        });
    GEOCOL_RETURN_NOT_OK(status);
  }
  GEOCOL_RETURN_NOT_OK(flush());
  st.lines_full += st.lines_candidate - lines_checked;
  return Status::OK();
}

/// Plans the scan of `terms` and runs it morsel by morsel. When `rows` is
/// null, `bits` is resized to the column length and bit r is set for each
/// selected row r. Otherwise `bits` holds only the rows that survive block
/// pruning, end to end, and the selected row ids are appended to `rows`.
Status RunScan(const std::vector<RangeTerm>& terms, ThreadPool* pool,
               BitVector* bits, std::vector<uint64_t>* rows,
               ImprintScanStats* stats) {
  if (terms.empty()) return Status::InvalidArgument("scan without terms");
  const auto scan_start = std::chrono::steady_clock::now();
  const uint64_t n = terms[0].column->size();
  std::vector<ScanTerm> plan(terms.size());
  bool empty = false;
  uint64_t unit = 64;
  for (size_t t = 0; t < terms.size(); ++t) {
    const RangeTerm& rt = terms[t];
    const Column& column = *rt.column;
    if (column.size() != n) {
      return Status::InvalidArgument("scan columns differ in length");
    }
    ScanTerm& st = plan[t];
    st.index = rt.index;
    if (rt.index != nullptr) {
      if (rt.index->built_epoch() != column.epoch()) {
        return Status::Internal("stale imprints index (column was modified)");
      }
      st.vpl = rt.index->values_per_line();
      st.mask = rt.index->MaskForRange(rt.lo, rt.hi);
      unit = std::lcm(unit, st.vpl);
    }
    DispatchDataType(column.type(), [&]<typename T>() {
      // Compare in the column's native type: the bounds are clamped into T
      // once per scan, so large int64 values are never rounded through
      // double. An unsatisfiable clamped range selects nothing.
      const NativeRange<T> nr = ClampRangeToType<T>(rt.lo, rt.hi);
      empty |= nr.empty;
      // Pieces never straddle a paging chunk, so ForEachValueRun makes
      // exactly one call.
      st.check = [&column, nr](uint64_t a, uint64_t b,
                               uint64_t* words) -> Result<uint64_t> {
        uint64_t selected = 0;
        GEOCOL_RETURN_NOT_OK(ForEachValueRun<T>(
            column, a, b, [&](const T* vals, uint64_t, size_t count) {
              selected = simd::RangeSelectBits(vals, count, nr.lo, nr.hi,
                                               words);
            }));
        return selected;
      };
    });
  }
  // Drive from the spatial column whose dictionary is cheaper to walk.
  size_t lead = 0;
  if (plan.size() > 1 && plan[0].index != nullptr && plan[1].index != nullptr &&
      plan[1].index->dictionary().size() < plan[0].index->dictionary().size()) {
    lead = 1;
  }

  ImprintScanStats merged;
  if (plan[lead].index) merged.lines_total = plan[lead].index->num_lines();
  // Block pruning, driving term first: only rows inside a block that every
  // imprint's summary admits can hold a selected row.
  std::vector<ScanRun> survivors;
  if (!empty && n > 0) {
    survivors.push_back({0, n, 0});
    for (size_t k = 0; k < plan.size() && !survivors.empty(); ++k) {
      const size_t t = k == 0 ? lead : k <= lead ? k - 1 : k;
      if (plan[t].index != nullptr) survivors = PruneBlocks(survivors, plan[t]);
    }
  }
  // Morsels on the global grid: the survivors are cut at its boundaries and
  // a morsel holds the pieces inside one grid cell.
  const uint64_t morsel_rows = ((kTargetMorselRows + unit - 1) / unit) * unit;
  const uint64_t lead_block_rows =
      ImprintsIndex::kCheckpointLines * plan[lead].vpl;
  std::vector<ScanRun> pieces;
  std::vector<size_t> morsel_first;  // first piece of each morsel
  uint64_t surviving_rows = 0, last_block = UINT64_MAX;
  // Row mode keeps bits for the surviving rows only, end to end; the
  // pieces' 64-aligned starts keep concurrent writers on disjoint words.
  for (const ScanRun& r : survivors) {
    if (plan[lead].index != nullptr) {
      // Driving blocks the walk enters; a block split by another term's
      // pruning counts once.
      const uint64_t first = r.begin / lead_block_rows;
      const uint64_t last = (r.end - 1) / lead_block_rows;
      merged.blocks_visited += last - first + (first != last_block);
      last_block = last;
    }
    for (uint64_t a = r.begin; a < r.end;) {
      const uint64_t cell = a / morsel_rows;
      const uint64_t e = std::min(r.end, (cell + 1) * morsel_rows);
      if (pieces.empty() || pieces.back().begin / morsel_rows != cell) {
        morsel_first.push_back(pieces.size());
      }
      pieces.push_back({a, e, rows != nullptr ? surviving_rows : a});
      surviving_rows += e - a;
      a = e;
    }
  }
  bits->Resize(rows != nullptr ? surviving_rows : n);
  const size_t num_morsels = morsel_first.size();
  morsel_first.push_back(pieces.size());
  auto morsel_pieces = [&](size_t m) {
    return std::span<const ScanRun>(pieces.data() + morsel_first[m],
                                    morsel_first[m + 1] - morsel_first[m]);
  };
  const bool parallel = pool != nullptr && pool->num_threads() > 0 &&
                        surviving_rows >= kMinParallelScanRows &&
                        num_morsels > 1;
  auto for_each_morsel = [&](const std::function<void(size_t)>& fn) {
    if (parallel) {
      pool->ParallelFor(num_morsels, fn);
    } else {
      for (size_t m = 0; m < num_morsels; ++m) fn(m);
    }
  };
  std::vector<ImprintScanStats> morsel_stats(num_morsels);
  std::vector<Status> morsel_status(num_morsels);
  for_each_morsel([&](size_t m) {
    morsel_status[m] =
        ScanMorsel(plan, lead, morsel_pieces(m), bits, morsel_stats[m]);
  });
  if (parallel) {
    merged.workers = static_cast<uint32_t>(
        std::min<uint64_t>(num_morsels, pool->num_threads() + 1));
  }
  for (Status& st : morsel_status) GEOCOL_RETURN_NOT_OK(std::move(st));
  std::vector<uint64_t> offset(num_morsels + 1, rows ? rows->size() : 0);
  for (size_t m = 0; m < num_morsels; ++m) {
    const ImprintScanStats& st = morsel_stats[m];
    merged.lines_candidate += st.lines_candidate;
    merged.lines_full += st.lines_full;
    merged.lines_visited += st.lines_visited;
    merged.values_checked += st.values_checked;
    merged.rows_selected += st.rows_selected;
    merged.rows_full += st.rows_full;
    offset[m + 1] = offset[m] + st.rows_selected;
  }
  // Row ids: the list is sized once, and each morsel writes its rows in
  // ascending order at its own offset, so the morsels concatenate in
  // order without copying.
  if (rows != nullptr) {
    rows->resize(offset[num_morsels]);
    for_each_morsel([&](size_t m) {
      uint64_t* out = rows->data() + offset[m];
      for (const ScanRun& p : morsel_pieces(m)) {
        out = bits->CollectSetBitsInRange(p.bit, p.bit + (p.end - p.begin),
                                          p.begin, out);
      }
    });
  }
  // Work counters feed `geocol metrics` exposition and must stay equal to
  // the span attributes EXPLAIN ANALYZE reports (asserted in tests).
  GEOCOL_METRIC_COUNTER(c_scans, "geocol_imprint_scans_total");
  GEOCOL_METRIC_COUNTER(c_lines_total, "geocol_imprint_cachelines_total");
  GEOCOL_METRIC_COUNTER(c_lines_probed, "geocol_imprint_cachelines_probed_total");
  GEOCOL_METRIC_COUNTER(c_lines_full, "geocol_imprint_cachelines_full_total");
  GEOCOL_METRIC_COUNTER(c_blocks_visited, "geocol_imprint_blocks_visited_total");
  GEOCOL_METRIC_COUNTER(c_lines_visited, "geocol_imprint_lines_visited_total");
  GEOCOL_METRIC_COUNTER(c_values, "geocol_imprint_values_checked_total");
  GEOCOL_METRIC_COUNTER(c_rows, "geocol_imprint_rows_selected_total");
  GEOCOL_METRIC_COUNTER(c_rows_full, "geocol_imprint_rows_full_total");
  GEOCOL_METRIC_HISTOGRAM(h_scan, "geocol_imprint_scan_nanos");
  c_scans.Increment();
  c_lines_total.Increment(merged.lines_total);
  c_lines_probed.Increment(merged.lines_candidate);
  c_lines_full.Increment(merged.lines_full);
  c_blocks_visited.Increment(merged.blocks_visited);
  c_lines_visited.Increment(merged.lines_visited);
  c_values.Increment(merged.values_checked);
  c_rows.Increment(merged.rows_selected);
  c_rows_full.Increment(merged.rows_full);
  h_scan.Observe(std::chrono::duration_cast<std::chrono::nanoseconds>(
                     std::chrono::steady_clock::now() - scan_start)
                     .count());
  if (stats != nullptr) *stats = merged;
  return Status::OK();
}

}  // namespace

Status ConjunctiveRangeSelect(const std::vector<RangeTerm>& terms,
                              std::vector<uint64_t>* out_rows,
                              ImprintScanStats* stats, ThreadPool* pool) {
  BitVector bits;
  return RunScan(terms, pool, &bits, out_rows, stats);
}

Status ImprintRangeSelect(const Column& column, const ImprintsIndex& index,
                          double lo, double hi, BitVector* out_rows,
                          ImprintScanStats* stats, ThreadPool* pool) {
  return RunScan({{&column, &index, lo, hi}}, pool, out_rows, nullptr, stats);
}

Status FullScanRangeSelect(const Column& column, double lo, double hi,
                           BitVector* out_rows) {
  out_rows->Resize(column.size());
  Status status;
  DispatchDataType(column.type(), [&]<typename T>() {
    NativeRange<T> nr = ClampRangeToType<T>(lo, hi);
    if (nr.empty) return;
    // Each run's kernel writes ceil(count/64) selection words straight into
    // the BitVector's word array (tail bits zero). Resident columns are one
    // run; paged runs start on chunk boundaries, which are multiples of 64
    // rows, so every run except the last writes whole words and the word
    // offset `first / 64` is exact.
    status = ForEachValueRun<T>(
        column, 0, column.size(),
        [&](const T* vals, uint64_t first, size_t count) {
          simd::RangeSelectBits(vals, count, nr.lo, nr.hi,
                                out_rows->mutable_words() + first / 64);
        });
  });
  return status;
}

namespace {

/// True when `index` describes exactly the current state of `column`.
bool IndexFresh(const ImprintsIndex* index, const Column& column) {
  return index != nullptr && index->built_epoch() == column.epoch() &&
         index->num_rows() == column.size();
}

}  // namespace

Result<std::shared_ptr<const ImprintsIndex>> ImprintManager::GetOrBuild(
    const ColumnPtr& column, bool* cold) {
  if (column == nullptr) return Status::InvalidArgument("null column");
  GEOCOL_METRIC_COUNTER(c_hits, "geocol_imprint_cache_hits_total");
  GEOCOL_METRIC_COUNTER(c_misses, "geocol_imprint_cache_misses_total");
  GEOCOL_METRIC_COUNTER(c_builds, "geocol_imprint_builds_total");
  GEOCOL_METRIC_HISTOGRAM(h_build, "geocol_imprint_build_nanos");

  std::shared_ptr<const ImprintsIndex> base_index;
  std::string sidecar_dir;
  {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      Entry& e = cache_[column.get()];
      if (e.column.expired() && !e.building) {
        // Fresh slot, or a dead column whose heap address was reused (the
        // builder pins its column alive, so building implies not expired).
        e.index.reset();
        e.column = column;
      }
      if (IndexFresh(e.index.get(), *column)) {
        c_hits.Increment();
        return e.index;
      }
      if (cold != nullptr) *cold = true;
      if (!e.building) {
        e.building = true;
        break;
      }
      // Another thread is building this column's index off-lock; park
      // until any build publishes, then re-check. The wait releases mu_,
      // so lookups of other columns proceed unimpeded.
      build_cv_.wait(lock);
    }
    // Incremental path: a fresh cached index of the COW lineage base lets
    // us extend over the appended tail instead of rebuilding.
    base_index = FreshBaseIndexLocked(*column);
    sidecar_dir = sidecar_dir_;
    if (cache_.size() >= prune_watermark_) PruneLocked();
  }

  c_misses.Increment();
  const auto build_start = std::chrono::steady_clock::now();
  Result<ImprintsIndex> built = BuildIndex(column, base_index, sidecar_dir);

  std::lock_guard<std::mutex> lock(mu_);
  Entry& e = cache_[column.get()];
  e.building = false;
  e.column = column;
  build_cv_.notify_all();
  GEOCOL_RETURN_NOT_OK(built.status());
  c_builds.Increment();
  h_build.Observe(std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now() - build_start)
                      .count());
  auto index = std::make_shared<const ImprintsIndex>(std::move(*built));
  e.index = index;
  return index;
}

std::shared_ptr<const ImprintsIndex> ImprintManager::FreshBaseIndexLocked(
    const Column& column) const {
  std::shared_ptr<const Column> base_col = column.base();
  if (base_col == nullptr) return nullptr;
  auto it = cache_.find(base_col.get());
  if (it == cache_.end() || !IndexFresh(it->second.index.get(), *base_col) ||
      column.base_rows() != base_col->size()) {
    return nullptr;
  }
  return it->second.index;
}

Status ImprintManager::StitchFromBase(const ColumnPtr& column) {
  if (column == nullptr) return Status::InvalidArgument("null column");
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (FreshBaseIndexLocked(*column) == nullptr) return Status::OK();
  }
  return GetOrBuild(column).status();
}

Result<ImprintsIndex> ImprintManager::BuildIndex(
    const ColumnPtr& column,
    const std::shared_ptr<const ImprintsIndex>& base_index,
    const std::string& sidecar_dir) {
  const std::string sidecar =
      sidecar_dir.empty() ? "" : sidecar_dir + "/" + column->name() + ".gim";
  if (base_index != nullptr && column->size() > base_index->num_rows()) {
    GEOCOL_METRIC_COUNTER(c_incr, "geocol_imprint_incremental_builds_total");
    GEOCOL_METRIC_COUNTER(c_fallback, "geocol_imprint_stitch_fallbacks_total");
    Result<ImprintsIndex> stitched =
        ImprintsIndex::ExtendAppend(*base_index, *column, pool_);
    bool verified = false;
    if (stitched.ok()) {
      // Probe verification: re-binarise a deterministic sample of lines
      // (biased to the inherited prefix — the tail was just built) and
      // compare against the stitched dictionary. A mismatch means the
      // lineage assumption broke; never serve that index.
      verified = !stitch_fault_.exchange(false);
      if (verified) {
        const uint64_t lines = stitched->num_lines();
        const uint64_t probes = std::min<uint64_t>(lines, 16);
        const BinBounds& bins = stitched->bins();
        const uint32_t vpl = stitched->values_per_line();
        for (uint64_t p = 0; p < probes && verified; ++p) {
          uint64_t line = lines * p / probes;
          uint64_t first = line * vpl;
          uint64_t last =
              std::min<uint64_t>(first + vpl, stitched->num_rows());
          uint64_t v = 0;
          for (uint64_t i = first; i < last; ++i) {
            v |= uint64_t{1} << bins.BinOf(column->GetDouble(i));
          }
          verified = stitched->VectorAtLine(line) == v;
        }
      }
      if (verified) {
        c_incr.Increment();
        if (!sidecar.empty()) {
          Status persisted = WriteImprintsFile(*stitched, sidecar,
                                               ColumnFingerprint(*column));
          if (!persisted.ok()) {
            GEOCOL_LOG(Warning)
                    .With("path", sidecar)
                    .With("error", persisted.ToString())
                << "could not persist stitched imprints sidecar";
          }
        }
        return stitched;
      }
    }
    // Stitch failed (or failed verification): quarantine the sidecar so
    // the rebuild cannot adopt state derived from the bad lineage, then
    // build from scratch.
    c_fallback.Increment();
    GEOCOL_LOG(Warning)
            .With("column", column->name())
            .With("error", stitched.ok() ? std::string("probe mismatch")
                                         : stitched.status().ToString())
        << "incremental imprint stitch rejected; rebuilding from scratch";
    if (!sidecar.empty() && PathExists(sidecar)) {
      Status moved = RenameFile(sidecar, sidecar + ".quarantined");
      if (!moved.ok()) {
        GEOCOL_LOG(Warning)
                .With("path", sidecar)
                .With("error", moved.ToString())
            << "could not quarantine sidecar after stitch failure";
      }
    }
  }
  // Sidecar-backed build reuses a verified on-disk index when fresh and
  // transparently quarantines + rebuilds when corrupt or stale.
  return sidecar.empty()
             ? ImprintsIndex::Build(*column, options_, pool_)
             : LoadOrBuildImprints(*column, sidecar, options_, pool_);
}

void ImprintManager::PruneLocked() {
  for (auto it = cache_.begin(); it != cache_.end();) {
    if (!it->second.building && it->second.column.expired()) {
      it = cache_.erase(it);
    } else {
      ++it;
    }
  }
  prune_watermark_ = std::max<size_t>(8, cache_.size() * 2);
}

uint64_t ImprintManager::TotalStorageBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t total = 0;
  for (const auto& [col, entry] : cache_) {
    if (entry.index != nullptr) {
      total += entry.index->Storage(0).total_bytes;
    }
  }
  return total;
}

size_t ImprintManager::num_indexes() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t n = 0;
  for (const auto& [col, entry] : cache_) {
    n += entry.index != nullptr ? 1 : 0;
  }
  return n;
}

void ImprintManager::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  // In-flight builds keep their entries (the builder will republish into
  // them); dropping one would strand its waiters' building flag.
  for (auto it = cache_.begin(); it != cache_.end();) {
    if (it->second.building) {
      it->second.index.reset();
      ++it;
    } else {
      it = cache_.erase(it);
    }
  }
}

}  // namespace geocol
