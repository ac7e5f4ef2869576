// Imprint-accelerated range selection: the "filtering" step of the
// paper's query model (§3.3), turned into a row-level selection.
//
// The filter is one conjunctive scan over every range of a query (x, y and
// the residual thematic ranges). It first ANDs every imprint's block
// summaries (one per 64-line checkpoint block) against its query mask and
// keeps only the rows of blocks that every imprint admits. Within those
// rows it walks the candidate runs of one driving imprint and, at each
// candidate line, probes every other column's imprint through an
// ImprintsIndex::Cursor; a column with a different values-per-line is
// probed by row range. Cache lines where any imprint misses are never
// touched; lines where every imprint is "full" are accepted wholesale; the
// SIMD range kernel runs only on the columns whose line is not full, and
// their selection words are ANDed into one bitmap. The surviving rows are
// cut into morsels on a global grid aligned to lcm(64, every
// values-per-line), so every morsel covers whole cache lines of every
// column and whole bitmap words; the scan runs its morsels in parallel
// only when the surviving rows are many enough to pay for the fork, and
// the serial scan walks the same morsels in order, so both produce the
// same rows and stats. Row ids are then written once, each morsel's
// ascending rows at its own offset of one exactly sized list. The cursors,
// checkpoints and block summaries live in memory only.
#ifndef GEOCOL_CORE_IMPRINT_SCAN_H_
#define GEOCOL_CORE_IMPRINT_SCAN_H_

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "columns/column.h"
#include "core/imprints.h"
#include "util/bitvector.h"
#include "util/status.h"

namespace geocol {

class ThreadPool;

/// Surviving rows (after block pruning) below this count are scanned
/// serially even when a pool is given — the fork/join overhead would
/// dominate. Every surviving row lies in a block that every imprint
/// admits, so the work per row is denser than a whole column's and the
/// fork pays off sooner: on a 2 M-point survey, 4 %-of-area windows
/// filtered and refined no slower than with whole-column forking only
/// once this bound and the refinement morsel came down to a quarter of
/// their column-era values.
inline constexpr uint64_t kMinParallelScanRows = 1 << 15;

/// Work accounting of one imprint-filtered scan (drives E3/E5 reporting).
/// Lines and blocks are those of the driving column. Parallel scans merge
/// per-morsel counters; because morsels cover whole cache lines, the
/// merged stats equal the serial scan's exactly. A scan without a driving
/// imprint counts no lines or blocks. Block pruning changes only the
/// visited counts: it drops lines that some imprint misses.
struct ImprintScanStats {
  uint64_t lines_total = 0;
  uint64_t lines_candidate = 0;  ///< every imprint hit some of its rows
  uint64_t lines_full = 0;       ///< candidate lines with no value checked
  uint64_t blocks_visited = 0;   ///< checkpoint blocks that survived pruning
  uint64_t lines_visited = 0;    ///< driving candidate lines in those blocks
  uint64_t values_checked = 0;   ///< per-value comparisons, all columns
  uint64_t rows_selected = 0;
  uint64_t rows_full = 0;        ///< rows accepted via full lines (no check)
  uint32_t workers = 1;          ///< threads that executed scan morsels

  /// Fraction of the column actually touched by the scan.
  double TouchedFraction() const {
    return lines_total > 0
               ? static_cast<double>(lines_candidate) / lines_total
               : 0.0;
  }

  /// Fraction of per-value comparisons that rejected the row: how often
  /// the imprint flagged a boundary line whose values then failed the
  /// predicate. 0 when no per-value checks ran.
  double FalsePositiveRate() const {
    if (values_checked == 0) return 0.0;
    uint64_t boundary_selected = rows_selected - rows_full;
    return static_cast<double>(values_checked - boundary_selected) /
           static_cast<double>(values_checked);
  }
};

/// One conjunct of a conjunctive scan: rows whose `column` value lies in
/// [lo, hi], compared in the column's native type (the bounds are clamped
/// into it once per scan).
struct RangeTerm {
  const Column* column = nullptr;
  /// Imprint built on the column's current state (epoch match — Internal
  /// error otherwise), or null: every line of the term is then a non-full
  /// candidate and all its values are checked.
  const ImprintsIndex* index = nullptr;
  double lo = 0.0;
  double hi = 0.0;
};

/// Selects the rows that satisfy every term, as ascending row ids appended
/// to `out_rows`. All columns must have the same length. The scan is
/// driven by whichever of the first two terms (the spatial pair) has the
/// shorter imprint dictionary. A non-null `pool` scans morsels in
/// parallel; the rows and stats equal the serial scan's.
Status ConjunctiveRangeSelect(const std::vector<RangeTerm>& terms,
                              std::vector<uint64_t>* out_rows,
                              ImprintScanStats* stats = nullptr,
                              ThreadPool* pool = nullptr);

/// The one-term scan into a row bitmap: `out_rows` is resized to the
/// column length and bit r is set when row r's value lies in [lo, hi].
Status ImprintRangeSelect(const Column& column, const ImprintsIndex& index,
                          double lo, double hi, BitVector* out_rows,
                          ImprintScanStats* stats = nullptr,
                          ThreadPool* pool = nullptr);

/// Plain full-scan range selection (no index). Used as the correctness
/// oracle in tests and the baseline in benchmarks. Same native-type
/// comparison semantics as ImprintRangeSelect. The only Status source is a
/// paged-column chunk fault; resident scans cannot fail.
Status FullScanRangeSelect(const Column& column, double lo, double hi,
                           BitVector* out_rows);

/// Lazily builds and caches imprints per column, mirroring MonetDB's
/// "creation is triggered when it encounters a range query for the first
/// time" (§3.2). Rebuilds when the column's epoch moves (appends).
///
/// Thread-safety: all members may be called concurrently. Concurrent first
/// queries of one column build once and share: a builder marks the entry
/// in-flight under the manager mutex, releases it for the whole disk/build
/// phase, and publishes under the mutex again — waiters park on a condition
/// variable, so a slow sidecar load or rebuild never stalls readers of
/// *other* columns (nor lookups that hit the cache). Returned indexes are
/// shared_ptr so a rebuild triggered by an epoch change never invalidates
/// an index another thread is scanning. Callers must still not mutate a
/// column while queries on it are in flight — the COW append path
/// (Column::CloneAppend) never does; the epoch check is advisory for the
/// legacy in-place mutation path, not a memory fence.
///
/// Incremental maintenance: when a looked-up column carries CloneAppend
/// lineage and the base column's index is cached and fresh, the manager
/// extends it over the appended tail (ImprintsIndex::ExtendAppend) instead
/// of rebuilding, probe-verifies the stitch against freshly binarised
/// sample lines, and on verification failure quarantines the sidecar and
/// falls back to a from-scratch build.
class ImprintManager {
 public:
  explicit ImprintManager(ImprintsOptions options = {})
      : options_(options) {}

  /// Returns the (possibly freshly built) index for `column`. Sets `*cold`
  /// (when given) if this call built the index or waited for another
  /// thread's build of it; a cache hit leaves it untouched.
  Result<std::shared_ptr<const ImprintsIndex>> GetOrBuild(
      const ColumnPtr& column, bool* cold = nullptr);

  /// Builds `column`'s index incrementally when its CloneAppend lineage
  /// base has a fresh cached index (GetOrBuild's stitch path); does nothing
  /// otherwise. Live publishes call it while the base is still alive, so
  /// the stitch does not depend on a reader pinning the old epoch.
  Status StitchFromBase(const ColumnPtr& column);

  /// Testing hook: the next incremental stitch fails probe verification,
  /// exercising the quarantine + rebuild fallback (consumed once).
  void InjectStitchFault() { stitch_fault_.store(true); }

  /// Pool used to parallelise index builds (nullptr = serial builds). Set
  /// once at engine construction, before any queries run.
  void set_thread_pool(ThreadPool* pool) { pool_ = pool; }

  /// Directory for persisted imprint sidecars ("" = in-memory only). When
  /// set, a build first tries `<dir>/<column>.gim`; a corrupt or stale
  /// sidecar is quarantined/rebuilt transparently (see
  /// core/imprints_io.h), so a damaged cache file never fails a query.
  /// Set at engine construction; a sharded append moves it to the shard's
  /// next generation directory before stitching there. A build persists
  /// into the directory set when it starts.
  void set_sidecar_dir(std::string dir) {
    std::lock_guard<std::mutex> lock(mu_);
    sidecar_dir_ = std::move(dir);
  }

  /// Total storage consumed by all cached indexes.
  uint64_t TotalStorageBytes() const;

  /// Number of indexes currently cached.
  size_t num_indexes() const;

  /// Drops all cached indexes.
  void Clear();

  const ImprintsOptions& options() const { return options_; }

 private:
  struct Entry {
    std::shared_ptr<const ImprintsIndex> index;  ///< published under mu_
    bool building = false;  ///< a thread is building off-lock
    std::weak_ptr<const Column> column;  ///< liveness, for pruning
  };

  /// Builds (or loads) the index for `column` without holding mu_.
  /// `base_index` is the cached fresh index of the column's lineage base
  /// (null when unavailable) — triggers the incremental path.
  Result<ImprintsIndex> BuildIndex(
      const ColumnPtr& column,
      const std::shared_ptr<const ImprintsIndex>& base_index,
      const std::string& sidecar_dir);

  /// The cached index of `column`'s lineage base when it is fresh and
  /// covers exactly the rows `column` inherits, else null; caller holds mu_.
  std::shared_ptr<const ImprintsIndex> FreshBaseIndexLocked(
      const Column& column) const;

  /// Drops entries whose column died (COW retirement); caller holds mu_.
  void PruneLocked();

  ImprintsOptions options_;
  ThreadPool* pool_ = nullptr;
  std::string sidecar_dir_;  ///< "" = do not persist indexes; under mu_
  std::atomic<bool> stitch_fault_{false};
  mutable std::mutex mu_;            ///< guards cache_ and entry fields
  std::condition_variable build_cv_;  ///< signalled when a build publishes
  std::unordered_map<const Column*, Entry> cache_;
  size_t prune_watermark_ = 8;
};

}  // namespace geocol

#endif  // GEOCOL_CORE_IMPRINT_SCAN_H_
