// Per-operator execution profile — the demo's scenario 2 lets users "see
// the plans of the queries and the execution time spent in each operator"
// (§4.2). Every engine query fills one of these.
//
// Since PR 4 a profile is a tree of timed spans, not a flat list: each
// operator records its start offset (relative to the profile's epoch), an
// optional parent span, the small per-process id of the thread that ran
// it, and free-form key=value attributes. The tree renders as EXPLAIN
// ANALYZE output and exports as a Chrome trace_event JSON file
// (telemetry/trace.h).
#ifndef GEOCOL_CORE_PROFILE_H_
#define GEOCOL_CORE_PROFILE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace geocol {

/// One executed operator / span. Parallel operators additionally record
/// how many workers participated; their `nanos` is the operator's wall
/// time, so summing over concurrently executed operators can exceed the
/// query's wall time — use QueryProfile::CriticalPathNanos() for honest
/// wall-time claims.
struct OperatorProfile {
  std::string name;
  int64_t nanos = 0;
  uint64_t rows_in = 0;
  uint64_t rows_out = 0;
  uint32_t workers = 1;  ///< threads that executed morsels of this operator
  std::string detail;  ///< free-form annotation ("mask=0x3f", "grid=64x48")

  /// Start offset in nanoseconds relative to the profile's epoch (the
  /// construction or Clear() time of the QueryProfile it belongs to).
  int64_t start_nanos = 0;
  /// Index of the enclosing span in operators(), or -1 for a root span.
  int32_t parent = -1;
  /// Small per-process id of the executing thread (0 = first thread seen).
  uint32_t thread_id = 0;
  /// Structured attributes (cachelines_probed=..., false_positive_rate=...).
  std::vector<std::pair<std::string, std::string>> attrs;
};

/// Tree of operator spans for one query execution, stored as a flat
/// vector in creation order with parent links. Not thread-safe: parallel
/// branches fill branch-local profiles that are merged via Append().
class QueryProfile {
 public:
  QueryProfile() { Clear(); }

  /// Drops all spans and re-bases the epoch at "now".
  void Clear();

  /// Records a completed leaf operator that ended "now" and took `nanos`.
  /// Returns its span index.
  int32_t Add(std::string name, int64_t nanos, uint64_t rows_in,
              uint64_t rows_out, std::string detail = "");

  /// As Add, for operators executed by `workers` threads.
  int32_t AddParallel(std::string name, int64_t nanos, uint64_t rows_in,
                      uint64_t rows_out, uint32_t workers,
                      std::string detail = "");

  /// Records a span with an explicit start offset (relative to this
  /// profile's epoch) instead of deriving it from the clock. Used by
  /// tests and importers; parent is the currently open span.
  int32_t AddSpanAt(std::string name, int64_t start_nanos, int64_t nanos,
                    uint64_t rows_in, uint64_t rows_out,
                    std::string detail = "");

  /// Opens a span that becomes the parent of every span recorded until
  /// the matching CloseSpan. Returns its index. Spans may nest.
  int32_t OpenSpan(std::string name);

  /// Closes the innermost open span, stamping its duration and
  /// cardinalities.
  void CloseSpan(uint64_t rows_in = 0, uint64_t rows_out = 0,
                 std::string detail = "");

  /// Attaches a key=value attribute to span `index` (no-op if out of
  /// range).
  void AddAttr(int32_t index, std::string key, std::string value);
  /// Formats helpers for numeric attributes.
  void AddAttr(int32_t index, std::string key, uint64_t value);
  void AddAttr(int32_t index, std::string key, double value);

  /// Appends every span of `other`, preserving order. Root spans of
  /// `other` become children of this profile's innermost open span (if
  /// any); start offsets are re-based onto this profile's epoch. Used to
  /// merge the branch-local profiles of concurrently scanned shards back
  /// into the query profile in a deterministic order.
  void Append(const QueryProfile& other);

  const std::vector<OperatorProfile>& operators() const { return ops_; }
  bool empty() const { return ops_.empty(); }

  /// Nanoseconds since this profile's epoch (for callers computing
  /// explicit start offsets).
  int64_t NowNanos() const;
  int64_t epoch_nanos() const { return epoch_nanos_; }

  /// Sum of **leaf** operator times. Wrapper spans (OpenSpan/CloseSpan)
  /// re-cover their children's time, so counting only leaves keeps this
  /// equal to the flat per-operator sum the engine always reported.
  /// Overlapping parallel branches still double-count here by design;
  /// see CriticalPathNanos().
  int64_t TotalNanos() const;

  /// Wall time actually covered by spans: the measure of the union of
  /// the root spans' [start, start+nanos) intervals. Overlapping spans
  /// are counted once, so this is the honest wall-time figure for the
  /// query.
  int64_t CriticalPathNanos() const;

  /// Multi-line plan rendering as an indented tree:
  ///   filter.imprints        1.23 ms   12500 -> 830 lines  [mask=...]
  /// with trailing "TOTAL (sum)" and "WALL (critical path)" lines.
  std::string ToString() const;

 private:
  int32_t PushSpan(OperatorProfile op);

  std::vector<OperatorProfile> ops_;
  std::vector<int32_t> open_;  ///< stack of open span indexes
  int64_t epoch_nanos_ = 0;  ///< steady-clock origin for start offsets
};

/// Small per-process id for the calling thread (0, 1, 2, ... in order of
/// first use). Stable for the thread's lifetime; used to lane spans in
/// trace exports.
uint32_t CurrentProfileThreadId();

}  // namespace geocol

#endif  // GEOCOL_CORE_PROFILE_H_
