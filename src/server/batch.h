// Shared-scan batching (DESIGN.md §16): concurrently queued viewport
// queries against the same table epoch are answered with ONE superset
// imprint scan over the union of their boxes, then each member's exact
// selection is re-derived from the candidate rows with the same
// native-clamped range compares the solo path uses — so every member's
// row set (and therefore its result bytes) is identical to running the
// query alone. N queued scans collapse into one scan plus N cheap
// re-filters over the candidates. The superset box is a one-off, so its
// scan bypasses the result cache; a statement whose own selection is
// already cached does not join a group at all (SelectionResident).
#ifndef GEOCOL_SERVER_BATCH_H_
#define GEOCOL_SERVER_BATCH_H_

#include <cstdint>
#include <vector>

#include "core/spatial_engine.h"
#include "server/admission.h"
#include "sql/planner.h"

namespace geocol {
namespace server {

/// True when `plan` may join a shared-scan batch group: a plain flat
/// point-cloud statement whose selection is a pure box-and-thematic
/// conjunction. Excluded: sharded tables (per-shard scans already
/// amortize), NEAR joins (their thematic post-filter keeps NaN rows,
/// unlike the conjunctive path), buffered geometries and non-box shapes
/// (refinement is not a range conjunction), and EXPLAIN [ANALYZE]
/// (answers describe execution, not data).
bool BatchablePlan(const sql::PlannedQuery& plan);

/// True when the selection of batchable `plan` is resident in its
/// engine's result cache, so running it solo replays the entry. Counts no
/// cache hit or miss.
bool SelectionResident(const sql::PlannedQuery& plan);

/// The plan's effective selection box: the query window of
/// PlannedQuery::QueryGeometry() (the geometry envelope, or the table
/// extent for statements with no spatial predicate) and the x/y ranges,
/// exactly as the solo engine folds it; an empty box when the member can
/// select nothing. Errors (missing x/y column) make the caller fall back
/// to solo execution, which reproduces the same error.
Result<Box> PlanViewport(const sql::PlannedQuery& plan);

/// Output of one shared scan over a batch group.
struct SharedScanResult {
  /// Parallel to the input group: each member's ascending qualifying row
  /// ids, bit-identical to what `engine->Select` would have returned for
  /// that member alone.
  std::vector<std::vector<uint64_t>> member_rows;
  /// The shared work, as spans every member's profile/flight event
  /// inherits: server.batch.scan (superset scan + column gather) and
  /// server.batch.fanout (per-member re-filters).
  QueryProfile profile;
};

/// Runs the superset scan for `group` (every task batchable and keyed to
/// `engine`) and fans exact per-member selections out. On any error the
/// caller re-executes each member solo — the error path is never guessed
/// at, it is reproduced.
Result<SharedScanResult> SharedScanSelect(SpatialQueryEngine* engine,
                                          const std::vector<TaskPtr>& group);

}  // namespace server
}  // namespace geocol

#endif  // GEOCOL_SERVER_BATCH_H_
