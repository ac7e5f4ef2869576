// The refinement step of the paper's two-step query model (§3.3): a regular
// grid is laid over the points that survived the imprint filter; the query
// geometry is evaluated once per non-empty grid cell; cells fully inside
// accept all their points, cells fully outside reject them, and only
// boundary cells fall back to exact per-point predicate evaluation.
#ifndef GEOCOL_CORE_REFINEMENT_H_
#define GEOCOL_CORE_REFINEMENT_H_

#include <cstdint>
#include <vector>

#include "columns/column.h"
#include "geom/geometry.h"
#include "geom/grid.h"
#include "util/bitvector.h"
#include "util/status.h"

namespace geocol {

class ThreadPool;

/// Refinement tuning knobs.
struct RefineOptions {
  /// Target candidate points per grid cell; controls grid resolution.
  uint64_t target_points_per_cell = 256;
  uint32_t max_cells_per_axis = 2048;
  /// Disable the grid and test every candidate exactly (the strawman the
  /// grid is compared against in E4).
  bool use_grid = true;
};

/// Work accounting of one refinement pass.
struct RefinementStats {
  uint64_t candidates = 0;      ///< points entering refinement
  uint64_t accepted = 0;        ///< points in the final answer
  uint64_t cells_total = 0;     ///< grid size
  uint64_t cells_nonempty = 0;  ///< cells holding >= 1 candidate
  uint64_t cells_inside = 0;    ///< decided wholesale: accept
  uint64_t cells_outside = 0;   ///< decided wholesale: reject
  uint64_t cells_boundary = 0;  ///< per-point fallback
  uint64_t exact_tests = 0;     ///< point-in-geometry evaluations
  uint32_t grid_cols = 0;
  uint32_t grid_rows = 0;
  uint32_t workers = 1;         ///< threads that executed refine morsels
};

/// Refines candidate rows against `geometry` (buffered by `buffer` for
/// "near"/ST_DWithin semantics; 0 for exact containment). Candidate rows
/// are given as set bits of `candidates`; accepted row ids are appended to
/// `out_rows` in ascending order. `x`/`y` must be FlatTable columns of
/// equal length covering the same rows.
///
/// A non-null `pool` splits the candidate vector into word-aligned row
/// ranges refined by parallel workers, each appending to a local row list;
/// the lists are concatenated in range order, so the result is identical
/// to the serial pass. Cell classifications are shared through an atomic
/// per-cell table (classification is deterministic, so racing workers
/// agree); per-cell stats are counted by the unique worker that published
/// the classification, making the merged stats equal the serial ones.
Status GridRefine(const Column& x, const Column& y, const BitVector& candidates,
                  const Geometry& geometry, double buffer,
                  const RefineOptions& options, std::vector<uint64_t>* out_rows,
                  RefinementStats* stats = nullptr, ThreadPool* pool = nullptr);

/// Exhaustive refinement: exact test per candidate, no grid. The oracle in
/// tests and the baseline of E4.
Status ExhaustiveRefine(const Column& x, const Column& y,
                        const BitVector& candidates, const Geometry& geometry,
                        double buffer, std::vector<uint64_t>* out_rows,
                        RefinementStats* stats = nullptr);

}  // namespace geocol

#endif  // GEOCOL_CORE_REFINEMENT_H_
