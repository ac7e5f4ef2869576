// The query window (DESIGN.md §3, §12): the x/y part of a selection —
// spatial predicate plus any range predicates on the coordinate columns —
// folded into one box. `x BETWEEN a AND b AND y BETWEEN c AND d` is planned
// as ranges, not geometry; folding them into the envelope lets the filter
// step scan x and y once over the narrowed window (instead of scanning x and
// y over the whole envelope and then x and y again as thematic ranges), and
// lets shard pruning and the covered-shard shortcut see the viewport.
//
// The fold is exact: a value v satisfies every [lo_i, hi_i] iff it
// satisfies [max lo_i, min hi_i], and ClampRangeToType of the folded bounds
// accepts a native value iff every separately clamped range does. Answers
// are therefore bit-identical to filtering each range on its own.
#ifndef GEOCOL_CORE_QUERY_WINDOW_H_
#define GEOCOL_CORE_QUERY_WINDOW_H_

#include <limits>
#include <string>
#include <vector>

#include "geom/geometry.h"

namespace geocol {

/// A thematic range predicate on a non-spatial attribute
/// (`classification BETWEEN 3 AND 5`, `intensity >= 100`, ...).
struct AttributeRange {
  std::string column;
  double lo = -std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();
};

struct QueryWindow {
  /// Filter box: the (buffered) geometry envelope ∩ every x/y range. No
  /// row outside it can qualify.
  Box envelope;
  /// A box all of whose points qualify on the spatial predicate and the
  /// x/y ranges: the unbuffered box geometry ∩ every x/y range. Empty for
  /// non-box geometries, which have no such box.
  Box coverage;
  /// The ranges on every other column, in input order.
  std::vector<AttributeRange> residual;
  /// True when no row can qualify: an empty (or NaN) envelope, or any
  /// range with a NaN bound or lo > hi.
  bool empty = false;
};

/// Folds the ranges on `x_name`/`y_name` of `thematic` into the envelope of
/// `geometry` (expanded by `buffer` when positive).
QueryWindow MakeQueryWindow(const Geometry& geometry, double buffer,
                            const std::vector<AttributeRange>& thematic,
                            const std::string& x_name,
                            const std::string& y_name);

}  // namespace geocol

#endif  // GEOCOL_CORE_QUERY_WINDOW_H_
