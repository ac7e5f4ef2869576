// The planner: resolves the FROM target against the catalog, validates
// referenced columns, and normalises the WHERE clause into the engine's
// native inputs (one spatial predicate + conjunctive attribute ranges).
#ifndef GEOCOL_SQL_PLANNER_H_
#define GEOCOL_SQL_PLANNER_H_

#include <memory>
#include <string>

#include "gis/catalog.h"
#include "sql/ast.h"
#include "util/status.h"

namespace geocol {
namespace sql {

/// A validated, normalised query ready for execution.
struct PlannedQuery {
  enum class Target { kPointCloud, kLayer };
  Target target = Target::kPointCloud;
  SelectStmt stmt;

  // Point-cloud target: the view the statement executes against, pinned
  // at plan time (Catalog::PinPointCloud) — a flat table's constant
  // one-shard view, a sharded table's current view, or a live table's
  // current epoch. The statement reads that one view end to end while
  // appends publish, and the view keeps its columns alive until the plan
  // is dropped. `engine` (flat, live) or `router` (sharded) names what
  // serves the view; execution reads only the view.
  std::shared_ptr<const ShardsView> view;
  SpatialQueryEngine* engine = nullptr;
  ShardRouter* router = nullptr;

  // Layer target.
  std::shared_ptr<VectorLayer> layer;

  // Normalised spatial predicate (point-cloud and layer targets).
  bool has_geometry = false;
  Geometry geometry;
  double buffer = 0.0;

  // NEAR(layer, class, d) join.
  bool near = false;
  std::shared_ptr<VectorLayer> near_layer;
  uint32_t near_class = 0;
  double near_distance = 0.0;

  // Merged attribute ranges (one entry per column).
  std::vector<AttributeRange> thematic;

  /// The geometry a point-cloud selection runs over: the spatial
  /// predicate, or — for statements without one — the view's extent as a
  /// box (ShardsView::Extent). Errors only when a flat table lacks x or y.
  Result<Geometry> QueryGeometry() const;

  /// Human-readable plan (EXPLAIN output).
  std::string Describe() const;
};

/// Plans `stmt` against `catalog`.
Result<PlannedQuery> PlanQuery(Catalog* catalog, SelectStmt stmt);

/// Pseudo-columns exposed by vector layers.
bool IsLayerColumn(const std::string& name);

}  // namespace sql
}  // namespace geocol

#endif  // GEOCOL_SQL_PLANNER_H_
