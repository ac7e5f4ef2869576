#include "sql/planner.h"

#include <algorithm>
#include <map>

#include "core/query_window.h"
#include "geom/wkt.h"

namespace geocol {
namespace sql {

bool IsLayerColumn(const std::string& name) {
  return name == "id" || name == "class" || name == "name" || name == "geom";
}

namespace {

Status ValidateItems(const PlannedQuery& pq, const Schema* schema) {
  for (const SelectItem& it : pq.stmt.items) {
    if (it.star) continue;
    if (pq.target == PlannedQuery::Target::kLayer) {
      if (!IsLayerColumn(it.column)) {
        return Status::NotFound("no column '" + it.column + "' in layer '" +
                                pq.stmt.table + "'");
      }
      if (it.agg != AggFunc::kNone && it.column == "geom") {
        return Status::InvalidArgument("cannot aggregate geometry column");
      }
      if (it.agg != AggFunc::kNone && it.column == "name" &&
          it.agg != AggFunc::kCount) {
        return Status::InvalidArgument("cannot aggregate text column 'name'");
      }
    } else {
      if (!schema->HasField(it.column)) {
        return Status::NotFound("no column '" + it.column + "' in table '" +
                                pq.stmt.table + "'");
      }
    }
  }
  return Status::OK();
}

}  // namespace

Result<PlannedQuery> PlanQuery(Catalog* catalog, SelectStmt stmt) {
  PlannedQuery pq;
  if (stmt.items.empty()) {
    return Status::InvalidArgument("SQL: empty select list");
  }
  // Aggregates and plain columns cannot mix (no GROUP BY in the dialect).
  bool any_agg = false, any_plain = false;
  for (const SelectItem& it : stmt.items) {
    (it.agg != AggFunc::kNone ? any_agg : any_plain) = true;
  }
  if (any_agg && any_plain) {
    return Status::InvalidArgument(
        "SQL: mixing aggregates and plain columns requires GROUP BY, which "
        "this dialect does not support");
  }

  // Resolve FROM.
  Schema schema;
  if (catalog->HasLayer(stmt.table)) {
    pq.target = PlannedQuery::Target::kLayer;
    GEOCOL_ASSIGN_OR_RETURN(pq.layer, catalog->GetLayer(stmt.table));
  } else {
    Result<PinnedPointCloud> pinned = catalog->PinPointCloud(stmt.table);
    if (!pinned.ok()) {
      return Status::NotFound("unknown dataset '" + stmt.table + "'");
    }
    pq.target = PlannedQuery::Target::kPointCloud;
    pq.view = std::move(pinned->view);
    pq.engine = pinned->engine;
    pq.router = pinned->router;
    schema = pq.view->shards[0]->table().schema();
  }

  // Normalise spatial predicates: at most one geometry predicate and at
  // most one NEAR join.
  for (SpatialPred& sp : stmt.spatial) {
    if (sp.kind == SpatialPred::Kind::kNearLayer) {
      if (pq.near) {
        return Status::Unsupported("SQL: multiple NEAR predicates");
      }
      if (pq.target == PlannedQuery::Target::kLayer) {
        return Status::Unsupported("SQL: NEAR on a vector layer");
      }
      GEOCOL_ASSIGN_OR_RETURN(pq.near_layer, catalog->GetLayer(sp.layer));
      pq.near = true;
      pq.near_class = sp.feature_class;
      pq.near_distance = sp.distance;
    } else {
      if (pq.has_geometry) {
        return Status::Unsupported("SQL: multiple spatial predicates");
      }
      pq.has_geometry = true;
      pq.geometry = sp.geometry;
      pq.buffer = sp.kind == SpatialPred::Kind::kDWithin ? sp.distance : 0.0;
    }
  }

  // Merge attribute ranges per column.
  std::map<std::string, AttributeRange> merged;
  for (const RangePred& r : stmt.ranges) {
    if (pq.target == PlannedQuery::Target::kLayer) {
      if (r.column != "id" && r.column != "class") {
        return Status::NotFound("no numeric column '" + r.column +
                                "' in layer '" + stmt.table + "'");
      }
    } else if (!schema.HasField(r.column)) {
      return Status::NotFound("no column '" + r.column + "' in table '" +
                              stmt.table + "'");
    }
    auto [it, inserted] = merged.emplace(
        r.column, AttributeRange{r.column, r.lo, r.hi});
    if (!inserted) {
      it->second.lo = std::max(it->second.lo, r.lo);
      it->second.hi = std::min(it->second.hi, r.hi);
    }
  }
  for (auto& [col, range] : merged) pq.thematic.push_back(range);

  // ORDER BY validation.
  if (!stmt.order_by.empty()) {
    if (stmt.IsAggregate()) {
      return Status::InvalidArgument("SQL: ORDER BY with aggregates");
    }
    if (pq.target == PlannedQuery::Target::kLayer) {
      if (!IsLayerColumn(stmt.order_by) || stmt.order_by == "geom") {
        return Status::NotFound("SQL: cannot ORDER BY '" + stmt.order_by +
                                "' on a layer");
      }
    } else if (!schema.HasField(stmt.order_by)) {
      return Status::NotFound("SQL: no ORDER BY column '" + stmt.order_by +
                              "'");
    }
  }

  pq.stmt = std::move(stmt);
  GEOCOL_RETURN_NOT_OK(
      ValidateItems(pq, pq.target == PlannedQuery::Target::kPointCloud
                            ? &schema
                            : nullptr));
  return pq;
}

Result<Geometry> PlannedQuery::QueryGeometry() const {
  if (has_geometry) return geometry;
  GEOCOL_ASSIGN_OR_RETURN(Box extent, view->Extent());
  return Geometry(extent);
}

std::string PlannedQuery::Describe() const {
  std::string s;
  s += "plan for: " + stmt.ToString() + "\n";
  s += "  target: ";
  if (target == Target::kLayer) {
    s += "vector layer (envelope R-tree)";
  } else if (view->routed) {
    s += "sharded point cloud (" + std::to_string(view->shards.size()) +
         " Hilbert shards + imprints)";
  } else {
    s += "point cloud (flat table + imprints)";
  }
  s += " '" + stmt.table + "'\n";
  if (target == Target::kPointCloud && view->routed) {
    s += "  step 0: bbox-prune shards against query window, "
         "scatter-gather the rest\n";
  }
  // The fold every selection applies: ranges on x/y narrow the geometry
  // envelope (or, without a geometry, the table extent); the other ranges
  // are residual terms of the same conjunctive scan. NEAR post-filters its
  // ranges row by row instead, so nothing folds there.
  QueryWindow window;
  window.residual = thematic;
  const bool folds = target == Target::kPointCloud && !near;
  if (folds) {
    if (Result<Geometry> g = QueryGeometry(); g.ok()) {
      window = MakeQueryWindow(*g, buffer, thematic, view->x_column,
                               view->y_column);
    }
  }
  if (folds && (has_geometry || !thematic.empty())) {
    const Box& w = window.envelope;
    std::string columns = view->x_column + ", " + view->y_column;
    for (const AttributeRange& a : window.residual) columns += ", " + a.column;
    s += "  step 1: conjunctive imprint filter on " + columns;
    if (window.residual.size() < thematic.size()) {
      s += " over window [" + std::to_string(w.min_x) + ", " +
           std::to_string(w.max_x) + "] x [" + std::to_string(w.min_y) +
           ", " + std::to_string(w.max_y) + "] (x/y ranges folded" +
           (window.empty ? "; empty, nothing scanned" : "") + ")";
    } else if (has_geometry) {
      s += " over envelope of " + ToWkt(geometry) +
           (buffer > 0 ? " buffered " + std::to_string(buffer)
                       : std::string());
    } else {
      s += " over the table extent";
    }
    s += "\n";
    for (const AttributeRange& a : window.residual) {
      s += "    " + a.column + " in [" + std::to_string(a.lo) + ", " +
           std::to_string(a.hi) + "]\n";
    }
  }
  if (has_geometry) {
    s += "  step 2: regular-grid refinement, exact tests on boundary cells\n";
  }
  if (near) {
    s += "  join: NEAR layer '" + near_layer->name() + "' class " +
         std::to_string(near_class) + " within " +
         std::to_string(near_distance) + " (per-feature two-step + union)\n";
  }
  if (!folds) {  // layers and NEAR filter their ranges row by row
    for (const AttributeRange& a : thematic) {
      s += "  thematic: filter " + a.column + " in [" + std::to_string(a.lo) +
           ", " + std::to_string(a.hi) + "]\n";
    }
  }
  if (!has_geometry && !near && thematic.empty()) {
    s += "  full scan (no predicates)\n";
  }
  if (stmt.IsAggregate()) s += "  aggregate over selection\n";
  if (!stmt.order_by.empty()) {
    s += "  sort by " + stmt.order_by + (stmt.order_desc ? " desc" : " asc") +
         "\n";
  }
  if (stmt.limit >= 0) s += "  limit " + std::to_string(stmt.limit) + "\n";
  return s;
}

}  // namespace sql
}  // namespace geocol
