// Cross-dataset operations of scenario 2 (§4.2): combining the point cloud
// with vector layers through spatial predicates — "select all LIDAR points
// that are near a given area that is characterised as a fast transit road
// according to the Urban Atlas nomenclature".
#ifndef GEOCOL_GIS_SPATIAL_JOIN_H_
#define GEOCOL_GIS_SPATIAL_JOIN_H_

#include <vector>

#include "core/shard.h"
#include "gis/layer.h"

namespace geocol {

/// Result of a point-cloud x layer join.
struct NearLayerResult {
  std::vector<uint64_t> row_ids;  ///< ascending, deduplicated point rows
  uint64_t features_matched = 0;  ///< layer features that contributed
  QueryProfile profile;
};

/// Selects points of `view` within `distance` of any feature of `layer`
/// carrying `feature_class` (pass 0 to accept every class). Each feature
/// triggers one two-step selection over the view (pruned and scattered
/// like any other on a sharded view); the global row ids are unioned.
Result<NearLayerResult> PointsNearLayerClass(const ShardsView& view,
                                             VectorLayer* layer,
                                             uint32_t feature_class,
                                             double distance);

/// Aggregates `column` over the points selected by PointsNearLayerClass —
/// e.g. "compute the average elevation of the LIDAR points that are near
/// a fast transit road".
Result<double> AggregateNearLayerClass(const ShardsView& view,
                                       VectorLayer* layer,
                                       uint32_t feature_class, double distance,
                                       const std::string& column, AggKind kind);

/// Layer-layer join: indexes of features in `a` intersecting any feature
/// of `b` with class `b_class` (0 = any).
std::vector<uint64_t> LayerIntersectingLayer(VectorLayer* a, VectorLayer* b,
                                             uint32_t b_class);

}  // namespace geocol

#endif  // GEOCOL_GIS_SPATIAL_JOIN_H_
