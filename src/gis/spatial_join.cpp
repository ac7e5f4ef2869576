#include "gis/spatial_join.h"

#include <algorithm>

#include "geom/predicates.h"
#include "util/timer.h"

namespace geocol {

Result<NearLayerResult> PointsNearLayerClass(const ShardsView& view,
                                             VectorLayer* layer,
                                             uint32_t feature_class,
                                             double distance) {
  NearLayerResult result;
  Timer t;
  std::vector<uint64_t> feature_idx;
  if (feature_class == 0) {
    feature_idx.resize(layer->size());
    for (size_t i = 0; i < layer->size(); ++i) feature_idx[i] = i;
  } else {
    feature_idx = layer->SelectByClass(feature_class);
  }
  result.profile.Add("layer.class_select", t.ElapsedNanos(), layer->size(),
                     feature_idx.size());

  for (uint64_t fi : feature_idx) {
    const VectorFeature& f = layer->feature(fi);
    GEOCOL_ASSIGN_OR_RETURN(
        SelectionResult sel,
        view.Select(f.geometry, distance > 0 ? distance : 0.0, {}));
    if (!sel.row_ids.empty()) ++result.features_matched;
    result.row_ids.insert(result.row_ids.end(), sel.row_ids.begin(),
                          sel.row_ids.end());
    for (const OperatorProfile& op : sel.profile.operators()) {
      result.profile.Add("  " + f.name + "." + op.name, op.nanos, op.rows_in,
                         op.rows_out, op.detail);
    }
  }

  Timer t2;
  std::sort(result.row_ids.begin(), result.row_ids.end());
  result.row_ids.erase(
      std::unique(result.row_ids.begin(), result.row_ids.end()),
      result.row_ids.end());
  result.profile.Add("union.dedup", t2.ElapsedNanos(), result.row_ids.size(),
                     result.row_ids.size());
  return result;
}

Result<double> AggregateNearLayerClass(const ShardsView& view,
                                       VectorLayer* layer,
                                       uint32_t feature_class, double distance,
                                       const std::string& column,
                                       AggKind kind) {
  GEOCOL_ASSIGN_OR_RETURN(
      NearLayerResult near,
      PointsNearLayerClass(view, layer, feature_class, distance));
  return view.Aggregate(near.row_ids, column, kind);
}

std::vector<uint64_t> LayerIntersectingLayer(VectorLayer* a, VectorLayer* b,
                                             uint32_t b_class) {
  std::vector<uint64_t> out;
  std::vector<uint64_t> b_features;
  if (b_class == 0) {
    b_features.resize(b->size());
    for (size_t i = 0; i < b->size(); ++i) b_features[i] = i;
  } else {
    b_features = b->SelectByClass(b_class);
  }
  std::vector<bool> hit(a->size(), false);
  for (uint64_t bi : b_features) {
    const Geometry& bg = b->feature(bi).geometry;
    for (uint64_t ai : a->QueryIntersecting(bg)) hit[ai] = true;
  }
  for (size_t i = 0; i < hit.size(); ++i) {
    if (hit[i]) out.push_back(i);
  }
  return out;
}

}  // namespace geocol
