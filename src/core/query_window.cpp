#include "core/query_window.h"

#include <cmath>

namespace geocol {

namespace {

void ClipX(Box* b, const AttributeRange& r) {
  if (r.lo > b->min_x) b->min_x = r.lo;
  if (r.hi < b->max_x) b->max_x = r.hi;
}

void ClipY(Box* b, const AttributeRange& r) {
  if (r.lo > b->min_y) b->min_y = r.lo;
  if (r.hi < b->max_y) b->max_y = r.hi;
}

}  // namespace

QueryWindow MakeQueryWindow(const Geometry& geometry, double buffer,
                            const std::vector<AttributeRange>& thematic,
                            const std::string& x_name,
                            const std::string& y_name) {
  QueryWindow w;
  w.envelope = geometry.Envelope();
  if (buffer > 0) w.envelope = w.envelope.Expanded(buffer);
  // A buffer only enlarges the qualifying region, so the raw box is a
  // coverage box whatever the buffer.
  if (geometry.is_box()) w.coverage = geometry.box();
  for (const AttributeRange& r : thematic) {
    if (std::isnan(r.lo) || std::isnan(r.hi) || r.lo > r.hi) w.empty = true;
    if (r.column == x_name) {
      ClipX(&w.envelope, r);
      ClipX(&w.coverage, r);
    } else if (r.column == y_name) {
      ClipY(&w.envelope, r);
      ClipY(&w.coverage, r);
    } else {
      w.residual.push_back(r);
    }
  }
  // Negated so a NaN envelope (a geometry with NaN vertices) counts too.
  if (!(w.envelope.min_x <= w.envelope.max_x &&
        w.envelope.min_y <= w.envelope.max_y)) {
    w.empty = true;
  }
  return w;
}

}  // namespace geocol
