#include "server/batch.h"

#include <algorithm>
#include <map>
#include <string>
#include <utility>

#include "columns/column.h"
#include "columns/types.h"
#include "core/native_range.h"
#include "core/query_window.h"
#include "simd/kernels.h"
#include "util/timer.h"

namespace geocol {
namespace server {

namespace {

/// Values per re-filter kernel block — the imprint scan's stride, so the
/// kernels see the same block shapes they are tested at.
constexpr size_t kFilterBlock = 4096;

/// One range predicate of a member's conjunction.
struct RangePredicate {
  const std::string* column;
  double lo;
  double hi;
};

/// A column's values gathered at the candidate rows, in native type.
struct GatheredColumn {
  DataType type;
  std::vector<uint8_t> data;  // candidates.size() values of native width
};

template <typename T>
Status GatherTyped(const Column& col, const std::vector<uint64_t>& rows,
                   T* out) {
  // Ascending walk, pinning each covering chunk once. Resident columns
  // pin the whole buffer (one iteration); paged columns fault only the
  // chunks the candidate rows touch.
  const size_t chunk_rows = col.chunk_rows();
  size_t i = 0;
  while (i < rows.size()) {
    GEOCOL_ASSIGN_OR_RETURN(ColumnChunkPin pin,
                            col.PinChunk(rows[i] / chunk_rows));
    const T* values = pin.values<T>();
    const uint64_t end_row = pin.first_row + pin.row_count;
    for (; i < rows.size() && rows[i] < end_row; ++i) {
      out[i] = values[rows[i] - pin.first_row];
    }
  }
  return Status::OK();
}

Status GatherColumn(const Column& col, const std::vector<uint64_t>& rows,
                    GatheredColumn* out) {
  out->type = col.type();
  out->data.resize(rows.size() * col.width());
  Status st;
  DispatchDataType(col.type(), [&]<typename T>() {
    st = GatherTyped<T>(col, rows, reinterpret_cast<T*>(out->data.data()));
  });
  return st;
}

/// ANDs the rows satisfying `lo <= v <= hi` (compared in the column's
/// native type after ClampRangeToType — the solo scan's exact predicate)
/// into `words`. Returns false when the clamped range is empty, i.e. the
/// member selects nothing.
bool AndRangeBits(const GatheredColumn& g, size_t n, double lo, double hi,
                  std::vector<uint64_t>* words) {
  bool nonempty = true;
  DispatchDataType(g.type, [&]<typename T>() {
    NativeRange<T> nr = ClampRangeToType<T>(lo, hi);
    if (nr.empty) {
      nonempty = false;
      return;
    }
    const T* values = reinterpret_cast<const T*>(g.data.data());
    uint64_t scratch[kFilterBlock / 64];
    for (size_t base = 0; base < n; base += kFilterBlock) {
      const size_t bn = std::min(kFilterBlock, n - base);
      simd::RangeSelectBits<T>(values + base, bn, nr.lo, nr.hi, scratch);
      // The kernel zeroes trailing bits of its last word, and short
      // blocks only occur at the very end, so the AND never clears a bit
      // at an index < n.
      uint64_t* w = words->data() + base / 64;
      for (size_t k = 0; k < (bn + 63) / 64; ++k) w[k] &= scratch[k];
    }
  });
  return nonempty;
}

}  // namespace

bool BatchablePlan(const sql::PlannedQuery& plan) {
  if (plan.target != sql::PlannedQuery::Target::kPointCloud) return false;
  if (plan.engine == nullptr || plan.router != nullptr) return false;
  if (plan.near) return false;
  if (plan.buffer != 0.0) return false;
  if (plan.stmt.explain || plan.stmt.analyze) return false;
  if (plan.has_geometry && !plan.geometry.is_box()) return false;
  return true;
}

bool SelectionResident(const sql::PlannedQuery& plan) {
  Result<Geometry> geometry = plan.QueryGeometry();
  return geometry.ok() &&
         plan.engine->SelectionCached(*geometry, plan.buffer, plan.thematic);
}

Result<Box> PlanViewport(const sql::PlannedQuery& plan) {
  // x/y attribute ranges (`x BETWEEN a AND b` parses as a range, not a
  // geometry) narrow the viewport: no row outside them can pass the
  // member's own conjunction, so the shared scan may skip it. The fold is
  // exact (see MakeQueryWindow), which keeps the fan-out bit-identical
  // while the superset stays proportional to the actual viewports instead
  // of the whole table. A member that can select nothing gets an empty box.
  GEOCOL_ASSIGN_OR_RETURN(Geometry geometry, plan.QueryGeometry());
  QueryWindow window =
      MakeQueryWindow(geometry, plan.buffer, plan.thematic, "x", "y");
  return window.empty ? Box() : window.envelope;
}

Result<SharedScanResult> SharedScanSelect(SpatialQueryEngine* engine,
                                          const std::vector<TaskPtr>& group) {
  SharedScanResult out;
  out.member_rows.resize(group.size());

  // Union box over the members that can select anything. A member with an
  // inverted box (e.g. `x BETWEEN 50 AND 40`) selects nothing solo and
  // stays an empty row set here.
  Box superset;  // default-empty; Extend skips empty member boxes
  for (const TaskPtr& task : group) superset.Extend(task->viewport);

  const FlatTable& table = engine->table();
  Timer scan_timer;
  std::vector<uint64_t> candidates;
  if (!superset.empty()) {
    // The union of this group's boxes never repeats: no cache lookup, no
    // insert, no sighting.
    GEOCOL_ASSIGN_OR_RETURN(SelectionResult sel,
                            engine->SelectInBoxUncached(superset));
    candidates = std::move(sel.row_ids);
  }

  // Per-member conjunctions, plus the distinct columns they touch.
  std::vector<std::vector<RangePredicate>> predicates(group.size());
  static const std::string kX = "x", kY = "y";
  std::map<std::string, GatheredColumn> gathered;
  for (size_t m = 0; m < group.size(); ++m) {
    const TaskPtr& task = group[m];
    if (task->viewport.empty()) continue;
    predicates[m].push_back({&kX, task->viewport.min_x, task->viewport.max_x});
    predicates[m].push_back({&kY, task->viewport.min_y, task->viewport.max_y});
    for (const AttributeRange& a : task->plan.thematic) {
      predicates[m].push_back({&a.column, a.lo, a.hi});
    }
    for (const RangePredicate& p : predicates[m]) gathered[*p.column];
  }
  for (auto& [name, g] : gathered) {
    GEOCOL_ASSIGN_OR_RETURN(ColumnPtr col, table.GetColumn(name));
    // A short column (solo answers Corruption: "... length mismatch")
    // errors here instead, and the caller's solo fallback reproduces the
    // exact solo-path message.
    if (!candidates.empty() && candidates.back() >= col->size()) {
      return Status::Corruption("column length mismatch: " + name);
    }
    GEOCOL_RETURN_NOT_OK(GatherColumn(*col, candidates, &g));
  }
  out.profile.Add("server.batch.scan", scan_timer.ElapsedNanos(),
                  table.num_rows(), candidates.size());

  // Fan out: re-filter the candidates per member with the exact solo
  // predicate set. Each member's box is contained in the superset, so its
  // solo selection is a subset of the candidates; the re-filter recovers
  // it exactly.
  Timer fanout_timer;
  const size_t n = candidates.size();
  const size_t nwords = (n + 63) / 64;
  uint64_t rows_out = 0;
  std::vector<uint64_t> words;
  for (size_t m = 0; m < group.size(); ++m) {
    if (group[m]->viewport.empty() || n == 0) continue;
    words.assign(nwords, ~uint64_t{0});
    bool nonempty = true;
    for (const RangePredicate& p : predicates[m]) {
      if (!AndRangeBits(gathered[*p.column], n, p.lo, p.hi, &words)) {
        nonempty = false;
        break;
      }
    }
    if (!nonempty) continue;
    std::vector<uint64_t>& rows = out.member_rows[m];
    for (size_t i = 0; i < n; ++i) {
      if ((words[i / 64] >> (i % 64)) & 1) rows.push_back(candidates[i]);
    }
    rows_out += rows.size();
  }
  out.profile.Add("server.batch.fanout", fanout_timer.ElapsedNanos(),
                  n * group.size(), rows_out);
  return out;
}

}  // namespace server
}  // namespace geocol
