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
#include "telemetry/heat.h"
#include "telemetry/metrics.h"
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

Status GatherColumn(const FlatTable& table, const std::string& name,
                    const std::vector<uint64_t>& rows, GatheredColumn* out) {
  GEOCOL_ASSIGN_OR_RETURN(ColumnPtr col, table.GetColumn(name));
  const Column* part = col.get();
  const uint64_t base = 0;
  out->type = col->type();
  out->data.resize(rows.size() * col->width());
  Status st;
  // A short column (solo answers Corruption: "... length mismatch") errors
  // here, and the caller's solo fallback reproduces the exact solo error.
  DispatchDataType(out->type, [&]<typename T>() {
    st = GatherRows<T>({&part, 1}, {&base, 1}, rows,
                       reinterpret_cast<T*>(out->data.data()));
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
  if (plan.near) return false;
  if (plan.buffer != 0.0) return false;
  if (plan.stmt.explain || plan.stmt.analyze) return false;
  if (plan.has_geometry && !plan.geometry.is_box()) return false;
  return true;
}

bool SelectionResident(const sql::PlannedQuery& plan) {
  Result<Geometry> geometry = plan.QueryGeometry();
  return geometry.ok() &&
         plan.view->SelectionCached(*geometry, plan.buffer, plan.thematic);
}

Result<Box> PlanViewport(const sql::PlannedQuery& plan) {
  // x/y attribute ranges (`x BETWEEN a AND b` parses as a range, not a
  // geometry) narrow the viewport: no row outside them can pass the
  // member's own conjunction, so the shared scan may skip it. The fold is
  // exact (see MakeQueryWindow), which keeps the fan-out bit-identical
  // while the superset stays proportional to the actual viewports instead
  // of the whole table. A member that can select nothing gets an empty box.
  GEOCOL_ASSIGN_OR_RETURN(Geometry geometry, plan.QueryGeometry());
  QueryWindow window = MakeQueryWindow(geometry, plan.buffer, plan.thematic,
                                       plan.view->x_column,
                                       plan.view->y_column);
  return window.empty ? Box() : window.envelope;
}

Result<SharedScanResult> SharedScanSelect(const ShardsView& view,
                                          const std::vector<TaskPtr>& group) {
  SharedScanResult out;
  out.member_rows.resize(group.size());

  // Per-member conjunctions, plus the distinct columns they touch. A
  // member with an empty viewport (e.g. `x BETWEEN 50 AND 40`) selects
  // nothing solo and stays an empty row set here.
  std::vector<std::vector<RangePredicate>> predicates(group.size());
  std::map<std::string, GatheredColumn> gathered;
  for (size_t m = 0; m < group.size(); ++m) {
    const TaskPtr& task = group[m];
    if (task->viewport.empty()) continue;
    predicates[m].push_back(
        {&view.x_column, task->viewport.min_x, task->viewport.max_x});
    predicates[m].push_back(
        {&view.y_column, task->viewport.min_y, task->viewport.max_y});
    for (const AttributeRange& a : task->plan.thematic) {
      predicates[m].push_back({&a.column, a.lo, a.hi});
    }
    for (const RangePredicate& p : predicates[m]) gathered[*p.column];
  }

  // One superset scan per shard over the union of the viewports of the
  // members that reach it. A routed view skips every shard whose bbox no
  // member's viewport meets, as each member's solo selection would prune
  // it; a one-shard view scans its shard over the union of every viewport.
  // Shards run in order, so each member's global rows come out ascending,
  // and only one shard's candidates are held at a time. On a routed view
  // the shared scans count as shard scans and heat, once per batch.
  GEOCOL_METRIC_COUNTER(c_pruned, "geocol_shards_pruned_total");
  GEOCOL_METRIC_COUNTER(c_scanned, "geocol_shards_scanned_total");
  int64_t scan_nanos = 0, fanout_nanos = 0;
  uint64_t candidates_total = 0, fanned = 0, rows_out = 0;
  std::vector<size_t> members;
  std::vector<uint64_t> words;
  for (size_t s = 0; s < view.shards.size(); ++s) {
    Timer scan_timer;
    Shard& shard = *view.shards[s];
    Box superset;
    members.clear();
    for (size_t m = 0; m < group.size(); ++m) {
      const Box& viewport = group[m]->viewport;
      if (viewport.empty()) continue;
      if (view.routed && !shard.bbox().Intersects(viewport)) continue;
      superset.Extend(viewport);
      members.push_back(m);
    }
    if (view.routed) (members.empty() ? c_pruned : c_scanned).Increment();
    if (members.empty()) continue;
    // The union never repeats: no cache lookup, insert or sighting.
    GEOCOL_ASSIGN_OR_RETURN(
        SelectionResult sel,
        shard.Select(Geometry(superset), 0.0, {}, /*use_cache=*/false));
    const std::vector<uint64_t>& candidates = sel.row_ids;
    if (view.routed) {
      telemetry::TouchShardHeat(view.name, static_cast<uint32_t>(s),
                                /*covered=*/false, candidates.size());
    }
    for (auto& [name, g] : gathered) {
      GEOCOL_RETURN_NOT_OK(GatherColumn(shard.table(), name, candidates, &g));
    }
    scan_nanos += scan_timer.ElapsedNanos();
    candidates_total += candidates.size();

    // Fan out: re-filter the candidates per member with the exact solo
    // predicate set. Each member's box is contained in the superset, so
    // its solo selection is a subset of the candidates; the re-filter
    // recovers it exactly.
    Timer fanout_timer;
    const size_t n = candidates.size();
    const size_t nwords = (n + 63) / 64;
    const uint64_t base = view.bases[s];
    for (size_t m : members) {
      if (n == 0) break;
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
      const size_t before = rows.size();
      for (size_t i = 0; i < n; ++i) {
        if ((words[i / 64] >> (i % 64)) & 1) {
          rows.push_back(base + candidates[i]);
        }
      }
      rows_out += rows.size() - before;
    }
    fanned += n * members.size();
    fanout_nanos += fanout_timer.ElapsedNanos();
  }
  out.profile.Add("server.batch.scan", scan_nanos, view.total_rows(),
                  candidates_total);
  out.profile.Add("server.batch.fanout", fanout_nanos, fanned, rows_out);
  return out;
}

}  // namespace server
}  // namespace geocol
