#include "core/refinement.h"

#include <algorithm>
#include <atomic>
#include <functional>
#include <memory>

#include "geom/predicates.h"
#include "telemetry/metrics.h"
#include "util/thread_pool.h"

namespace geocol {

namespace {

/// Publishes one refinement's work accounting to the metrics registry.
/// Called exactly once per top-level refine (grid, parallel grid, or
/// exhaustive).
void RecordRefineMetrics(const RefinementStats& st) {
  GEOCOL_METRIC_COUNTER(c_refines, "geocol_refines_total");
  GEOCOL_METRIC_COUNTER(c_cand, "geocol_refine_candidates_total");
  GEOCOL_METRIC_COUNTER(c_acc, "geocol_refine_accepted_total");
  GEOCOL_METRIC_COUNTER(c_inside, "geocol_refine_cells_inside_total");
  GEOCOL_METRIC_COUNTER(c_outside, "geocol_refine_cells_outside_total");
  GEOCOL_METRIC_COUNTER(c_boundary, "geocol_refine_cells_boundary_total");
  GEOCOL_METRIC_COUNTER(c_exact, "geocol_refine_exact_tests_total");
  c_refines.Increment();
  c_cand.Increment(st.candidates);
  c_acc.Increment(st.accepted);
  c_inside.Increment(st.cells_inside);
  c_outside.Increment(st.cells_outside);
  c_boundary.Increment(st.cells_boundary);
  c_exact.Increment(st.exact_tests);
}

// Candidates per refinement morsel; up to one morsel's worth refines
// serially even with a pool.
constexpr size_t kRefineMorselRows = 1 << 14;
// Candidate rows per SIMD batch: gather + cell assignment + exact tests run
// over blocks this size, keeping the scratch buffers cache-resident.
constexpr size_t kRefineBlockRows = 1024;

inline void ExactTestBatch(const Geometry& g, double buffer, const double* xs,
                           const double* ys, size_t n, uint8_t* out) {
  if (buffer > 0.0) {
    GeometryDWithinBatch(g, buffer, xs, ys, n, out);
  } else {
    GeometryContainsPointBatch(g, xs, ys, n, out);
  }
}

Status CheckInputs(const Column& x, const Column& y,
                   std::span<const uint64_t> candidates) {
  if (x.size() != y.size()) {
    return Status::InvalidArgument("x/y column length mismatch");
  }
  if (!candidates.empty() && candidates.back() >= x.size()) {
    return Status::InvalidArgument("candidate row beyond the columns");
  }
  return Status::OK();
}

// Cell table entry of a cell not yet classified (the BoxRelation values
// occupy 0..2).
constexpr uint8_t kUnclassified = 0xFF;

/// Counts one first-touched cell into the per-query stats.
inline void CountCell(RefinementStats& st, uint8_t cls) {
  ++st.cells_nonempty;
  switch (static_cast<BoxRelation>(cls)) {
    case BoxRelation::kInside: ++st.cells_inside; break;
    case BoxRelation::kOutside: ++st.cells_outside; break;
    case BoxRelation::kBoundary: ++st.cells_boundary; break;
  }
}

// Extent of the gathered candidate coordinates, extended in row order so
// Box::Extend sees exactly the values (and NaN ordering) of the per-row
// scalar walk it replaces. The only Status source is a paged-column chunk
// fault inside the batched gather.
Status GatherExtent(const Column& x, const Column& y, const uint64_t* rows,
                    size_t count, Box* out) {
  Box ext;
  std::vector<double> xs(kRefineBlockRows), ys(kRefineBlockRows);
  for (size_t base = 0; base < count; base += kRefineBlockRows) {
    const size_t bn = std::min(kRefineBlockRows, count - base);
    GEOCOL_RETURN_NOT_OK(x.GetDoubleBatch(rows + base, bn, xs.data()));
    GEOCOL_RETURN_NOT_OK(y.GetDoubleBatch(rows + base, bn, ys.data()));
    for (size_t i = 0; i < bn; ++i) ext.Extend(xs[i], ys[i]);
  }
  *out = ext;
  return Status::OK();
}

enum : uint8_t { kActReject = 0, kActAccept = 1, kActBoundary = 2 };

// The batched classify-and-test loop shared by the serial and parallel grid
// paths. Per block: gather coordinates, assign cells, classify each row's
// cell through `classify_cell` (lazy; serial table or atomic CAS table),
// then run one batched exact test over the boundary-cell rows. Accepted
// rows are emitted in candidate order — identical to the old per-row walk.
template <typename ClassifyFn>
Status RefineRowsBatched(const Column& x, const Column& y,
                         const uint64_t* rows, size_t count,
                         const RegularGrid& grid, const Geometry& geometry,
                         double buffer, ClassifyFn&& classify_cell,
                         std::vector<uint64_t>* out, RefinementStats& st) {
  std::vector<double> xs(kRefineBlockRows), ys(kRefineBlockRows);
  std::vector<uint64_t> cells(kRefineBlockRows);
  std::vector<uint8_t> action(kRefineBlockRows);
  std::vector<double> bxs(kRefineBlockRows), bys(kRefineBlockRows);
  std::vector<uint8_t> verdict(kRefineBlockRows);
  for (size_t base = 0; base < count; base += kRefineBlockRows) {
    const size_t bn = std::min(kRefineBlockRows, count - base);
    GEOCOL_RETURN_NOT_OK(x.GetDoubleBatch(rows + base, bn, xs.data()));
    GEOCOL_RETURN_NOT_OK(y.GetDoubleBatch(rows + base, bn, ys.data()));
    grid.CellOfBatch(xs.data(), ys.data(), bn, cells.data());
    size_t nb = 0;
    for (size_t i = 0; i < bn; ++i) {
      switch (classify_cell(cells[i], st)) {
        case BoxRelation::kInside:
          action[i] = kActAccept;
          break;
        case BoxRelation::kOutside:
          action[i] = kActReject;
          break;
        case BoxRelation::kBoundary:
          action[i] = kActBoundary;
          bxs[nb] = xs[i];
          bys[nb] = ys[i];
          ++nb;
          break;
      }
    }
    if (nb > 0) {
      ExactTestBatch(geometry, buffer, bxs.data(), bys.data(), nb,
                     verdict.data());
    }
    size_t b = 0;
    for (size_t i = 0; i < bn; ++i) {
      if (action[i] == kActAccept) {
        out->push_back(rows[base + i]);
        ++st.accepted;
      } else if (action[i] == kActBoundary) {
        ++st.exact_tests;
        if (verdict[b++] != 0) {
          out->push_back(rows[base + i]);
          ++st.accepted;
        }
      }
    }
  }
  return Status::OK();
}

}  // namespace

Status GridRefine(const Column& x, const Column& y,
                  std::span<const uint64_t> candidates,
                  const Geometry& geometry, double buffer,
                  const RefineOptions& options, std::vector<uint64_t>* out_rows,
                  RefinementStats* stats, ThreadPool* pool) {
  GEOCOL_RETURN_NOT_OK(CheckInputs(x, y, candidates));
  if (!options.use_grid) {
    return ExhaustiveRefine(x, y, candidates, geometry, buffer, out_rows,
                            stats);
  }
  // Morsels: the candidates cut into equal counts of about
  // kRefineMorselRows each, so the fork follows the work, not the table
  // size; a serial refinement is one morsel.
  const size_t count_morsels =
      (candidates.size() + kRefineMorselRows - 1) / kRefineMorselRows;
  const bool parallel =
      pool != nullptr && pool->num_threads() > 0 && count_morsels > 1;
  const size_t num_morsels = parallel ? count_morsels : 1;
  std::vector<std::span<const uint64_t>> morsel_rows(num_morsels);
  for (size_t m = 0; m < num_morsels; ++m) {
    const size_t begin = candidates.size() * m / num_morsels;
    const size_t end = candidates.size() * (m + 1) / num_morsels;
    morsel_rows[m] = candidates.subspan(begin, end - begin);
  }
  std::vector<Status> morsel_status(num_morsels);
  auto for_each_morsel = [&](const std::function<void(size_t)>& fn) {
    if (parallel) {
      pool->ParallelFor(num_morsels, fn);
    } else {
      fn(0);
    }
  };
  RefinementStats local;
  if (parallel) {
    local.workers = static_cast<uint32_t>(
        std::min(num_morsels, pool->num_threads() + 1));
  }

  // Pass 1: the candidates' extent. The grid only needs to cover the
  // filtered superset, which is already close to the query envelope
  // thanks to the imprint filter.
  std::vector<Box> morsel_extent(num_morsels);
  for_each_morsel([&](size_t m) {
    morsel_status[m] = GatherExtent(x, y, morsel_rows[m].data(),
                                    morsel_rows[m].size(), &morsel_extent[m]);
  });
  for (Status& st : morsel_status) GEOCOL_RETURN_NOT_OK(std::move(st));
  Box extent;
  for (const Box& b : morsel_extent) extent.Extend(b);
  local.candidates = candidates.size();
  if (local.candidates == 0) {
    RecordRefineMetrics(local);
    if (stats != nullptr) *stats = local;
    return Status::OK();
  }

  RegularGrid grid = RegularGrid::ForExpectedPoints(
      extent, local.candidates, options.target_points_per_cell,
      options.max_cells_per_axis);
  local.cells_total = grid.num_cells();
  local.grid_cols = grid.cols();
  local.grid_rows = grid.rows();

  // Pass 2: classify-and-test. Cells are classified lazily — only cells
  // that actually hold candidates are ever evaluated against the geometry
  // (§3.3: "the spatial relation is then evaluated between each non-empty
  // cell and G"). Classifications are shared through an atomic table;
  // ClassifyCell is deterministic, so the only race is which worker
  // publishes first — the CAS winner also counts the cell in its stats,
  // keeping per-cell counters exact.
  std::unique_ptr<std::atomic<uint8_t>[]> cell_class(
      new std::atomic<uint8_t>[grid.num_cells()]);
  for (uint64_t c = 0; c < grid.num_cells(); ++c) {
    cell_class[c].store(kUnclassified, std::memory_order_relaxed);
  }
  auto classify = [&](uint64_t cell, RefinementStats& st) -> BoxRelation {
    uint8_t cls = cell_class[cell].load(std::memory_order_acquire);
    if (cls == kUnclassified) {
      uint8_t computed =
          static_cast<uint8_t>(grid.ClassifyCell(cell, geometry, buffer));
      uint8_t expected = kUnclassified;
      if (cell_class[cell].compare_exchange_strong(
              expected, computed, std::memory_order_acq_rel)) {
        cls = computed;
        CountCell(st, cls);
      } else {
        cls = expected;  // another worker published first
      }
    }
    return static_cast<BoxRelation>(cls);
  };

  std::vector<std::vector<uint64_t>> morsel_out(num_morsels);
  std::vector<RefinementStats> morsel_stats(num_morsels);
  for_each_morsel([&](size_t m) {
    morsel_status[m] = RefineRowsBatched(
        x, y, morsel_rows[m].data(), morsel_rows[m].size(), grid, geometry,
        buffer, classify, parallel ? &morsel_out[m] : out_rows,
        morsel_stats[m]);
  });
  for (Status& st : morsel_status) GEOCOL_RETURN_NOT_OK(std::move(st));

  for (size_t m = 0; m < num_morsels; ++m) {
    const RefinementStats& st = morsel_stats[m];
    local.accepted += st.accepted;
    local.cells_nonempty += st.cells_nonempty;
    local.cells_inside += st.cells_inside;
    local.cells_outside += st.cells_outside;
    local.cells_boundary += st.cells_boundary;
    local.exact_tests += st.exact_tests;
    out_rows->insert(out_rows->end(), morsel_out[m].begin(),
                     morsel_out[m].end());
  }
  RecordRefineMetrics(local);
  if (stats != nullptr) *stats = local;
  return Status::OK();
}

Status ExhaustiveRefine(const Column& x, const Column& y,
                        std::span<const uint64_t> cand_rows,
                        const Geometry& geometry, double buffer,
                        std::vector<uint64_t>* out_rows,
                        RefinementStats* stats) {
  GEOCOL_RETURN_NOT_OK(CheckInputs(x, y, cand_rows));
  RefinementStats local;
  local.candidates = cand_rows.size();
  local.exact_tests = cand_rows.size();
  std::vector<double> xs(kRefineBlockRows), ys(kRefineBlockRows);
  std::vector<uint8_t> verdict(kRefineBlockRows);
  for (size_t base = 0; base < cand_rows.size(); base += kRefineBlockRows) {
    const size_t bn = std::min(kRefineBlockRows, cand_rows.size() - base);
    GEOCOL_RETURN_NOT_OK(
        x.GetDoubleBatch(cand_rows.data() + base, bn, xs.data()));
    GEOCOL_RETURN_NOT_OK(
        y.GetDoubleBatch(cand_rows.data() + base, bn, ys.data()));
    ExactTestBatch(geometry, buffer, xs.data(), ys.data(), bn, verdict.data());
    for (size_t i = 0; i < bn; ++i) {
      if (verdict[i] != 0) {
        out_rows->push_back(cand_rows[base + i]);
        ++local.accepted;
      }
    }
  }
  RecordRefineMetrics(local);
  if (stats != nullptr) *stats = local;
  return Status::OK();
}

}  // namespace geocol
