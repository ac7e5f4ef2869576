// E15: live ingestion under queries (DESIGN.md §13).
//
// Two measurements over the same AHN-like survey:
//   imprints — incremental index maintenance vs full rebuild. A tail of
//              1–10% of the base rows is appended as a new column version
//              (Column::CloneAppend); the manager extends the cached base
//              index over the tail (ImprintsIndex::ExtendAppend + stitch
//              verification) while the baseline rebuilds from scratch.
//              Acceptance bar: incremental >= 3x faster for tails <= 10%.
//   e2e      — a LiveTable ingest loop: staged batches published as
//              atomic epochs while a pinned reader queries a viewport,
//              reporting commit latency (the first commit regrows every
//              column's shared buffer; later ones append in place), the
//              column bytes all commits copied, and the pinned-query
//              latency.
#include <cstdio>
#include <vector>

#include "bench/bench_common.h"
#include "core/imprint_scan.h"
#include "core/imprints.h"
#include "core/live_table.h"
#include "core/table_appender.h"
#include "telemetry/metrics.h"
#include "util/rng.h"

using namespace geocol;
using namespace geocol::bench;

int main(int argc, char** argv) {
  geocol::bench::InitBench(argc, argv);
  const uint64_t n = BenchPoints(2000000);
  Banner("E15: live ingestion (incremental imprints, epoch publish)",
         "incremental imprint maintenance vs rebuild, epoch commit latency");

  auto table = GenerateSurvey(n);
  const Box extent = SurveyOptions(n).extent;
  const uint64_t rows = table->num_rows();
  std::printf("survey: %llu points\n", static_cast<unsigned long long>(rows));

  ColumnPtr base = table->column("x");
  const ColumnStats& bs = base->Stats();

  TablePrinter out({"tail", "tail rows", "rebuild ms", "incremental ms",
                    "speedup"},
                   14);
  double worst_speedup = 1e300;
  for (double frac : {0.01, 0.02, 0.05, 0.10}) {
    const size_t tail_n = static_cast<size_t>(frac * static_cast<double>(rows));
    Rng rng(static_cast<uint64_t>(frac * 1000));
    std::vector<double> tail(tail_n);
    for (size_t i = 0; i < tail_n; ++i) {
      tail[i] = rng.UniformDouble(bs.min, bs.max);
    }

    // Baseline: from-scratch build over base + tail.
    ColumnPtr appended = *Column::CloneAppend(base, tail.data(), tail_n);
    double rebuild_ms = TimeMs([&] {
      auto ix = ImprintsIndex::Build(*appended);
      if (!ix.ok()) {
        std::fprintf(stderr, "rebuild failed: %s\n",
                     ix.status().ToString().c_str());
        std::exit(1);
      }
    });

    // Incremental: the manager holds the base index; each rep extends it
    // over a FRESH CloneAppend column (manager results are cached per
    // column object, so reuse would measure a hash lookup).
    ImprintManager mgr;
    auto warm = mgr.GetOrBuild(base);
    if (!warm.ok()) {
      std::fprintf(stderr, "base build failed: %s\n",
                   warm.status().ToString().c_str());
      return 1;
    }
    const int reps = BenchReps();
    std::vector<ColumnPtr> fresh(static_cast<size_t>(reps));
    for (auto& c : fresh) c = *Column::CloneAppend(base, tail.data(), tail_n);
    size_t it = 0;
    double inc_ms = TimeMs(
        [&] {
          auto ix = mgr.GetOrBuild(fresh[it++]);
          if (!ix.ok()) {
            std::fprintf(stderr, "incremental failed: %s\n",
                         ix.status().ToString().c_str());
            std::exit(1);
          }
        },
        reps);

    double speedup = rebuild_ms / inc_ms;
    worst_speedup = std::min(worst_speedup, speedup);
    char tail_cell[16];
    std::snprintf(tail_cell, sizeof(tail_cell), "%.0f%%", frac * 100);
    out.Row({tail_cell, TablePrinter::Int(tail_n),
             TablePrinter::Num(rebuild_ms, 2), TablePrinter::Num(inc_ms, 2),
             TablePrinter::Num(speedup, 2)});
  }

  // End-to-end: LiveTable epoch publishes under a pinned reader.
  std::printf("\n");
  TablePrinter e2e({"batch rows", "first commit ms", "commit ms",
                    "MB copied", "pinned query ms", "epoch"},
                   15);
  LiveTableOptions lopts;
  auto live = LiveTable::Create(table, lopts);
  if (!live.ok()) {
    std::fprintf(stderr, "live table: %s\n", live.status().ToString().c_str());
    return 1;
  }
  const size_t batch_rows = static_cast<size_t>(rows / 100);
  FlatTable batch("pc", table->schema());
  for (size_t i = 0; i < batch.num_columns(); ++i) {
    batch.column(i)->AppendRaw(table->column(i)->raw_data(), batch_rows);
  }
  double side = extent.width() * 0.05;
  Box viewport(extent.min_x, extent.min_y, extent.min_x + side,
               extent.min_y + side);

  // Warm the epoch-0 imprints so commit timings measure maintenance, not
  // the first-build cost.
  EpochSnapshot pinned = (*live)->Pin();
  (void)pinned.engine->SelectInBox(viewport);

  telemetry::Counter& copied = telemetry::MetricsRegistry::Global().GetCounter(
      "geocol_column_bytes_copied_total");
  const uint64_t copied_before = copied.Value();
  auto commit = [&] {
    TableAppender app(*live);
    if (!app.StageBatch(batch).ok() || !app.Commit().ok()) {
      std::fprintf(stderr, "commit failed\n");
      std::exit(1);
    }
  };
  double first_ms = TimeMs(commit, 1);
  double commit_ms = TimeMs(commit);
  const double copied_mb =
      static_cast<double>(copied.Value() - copied_before) / (1 << 20);
  // The pinned epoch answers at pre-ingest cost regardless of the
  // commits that landed meanwhile.
  double pinned_ms = TimeMs([&] {
    auto r = pinned.engine->SelectInBox(viewport);
    if (!r.ok()) std::exit(1);
  });
  e2e.Row({TablePrinter::Int(batch_rows), TablePrinter::Num(first_ms, 2),
           TablePrinter::Num(commit_ms, 2), TablePrinter::Num(copied_mb, 1),
           TablePrinter::Num(pinned_ms, 2),
           TablePrinter::Int((*live)->epoch())});

  std::printf(
      "\nacceptance: incremental imprint maintenance >= 3x faster than "
      "full rebuild for tail appends <= 10%% (worst observed: %.2fx)\n",
      worst_speedup);
  return worst_speedup >= 3.0 ? 0 : 1;
}
