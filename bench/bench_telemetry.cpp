// E12: telemetry overhead on the hot query path.
// E17: flight-recorder overhead on a recorded SQL workload.
//
// The metrics registry promises "always on, never felt": sharded relaxed
// atomic counters plus a single enabled-flag load per update. This harness
// quantifies that promise on the same selection workload as E3 (imprint
// filter + refine), comparing counters enabled vs disabled. The acceptance
// bar from DESIGN.md §10 is <2% overhead for counters-only telemetry.
//
// E17 makes the same promise for the workload flight recorder (DESIGN.md
// §15): one serialized event + CRC32C + buffered append per statement.
// Interleaved recorder-on vs recorder-off repetitions of a mixed SQL
// workload (pan/zoom viewport selections + aggregates + range filters)
// must stay within the same <2% bar.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "core/spatial_engine.h"
#include "gis/catalog.h"
#include "sql/session.h"
#include "telemetry/metrics.h"
#include "telemetry/recorder.h"
#include "util/tempdir.h"

using namespace geocol;
using namespace geocol::bench;

namespace {

/// The recorded workload: a deterministic mix of viewport selections
/// (three zoom levels panned across the extent), aggregates over them,
/// and attribute-range scans — the navigation session shape of E3/E13.
std::vector<std::string> MixedWorkload(const Box& extent, int queries) {
  std::vector<std::string> sql;
  const double fractions[3] = {0.001, 0.01, 0.05};
  for (int i = 0; i < queries; ++i) {
    const double frac = fractions[i % 3];
    const double side = std::sqrt(extent.area() * frac);
    const double fx = 0.15 + 0.6 * ((i * 37) % 97) / 96.0;
    const double fy = 0.15 + 0.6 * ((i * 61) % 89) / 88.0;
    const double cx = extent.min_x + extent.width() * fx;
    const double cy = extent.min_y + extent.height() * fy;
    char box[160];
    std::snprintf(box, sizeof(box), "BOX(%.2f %.2f, %.2f %.2f)",
                  cx - side / 2, cy - side / 2, cx + side / 2, cy + side / 2);
    char q[512];
    switch (i % 4) {
      case 0:
        std::snprintf(q, sizeof(q),
                      "SELECT COUNT(*), AVG(z) FROM ahn2 WHERE "
                      "ST_Within(pt, ST_GeomFromText('%s'))",
                      box);
        break;
      case 1:
        std::snprintf(q, sizeof(q),
                      "SELECT x, y, z FROM ahn2 WHERE ST_Within(pt, "
                      "ST_GeomFromText('%s')) LIMIT 100",
                      box);
        break;
      case 2:
        std::snprintf(q, sizeof(q),
                      "SELECT COUNT(*) FROM ahn2 WHERE classification "
                      "BETWEEN 2 AND %d",
                      3 + (i % 4));
        break;
      default:
        std::snprintf(q, sizeof(q),
                      "SELECT MIN(z), MAX(z) FROM ahn2 WHERE ST_Within(pt, "
                      "ST_GeomFromText('%s')) AND intensity >= %d",
                      box, 50 + (i % 50));
        break;
    }
    sql.emplace_back(q);
  }
  return sql;
}

void RunE17(const std::shared_ptr<FlatTable>& table, const Box& extent) {
  Banner("E17: flight recorder overhead (recording on vs off)",
         "mixed SQL workload wall time with the flight recorder on vs off");

  Catalog catalog;
  if (Status st = catalog.AddPointCloud("ahn2", table); !st.ok()) {
    std::fprintf(stderr, "catalog: %s\n", st.ToString().c_str());
    return;
  }
  sql::Session session(&catalog);  // flight on — production shape

  TempDir dir("bench-e17");
  const std::string log_path = dir.File("flight.gfr");
  const int queries = 48;
  const std::vector<std::string> workload = MixedWorkload(extent, queries);

  auto run_batch = [&session, &workload]() {
    for (const auto& q : workload) {
      auto rs = session.Execute(q);
      if (!rs.ok()) {
        std::fprintf(stderr, "query failed: %s\n",
                     rs.status().ToString().c_str());
        std::exit(1);
      }
    }
  };

  // A single on-vs-off batch pair cannot resolve a 2% bar: frequency
  // scaling and scheduler noise move whole-batch times by several percent
  // between adjacent runs. So: many ADJACENT on/off batch pairs (order
  // alternating per pair so neither side systematically inherits warm
  // state), then the MEDIAN of the per-pair overhead ratios — paired
  // differences cancel the slow drift a min-of-batches cannot.
  run_batch();  // warm-up: neither side pays first-touch faults
  const int pairs = std::max(9, BenchReps() * 3);
  std::vector<double> on_ms, off_ms, ratio;
  auto timed_on = [&] {
    if (Status st = telemetry::FlightRecorder::Global().Open(log_path);
        !st.ok()) {
      std::fprintf(stderr, "recorder: %s\n", st.ToString().c_str());
      std::exit(1);
    }
    Timer t;
    run_batch();
    on_ms.push_back(t.ElapsedMillis());
    telemetry::FlightRecorder::Global().Close();
  };
  auto timed_off = [&] {
    Timer t;
    run_batch();
    off_ms.push_back(t.ElapsedMillis());
  };
  // The recorder stamps its own cost into this counter (time spent in
  // counter snapshots, span aggregation, heat drain, result digest,
  // serialize + append). That direct measurement resolves the <2% bar
  // precisely; the paired wall-clock A/B corroborates it at whatever
  // resolution scheduler noise allows.
  auto& tax_counter = telemetry::MetricsRegistry::Global().GetCounter(
      "geocol_flight_overhead_nanos_total");
  const uint64_t tax_before = tax_counter.Value();
  for (int pair = 0; pair < pairs; ++pair) {
    if (pair % 2 == 0) {
      timed_on();
      timed_off();
    } else {
      timed_off();
      timed_on();
    }
    ratio.push_back(on_ms.back() / off_ms.back() - 1.0);
  }
  auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };
  const double t_on = median(on_ms);
  const double t_off = median(off_ms);
  const double overhead = median(ratio);

  auto events = telemetry::ReadFlightLog(log_path);
  const size_t recorded = events.ok() ? events->size() : 0;
  const uint64_t statements =
      static_cast<uint64_t>(pairs) * static_cast<uint64_t>(queries);
  const double tax_us =
      (tax_counter.Value() - tax_before) / 1e3 / statements;
  const double off_us = t_off * 1000.0 / queries;
  const double tax_pct = off_us > 0 ? tax_us / off_us : 0.0;

  TablePrinter out({"mode", "queries", "events", "batch ms", "per-query us",
                    "overhead"},
                   13);
  out.Row({"recording", TablePrinter::Int(queries),
           TablePrinter::Int(recorded), TablePrinter::Num(t_on, 3),
           TablePrinter::Num(t_on * 1000.0 / queries, 1),
           TablePrinter::Pct(overhead)});
  out.Row({"off", TablePrinter::Int(queries), "0",
           TablePrinter::Num(t_off, 3),
           TablePrinter::Num(t_off * 1000.0 / queries, 1), "-"});
  out.Row({"tax/stmt", TablePrinter::Int(queries),
           TablePrinter::Int(recorded), "-", TablePrinter::Num(tax_us, 2),
           TablePrinter::Pct(tax_pct)});

  std::printf(
      "\nexpected shape: recording adds one event fill + digest + serialize "
      "+ CRC32C +\nbuffered append per statement — a few microseconds, under "
      "the 2%% bar next to\nparse/plan/execute. 'tax/stmt' is the recorder's "
      "self-measured cost\n(geocol_flight_overhead_nanos_total / statements "
      "recorded) against the off-side\nmedian; 'overhead' is the median of "
      "%d paired on/off batch ratios, an A/B\ncorroboration whose resolution "
      "is bounded by scheduler noise.\n",
      pairs);
}

}  // namespace

int main(int argc, char** argv) {
  geocol::bench::InitBench(argc, argv);
  const uint64_t n = BenchPoints(1000000);
  Banner("E12: telemetry overhead (counters on vs off)",
         "selection latency per region size, metrics enabled vs disabled");

  auto table = GenerateSurvey(n);
  const Box extent = SurveyOptions(n).extent;
  std::printf("survey: %llu points\n",
              static_cast<unsigned long long>(table->num_rows()));

  // Single-threaded, like E3: the overhead of a per-scan counter bump is
  // easiest to see without thread-pool noise on top.
  EngineOptions engine_opts;
  engine_opts.num_threads = 1;
  SpatialQueryEngine engine(table, engine_opts);

  const double fractions[5] = {0.0001, 0.001, 0.01, 0.05, 0.15};
  TablePrinter out({"query", "results", "on ms", "off ms", "overhead"}, 12);

  double sum_on = 0.0;
  double sum_off = 0.0;
  for (int qi = 0; qi < 5; ++qi) {
    double side = std::sqrt(extent.area() * fractions[qi]);
    Point c{extent.min_x + extent.width() * 0.43,
            extent.min_y + extent.height() * 0.57};
    Box q(c.x - side / 2, c.y - side / 2, c.x + side / 2, c.y + side / 2);

    // Interleave on/off repetitions (min of each) so frequency scaling,
    // cache warm-up and background noise hit both sides equally.
    uint64_t results = 0;
    double t_on = 1e300, t_off = 1e300;
    const int reps = BenchReps();
    for (int rep = 0; rep < reps; ++rep) {
      telemetry::SetMetricsEnabled(true);
      {
        Timer t;
        auto r = engine.SelectInBox(q);
        t_on = std::min(t_on, t.ElapsedMillis());
        results = r.ok() ? r->count() : 0;
      }
      telemetry::SetMetricsEnabled(false);
      {
        Timer t;
        (void)engine.SelectInBox(q);
        t_off = std::min(t_off, t.ElapsedMillis());
      }
    }
    telemetry::SetMetricsEnabled(true);
    sum_on += t_on;
    sum_off += t_off;

    char label[16];
    std::snprintf(label, sizeof(label), "S%d %.3g%%", qi + 1,
                  fractions[qi] * 100);
    out.Row({label, TablePrinter::Int(results), TablePrinter::Num(t_on, 3),
             TablePrinter::Num(t_off, 3),
             TablePrinter::Pct(t_off > 0 ? t_on / t_off - 1.0 : 0.0)});
  }

  double overall = sum_off > 0 ? sum_on / sum_off - 1.0 : 0.0;
  out.Row({"ALL", "", TablePrinter::Num(sum_on, 3),
           TablePrinter::Num(sum_off, 3), TablePrinter::Pct(overall)});

  std::printf(
      "\nexpected shape: overhead within noise (<2%%) — each scan touches "
      "thousands of\ncachelines but bumps only a handful of thread-sharded "
      "relaxed counters.\n");

  RunE17(table, extent);
  return 0;
}
