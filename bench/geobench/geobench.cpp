// geobench: open-loop served-latency benchmark over four GIS workloads.
//
//   geobench --workload pan|dashboard|archive|ingest --seed S --seconds N
//            --trace 0|1 --points P --connections C --light-qps L
//            --heavy-qps H --setup-reps R --work DIR --out DIR
//            [--commit ID]
//
// bench/geobench/run.py builds this binary and passes the frozen
// per-workload values from spec.json. One run measures one workload:
//
//   1. Set-up, timed and repeated R times (the last copy serves): LAS
//      tiles -> BinaryLoader -> WriteTableDir [-> Hilbert shards] -> open
//      resident / paged / live -> Server::Start -> a first query over every
//      filtered column, so lazy imprint builds land in set-up.
//   2. One second of warm-up at the heavy rate (discarded).
//   3. Four rounds of: a light and a heavy phase at fixed open-loop
//      Poisson rates, then a closed-loop capacity phase (35/35/30 % of the
//      round). The rounds share N seconds; end-to-end figures are medians
//      over the rounds.
//   4. With --trace 1: a per-level decomposition of the stack, then the
//      light phase again with client spans (<out>/trace-<workload>.json).
//   5. Re-execution of a seeded 1-in-16 sample of the replies through an
//      in-process sql::Session, compared by ResultSetDigest.
//
// The server is configured as `geocol serve` configures it: default
// ServerOptions, a 64 MiB result cache on flat engines, a 16 MiB chunk
// cache for the paged table, and the flight recorder open.
//
// Every metric prints as `metric <name> <value> <unit>`. The last stdout
// line is one JSON object {correct, attempted, failed, metrics} holding
// the end-to-end metrics (--trace 0) or the per-layer ledger (--trace 1).
// <out>/result-<workload>-s<seed>-t<trace>.json repeats it with an
// environment stamp.
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cache/chunk_cache.h"
#include "cache/query_cache.h"
#include "columns/column_file.h"
#include "columns/sharded_table.h"
#include "core/imprint_scan.h"
#include "core/live_table.h"
#include "core/shard.h"
#include "core/table_appender.h"
#include "gis/catalog.h"
#include "loader/binary_loader.h"
#include "loadgen.h"
#include "pointcloud/generator.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"
#include "simd/dispatch.h"
#include "sql/executor.h"
#include "sql/parser.h"
#include "sql/planner.h"
#include "sql/session.h"
#include "streams.h"
#include "telemetry/metrics.h"
#include "telemetry/recorder.h"
#include "util/bitvector.h"
#include "util/tempdir.h"
#include "util/timer.h"

using namespace geocol;
using geobench::Connection;
using geobench::MergeInto;
using geobench::PhaseOptions;
using geobench::PhaseResult;
using geobench::Quantile;
using geobench::Sample;

namespace {

// The survey every workload's table is built from.
constexpr uint64_t kSurveySeed = 20150831;
// Server configuration of `geocol serve`: result cache on flat engines.
constexpr uint64_t kResultCacheBytes = 64ull << 20;
// archive: K Hilbert shards, paged, chunk cache ~10 % of the payload.
constexpr uint32_t kArchiveShards = 16;
constexpr uint64_t kArchiveChunkCacheBytes = 16ull << 20;
// ingest: one writer commits a batch of this many rows per interval.
constexpr uint64_t kIngestBatchRows = 5000;
constexpr double kIngestIntervalS = 0.5;
// Phases: warm-up, then kRounds rounds of light/heavy/capacity that share
// --seconds.
constexpr double kWarmupS = 1.0;
constexpr uint64_t kRounds = 4;
constexpr double kLightShare = 0.35, kHeavyShare = 0.35, kCapacityShare = 0.3;
// Decomposition: statements per level and the wall-time cap per level.
constexpr size_t kLevelStatements = 200;
constexpr double kLevelCapS = 1.5;

enum class Kind { kPan, kDashboard, kArchive, kIngest };

struct Args {
  std::string workload;
  Kind kind = Kind::kPan;
  uint64_t seed = 1;
  double seconds = 12;
  bool trace = false;
  uint64_t points = 0;
  size_t connections = 4;
  double light_qps = 0;
  double heavy_qps = 0;
  int setup_reps = 3;
  std::string work;
  std::string out;
  std::string commit = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* a) {
  std::map<std::string, std::string> kv;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) return false;
    kv[argv[i] + 2] = argv[i + 1];
  }
  if (argc % 2 != 1) return false;
  for (const char* req : {"workload", "seed", "seconds", "trace", "points",
                          "connections", "light-qps", "heavy-qps",
                          "setup-reps", "work", "out"}) {
    if (kv.count(req) == 0) {
      std::fprintf(stderr, "geobench: missing --%s\n", req);
      return false;
    }
  }
  static const std::map<std::string, Kind> kinds = {
      {"pan", Kind::kPan},
      {"dashboard", Kind::kDashboard},
      {"archive", Kind::kArchive},
      {"ingest", Kind::kIngest}};
  auto kind = kinds.find(kv["workload"]);
  if (kind == kinds.end()) {
    std::fprintf(stderr, "geobench: unknown workload '%s'\n",
                 kv["workload"].c_str());
    return false;
  }
  a->workload = kv["workload"];
  a->kind = kind->second;
  a->seed = std::strtoull(kv["seed"].c_str(), nullptr, 10);
  a->seconds = std::strtod(kv["seconds"].c_str(), nullptr);
  a->trace = kv["trace"] == "1";
  a->points = std::strtoull(kv["points"].c_str(), nullptr, 10);
  a->connections = std::strtoull(kv["connections"].c_str(), nullptr, 10);
  a->light_qps = std::strtod(kv["light-qps"].c_str(), nullptr);
  a->heavy_qps = std::strtod(kv["heavy-qps"].c_str(), nullptr);
  a->setup_reps = std::atoi(kv["setup-reps"].c_str());
  a->work = kv["work"];
  a->out = kv["out"];
  if (kv.count("commit") != 0) a->commit = kv["commit"];
  return a->seconds > 0 && a->points > 0 && a->connections >= 1 &&
         a->connections <= 4 && a->light_qps > 0 && a->heavy_qps > 0 &&
         a->setup_reps >= 1;
}

/// Generator options for an AHN2-density survey of ~`points` points on a
/// square extent (the sizing `geocol generate` uses).
AhnGeneratorOptions SurveyOptions(uint64_t points, uint64_t seed) {
  AhnGeneratorOptions opts;
  opts.seed = seed;
  const double side = std::sqrt(static_cast<double>(points) / 8.0);
  opts.extent = Box(85000, 444000, 85000 + side, 444000 + side);
  opts.point_density = 8.0;
  opts.scan_line_spacing = 1.0 / std::sqrt(8.0);
  opts.strip_width = std::max(side / 8.0, 10.0);
  return opts;
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// User plus system CPU time of `ru` in milliseconds.
double CpuMs(const struct rusage& ru) {
  return (ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) * 1e3 +
         (ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e3;
}

// ---- Metrics output.

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Report {
 public:
  void Add(std::string name, double value, std::string unit) {
    metrics_.push_back({std::move(name), std::isfinite(value) ? value : 0.0,
                        std::move(unit)});
  }
  const std::vector<Metric>& metrics() const { return metrics_; }

  std::string Json() const {
    std::string s = "{";
    char buf[256];
    for (size_t i = 0; i < metrics_.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", metrics_[i].name.c_str(),
                    metrics_[i].value, metrics_[i].unit.c_str());
      s += buf;
    }
    return s + "}";
  }

 private:
  std::vector<Metric> metrics_;
};

// ---- Registry counters, read around the measured phases.

const char* const kCounterNames[] = {
    "geocol_imprint_cachelines_probed_total",
    "geocol_imprint_cachelines_full_total",
    "geocol_imprint_values_checked_total",
    "geocol_imprint_rows_selected_total",
    "geocol_imprint_rows_full_total",
    "geocol_imprint_builds_total",
    "geocol_imprint_incremental_builds_total",
    "geocol_imprint_stitch_fallbacks_total",
    "geocol_refine_exact_tests_total",
    "geocol_refine_cells_inside_total",
    "geocol_refine_cells_outside_total",
    "geocol_refine_cells_boundary_total",
    "geocol_shards_scanned_total",
    "geocol_shards_pruned_total",
    "geocol_shards_covered_total",
    "geocol_pool_tasks_total",
    "geocol_chunk_faults_total",
    "geocol_crc_chunk_verifies_total",
    "geocol_io_read_bytes_total",
    "geocol_io_write_bytes_total",
    "geocol_io_fsyncs_total",
    "geocol_flight_overhead_nanos_total",
    "geocol_flight_events_total",
    "geocol_flight_bytes_total",
    "geocol_append_commits_total",
    "geocol_append_rows_total",
};

struct Counters {
  std::map<std::string, double> c;
  double chunk_fault_count = 0, chunk_fault_us_sum = 0;
  server::ServerStats server;
  cache::CacheStats result;
  cache::ChunkCache::Stats chunk;

  double operator[](const std::string& name) const { return c.at(name); }
};

Counters Snapshot(const server::Server& srv) {
  telemetry::MetricsRegistry& reg = telemetry::MetricsRegistry::Global();
  Counters s;
  for (const char* name : kCounterNames) {
    s.c[name] = static_cast<double>(reg.GetCounter(name).Value());
  }
  telemetry::Histogram& faults = reg.GetHistogram("geocol_chunk_fault_us");
  s.chunk_fault_count = static_cast<double>(faults.Count());
  s.chunk_fault_us_sum = static_cast<double>(faults.Sum());
  s.server = srv.stats();
  s.result = cache::QueryResultCache::Global().Stats();
  s.chunk = cache::ChunkCache::Global().GetStats();
  return s;
}

double ImprintBuildSeconds() {
  return telemetry::MetricsRegistry::Global()
             .GetHistogram("geocol_imprint_build_nanos")
             .Sum() /
         1e9;
}

// ---- Peak RSS of the serving window.

/// Resets the kernel's peak-RSS mark so VmHWM covers serving only, not the
/// loader's set-up peak. Heap the earlier set-up copies freed is returned
/// first, so it does not count as serving memory. False when the kernel
/// refuses the reset.
bool ResetPeakRss() {
  ::malloc_trim(0);
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
  f.flush();
  return static_cast<bool>(f);
}

double PeakRssMb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  struct rusage ru {};
  ::getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss / 1024.0;
}

// ---- Set-up.

struct SetupTiming {
  double total_s = 0;
  double load_s = 0;
  double write_s = 0;  ///< persisting the served layout (incl. shards)
  double open_s = 0;
  double imprint_s = 0;
};

/// What one set-up leaves serving. Members destroy in reverse order, so
/// the server stops before the catalog and tables go.
struct Served {
  std::shared_ptr<LiveTable> live;  ///< ingest only
  std::unique_ptr<Catalog> catalog;
  std::unique_ptr<server::Server> server;
  uint64_t rows = 0;
};

Result<sql::ResultSet> ClientQuery(int port, const std::string& sql) {
  server::Client::Options copts;
  copts.port = port;
  copts.client_id = "geobench-control";
  GEOCOL_ASSIGN_OR_RETURN(server::Client client, server::Client::Connect(copts));
  GEOCOL_ASSIGN_OR_RETURN(server::Client::QueryOutcome outcome,
                          client.Query(sql));
  if (!outcome.ok) return outcome.ToStatus();
  return std::move(outcome.result);
}

Status Setup(Kind kind, const std::string& tiles, const std::string& dir,
             Served* out, SetupTiming* t) {
  Timer total;
  GEOCOL_RETURN_NOT_OK(MakeDir(dir));
  GEOCOL_RETURN_NOT_OK(MakeDir(dir + "/scratch"));
  const std::string table_dir = dir + "/table";
  const std::string sharded_dir = dir + "/sharded";
  {
    std::shared_ptr<FlatTable> loaded;
    Timer step;
    BinaryLoader loader(dir + "/scratch");
    GEOCOL_ASSIGN_OR_RETURN(loaded, loader.LoadDirectory(tiles));
    t->load_s = step.ElapsedSeconds();
    step.Restart();
    GEOCOL_RETURN_NOT_OK(WriteTableDir(*loaded, table_dir));
    if (kind == Kind::kArchive) {
      ShardingOptions so;
      so.num_shards = kArchiveShards;
      GEOCOL_ASSIGN_OR_RETURN(std::shared_ptr<ShardedTable> sharded,
                              ShardedTable::Create(*loaded, so));
      GEOCOL_RETURN_NOT_OK(WriteShardedTableDir(*sharded, sharded_dir));
    }
    t->write_s = step.ElapsedSeconds();
  }

  Timer open;
  out->catalog = std::make_unique<Catalog>();
  switch (kind) {
    case Kind::kPan:
    case Kind::kDashboard: {
      GEOCOL_ASSIGN_OR_RETURN(FlatTable table, ReadTableDir(table_dir));
      out->rows = table.num_rows();
      GEOCOL_RETURN_NOT_OK(out->catalog->AddPointCloud(
          "ahn2", std::make_shared<FlatTable>(std::move(table))));
      GEOCOL_ASSIGN_OR_RETURN(SpatialQueryEngine * engine,
                              out->catalog->GetEngine("ahn2"));
      engine->set_cache_budget(kResultCacheBytes);
      break;
    }
    case Kind::kArchive: {
      cache::ChunkCache::Global().SetBudget(kArchiveChunkCacheBytes);
      GEOCOL_ASSIGN_OR_RETURN(
          std::shared_ptr<ShardedTable> sharded,
          ReadShardedTableDir(sharded_dir, /*verify_checksums=*/true,
                              /*paged=*/true));
      out->rows = sharded->num_rows();
      sharded->set_name("ahn2");
      GEOCOL_RETURN_NOT_OK(
          out->catalog->AddShardedPointCloud("ahn2", std::move(sharded)));
      break;
    }
    case Kind::kIngest: {
      GEOCOL_ASSIGN_OR_RETURN(out->live, LiveTable::Open(table_dir));
      out->rows = out->live->Pin().table->num_rows();
      GEOCOL_RETURN_NOT_OK(out->catalog->AddLivePointCloud("ahn2", out->live));
      break;
    }
  }
  t->open_s = open.ElapsedSeconds();

  GEOCOL_RETURN_NOT_OK(MakeDir(dir + "/flight"));
  GEOCOL_RETURN_NOT_OK(
      telemetry::FlightRecorder::Global().Open(dir + "/flight/flight.gfr"));
  out->server = std::make_unique<server::Server>(out->catalog.get(),
                                                 server::ServerOptions{});
  GEOCOL_RETURN_NOT_OK(out->server->Start());

  // One statement over every column the workloads filter on, so each
  // column's imprint is built before timing starts. Without a spatial
  // predicate the whole extent is the query box, which filters x and y.
  const double build_before = ImprintBuildSeconds();
  GEOCOL_ASSIGN_OR_RETURN(
      sql::ResultSet rs,
      ClientQuery(out->server->port(),
                  "SELECT COUNT(*) FROM ahn2 WHERE classification BETWEEN 0 "
                  "AND 255 AND intensity BETWEEN 0 AND 65535"));
  if (rs.rows.size() != 1) return Status::Internal("set-up query: no result");
  t->imprint_s = ImprintBuildSeconds() - build_before;
  t->total_s = total.ElapsedSeconds();
  return Status::OK();
}

/// Drops what a set-up left in process-wide state.
void TearDown(std::unique_ptr<Served>* served) {
  served->reset();
  telemetry::FlightRecorder::Global().Close();
  cache::QueryResultCache::Global().Clear();
  cache::ChunkCache::Global().Clear();
}

// ---- The ingest writer.

/// Stages and commits one batch per interval on an open-loop schedule, as
/// the single writer of the `ingest` workload.
class Writer {
 public:
  struct Commit {
    int64_t start = 0;
    double stage_ms = 0;
    double commit_ms = 0;
    bool ok = false;
  };

  Writer(std::shared_ptr<LiveTable> live,
         const std::vector<std::shared_ptr<FlatTable>>* batches)
      : live_(std::move(live)), batches_(batches) {}
  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;
  ~Writer() { Stop(); }

  void Start() {
    thread_ = std::thread([this] { Loop(); });
  }

  void Stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

  /// Valid after Stop().
  const std::vector<Commit>& commits() const { return commits_; }
  const std::string& error() const { return error_; }

 private:
  void Loop() {
    TableAppender appender(live_);
    auto next = std::chrono::steady_clock::now() +
                std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                    std::chrono::duration<double>(kIngestIntervalS));
    for (const auto& batch : *batches_) {
      {
        std::unique_lock<std::mutex> lock(mu_);
        if (cv_.wait_until(lock, next, [this] { return stop_; })) return;
      }
      Commit c;
      c.start = geobench::NowNanos();
      Status st = appender.StageBatch(*batch);
      c.stage_ms = (geobench::NowNanos() - c.start) / 1e6;
      if (st.ok()) {
        const int64_t commit_start = geobench::NowNanos();
        st = appender.Commit();
        c.commit_ms = (geobench::NowNanos() - commit_start) / 1e6;
      }
      c.ok = st.ok();
      commits_.push_back(c);
      if (!st.ok()) {
        error_ = st.ToString();
        return;
      }
      next += std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(kIngestIntervalS));
    }
  }

  std::shared_ptr<LiveTable> live_;
  const std::vector<std::shared_ptr<FlatTable>>* batches_;
  std::vector<Commit> commits_;
  std::string error_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;  ///< guarded by mu_
  std::thread thread_;
};

/// `count` batches of kIngestBatchRows rows, cut in acquisition order from
/// a second survey over the same extent, seeded by the benchmark seed.
Result<std::vector<std::shared_ptr<FlatTable>>> MakeBatches(uint64_t points,
                                                            uint64_t seed,
                                                            size_t count) {
  AhnGenerator gen(SurveyOptions(points, seed));
  GEOCOL_ASSIGN_OR_RETURN(std::shared_ptr<FlatTable> source,
                          gen.GenerateTable(count * kIngestBatchRows * 11 / 10));
  std::vector<std::shared_ptr<FlatTable>> batches;
  for (size_t b = 0; b < count; ++b) {
    const uint64_t first = b * kIngestBatchRows;
    if (first + kIngestBatchRows > source->num_rows()) break;
    auto batch = std::make_shared<FlatTable>("batch", source->schema());
    for (size_t c = 0; c < source->num_columns(); ++c) {
      const ColumnPtr& col = source->column(c);
      batch->column(c)->AppendRaw(col->raw_data() + first * col->width(),
                                  kIngestBatchRows);
    }
    batches.push_back(std::move(batch));
  }
  if (batches.size() < count) {
    return Status::Internal("ingest survey too small for the batches");
  }
  return batches;
}

// ---- Correctness.

/// Re-executes every sample through an in-process session on `catalog`
/// and counts digest mismatches.
uint64_t VerifyStatic(Catalog* catalog, const std::vector<Sample>& samples,
                      std::string* first_error) {
  sql::SessionOptions opts;
  opts.record_flight = false;
  sql::Session session(catalog, opts);
  uint64_t mismatches = 0;
  for (const Sample& s : samples) {
    Result<sql::ResultSet> rs = session.Execute(s.sql);
    if (rs.ok() && sql::ResultSetDigest(*rs) == s.digest) continue;
    if (mismatches++ == 0) *first_error = "digest mismatch: " + s.sql;
  }
  return mismatches;
}

/// The ingest check: a replica live table replays the committed batches
/// in order, and every sample must match the replica at some epoch in the
/// range its client saw while the statement was in flight.
Result<uint64_t> VerifyIngest(
    const std::string& tiles, const std::string& scratch,
    const std::vector<std::shared_ptr<FlatTable>>& batches,
    size_t committed, const std::vector<Sample>& samples,
    std::string* first_error) {
  GEOCOL_RETURN_NOT_OK(MakeDir(scratch));
  BinaryLoader loader(scratch);
  GEOCOL_ASSIGN_OR_RETURN(std::shared_ptr<FlatTable> base,
                          loader.LoadDirectory(tiles));
  GEOCOL_ASSIGN_OR_RETURN(std::shared_ptr<LiveTable> replica,
                          LiveTable::Create(base));
  Catalog catalog;
  GEOCOL_RETURN_NOT_OK(catalog.AddLivePointCloud("ahn2", replica));
  sql::SessionOptions opts;
  opts.record_flight = false;
  sql::Session session(&catalog, opts);
  TableAppender appender(replica);

  std::vector<bool> matched(samples.size(), false);
  uint64_t last_epoch = 0;
  for (const Sample& s : samples) last_epoch = std::max(last_epoch, s.epoch_hi);
  last_epoch = std::min<uint64_t>(last_epoch, committed);
  for (uint64_t epoch = 0; epoch <= last_epoch; ++epoch) {
    if (epoch > 0) {
      GEOCOL_RETURN_NOT_OK(appender.StageBatch(*batches[epoch - 1]));
      GEOCOL_RETURN_NOT_OK(appender.Commit());
    }
    for (size_t i = 0; i < samples.size(); ++i) {
      const Sample& s = samples[i];
      if (matched[i] || epoch < s.epoch_lo || epoch > s.epoch_hi) continue;
      Result<sql::ResultSet> rs = session.Execute(s.sql);
      matched[i] = rs.ok() && sql::ResultSetDigest(*rs) == s.digest;
    }
  }
  uint64_t mismatches = 0;
  for (size_t i = 0; i < samples.size(); ++i) {
    if (matched[i]) continue;
    if (mismatches++ == 0) *first_error = "digest mismatch: " + samples[i].sql;
  }
  return mismatches;
}

// ---- Stack decomposition (traced run).

/// Geometry the executor selects with: the statement's own predicate, or
/// the whole table when it only has attribute ranges.
Geometry SelectGeometry(const sql::PlannedQuery& plan) {
  if (plan.has_geometry) return plan.geometry;
  if (plan.router != nullptr) return Geometry(plan.router->table().extent());
  const FlatTable& table = plan.engine->table();
  const ColumnStats& xs = table.column("x")->Stats();
  const ColumnStats& ys = table.column("y")->Stats();
  return Geometry(Box(xs.min, ys.min, xs.max, ys.max));
}

/// Per-level call times (µs) of one decomposition level.
struct Level {
  std::vector<double> us;
  uint64_t failures = 0;
  double p50() const { return Quantile(us, 0.5); }
};

/// The traced run's stack decomposition: each level's public call, timed
/// alone on its own statement sample, from parse up to a TCP round trip.
class Decomposer {
 public:
  Decomposer(Catalog* catalog, int port,
             const geobench::StreamFactory* streams, uint64_t seed)
      : catalog_(catalog), port_(port), streams_(streams), seed_(seed) {}

  /// Adds the level medians and the self times derived from them to `r`;
  /// counts failed calls into `failures`.
  void Decompose(Report* r, uint64_t* failures) {
    Level parse = Run(0, [&](const std::string& sql) {
      Timer t;
      const bool ok = sql::Parse(sql).ok();
      return ok ? t.ElapsedMicros() : -1.0;
    });
    Level plan = Run(1, [&](const std::string& sql) {
      Result<sql::SelectStmt> stmt = sql::Parse(sql);
      if (!stmt.ok()) return -1.0;
      Timer t;
      const bool ok = sql::PlanQuery(catalog_, std::move(*stmt)).ok();
      return ok ? t.ElapsedMicros() : -1.0;
    });
    Level select = Run(2, [&](const std::string& sql) {
      Result<sql::PlannedQuery> plan = Plan(sql);
      if (!plan.ok()) return -1.0;
      const Geometry geom = SelectGeometry(*plan);
      Timer t;
      const bool ok =
          plan->router != nullptr
              ? plan->router->Select(geom, plan->buffer, plan->thematic).ok()
              : plan->engine->Select(geom, plan->buffer, plan->thematic).ok();
      return ok ? t.ElapsedMicros() : -1.0;
    });
    Level imprint = Run(3, [&](const std::string& sql) {
      Result<sql::PlannedQuery> plan = Plan(sql);
      return plan.ok() ? TimeImprintScan(*plan) : -1.0;
    });
    Level execute = Run(4, [&](const std::string& sql) {
      Result<sql::PlannedQuery> plan = Plan(sql);
      if (!plan.ok()) return -1.0;
      Timer t;
      const bool ok = sql::ExecuteQuery(*plan).ok();
      return ok ? t.ElapsedMicros() : -1.0;
    });
    sql::Session session(catalog_, sql::SessionOptions{});
    Level session_level = Run(5, [&](const std::string& sql) {
      Timer t;
      const bool ok = session.Execute(sql).ok();
      return ok ? t.ElapsedMicros() : -1.0;
    });
    Level encode = Run(6, [&](const std::string& sql) {
      Result<sql::PlannedQuery> plan = Plan(sql);
      if (!plan.ok()) return -1.0;
      Result<sql::ResultSet> rs = sql::ExecuteQuery(*plan);
      if (!rs.ok()) return -1.0;
      Timer t;
      const size_t bytes = server::EncodeResultSet(*rs).size();
      return bytes > 0 ? t.ElapsedMicros() : -1.0;
    });
    Level decode = Run(7, [&](const std::string& sql) {
      Result<sql::PlannedQuery> plan = Plan(sql);
      if (!plan.ok()) return -1.0;
      Result<sql::ResultSet> rs = sql::ExecuteQuery(*plan);
      if (!rs.ok()) return -1.0;
      const std::vector<uint8_t> wire = server::EncodeResultSet(*rs);
      Timer t;
      const bool ok = server::DecodeResultSet(wire).ok();
      return ok ? t.ElapsedMicros() : -1.0;
    });
    server::Client::Options copts;
    copts.port = port_;
    copts.client_id = "geobench-decompose";
    Result<server::Client> client = server::Client::Connect(copts);
    Level roundtrip = Run(8, [&](const std::string& sql) {
      if (!client.ok()) return -1.0;
      Timer t;
      Result<server::Client::QueryOutcome> outcome = client->Query(sql);
      return outcome.ok() && outcome->ok ? t.ElapsedMicros() : -1.0;
    });

    for (const Level* l : {&parse, &plan, &select, &imprint, &execute,
                           &session_level, &encode, &decode, &roundtrip}) {
      *failures += l->failures;
    }
    r->Add("sql.parse_us.p50", parse.p50(), "us");
    r->Add("sql.plan_us.p50", plan.p50(), "us");
    r->Add("sql.execute_us.p50", execute.p50(), "us");
    r->Add("sql.render_us.p50", execute.p50() - select.p50(), "us");
    r->Add("core.select_us.p50", select.p50(), "us");
    r->Add("core.select_us.p99", Quantile(select.us, 0.99), "us");
    r->Add("core.imprint_scan_us.p50", imprint.p50(), "us");
    r->Add("telemetry.record_us.p50",
           session_level.p50() - parse.p50() - plan.p50() - execute.p50(),
           "us");
    r->Add("server.encode_us.p50", encode.p50(), "us");
    r->Add("server.decode_us.p50", decode.p50(), "us");
    r->Add("server.roundtrip_us.p50", roundtrip.p50(), "us");
    r->Add("server.remainder_us.p50",
           roundtrip.p50() - session_level.p50() - encode.p50() - decode.p50(),
           "us");
    roundtrip_us_ = roundtrip.p50();
  }

  double roundtrip_us() const { return roundtrip_us_; }

 private:
  /// Times `fn` on each statement of a fresh sample (its own seed per
  /// level, so no level reads a cache entry a lower level inserted).
  /// `fn` returns the level's call time in µs, or < 0 on failure.
  template <typename Fn>
  Level Run(uint64_t label, Fn&& fn) {
    Level level;
    auto stream = (*streams_)(geobench::MixSeed(seed_, 1000 + label));
    Timer cap;
    for (size_t i = 0; i < kLevelStatements && cap.ElapsedSeconds() < kLevelCapS;
         ++i) {
      const double us = fn(stream->Next());
      if (us < 0) {
        ++level.failures;
      } else {
        level.us.push_back(us);
      }
    }
    return level;
  }

  Result<sql::PlannedQuery> Plan(const std::string& sql) {
    GEOCOL_ASSIGN_OR_RETURN(sql::SelectStmt stmt, sql::Parse(sql));
    return sql::PlanQuery(catalog_, std::move(stmt));
  }

  /// ImprintRangeSelect on x and on y over the statement's viewport,
  /// serial, against the engines' own (already built) indexes: the flat
  /// or live engine, or every shard the router would not prune.
  double TimeImprintScan(const sql::PlannedQuery& plan) {
    const Box envelope = SelectGeometry(plan).Envelope().Expanded(plan.buffer);
    Box view = envelope;
    for (const AttributeRange& a : plan.thematic) {
      if (a.column == "x") view = Box(a.lo, view.min_y, a.hi, view.max_y);
      if (a.column == "y") view = Box(view.min_x, a.lo, view.max_x, a.hi);
    }
    std::vector<SpatialQueryEngine*> engines;
    if (plan.router == nullptr) {
      engines.push_back(plan.engine);
    } else {
      for (const std::shared_ptr<Shard>& shard : plan.router->View().shards) {
        auto* local = dynamic_cast<LocalShard*>(shard.get());
        if (local == nullptr) return -1.0;
        if (shard->bbox().Intersects(envelope)) {
          engines.push_back(&local->engine());
        }
      }
    }
    double us = 0;
    for (SpatialQueryEngine* engine : engines) {
      for (const bool is_x : {true, false}) {
        const ColumnPtr col = engine->table().column(is_x ? "x" : "y");
        Result<std::shared_ptr<const ImprintsIndex>> index =
            engine->imprint_manager().GetOrBuild(col);
        if (!index.ok()) return -1.0;
        const double lo = is_x ? view.min_x : view.min_y;
        const double hi = is_x ? view.max_x : view.max_y;
        BitVector rows;
        Timer t;
        if (!ImprintRangeSelect(*col, **index, lo, hi, &rows).ok()) {
          return -1.0;
        }
        us += t.ElapsedMicros();
      }
    }
    return us;
  }

  Catalog* catalog_;
  int port_;
  const geobench::StreamFactory* streams_;
  uint64_t seed_;
  double roundtrip_us_ = 0;
};

// ---- The measured phases.

/// Runs one phase: a label that seeds its streams, the offered rate (0 for
/// a closed loop), its length, and whether to record client spans.
using PhaseFn = std::function<PhaseResult(uint64_t label, double rate,
                                          double seconds, bool spans)>;

/// kRounds rounds of light, heavy and capacity. The end-to-end figures are
/// medians over the rounds, so a slow spell of the shared machine that
/// spans one round does not move them.
struct Rounds {
  PhaseResult light, heavy, capacity;  ///< pooled over the rounds
  std::vector<double> light_p50, light_p95, heavy_p50, capacity_qps;
  /// Start and end of each round's light + heavy phases.
  std::vector<std::pair<int64_t, int64_t>> fixed_rate_windows;
  double heavy_cpu_ms = 0, heavy_ctx_switches = 0;
};

Rounds RunRounds(const PhaseFn& phase, const Args& a) {
  Rounds out;
  const double round_s = a.seconds / kRounds;
  for (uint64_t r = 0; r < kRounds; ++r) {
    const int64_t start = geobench::NowNanos();
    PhaseResult light = phase(10 * r + 2, a.light_qps, kLightShare * round_s,
                              false);
    struct rusage ru0 {}, ru1 {};
    ::getrusage(RUSAGE_SELF, &ru0);
    PhaseResult heavy = phase(10 * r + 3, a.heavy_qps, kHeavyShare * round_s,
                              false);
    ::getrusage(RUSAGE_SELF, &ru1);
    out.fixed_rate_windows.push_back({start, geobench::NowNanos()});
    out.heavy_cpu_ms += CpuMs(ru1) - CpuMs(ru0);
    out.heavy_ctx_switches += static_cast<double>(
        (ru1.ru_nvcsw + ru1.ru_nivcsw) - (ru0.ru_nvcsw + ru0.ru_nivcsw));
    PhaseResult capacity = phase(10 * r + 4, 0, kCapacityShare * round_s,
                                 false);
    out.light_p50.push_back(Quantile(light.latency_ms, 0.5));
    out.light_p95.push_back(Quantile(light.latency_ms, 0.95));
    out.heavy_p50.push_back(Quantile(heavy.latency_ms, 0.5));
    out.capacity_qps.push_back(Ratio(capacity.ok, capacity.elapsed_s));
    MergeInto(&out.light, std::move(light));
    MergeInto(&out.heavy, std::move(heavy));
    MergeInto(&out.capacity, std::move(capacity));
  }
  return out;
}

/// The per-layer metrics read from counter deltas across the rounds.
/// `row_bytes` is the width of one appended row (0 without appends).
void AddCounterLedger(const Counters& before, const Counters& after,
                      double row_bytes, Report* layer) {
  auto d = [&](const char* name) { return after[name] - before[name]; };
  auto delta = [](uint64_t hi, uint64_t lo) {
    return static_cast<double>(hi - lo);
  };
  const double queries =
      delta(after.server.queries_ok, before.server.queries_ok);
  const double members =
      delta(after.server.batch_members, before.server.batch_members);
  layer->Add("server.batch_share", Ratio(members, queries), "ratio");
  layer->Add("server.batch_size_mean",
             Ratio(members, delta(after.server.batches, before.server.batches)),
             "count");
  layer->Add("server.batch_fallbacks",
             delta(after.server.batch_fallbacks, before.server.batch_fallbacks),
             "count");
  layer->Add("server.queue_max_depth",
             static_cast<double>(after.server.queue_max_depth), "count");
  layer->Add("server.shed",
             delta(after.server.shed_busy + after.server.shed_rate_limited,
                   before.server.shed_busy + before.server.shed_rate_limited),
             "count");
  layer->Add("telemetry.flight_tax_us",
             Ratio(d("geocol_flight_overhead_nanos_total") / 1e3,
                   d("geocol_flight_events_total")),
             "us");
  layer->Add("telemetry.flight_bytes_per_event",
             Ratio(d("geocol_flight_bytes_total"),
                   d("geocol_flight_events_total")),
             "B");
  const double probed = d("geocol_imprint_cachelines_probed_total");
  const double checked = d("geocol_imprint_values_checked_total");
  layer->Add("core.cachelines_probed_per_query", Ratio(probed, queries),
             "count");
  layer->Add("core.cachelines_full_ratio",
             Ratio(d("geocol_imprint_cachelines_full_total"), probed), "ratio");
  layer->Add("core.values_checked_per_query", Ratio(checked, queries),
             "count");
  // Per-value checks that rejected the row (ImprintScanStats's rate).
  layer->Add("core.imprint_fpr",
             Ratio(checked - (d("geocol_imprint_rows_selected_total") -
                              d("geocol_imprint_rows_full_total")),
                   checked),
             "ratio");
  const double cells = d("geocol_refine_cells_inside_total") +
                       d("geocol_refine_cells_outside_total") +
                       d("geocol_refine_cells_boundary_total");
  layer->Add("core.refine_exact_tests_per_query",
             Ratio(d("geocol_refine_exact_tests_total"), queries), "count");
  layer->Add("core.refine_boundary_cell_ratio",
             Ratio(d("geocol_refine_cells_boundary_total"), cells), "ratio");
  // The router counts covered shards as scanned too.
  const double scanned = d("geocol_shards_scanned_total");
  const double pruned = d("geocol_shards_pruned_total");
  layer->Add("core.shards_scanned_per_query", Ratio(scanned, queries),
             "count");
  layer->Add("core.shards_pruned_ratio", Ratio(pruned, scanned + pruned),
             "ratio");
  layer->Add("core.shards_covered_per_query",
             Ratio(d("geocol_shards_covered_total"), queries), "count");
  layer->Add("core.imprint_builds", d("geocol_imprint_builds_total"), "count");
  layer->Add("core.imprint_incremental_builds",
             d("geocol_imprint_incremental_builds_total"), "count");
  layer->Add("core.stitch_fallbacks",
             d("geocol_imprint_stitch_fallbacks_total"), "count");
  layer->Add("util.pool_tasks_per_query",
             Ratio(d("geocol_pool_tasks_total"), queries), "count");
  const char* const tiers[] = {"selection", "grid", "aggregate"};
  double evictions = 0;
  for (size_t t = 0; t < cache::kNumTiers; ++t) {
    const double hits = delta(after.result.tier[t].hits,
                              before.result.tier[t].hits);
    const double misses = delta(after.result.tier[t].misses,
                                before.result.tier[t].misses);
    layer->Add(std::string("cache.") + tiers[t] + "_hit_ratio",
               Ratio(hits, hits + misses), "ratio");
    evictions += delta(after.result.tier[t].evictions,
                       before.result.tier[t].evictions);
  }
  layer->Add("cache.evictions", evictions, "count");
  layer->Add("cache.result_mb", after.result.bytes_used / 1048576.0, "MB");
  const double chunk_hits = delta(after.chunk.hits, before.chunk.hits);
  const double chunk_misses = delta(after.chunk.misses, before.chunk.misses);
  layer->Add("cache.chunk_hit_ratio",
             Ratio(chunk_hits, chunk_hits + chunk_misses), "ratio");
  layer->Add("cache.chunk_evictions_per_query",
             Ratio(delta(after.chunk.evictions, before.chunk.evictions),
                   queries),
             "count");
  layer->Add("columns.chunk_faults_per_query",
             Ratio(d("geocol_chunk_faults_total"), queries), "count");
  layer->Add("columns.crc_verifies_per_query",
             Ratio(d("geocol_crc_chunk_verifies_total"), queries), "count");
  layer->Add("io.read_bytes_per_query",
             Ratio(d("geocol_io_read_bytes_total"), queries), "B");
  layer->Add("io.write_amp",
             Ratio(d("geocol_io_write_bytes_total"),
                   d("geocol_append_rows_total") * row_bytes),
             "ratio");
  layer->Add("io.fsyncs_per_commit",
             Ratio(d("geocol_io_fsyncs_total"),
                   d("geocol_append_commits_total")),
             "count");
}

// ---- Output.

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

std::string EnvStamp(const Args& a, bool rss_window_reset) {
  char buf[1024];
#if defined(__clang__)
  const char* compiler = "clang";
#elif defined(__GNUC__)
  const char* compiler = "gcc";
#else
  const char* compiler = "unknown";
#endif
  std::snprintf(
      buf, sizeof(buf),
      "{\"nproc\": %ld, \"simd\": \"%s\", \"compiler\": \"%s %s\", "
      "\"points\": %llu, \"survey_seed\": %llu, \"seed\": %llu, "
      "\"connections\": %zu, \"light_qps\": %.17g, \"heavy_qps\": %.17g, "
      "\"seconds\": %.17g, \"setup_reps\": %d, \"rss_window\": \"%s\", "
      "\"commit\": %s}",
      ::sysconf(_SC_NPROCESSORS_ONLN),
      simd::SimdLevelName(simd::ActiveSimdLevel()), compiler, __VERSION__,
      static_cast<unsigned long long>(a.points),
      static_cast<unsigned long long>(kSurveySeed),
      static_cast<unsigned long long>(a.seed), a.connections, a.light_qps,
      a.heavy_qps, a.seconds, a.setup_reps,
      rss_window_reset ? "serving" : "process", JsonString(a.commit).c_str());
  return buf;
}

int Fail(const std::string& what, const Status& st) {
  std::fprintf(stderr, "geobench: %s: %s\n", what.c_str(),
               st.ToString().c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!ParseArgs(argc, argv, &a)) {
    std::fprintf(stderr,
                 "usage: geobench --workload pan|dashboard|archive|ingest "
                 "--seed S --seconds N --trace 0|1 --points P --connections "
                 "C --light-qps L --heavy-qps H --setup-reps R --work DIR "
                 "--out DIR [--commit ID]\n");
    return 2;
  }
  for (const std::string& d : {a.work, a.out, a.work + "/tiles"}) {
    if (Status st = MakeDir(d); !st.ok()) return Fail("mkdir " + d, st);
  }
  const std::string tiles = a.work + "/tiles";
  const AhnGeneratorOptions survey = SurveyOptions(a.points, kSurveySeed);
  const Box extent = survey.extent;
  {
    AhnGenerator gen(survey);
    if (auto n = gen.WriteTileDirectory(tiles, false); !n.ok()) {
      return Fail("generate tiles", n.status());
    }
  }
  std::vector<std::shared_ptr<FlatTable>> batches;
  if (a.kind == Kind::kIngest) {
    const size_t count = static_cast<size_t>(
        std::ceil((kWarmupS + a.seconds) / kIngestIntervalS)) + 4;
    auto made = MakeBatches(a.points, geobench::MixSeed(a.seed, 7), count);
    if (!made.ok()) return Fail("ingest batches", made.status());
    batches = std::move(*made);
  }

  // 1. Set-up, repeated; the last copy serves.
  std::unique_ptr<Served> served;
  std::vector<SetupTiming> setups;
  for (int rep = 0; rep < a.setup_reps; ++rep) {
    if (served != nullptr) {
      TearDown(&served);
      (void)RemoveDirRecursive(a.work + "/rep" + std::to_string(rep - 1));
    }
    served = std::make_unique<Served>();
    SetupTiming t;
    Status st = Setup(a.kind, tiles, a.work + "/rep" + std::to_string(rep),
                      served.get(), &t);
    if (!st.ok()) return Fail("set-up", st);
    setups.push_back(t);
  }
  server::Server& srv = *served->server;
  const bool rss_reset = ResetPeakRss();

  std::vector<Connection> conns;
  for (size_t c = 0; c < a.connections; ++c) {
    auto conn = Connection::Open(srv.port(), "user-" + std::to_string(c));
    if (!conn.ok()) return Fail("connect", conn.status());
    conns.push_back(std::move(*conn));
  }
  const geobench::StreamFactory streams = [&](uint64_t seed) {
    return a.kind == Kind::kDashboard ? geobench::MakeDashboardUser(extent, seed)
                                      : geobench::MakePanUser(extent, seed);
  };
  std::function<uint64_t()> epoch;
  if (served->live != nullptr) {
    epoch = [live = served->live] { return live->epoch(); };
  }
  const PhaseFn phase = [&](uint64_t label, double rate, double seconds,
                            bool spans) {
    PhaseOptions o;
    o.rate_qps = rate;
    o.seconds = seconds;
    o.seed = geobench::MixSeed(a.seed, label);
    o.record_spans = spans;
    o.epoch = epoch;
    return geobench::RunPhase(conns, streams, o);
  };

  // 2.-3. Warm-up, then the measured rounds.
  std::unique_ptr<Writer> writer;
  if (served->live != nullptr) {
    writer = std::make_unique<Writer>(served->live, &batches);
    writer->Start();
  }
  PhaseResult warmup = phase(1, a.heavy_qps, kWarmupS, false);
  const Counters before = Snapshot(srv);
  Rounds rounds = RunRounds(phase, a);
  const Counters after = Snapshot(srv);
  if (writer != nullptr) writer->Stop();
  const double peak_rss_mb = PeakRssMb();

  Report e2e, layer;
  uint64_t attempted = 0, failed = 0;
  std::vector<std::string> problems;
  std::vector<Sample> samples;
  auto account = [&](PhaseResult& p, const char* name) {
    attempted += p.sent + p.missed;
    failed += p.failed();
    for (const std::string& m : p.error_messages) {
      problems.push_back(std::string(name) + ": " + m);
    }
    if (p.missed > 0) {
      problems.push_back(std::string(name) + ": " + std::to_string(p.missed) +
                         " due requests never sent");
    }
    samples.insert(samples.end(), p.samples.begin(), p.samples.end());
  };
  account(warmup, "warm-up");
  account(rounds.light, "light");
  account(rounds.heavy, "heavy");
  account(rounds.capacity, "capacity");

  // 4. Traced run: decomposition, then the light phase with spans.
  if (a.trace) {
    Decomposer dec(served->catalog.get(), srv.port(), &streams, a.seed);
    uint64_t dec_failures = 0;
    dec.Decompose(&layer, &dec_failures);
    attempted += dec_failures;
    failed += dec_failures;
    if (dec_failures > 0) problems.push_back("decomposition call failures");
    layer.Add("server.wait_ms.heavy",
              Median(rounds.heavy_p50) - dec.roundtrip_us() / 1e3, "ms");
    PhaseResult traced =
        phase(5, a.light_qps, kLightShare * a.seconds / kRounds, true);
    account(traced, "traced light");
    const std::string trace_path = a.out + "/trace-" + a.workload + ".json";
    if (Status st = geobench::WriteChromeTrace(traced.spans, a.workload,
                                               trace_path);
        !st.ok()) {
      return Fail("trace", st);
    }
    layer.Add("trace.overhead_pct",
              100.0 * (Ratio(Quantile(traced.latency_ms, 0.5),
                             Median(rounds.light_p50)) - 1.0),
              "%");
  }

  // 5. Correctness: ingest bookkeeping, then the sampled re-execution.
  uint64_t committed = 0;
  std::vector<double> commit_ms, stage_ms;
  if (writer != nullptr) {
    for (const Writer::Commit& c : writer->commits()) {
      ++attempted;
      if (!c.ok) {
        ++failed;
        problems.push_back("commit failed: " + writer->error());
        continue;
      }
      ++committed;
      stage_ms.push_back(c.stage_ms);
      for (const auto& [begin, end] : rounds.fixed_rate_windows) {
        if (c.start >= begin && c.start < end) commit_ms.push_back(c.commit_ms);
      }
    }
    auto count = ClientQuery(srv.port(), "SELECT COUNT(*) FROM ahn2");
    const uint64_t expected = served->rows + committed * kIngestBatchRows;
    ++attempted;
    if (!count.ok() || count->rows.size() != 1 ||
        count->rows[0][0].number != static_cast<double>(expected)) {
      ++failed;
      problems.push_back("final COUNT(*) != base rows + committed rows (" +
                         std::to_string(expected) + ")");
    }
  }
  conns.clear();
  std::string mismatch;
  uint64_t mismatches = 0;
  if (served->live != nullptr) {
    auto m = VerifyIngest(tiles, a.work + "/verify", batches, committed,
                          samples, &mismatch);
    if (!m.ok()) return Fail("ingest replica", m.status());
    mismatches = *m;
  } else {
    mismatches = VerifyStatic(served->catalog.get(), samples, &mismatch);
  }
  if (mismatches > 0) {
    problems.push_back(std::to_string(mismatches) + " of " +
                       std::to_string(samples.size()) + " sampled replies: " +
                       mismatch);
  }

  // End-to-end metrics.
  std::vector<double> setup_s;
  for (const SetupTiming& t : setups) setup_s.push_back(t.total_s);
  e2e.Add("setup_s", Median(setup_s), "s");
  e2e.Add("light.p50_ms", Median(rounds.light_p50), "ms");
  e2e.Add("peak_rss_mb", peak_rss_mb, "MB");

  // Per-layer ledger.
  std::vector<double> late = rounds.light.late_ms;
  late.insert(late.end(), rounds.heavy.late_ms.begin(),
              rounds.heavy.late_ms.end());
  layer.Add("loadgen.light.samples",
            static_cast<double>(rounds.light.latency_ms.size()), "count");
  layer.Add("loadgen.heavy.samples",
            static_cast<double>(rounds.heavy.latency_ms.size()), "count");
  // Heavy-rate latency and capacity swing with the host's load by more
  // than a third of the largest bound the gate allows, so they are
  // reported here rather than gated.
  layer.Add("loadgen.heavy.p50_ms", Median(rounds.heavy_p50), "ms");
  layer.Add("loadgen.capacity_qps", Median(rounds.capacity_qps), "1/s");
  layer.Add("loadgen.light.p95_ms", Median(rounds.light_p95), "ms");
  layer.Add("loadgen.light.p99_ms", Quantile(rounds.light.latency_ms, 0.99),
            "ms");
  layer.Add("loadgen.heavy.p95_ms", Quantile(rounds.heavy.latency_ms, 0.95),
            "ms");
  layer.Add("loadgen.heavy.p99_ms", Quantile(rounds.heavy.latency_ms, 0.99),
            "ms");
  layer.Add("loadgen.late_ms.p99", Quantile(late, 0.99), "ms");
  layer.Add("loadgen.fail_frac", Ratio(failed, attempted), "ratio");
  double row_bytes = 0;
  if (!batches.empty()) {
    for (const ColumnPtr& c : batches[0]->columns()) row_bytes += c->width();
  }
  AddCounterLedger(before, after, row_bytes, &layer);
  auto setup_median = [&](double SetupTiming::*field) {
    std::vector<double> v;
    for (const SetupTiming& t : setups) v.push_back(t.*field);
    return Median(v);
  };
  layer.Add("loader.load_s", setup_median(&SetupTiming::load_s), "s");
  layer.Add("columns.write_s", setup_median(&SetupTiming::write_s), "s");
  layer.Add("columns.open_s", setup_median(&SetupTiming::open_s), "s");
  layer.Add("core.imprint_build_s", setup_median(&SetupTiming::imprint_s),
            "s");
  const double heavy_queries = static_cast<double>(rounds.heavy.ok);
  layer.Add("proc.cpu_ms_per_query", Ratio(rounds.heavy_cpu_ms, heavy_queries),
            "ms");
  layer.Add("proc.ctx_switches_per_query",
            Ratio(rounds.heavy_ctx_switches, heavy_queries), "count");

  // Timings of layers only some workloads have. BENCHMARK.json lists only
  // metrics every workload measures, so these go to the result file.
  Report specific;
  if (a.kind == Kind::kArchive) {
    specific.Add("columns.chunk_fault_us.mean",
                 Ratio(after.chunk_fault_us_sum - before.chunk_fault_us_sum,
                       after.chunk_fault_count - before.chunk_fault_count),
                 "us");
  }
  if (writer != nullptr) {
    specific.Add("core.append_stage_ms.p50", Median(stage_ms), "ms");
    specific.Add("commit.p50_ms", Median(commit_ms), "ms");
    specific.Add("commit.p90_ms", Quantile(commit_ms, 0.9), "ms");
  }

  const bool correct = failed == 0 && mismatches == 0;
  for (const std::string& p : problems) {
    std::fprintf(stderr, "geobench: %s\n", p.c_str());
  }
  std::printf("geobench %s seed=%llu points=%llu light=%.17g/s heavy=%.17g/s "
              "samples=%zu mismatches=%llu\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed),
              static_cast<unsigned long long>(served->rows), a.light_qps,
              a.heavy_qps, samples.size(),
              static_cast<unsigned long long>(mismatches));
  for (const Report* r : {&e2e, &layer, &specific}) {
    for (const Metric& m : r->metrics()) {
      std::printf("metric %-36s %14.6f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }

  const Report& shown = a.trace ? layer : e2e;
  char head[160];
  std::snprintf(head, sizeof(head),
                "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": ",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
  const std::string line = head + shown.Json() + "}";

  const std::string result_path = a.out + "/result-" + a.workload + "-s" +
                                  std::to_string(a.seed) + "-t" +
                                  (a.trace ? "1" : "0") + ".json";
  if (std::FILE* f = std::fopen(result_path.c_str(), "w")) {
    std::fprintf(f,
                 "{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
                 "\"env\": %s, \"correct\": %s, \"attempted\": %llu, "
                 "\"failed\": %llu, \"end_to_end\": %s, \"per_layer\": %s, "
                 "\"workload_specific\": %s}\n",
                 a.workload.c_str(), static_cast<unsigned long long>(a.seed),
                 a.trace ? 1 : 0, EnvStamp(a, rss_reset).c_str(),
                 correct ? "true" : "false",
                 static_cast<unsigned long long>(attempted),
                 static_cast<unsigned long long>(failed), e2e.Json().c_str(),
                 layer.Json().c_str(), specific.Json().c_str());
    std::fclose(f);
  }

  TearDown(&served);
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
