#include "sql/session.h"

#include <chrono>
#include <cstdlib>
#include <algorithm>

#include "sql/parser.h"
#include "telemetry/heat.h"
#include "telemetry/metrics.h"
#include "telemetry/recorder.h"
#include "util/logging.h"
#include "util/timer.h"

namespace geocol {
namespace sql {

namespace {

int64_t NowUnixNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

/// The registry counters sampled around every recorded statement; the
/// difference attributes cache/chunk/imprint work to that statement
/// (exact for the single-session CLI, union-since-last-statement under
/// concurrent sessions).
struct CounterSnapshot {
  uint64_t cache_hits[3] = {0, 0, 0};
  uint64_t cache_misses[3] = {0, 0, 0};
  uint64_t chunk_faults = 0;
  uint64_t chunk_cache_hits = 0;
  uint64_t io_read_bytes = 0;
  uint64_t imprint_scans = 0;
  uint64_t imprint_cachelines_probed = 0;
  uint64_t imprint_cachelines_full = 0;
  uint64_t imprint_values_checked = 0;
};

CounterSnapshot SnapshotCounters() {
  // Registry references are process-lifetime stable (metrics.h), so the
  // map lookups (and their string allocations) happen once, not twice per
  // recorded statement.
  struct Refs {
    telemetry::Counter* cache_hits[3];
    telemetry::Counter* cache_misses[3];
    telemetry::Counter* chunk_faults;
    telemetry::Counter* chunk_cache_hits;
    telemetry::Counter* io_read_bytes;
    telemetry::Counter* imprint_scans;
    telemetry::Counter* imprint_cachelines_probed;
    telemetry::Counter* imprint_cachelines_full;
    telemetry::Counter* imprint_values_checked;
  };
  static const Refs refs = [] {
    auto& reg = telemetry::MetricsRegistry::Global();
    const char* tiers[3] = {"selection", "grid", "aggregate"};
    Refs r;
    for (int t = 0; t < 3; ++t) {
      r.cache_hits[t] = &reg.GetCounter(std::string("geocol_cache_") +
                                        tiers[t] + "_hits_total");
      r.cache_misses[t] = &reg.GetCounter(std::string("geocol_cache_") +
                                          tiers[t] + "_misses_total");
    }
    r.chunk_faults = &reg.GetCounter("geocol_chunk_faults_total");
    r.chunk_cache_hits = &reg.GetCounter("geocol_chunk_cache_hits_total");
    r.io_read_bytes = &reg.GetCounter("geocol_io_read_bytes_total");
    r.imprint_scans = &reg.GetCounter("geocol_imprint_scans_total");
    r.imprint_cachelines_probed =
        &reg.GetCounter("geocol_imprint_cachelines_probed_total");
    r.imprint_cachelines_full =
        &reg.GetCounter("geocol_imprint_cachelines_full_total");
    r.imprint_values_checked =
        &reg.GetCounter("geocol_imprint_values_checked_total");
    return r;
  }();
  CounterSnapshot s;
  for (int t = 0; t < 3; ++t) {
    s.cache_hits[t] = refs.cache_hits[t]->Value();
    s.cache_misses[t] = refs.cache_misses[t]->Value();
  }
  s.chunk_faults = refs.chunk_faults->Value();
  s.chunk_cache_hits = refs.chunk_cache_hits->Value();
  s.io_read_bytes = refs.io_read_bytes->Value();
  s.imprint_scans = refs.imprint_scans->Value();
  s.imprint_cachelines_probed = refs.imprint_cachelines_probed->Value();
  s.imprint_cachelines_full = refs.imprint_cachelines_full->Value();
  s.imprint_values_checked = refs.imprint_values_checked->Value();
  return s;
}

void FillCounterDeltas(const CounterSnapshot& before,
                       const CounterSnapshot& after,
                       telemetry::QueryEvent* ev) {
  for (int t = 0; t < 3; ++t) {
    ev->cache_hits[t] = after.cache_hits[t] - before.cache_hits[t];
    ev->cache_misses[t] = after.cache_misses[t] - before.cache_misses[t];
  }
  ev->chunk_faults = after.chunk_faults - before.chunk_faults;
  ev->chunk_cache_hits = after.chunk_cache_hits - before.chunk_cache_hits;
  ev->io_read_bytes = after.io_read_bytes - before.io_read_bytes;
  ev->imprint_scans = after.imprint_scans - before.imprint_scans;
  ev->imprint_cachelines_probed =
      after.imprint_cachelines_probed - before.imprint_cachelines_probed;
  ev->imprint_cachelines_full =
      after.imprint_cachelines_full - before.imprint_cachelines_full;
  ev->imprint_values_checked =
      after.imprint_values_checked - before.imprint_values_checked;
}

/// Mines the span tree: leaf operator times aggregated by name (the
/// latency breakdown) and the shard.route attrs (routing outcome).
void FillFromProfile(const QueryProfile& profile, telemetry::QueryEvent* ev) {
  const auto& ops = profile.operators();
  std::vector<bool> has_child(ops.size(), false);
  for (const OperatorProfile& op : ops) {
    if (op.parent >= 0 && static_cast<size_t>(op.parent) < ops.size()) {
      has_child[op.parent] = true;
    }
  }
  // Sorted-vector accumulation: profiles carry a handful of distinct leaf
  // names, so lower_bound beats a node allocation per map insert (this
  // runs once per recorded statement).
  auto& by_name = ev->span_nanos;
  by_name.reserve(8);
  for (size_t i = 0; i < ops.size(); ++i) {
    if (has_child[i]) continue;
    auto it = std::lower_bound(
        by_name.begin(), by_name.end(), ops[i].name,
        [](const auto& entry, const std::string& name) {
          return entry.first < name;
        });
    if (it != by_name.end() && it->first == ops[i].name) {
      it->second += ops[i].nanos;
    } else {
      by_name.insert(it, {ops[i].name, ops[i].nanos});
    }
  }
  ev->critical_path_nanos = profile.CriticalPathNanos();
  for (const OperatorProfile& op : ops) {
    if (op.name != "shard.route") continue;
    for (const auto& kv : op.attrs) {
      const uint64_t v = std::strtoull(kv.second.c_str(), nullptr, 10);
      if (kv.first == "shards_total") ev->shards_total = v;
      else if (kv.first == "shards_scanned") ev->shards_scanned = v;
      else if (kv.first == "shards_pruned") ev->shards_pruned = v;
      else if (kv.first == "shards_covered") ev->shards_covered = v;
    }
  }
}

/// Embeds the heat drained since the previous statement, capped so one
/// pathological query cannot balloon an event frame.
void FillHeat(telemetry::QueryEvent* ev) {
  constexpr size_t kMaxEntries = 4096;
  for (const auto& d : telemetry::DrainShardHeat()) {
    if (ev->shard_heat.size() >= kMaxEntries) break;
    ev->shard_heat.push_back({d.shard, d.scans, d.covered, d.rows});
  }
  for (auto& d : telemetry::DrainChunkHeat()) {
    if (ev->chunk_heat.size() >= kMaxEntries) break;
    ev->chunk_heat.push_back(
        {std::move(d.file), d.chunk, d.touches, d.faults});
  }
}

}  // namespace

Result<ResultSet> Session::Execute(const std::string& sql_text) {
  return ExecuteRecorded(sql_text, [&](telemetry::QueryEvent* ev) {
    return ExecuteInternal(sql_text, ev);
  });
}

Result<ResultSet> Session::ExecutePrepared(const std::string& sql_text,
                                           PlannedQuery plan) {
  return ExecuteRecorded(sql_text, [&](telemetry::QueryEvent* ev) {
    Timer timer;
    if (ev != nullptr) ev->start_unix_nanos = NowUnixNanos();
    return RunPlanned(plan, ev, nullptr, nullptr, timer);
  });
}

Result<ResultSet> Session::ExecutePreparedWithRows(const std::string& sql_text,
                                                   PlannedQuery plan,
                                                   std::vector<uint64_t> rows,
                                                   QueryProfile pre_profile) {
  return ExecuteRecorded(sql_text, [&](telemetry::QueryEvent* ev) {
    Timer timer;
    if (ev != nullptr) ev->start_unix_nanos = NowUnixNanos();
    return RunPlanned(plan, ev, &rows, &pre_profile, timer);
  });
}

Result<ResultSet> Session::ExecuteRecorded(
    const std::string& sql_text,
    const std::function<Result<ResultSet>(telemetry::QueryEvent*)>& body) {
  telemetry::FlightRecorder& recorder = telemetry::FlightRecorder::Global();
  if (!options_.record_flight || !recorder.enabled()) {
    return body(nullptr);
  }
  Timer recording_timer;  // everything the recorder adds around the query
  telemetry::QueryEvent ev;
  ev.query = sql_text;
  ev.client = client_tag_;
  const CounterSnapshot before = SnapshotCounters();
  Timer timer;
  Result<ResultSet> result = body(&ev);
  ev.wall_nanos = timer.ElapsedNanos();
  FillCounterDeltas(before, SnapshotCounters(), &ev);
  FillHeat(&ev);
  ev.ok = result.ok();
  if (result.ok()) {
    ev.rows_out = result->num_rows();
    if (ev.digest_valid) ev.result_digest = ResultSetDigest(*result);
  } else {
    ev.error = result.status().ToString();
    ev.digest_valid = false;
  }
  Status appended = recorder.Append(ev);
  if (!appended.ok()) {
    // Log once per process: a broken flight log degrades observability,
    // never query service.
    static bool warned = false;
    if (!warned) {
      warned = true;
      GEOCOL_LOG(Warning).With("error", appended.ToString())
          << "flight recorder append failed; recording degraded";
    }
  }
  // The recorder's self-measured tax: counter snapshots, heat drain,
  // result digest, serialize + append — everything this wrapper added
  // beyond the query itself (FillFromProfile adds its share from inside
  // ExecuteInternal). `geocol metrics` exposes it, and bench_telemetry
  // E17 divides it by statements recorded to prove the <2% overhead bar.
  GEOCOL_METRIC_COUNTER(flight_overhead_nanos,
                        "geocol_flight_overhead_nanos_total");
  flight_overhead_nanos.Increment(
      static_cast<uint64_t>(recording_timer.ElapsedNanos() - ev.wall_nanos));
  return result;
}

Result<ResultSet> Session::ExecuteInternal(const std::string& sql_text,
                                           telemetry::QueryEvent* ev) {
  Timer timer;
  if (ev != nullptr) ev->start_unix_nanos = NowUnixNanos();
  GEOCOL_ASSIGN_OR_RETURN(SelectStmt stmt, Parse(sql_text));
  GEOCOL_ASSIGN_OR_RETURN(PlannedQuery plan, PlanQuery(catalog_, std::move(stmt)));
  return RunPlanned(plan, ev, nullptr, nullptr, timer);
}

Result<ResultSet> Session::RunPlanned(PlannedQuery& plan,
                                      telemetry::QueryEvent* ev,
                                      std::vector<uint64_t>* batched_rows,
                                      QueryProfile* batched_profile,
                                      const Timer& timer) {
  last_plan_ = plan.Describe();
  if (ev != nullptr) {
    ev->table = plan.stmt.table;
    // EXPLAIN ANALYZE embeds measured timings in its result rows, so its
    // digest can never replay bit-for-bit; everything else can.
    ev->digest_valid = !plan.stmt.analyze;
    // A sharded view is identified by its layout generation, a one-shard
    // view by its columns' epochs.
    if (plan.view != nullptr && plan.view->routed) {
      ev->sharded = true;
      ev->generation = plan.view->generation;
      ev->shards_total = plan.view->shards.size();
    } else if (plan.view != nullptr) {
      for (const auto& column : plan.view->shards[0]->table().columns()) {
        ev->column_epochs.push_back(column->epoch());
      }
    }
  }
  GEOCOL_ASSIGN_OR_RETURN(
      ResultSet rs,
      batched_rows != nullptr
          ? ExecutePointCloudWithRows(plan, std::move(*batched_rows),
                                      std::move(*batched_profile))
          : ExecuteQuery(plan));
  last_profile_ = rs.profile;
  GEOCOL_METRIC_HISTOGRAM(h_wall, "geocol_sql_wall_nanos");
  h_wall.Observe(timer.ElapsedNanos());
  if (ev != nullptr) {
    Timer fill_timer;
    FillFromProfile(last_profile_, ev);
    GEOCOL_METRIC_COUNTER(flight_overhead_nanos,
                          "geocol_flight_overhead_nanos_total");
    flight_overhead_nanos.Increment(
        static_cast<uint64_t>(fill_timer.ElapsedNanos()));
  }
  return rs;
}

}  // namespace sql
}  // namespace geocol
