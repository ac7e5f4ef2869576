// The user-facing SQL entry point: parse -> plan -> execute, keeping the
// last query's plan and per-operator profile available — the demo's
// interactive front end in library form.
#ifndef GEOCOL_SQL_SESSION_H_
#define GEOCOL_SQL_SESSION_H_

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "sql/executor.h"
#include "util/timer.h"

namespace geocol {
namespace telemetry {
struct QueryEvent;
}  // namespace telemetry

namespace sql {

/// Per-session settings. A table's result cache is bound once, by the
/// EngineOptions it is registered with (DESIGN.md §11); slow statements
/// are a `geocol top` view over the flight recorder (DESIGN.md §15).
struct SessionOptions {
  /// Append a structured event per statement to the process-wide flight
  /// recorder when it is open (telemetry/recorder.h). Off only for
  /// sessions that must not observe themselves — `geocol replay` replays
  /// a log without appending to it.
  bool record_flight = true;
};

/// A lightweight SQL session over a catalog (not thread safe; create one
/// per thread).
class Session {
 public:
  explicit Session(Catalog* catalog, SessionOptions options = {})
      : catalog_(catalog), options_(options) {}

  /// Parses, plans and executes `sql_text`.
  Result<ResultSet> Execute(const std::string& sql_text);

  /// Executes an already-planned statement (the server plans at admission
  /// time so a live-table epoch is pinned per statement, then hands the
  /// plan to a worker session). The flight event matches Execute except
  /// that wall time excludes the parse/plan already paid by the caller.
  Result<ResultSet> ExecutePrepared(const std::string& sql_text,
                                    PlannedQuery plan);

  /// Executes a planned point-cloud statement whose selection was already
  /// computed by a shared superset scan (server shared-scan batching):
  /// renders over `rows` via ExecutePointCloudWithRows. `pre_profile`
  /// carries the shared-scan spans into this statement's profile/flight
  /// event. The caller guarantees the plan is batchable (BatchablePlan).
  Result<ResultSet> ExecutePreparedWithRows(const std::string& sql_text,
                                            PlannedQuery plan,
                                            std::vector<uint64_t> rows,
                                            QueryProfile pre_profile);

  /// Tags this session's flight events with a client/connection id
  /// (QueryEvent::client); "" (the default) means a local CLI session.
  void set_client_tag(std::string tag) { client_tag_ = std::move(tag); }
  const std::string& client_tag() const { return client_tag_; }

  /// Plan description of the last executed (or explained) statement.
  const std::string& last_plan() const { return last_plan_; }

  /// Per-operator profile of the last executed statement.
  const QueryProfile& last_profile() const { return last_profile_; }

 private:
  /// Wraps `body` (the parse/plan/execute core, or a prepared variant)
  /// with flight recording: counter-delta sampling, heat drain, digest,
  /// client tag and the recorder append — so error paths are recorded
  /// too. When the recorder is closed or record_flight is off, `body`
  /// runs bare with a null event.
  Result<ResultSet> ExecuteRecorded(
      const std::string& sql_text,
      const std::function<Result<ResultSet>(telemetry::QueryEvent*)>& body);

  /// The parse/plan/execute core. When `ev` is non-null it is filled with
  /// the statement's identity (table, generation, epochs, digest
  /// validity) and profile-derived breakdown as execution proceeds.
  Result<ResultSet> ExecuteInternal(const std::string& sql_text,
                                    telemetry::QueryEvent* ev);

  /// Everything after planning: event identity fill, execution
  /// (ExecuteQuery, or the batched fan-out when `batched_rows` is
  /// non-null), wall histogram and profile mining. `timer` was started by
  /// the caller so wall time covers whatever work preceded planning.
  Result<ResultSet> RunPlanned(PlannedQuery& plan, telemetry::QueryEvent* ev,
                               std::vector<uint64_t>* batched_rows,
                               QueryProfile* batched_profile,
                               const Timer& timer);

  Catalog* catalog_;
  SessionOptions options_;
  std::string client_tag_;
  std::string last_plan_;
  QueryProfile last_profile_;
};

}  // namespace sql
}  // namespace geocol

#endif  // GEOCOL_SQL_SESSION_H_
