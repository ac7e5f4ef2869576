// Query tracing: export a QueryProfile span tree as Chrome trace_event
// JSON (load in chrome://tracing or Perfetto) or JSONL. `geocol trace`
// exports the profile of the statement it runs
// (sql::Session::last_profile()).
#ifndef GEOCOL_TELEMETRY_TRACE_H_
#define GEOCOL_TELEMETRY_TRACE_H_

#include <cstdint>
#include <string>

#include "core/profile.h"

namespace geocol {
namespace telemetry {

/// Renders a profile as a Chrome trace_event JSON document: one complete
/// ("ph":"X") event per span, timestamps/durations in microseconds,
/// span attributes and cardinalities under "args". Span timestamps are
/// epoch-rebased (relative to the profile's start); when
/// `start_unix_nanos` is nonzero the document's "otherData" carries the
/// query's wall-clock start (unix ns + ISO-8601 UTC) so a trace can be
/// correlated with logs and flight-recorder events.
std::string ProfileToChromeTrace(const QueryProfile& profile,
                                 const std::string& label,
                                 int64_t start_unix_nanos = 0);

/// One JSON object per line, one line per span (log-pipeline friendly).
std::string ProfileToJsonl(const QueryProfile& profile,
                           const std::string& label);

}  // namespace telemetry
}  // namespace geocol

#endif  // GEOCOL_TELEMETRY_TRACE_H_
