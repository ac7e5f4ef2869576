#include "telemetry/trace.h"

#include <cinttypes>
#include <cstdio>
#include <ctime>

#include "telemetry/metrics.h"

namespace geocol {
namespace telemetry {

namespace {

/// One trace_event object for span `op` (no trailing separator).
void AppendSpanEvent(std::string* out, const OperatorProfile& op,
                     const std::string& label) {
  char buf[128];
  *out += "{\"name\": ";
  AppendJsonString(out, op.name);
  *out += ", \"cat\": \"query\", \"ph\": \"X\"";
  // Chrome expects microsecond ts/dur; keep fractional precision so
  // sub-µs spans stay visible.
  std::snprintf(buf, sizeof(buf), ", \"ts\": %.3f, \"dur\": %.3f",
                op.start_nanos / 1e3, op.nanos / 1e3);
  *out += buf;
  std::snprintf(buf, sizeof(buf), ", \"pid\": 1, \"tid\": %u", op.thread_id);
  *out += buf;
  *out += ", \"args\": {";
  std::snprintf(buf, sizeof(buf),
                "\"rows_in\": %llu, \"rows_out\": %llu, \"workers\": %u",
                static_cast<unsigned long long>(op.rows_in),
                static_cast<unsigned long long>(op.rows_out), op.workers);
  *out += buf;
  if (!op.detail.empty()) {
    *out += ", \"detail\": ";
    AppendJsonString(out, op.detail);
  }
  for (const auto& kv : op.attrs) {
    *out += ", ";
    AppendJsonString(out, kv.first);
    *out += ": ";
    AppendJsonString(out, kv.second);
  }
  if (!label.empty()) {
    *out += ", \"query\": ";
    AppendJsonString(out, label);
  }
  *out += "}}";
}

}  // namespace

std::string ProfileToChromeTrace(const QueryProfile& profile,
                                 const std::string& label,
                                 int64_t start_unix_nanos) {
  std::string out = "{\"traceEvents\": [";
  bool first = true;
  for (const OperatorProfile& op : profile.operators()) {
    if (!first) out += ",";
    first = false;
    out += "\n  ";
    AppendSpanEvent(&out, op, label);
  }
  out += "\n], \"displayTimeUnit\": \"ms\"";
  if (start_unix_nanos > 0) {
    // Span ts stay epoch-rebased; the absolute wall clock rides in
    // otherData so viewers and check_trace.py can anchor the trace.
    char buf[160];
    const time_t secs = static_cast<time_t>(start_unix_nanos / 1000000000);
    struct tm utc;
    gmtime_r(&secs, &utc);
    char iso[40];
    std::strftime(iso, sizeof(iso), "%Y-%m-%dT%H:%M:%S", &utc);
    std::snprintf(buf, sizeof(buf),
                  ", \"otherData\": {\"start_unix_nanos\": %lld, "
                  "\"start_iso8601\": \"%s.%09lldZ\"}",
                  static_cast<long long>(start_unix_nanos), iso,
                  static_cast<long long>(start_unix_nanos % 1000000000));
    out += buf;
  }
  out += "}\n";
  return out;
}

std::string ProfileToJsonl(const QueryProfile& profile,
                           const std::string& label) {
  std::string out;
  for (const OperatorProfile& op : profile.operators()) {
    AppendSpanEvent(&out, op, label);
    out += "\n";
  }
  return out;
}

}  // namespace telemetry
}  // namespace geocol
