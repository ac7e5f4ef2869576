#include "telemetry/recorder.h"

#include <unistd.h>

#include <cinttypes>
#include <cstring>

#include "telemetry/heat.h"
#include "telemetry/metrics.h"
#include "util/binary_io.h"
#include "util/crc32c.h"
#include "util/logging.h"

namespace geocol {
namespace telemetry {

namespace {

constexpr char kMagic[4] = {'G', 'F', 'R', '1'};
constexpr uint32_t kFormatVersion = 1;
constexpr uint64_t kHeaderBytes = sizeof(kMagic) + sizeof(uint32_t);
/// Largest frame payload a reader will accept; anything bigger is treated
/// as a torn/corrupt tail. Events cap their heat lists well below this.
constexpr uint32_t kMaxPayloadBytes = 16u << 20;

/// Length of the valid prefix of `bytes`: the header plus every whole
/// frame whose CRC matches. 0 when even the header is bad.
uint64_t ValidPrefixLength(const std::vector<uint8_t>& bytes) {
  if (bytes.size() < kHeaderBytes) return 0;
  if (std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) return 0;
  uint32_t version = 0;
  std::memcpy(&version, bytes.data() + sizeof(kMagic), sizeof(version));
  if (version != kFormatVersion) return 0;
  uint64_t pos = kHeaderBytes;
  while (pos + 2 * sizeof(uint32_t) <= bytes.size()) {
    uint32_t len = 0, crc = 0;
    std::memcpy(&len, bytes.data() + pos, sizeof(len));
    std::memcpy(&crc, bytes.data() + pos + sizeof(len), sizeof(crc));
    const uint64_t frame_end = pos + 2 * sizeof(uint32_t) + len;
    if (len > kMaxPayloadBytes || frame_end > bytes.size()) break;
    if (Crc32c(bytes.data() + pos + 2 * sizeof(uint32_t), len) != crc) break;
    pos = frame_end;
  }
  return pos;
}

}  // namespace

std::vector<uint8_t> SerializeEvent(const QueryEvent& ev) {
  BufferWriter w;
  w.WriteScalar<uint32_t>(QueryEvent::kVersion);
  w.WriteScalar<int64_t>(ev.start_unix_nanos);
  w.WriteScalar<int64_t>(ev.wall_nanos);
  w.WriteString(ev.query);
  w.WriteString(ev.table);
  w.WriteScalar<uint64_t>(ev.generation);
  w.WriteScalar<uint8_t>(ev.sharded ? 1 : 0);
  w.WriteScalar<uint32_t>(static_cast<uint32_t>(ev.column_epochs.size()));
  w.WriteVector(ev.column_epochs);
  w.WriteScalar<uint64_t>(ev.shards_total);
  w.WriteScalar<uint64_t>(ev.shards_scanned);
  w.WriteScalar<uint64_t>(ev.shards_pruned);
  w.WriteScalar<uint64_t>(ev.shards_covered);
  for (int t = 0; t < 3; ++t) w.WriteScalar<uint64_t>(ev.cache_hits[t]);
  for (int t = 0; t < 3; ++t) w.WriteScalar<uint64_t>(ev.cache_misses[t]);
  w.WriteScalar<uint64_t>(ev.chunk_faults);
  w.WriteScalar<uint64_t>(ev.chunk_cache_hits);
  w.WriteScalar<uint64_t>(ev.io_read_bytes);
  w.WriteScalar<uint64_t>(ev.imprint_scans);
  w.WriteScalar<uint64_t>(ev.imprint_cachelines_probed);
  w.WriteScalar<uint64_t>(ev.imprint_cachelines_full);
  w.WriteScalar<uint64_t>(ev.imprint_values_checked);
  w.WriteScalar<uint64_t>(ev.rows_out);
  w.WriteScalar<uint8_t>(ev.ok ? 1 : 0);
  w.WriteString(ev.error);
  w.WriteScalar<uint8_t>(ev.digest_valid ? 1 : 0);
  w.WriteScalar<uint32_t>(ev.result_digest);
  w.WriteScalar<uint32_t>(static_cast<uint32_t>(ev.span_nanos.size()));
  for (const auto& kv : ev.span_nanos) {
    w.WriteString(kv.first);
    w.WriteScalar<int64_t>(kv.second);
  }
  w.WriteScalar<int64_t>(ev.critical_path_nanos);
  w.WriteScalar<uint32_t>(static_cast<uint32_t>(ev.shard_heat.size()));
  for (const auto& t : ev.shard_heat) {
    w.WriteScalar<uint32_t>(t.shard);
    w.WriteScalar<uint64_t>(t.scans);
    w.WriteScalar<uint64_t>(t.covered);
    w.WriteScalar<uint64_t>(t.rows);
  }
  w.WriteScalar<uint32_t>(static_cast<uint32_t>(ev.chunk_heat.size()));
  for (const auto& t : ev.chunk_heat) {
    w.WriteString(t.file);
    w.WriteScalar<uint32_t>(t.chunk);
    w.WriteScalar<uint64_t>(t.touches);
    w.WriteScalar<uint64_t>(t.faults);
  }
  w.WriteString(ev.client);  // v2 tail field
  return w.Take();
}

Result<QueryEvent> DeserializeEvent(const std::vector<uint8_t>& payload) {
  BufferReader r(payload);
  QueryEvent ev;
  uint32_t version = 0;
  GEOCOL_RETURN_NOT_OK(r.ReadScalar(&version));
  if (version < 1 || version > QueryEvent::kVersion) {
    return Status::Corruption("flight event version " +
                              std::to_string(version) + " unsupported");
  }
  GEOCOL_RETURN_NOT_OK(r.ReadScalar(&ev.start_unix_nanos));
  GEOCOL_RETURN_NOT_OK(r.ReadScalar(&ev.wall_nanos));
  GEOCOL_RETURN_NOT_OK(r.ReadString(&ev.query));
  GEOCOL_RETURN_NOT_OK(r.ReadString(&ev.table));
  GEOCOL_RETURN_NOT_OK(r.ReadScalar(&ev.generation));
  uint8_t flag = 0;
  GEOCOL_RETURN_NOT_OK(r.ReadScalar(&flag));
  ev.sharded = flag != 0;
  uint32_t n = 0;
  GEOCOL_RETURN_NOT_OK(r.ReadScalar(&n));
  GEOCOL_RETURN_NOT_OK(r.ReadVector(&ev.column_epochs, n));
  GEOCOL_RETURN_NOT_OK(r.ReadScalar(&ev.shards_total));
  GEOCOL_RETURN_NOT_OK(r.ReadScalar(&ev.shards_scanned));
  GEOCOL_RETURN_NOT_OK(r.ReadScalar(&ev.shards_pruned));
  GEOCOL_RETURN_NOT_OK(r.ReadScalar(&ev.shards_covered));
  for (int t = 0; t < 3; ++t) {
    GEOCOL_RETURN_NOT_OK(r.ReadScalar(&ev.cache_hits[t]));
  }
  for (int t = 0; t < 3; ++t) {
    GEOCOL_RETURN_NOT_OK(r.ReadScalar(&ev.cache_misses[t]));
  }
  GEOCOL_RETURN_NOT_OK(r.ReadScalar(&ev.chunk_faults));
  GEOCOL_RETURN_NOT_OK(r.ReadScalar(&ev.chunk_cache_hits));
  GEOCOL_RETURN_NOT_OK(r.ReadScalar(&ev.io_read_bytes));
  GEOCOL_RETURN_NOT_OK(r.ReadScalar(&ev.imprint_scans));
  GEOCOL_RETURN_NOT_OK(r.ReadScalar(&ev.imprint_cachelines_probed));
  GEOCOL_RETURN_NOT_OK(r.ReadScalar(&ev.imprint_cachelines_full));
  GEOCOL_RETURN_NOT_OK(r.ReadScalar(&ev.imprint_values_checked));
  GEOCOL_RETURN_NOT_OK(r.ReadScalar(&ev.rows_out));
  GEOCOL_RETURN_NOT_OK(r.ReadScalar(&flag));
  ev.ok = flag != 0;
  GEOCOL_RETURN_NOT_OK(r.ReadString(&ev.error));
  GEOCOL_RETURN_NOT_OK(r.ReadScalar(&flag));
  ev.digest_valid = flag != 0;
  GEOCOL_RETURN_NOT_OK(r.ReadScalar(&ev.result_digest));
  GEOCOL_RETURN_NOT_OK(r.ReadScalar(&n));
  ev.span_nanos.reserve(std::min<uint32_t>(n, 1024));
  for (uint32_t i = 0; i < n; ++i) {
    std::string name;
    int64_t nanos = 0;
    GEOCOL_RETURN_NOT_OK(r.ReadString(&name));
    GEOCOL_RETURN_NOT_OK(r.ReadScalar(&nanos));
    ev.span_nanos.emplace_back(std::move(name), nanos);
  }
  GEOCOL_RETURN_NOT_OK(r.ReadScalar(&ev.critical_path_nanos));
  GEOCOL_RETURN_NOT_OK(r.ReadScalar(&n));
  ev.shard_heat.reserve(std::min<uint32_t>(n, 4096));
  for (uint32_t i = 0; i < n; ++i) {
    QueryEvent::ShardTouch t;
    GEOCOL_RETURN_NOT_OK(r.ReadScalar(&t.shard));
    GEOCOL_RETURN_NOT_OK(r.ReadScalar(&t.scans));
    GEOCOL_RETURN_NOT_OK(r.ReadScalar(&t.covered));
    GEOCOL_RETURN_NOT_OK(r.ReadScalar(&t.rows));
    ev.shard_heat.push_back(std::move(t));
  }
  GEOCOL_RETURN_NOT_OK(r.ReadScalar(&n));
  ev.chunk_heat.reserve(std::min<uint32_t>(n, 4096));
  for (uint32_t i = 0; i < n; ++i) {
    QueryEvent::ChunkTouch t;
    GEOCOL_RETURN_NOT_OK(r.ReadString(&t.file));
    GEOCOL_RETURN_NOT_OK(r.ReadScalar(&t.chunk));
    GEOCOL_RETURN_NOT_OK(r.ReadScalar(&t.touches));
    GEOCOL_RETURN_NOT_OK(r.ReadScalar(&t.faults));
    ev.chunk_heat.push_back(std::move(t));
  }
  if (version >= 2) {
    GEOCOL_RETURN_NOT_OK(r.ReadString(&ev.client));
  }
  if (r.remaining() != 0) {
    return Status::Corruption("flight event has " +
                              std::to_string(r.remaining()) +
                              " trailing bytes");
  }
  return ev;
}

std::string EventToJson(const QueryEvent& ev) {
  std::string out = "{\"type\": \"query_event\"";
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                ", \"start_unix_nanos\": %" PRId64 ", \"wall_nanos\": %" PRId64,
                ev.start_unix_nanos, ev.wall_nanos);
  out += buf;
  out += ", \"query\": ";
  AppendJsonString(&out, ev.query);
  out += ", \"table\": ";
  AppendJsonString(&out, ev.table);
  if (!ev.client.empty()) {
    out += ", \"client\": ";
    AppendJsonString(&out, ev.client);
  }
  std::snprintf(buf, sizeof(buf),
                ", \"generation\": %" PRIu64 ", \"sharded\": %s",
                ev.generation, ev.sharded ? "true" : "false");
  out += buf;
  std::snprintf(buf, sizeof(buf),
                ", \"shards\": {\"total\": %" PRIu64 ", \"scanned\": %" PRIu64
                ", \"pruned\": %" PRIu64 ", \"covered\": %" PRIu64 "}",
                ev.shards_total, ev.shards_scanned, ev.shards_pruned,
                ev.shards_covered);
  out += buf;
  static const char* kTiers[3] = {"selection", "grid", "aggregate"};
  out += ", \"cache\": {";
  for (int t = 0; t < 3; ++t) {
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"hits\": %" PRIu64 ", \"misses\": %" PRIu64 "}",
                  t == 0 ? "" : ", ", kTiers[t], ev.cache_hits[t],
                  ev.cache_misses[t]);
    out += buf;
  }
  out += "}";
  std::snprintf(buf, sizeof(buf),
                ", \"chunk_faults\": %" PRIu64 ", \"chunk_cache_hits\": %" PRIu64
                ", \"io_read_bytes\": %" PRIu64,
                ev.chunk_faults, ev.chunk_cache_hits, ev.io_read_bytes);
  out += buf;
  std::snprintf(buf, sizeof(buf),
                ", \"imprints\": {\"scans\": %" PRIu64 ", \"cachelines_probed\": "
                "%" PRIu64 ", \"cachelines_full\": %" PRIu64
                ", \"values_checked\": %" PRIu64 "}",
                ev.imprint_scans, ev.imprint_cachelines_probed,
                ev.imprint_cachelines_full, ev.imprint_values_checked);
  out += buf;
  std::snprintf(buf, sizeof(buf), ", \"rows_out\": %" PRIu64 ", \"ok\": %s",
                ev.rows_out, ev.ok ? "true" : "false");
  out += buf;
  if (!ev.error.empty()) {
    out += ", \"error\": ";
    AppendJsonString(&out, ev.error);
  }
  std::snprintf(buf, sizeof(buf),
                ", \"digest_valid\": %s, \"result_digest\": %" PRIu32,
                ev.digest_valid ? "true" : "false", ev.result_digest);
  out += buf;
  std::snprintf(buf, sizeof(buf), ", \"critical_path_nanos\": %" PRId64,
                ev.critical_path_nanos);
  out += buf;
  out += ", \"spans\": {";
  for (size_t i = 0; i < ev.span_nanos.size(); ++i) {
    if (i) out += ", ";
    AppendJsonString(&out, ev.span_nanos[i].first);
    std::snprintf(buf, sizeof(buf), ": %" PRId64, ev.span_nanos[i].second);
    out += buf;
  }
  out += "}, \"shard_heat\": [";
  for (size_t i = 0; i < ev.shard_heat.size(); ++i) {
    const auto& t = ev.shard_heat[i];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"shard\": %" PRIu32 ", \"scans\": %" PRIu64
                  ", \"covered\": %" PRIu64 ", \"rows\": %" PRIu64 "}",
                  i == 0 ? "" : ", ", t.shard, t.scans, t.covered, t.rows);
    out += buf;
  }
  out += "], \"chunk_heat\": [";
  for (size_t i = 0; i < ev.chunk_heat.size(); ++i) {
    const auto& t = ev.chunk_heat[i];
    out += i == 0 ? "{\"file\": " : ", {\"file\": ";
    AppendJsonString(&out, t.file);
    std::snprintf(buf, sizeof(buf),
                  ", \"chunk\": %" PRIu32 ", \"touches\": %" PRIu64
                  ", \"faults\": %" PRIu64 "}",
                  t.chunk, t.touches, t.faults);
    out += buf;
  }
  out += "]}";
  return out;
}

FlightRecorder& FlightRecorder::Global() {
  static FlightRecorder* recorder = new FlightRecorder();  // never destroyed
  return *recorder;
}

Result<uint64_t> TruncateToValidPrefix(const std::string& path) {
  std::vector<uint8_t> bytes;
  GEOCOL_RETURN_NOT_OK(ReadFileBytes(path, &bytes));
  const uint64_t valid = ValidPrefixLength(bytes);
  if (valid < bytes.size()) {
    if (::truncate(path.c_str(), static_cast<off_t>(valid)) != 0) {
      return Status::IOError("truncate " + path + " failed");
    }
  }
  return valid;
}

Status FlightRecorder::OpenLocked(const std::string& path) {
  uint64_t size = 0;
  if (PathExists(path)) {
    GEOCOL_ASSIGN_OR_RETURN(size, TruncateToValidPrefix(path));
  }
  // A missing, empty or header-corrupt (truncated-to-zero) file gets a
  // fresh header before append mode.
  if (size < kHeaderBytes) {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (f == nullptr) {
      return Status::IOError("flight recorder: cannot create " + path);
    }
    bool ok = std::fwrite(kMagic, 1, sizeof(kMagic), f) == sizeof(kMagic);
    ok = ok && std::fwrite(&kFormatVersion, 1, sizeof(kFormatVersion), f) ==
                   sizeof(kFormatVersion);
    ok = std::fclose(f) == 0 && ok;
    if (!ok) return Status::IOError("flight recorder: header write failed");
    size = kHeaderBytes;
  }
  file_ = std::fopen(path.c_str(), "ab");
  if (file_ == nullptr) {
    return Status::IOError("flight recorder: cannot append to " + path);
  }
  path_ = path;
  size_bytes_ = size;
  return Status::OK();
}

Status FlightRecorder::Open(const std::string& path, Options options) {
  std::lock_guard<std::mutex> lock(mu_);
  if (file_ != nullptr && path == path_) {
    options_ = options;
    return Status::OK();
  }
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
  options_ = options;
  GEOCOL_RETURN_NOT_OK(OpenLocked(path));
  // Heat accumulated before recording started belongs to no event.
  ResetHeat();
  return Status::OK();
}

void FlightRecorder::Close() {
  std::lock_guard<std::mutex> lock(mu_);
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
  path_.clear();
  size_bytes_ = 0;
}

bool FlightRecorder::enabled() const {
  std::lock_guard<std::mutex> lock(mu_);
  return file_ != nullptr;
}

std::string FlightRecorder::path() const {
  std::lock_guard<std::mutex> lock(mu_);
  return path_;
}

Status FlightRecorder::RotateLocked() {
  GEOCOL_METRIC_COUNTER(c_rotations, "geocol_flight_rotations_total");
  std::fclose(file_);
  file_ = nullptr;
  // rename(2) replaces a previous rotation atomically; retained history
  // is therefore bounded at ~2x max_bytes.
  GEOCOL_RETURN_NOT_OK(RenameFile(path_, path_ + ".1"));
  c_rotations.Increment();
  return OpenLocked(path_);
}

Status FlightRecorder::Append(const QueryEvent& ev) {
  GEOCOL_METRIC_COUNTER(c_events, "geocol_flight_events_total");
  GEOCOL_METRIC_COUNTER(c_bytes, "geocol_flight_bytes_total");
  GEOCOL_METRIC_COUNTER(c_errors, "geocol_flight_append_errors_total");
  std::vector<uint8_t> payload = SerializeEvent(ev);
  const uint32_t len = static_cast<uint32_t>(payload.size());
  const uint32_t crc = Crc32c(payload.data(), payload.size());

  std::lock_guard<std::mutex> lock(mu_);
  if (file_ == nullptr) {
    return Status::InvalidArgument("flight recorder is not open");
  }
  const uint64_t frame_bytes = 2 * sizeof(uint32_t) + payload.size();
  if (size_bytes_ > kHeaderBytes &&
      size_bytes_ + frame_bytes > options_.max_bytes) {
    Status rotated = RotateLocked();
    if (!rotated.ok()) {
      c_errors.Increment();
      return rotated;
    }
  }
  bool ok = std::fwrite(&len, 1, sizeof(len), file_) == sizeof(len);
  ok = ok && std::fwrite(&crc, 1, sizeof(crc), file_) == sizeof(crc);
  ok = ok && std::fwrite(payload.data(), 1, payload.size(), file_) ==
                 payload.size();
  // No per-frame flush (it would cost a write syscall per statement —
  // measured over the E17 bar): the stream flushes at libc buffer
  // granularity, on Close and at process exit, so a crash loses at most
  // the buffered tail and the torn-tail scan on reopen drops any partial
  // frame cleanly. No fsync — the flight log is diagnostics, not a
  // durability contract.
  if (!ok) {
    c_errors.Increment();
    return Status::IOError("flight recorder: append to " + path_ + " failed");
  }
  size_bytes_ += frame_bytes;
  c_events.Increment();
  c_bytes.Increment(frame_bytes);
  return Status::OK();
}

Result<std::vector<QueryEvent>> ReadFlightLog(const std::string& path) {
  std::vector<uint8_t> bytes;
  GEOCOL_RETURN_NOT_OK(ReadFileBytes(path, &bytes));
  const uint64_t valid = ValidPrefixLength(bytes);
  std::vector<QueryEvent> events;
  uint64_t pos = kHeaderBytes;
  while (pos + 2 * sizeof(uint32_t) <= valid) {
    uint32_t len = 0;
    std::memcpy(&len, bytes.data() + pos, sizeof(len));
    std::vector<uint8_t> payload(
        bytes.begin() + static_cast<ptrdiff_t>(pos + 2 * sizeof(uint32_t)),
        bytes.begin() +
            static_cast<ptrdiff_t>(pos + 2 * sizeof(uint32_t) + len));
    // The CRC already passed in ValidPrefixLength; a frame that still
    // fails to parse is a format bug, surfaced rather than skipped.
    GEOCOL_ASSIGN_OR_RETURN(QueryEvent ev, DeserializeEvent(payload));
    events.push_back(std::move(ev));
    pos += 2 * sizeof(uint32_t) + len;
  }
  return events;
}

Result<std::vector<QueryEvent>> ReadFlightLogWithRotation(
    const std::string& path) {
  std::vector<QueryEvent> events;
  if (PathExists(path + ".1")) {
    GEOCOL_ASSIGN_OR_RETURN(events, ReadFlightLog(path + ".1"));
  }
  if (PathExists(path)) {
    GEOCOL_ASSIGN_OR_RETURN(std::vector<QueryEvent> tail,
                            ReadFlightLog(path));
    for (auto& ev : tail) events.push_back(std::move(ev));
  }
  return events;
}

}  // namespace telemetry
}  // namespace geocol
