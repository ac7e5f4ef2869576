#include "loadgen.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <random>
#include <thread>

#include "server/protocol.h"
#include "sql/executor.h"

namespace geobench {

using geocol::Result;
using geocol::Status;
namespace server = geocol::server;

int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Result<Connection> Connection::Open(int port, const std::string& client_id) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::IOError(std::string("socket: ") + std::strerror(errno));
  Connection conn(fd);  // closes fd on every early return below
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return Status::IOError(std::string("connect: ") + std::strerror(errno));
  }
  server::SetNoDelay(fd);
  std::vector<uint8_t> hello(client_id.begin(), client_id.end());
  GEOCOL_RETURN_NOT_OK(server::WriteFrame(fd, server::FrameType::kHello, hello));
  GEOCOL_ASSIGN_OR_RETURN(server::Frame reply,
                          server::ReadFrame(fd, server::kMaxResponseFrameBytes));
  if (reply.type != server::FrameType::kHelloOk) {
    return Status::Corruption("unexpected reply to HELLO");
  }
  return conn;
}

Connection::~Connection() {
  if (fd_ >= 0) ::close(fd_);
}

Result<Connection::Reply> Connection::Query(const std::string& sql) {
  std::vector<uint8_t> payload(sql.begin(), sql.end());
  GEOCOL_RETURN_NOT_OK(
      server::WriteFrame(fd_, server::FrameType::kQuery, payload));
  GEOCOL_ASSIGN_OR_RETURN(
      server::Frame frame,
      server::ReadFrame(fd_, server::kMaxResponseFrameBytes));
  Reply reply;
  reply.reply_nanos = NowNanos();
  if (frame.type == server::FrameType::kResult) {
    GEOCOL_ASSIGN_OR_RETURN(geocol::sql::ResultSet rs,
                            server::DecodeResultSet(frame.payload));
    reply.decoded_nanos = NowNanos();
    reply.ok = true;
    reply.digest = geocol::sql::ResultSetDigest(rs);
    return reply;
  }
  if (frame.type == server::FrameType::kError) {
    GEOCOL_ASSIGN_OR_RETURN(server::ErrorReply err,
                            server::DecodeError(frame.payload));
    reply.decoded_nanos = NowNanos();
    reply.error = std::string(server::ErrorCodeName(err.code)) + ": " +
                  err.message;
    return reply;
  }
  return Status::Corruption("unexpected reply to QUERY");
}

namespace {

void SleepUntil(int64_t nanos) {
  std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
      std::chrono::nanoseconds(nanos)));
}

/// Open loop: requests due before the end of a phase may still be sent
/// this long after it; later ones count as missed.
constexpr int64_t kDrainNanos = 2'000'000'000;

void NoteError(PhaseResult* r, std::string message) {
  if (r->error_messages.size() < 5) r->error_messages.push_back(std::move(message));
}

/// One connection's share of a phase. Arrivals are a Poisson process at
/// rate/n per connection, so the connections together offer `rate`.
PhaseResult RunConnection(Connection& conn, uint32_t index, size_t n,
                          const StreamFactory& streams,
                          const PhaseOptions& opts, int64_t t0) {
  PhaseResult r;
  std::unique_ptr<StatementStream> stream =
      streams(MixSeed(opts.seed, 3 * index));
  std::mt19937_64 arrivals(MixSeed(opts.seed, 3 * index + 1));
  std::mt19937_64 sampling(MixSeed(opts.seed, 3 * index + 2));
  const bool open = opts.rate_qps > 0;
  std::exponential_distribution<double> gap(open ? opts.rate_qps / n : 1.0);
  const int64_t end = t0 + static_cast<int64_t>(opts.seconds * 1e9);
  const int64_t deadline = end + (open ? kDrainNanos : 0);
  int64_t last_reply = t0;
  uint64_t seq = 0;
  bool alive = true;

  auto issue = [&](const std::string& sql, int64_t due, int64_t send) {
    const uint64_t epoch_lo = opts.epoch ? opts.epoch() : 0;
    Result<Connection::Reply> reply = conn.Query(sql);
    ++r.sent;
    if (!reply.ok()) {
      ++r.transport;
      alive = false;
      NoteError(&r, reply.status().ToString());
      return;
    }
    const uint64_t epoch_hi = opts.epoch ? opts.epoch() : 0;
    last_reply = std::max(last_reply, reply->decoded_nanos);
    if (!reply->ok) {
      ++r.errors;
      NoteError(&r, reply->error + " <- " + sql);
      return;
    }
    ++r.ok;
    r.latency_ms.push_back((reply->decoded_nanos - due) / 1e6);
    if (open) r.late_ms.push_back((send - due) / 1e6);
    if (sampling() % 16 == 0) {
      r.samples.push_back({sql, reply->digest, epoch_lo, epoch_hi});
    }
    if (opts.record_spans) {
      r.spans.push_back({(uint64_t{index} << 32) | seq, index, due, send,
                         reply->reply_nanos, reply->decoded_nanos});
    }
    ++seq;
  };

  if (open) {
    for (int64_t due = t0 + static_cast<int64_t>(gap(arrivals) * 1e9);
         due < end; due += static_cast<int64_t>(gap(arrivals) * 1e9)) {
      if (!alive) {
        ++r.missed;
        continue;
      }
      const std::string sql = stream->Next();
      SleepUntil(due);
      const int64_t send = NowNanos();
      if (send > deadline) {
        ++r.missed;
        continue;
      }
      issue(sql, due, send);
    }
  } else {
    SleepUntil(t0);
    while (alive) {
      const std::string sql = stream->Next();
      const int64_t send = NowNanos();
      if (send >= end) break;
      issue(sql, send, send);
    }
  }
  r.elapsed_s = (last_reply - t0) / 1e9;
  return r;
}

}  // namespace

PhaseResult RunPhase(std::vector<Connection>& conns,
                     const StreamFactory& streams, const PhaseOptions& opts) {
  std::vector<PhaseResult> parts(conns.size());
  // A common start a little ahead, so no connection's first arrivals are
  // late because its thread started after the others.
  const int64_t t0 = NowNanos() + 5'000'000;
  {
    std::vector<std::thread> threads;
    for (size_t c = 0; c < conns.size(); ++c) {
      threads.emplace_back([&, c] {
        parts[c] = RunConnection(conns[c], static_cast<uint32_t>(c),
                                 conns.size(), streams, opts, t0);
      });
    }
    for (std::thread& t : threads) t.join();
  }
  PhaseResult out;
  for (PhaseResult& p : parts) MergeInto(&out, std::move(p));
  return out;
}

void MergeInto(PhaseResult* dst, PhaseResult src) {
  auto append = [](auto& to, auto& from) {
    to.insert(to.end(), std::make_move_iterator(from.begin()),
              std::make_move_iterator(from.end()));
  };
  append(dst->latency_ms, src.latency_ms);
  append(dst->late_ms, src.late_ms);
  append(dst->samples, src.samples);
  append(dst->spans, src.spans);
  for (std::string& m : src.error_messages) NoteError(dst, std::move(m));
  dst->sent += src.sent;
  dst->ok += src.ok;
  dst->errors += src.errors;
  dst->transport += src.transport;
  dst->missed += src.missed;
  dst->elapsed_s = std::max(dst->elapsed_s, src.elapsed_s);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(std::clamp(q, 0.0, 1.0) * values.size());
  const size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(idx, values.size() - 1)];
}

Status WriteChromeTrace(const std::vector<Span>& spans,
                        const std::string& label, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::IOError("cannot write " + path);
  int64_t origin = spans.empty() ? 0 : spans[0].due;
  for (const Span& s : spans) origin = std::min(origin, s.due);
  std::fprintf(f, "{\"traceEvents\": [");
  bool first = true;
  auto event = [&](const char* name, uint64_t id, int64_t parent,
                   uint32_t lane, int64_t begin, int64_t end) {
    std::fprintf(f,
                 "%s\n  {\"name\": \"%s\", \"cat\": \"geobench\", \"ph\": "
                 "\"X\", \"pid\": 1, \"tid\": %u, \"ts\": %.3f, \"dur\": "
                 "%.3f, \"args\": {\"id\": %llu, \"parent\": ",
                 first ? "" : ",", name, lane, (begin - origin) / 1e3,
                 (end - begin) / 1e3, static_cast<unsigned long long>(id));
    if (parent < 0) {
      std::fprintf(f, "null}}");
    } else {
      std::fprintf(f, "%lld}}", static_cast<long long>(parent));
    }
    first = false;
  };
  for (const Span& s : spans) {
    const uint64_t id = s.id * 4;
    event("request", id, -1, s.conn, s.due, s.decoded);
    event("generator.wait", id + 1, static_cast<int64_t>(id), s.conn, s.due,
          s.send);
    event("server.roundtrip", id + 2, static_cast<int64_t>(id), s.conn, s.send,
          s.reply);
    event("client.decode", id + 3, static_cast<int64_t>(id), s.conn, s.reply,
          s.decoded);
  }
  std::fprintf(f, "\n], \"displayTimeUnit\": \"ms\", \"otherData\": "
                  "{\"label\": \"%s\"}}\n",
               label.c_str());
  const bool ok = std::ferror(f) == 0;
  return std::fclose(f) == 0 && ok ? Status::OK()
                                   : Status::IOError("write failed: " + path);
}

}  // namespace geobench
