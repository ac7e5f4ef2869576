#include "server/server.h"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <utility>

#include "server/batch.h"
#include "server/protocol.h"
#include "sql/parser.h"
#include "telemetry/metrics.h"
#include "util/logging.h"

namespace geocol {
namespace server {

namespace {

int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// StatusCode a client-side Status carries for each server-side refusal
/// (kQueryFailed carries the execution status's own code instead).
StatusCode RefusalStatusCode(ErrorCode code) {
  switch (code) {
    case ErrorCode::kTooLarge: return StatusCode::kOutOfRange;
    case ErrorCode::kMalformed: return StatusCode::kInvalidArgument;
    default: return StatusCode::kInternal;
  }
}

/// Best-effort typed error reply; the connection may already be gone.
void SendError(int fd, ErrorCode code, std::string message) {
  ErrorReply reply;
  reply.code = code;
  reply.status_code = RefusalStatusCode(code);
  reply.message = std::move(message);
  WriteFrame(fd, FrameType::kError, EncodeError(reply)).ok();
}

}  // namespace

struct Server::Counters {
  std::atomic<uint64_t> connections_total{0};
  std::atomic<uint64_t> queries_ok{0};
  std::atomic<uint64_t> queries_error{0};
  std::atomic<uint64_t> shed_busy{0};
  std::atomic<uint64_t> shed_rate_limited{0};
  std::atomic<uint64_t> plan_errors{0};
  std::atomic<uint64_t> malformed{0};
  std::atomic<uint64_t> oversized{0};
  std::atomic<uint64_t> batches{0};
  std::atomic<uint64_t> batch_members{0};
  std::atomic<uint64_t> batch_fallbacks{0};
};

Server::Server(Catalog* catalog, ServerOptions options)
    : catalog_(catalog), options_(std::move(options)) {}

Server::~Server() { Stop(); }

Status Server::Start() {
  if (running_.load(std::memory_order_acquire)) {
    return Status::InvalidArgument("server is already running");
  }

  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IOError(std::string("socket: ") + std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("bad listen address: " + options_.host);
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Status st =
        Status::IOError("bind " + options_.host + ":" +
                        std::to_string(options_.port) + ": " +
                        std::strerror(errno));
    ::close(fd);
    return st;
  }
  if (::listen(fd, 128) != 0) {
    Status st = Status::IOError(std::string("listen: ") +
                                std::strerror(errno));
    ::close(fd);
    return st;
  }
  socklen_t addr_len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &addr_len) != 0) {
    ::close(fd);
    return Status::IOError(std::string("getsockname: ") +
                           std::strerror(errno));
  }

  listen_fd_ = fd;
  port_ = ntohs(addr.sin_port);
  queue_ = std::make_unique<AdmissionQueue>(options_.queue_capacity);
  limiter_ = std::make_unique<TokenBucketLimiter>(
      options_.rate_limit_qps, options_.rate_limit_burst,
      options_.rate_limit_max_clients);
  counters_ = std::make_unique<Counters>();
  // Rebinding an engine's cache budget races in-flight queries; worker
  // sessions must never do it mid-serve.
  options_.session.cache_budget_bytes = -1;

  stopping_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  worker_threads_.reserve(static_cast<size_t>(options_.workers));
  for (int i = 0; i < options_.workers; ++i) {
    worker_threads_.emplace_back([this] { WorkerLoop(); });
  }
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void Server::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  stopping_.store(true, std::memory_order_release);

  // 1. Stop accepting (shutdown unblocks the blocked accept; the fd is
  //    closed only after the accept thread is gone).
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;

  // 2. Drain the workers: a closed queue still pops every admitted task,
  //    so each one completes and its connection thread writes the
  //    response. No accepted work is dropped.
  queue_->Close();
  for (std::thread& t : worker_threads_) t.join();
  worker_threads_.clear();

  // 3. Unblock connection threads parked in recv and join them. SHUT_RD
  //    (not RDWR) so a thread that just finished Wait()-ing on a drained
  //    task can still write its response — reads return EOF, pending
  //    replies flow. Threads close their own fd on exit (under conn_mu_,
  //    entry set to -1), so only still-live fds are shut down here — no
  //    reused-fd races.
  std::vector<std::thread> conns;
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    for (int fd : conn_fds_) {
      if (fd >= 0) ::shutdown(fd, SHUT_RD);
    }
    conns.swap(conn_threads_);
  }
  // Slots the accept loop already reaped are moved-out here; skip them.
  for (std::thread& t : conns) {
    if (t.joinable()) t.join();
  }
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    conn_fds_.clear();
    finished_conns_.clear();
    free_conn_slots_.clear();
  }
  port_ = 0;
}

ServerStats Server::stats() const {
  ServerStats s;
  if (counters_ == nullptr) return s;
  s.connections_total = counters_->connections_total.load();
  s.queries_ok = counters_->queries_ok.load();
  s.queries_error = counters_->queries_error.load();
  s.shed_busy = counters_->shed_busy.load();
  s.shed_rate_limited = counters_->shed_rate_limited.load();
  s.plan_errors = counters_->plan_errors.load();
  s.malformed = counters_->malformed.load();
  s.oversized = counters_->oversized.load();
  s.batches = counters_->batches.load();
  s.batch_members = counters_->batch_members.load();
  s.batch_fallbacks = counters_->batch_fallbacks.load();
  if (queue_ != nullptr) {
    s.queue_depth = queue_->depth();
    s.queue_max_depth = queue_->max_depth();
  }
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    s.conn_slots = conn_threads_.size() - free_conn_slots_.size();
  }
  return s;
}

void Server::AcceptLoop() {
  GEOCOL_METRIC_COUNTER(c_connections, "geocol_server_connections_total");
  for (;;) {
    ReapFinishedConns();
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      if (stopping_.load(std::memory_order_acquire)) break;
      // Transient failures (fd exhaustion, kernel buffer pressure, a
      // connection that aborted while queued) must not kill the
      // listener: back off a beat and keep accepting.
      if (errno == ECONNABORTED || errno == EMFILE || errno == ENFILE ||
          errno == ENOBUFS || errno == ENOMEM) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        continue;
      }
      break;  // listener shut down or unrecoverable
    }
    SetNoDelay(fd);
    if (stopping_.load(std::memory_order_acquire)) {
      ::close(fd);
      break;
    }
    counters_->connections_total.fetch_add(1, std::memory_order_relaxed);
    c_connections.Increment();
    std::lock_guard<std::mutex> lock(conn_mu_);
    uint64_t index;
    if (!free_conn_slots_.empty()) {
      index = free_conn_slots_.back();
      free_conn_slots_.pop_back();
      conn_fds_[index] = fd;
      conn_threads_[index] =
          std::thread([this, fd, index] { ConnectionLoop(fd, index); });
    } else {
      index = conn_fds_.size();
      conn_fds_.push_back(fd);
      conn_threads_.emplace_back(
          [this, fd, index] { ConnectionLoop(fd, index); });
    }
  }
}

void Server::ReapFinishedConns() {
  std::vector<std::thread> done;
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    if (finished_conns_.empty()) return;
    for (uint64_t index : finished_conns_) {
      done.push_back(std::move(conn_threads_[index]));
      free_conn_slots_.push_back(index);
    }
    finished_conns_.clear();
  }
  // Joining outside conn_mu_: an exiting thread only touches the lists
  // under the lock before its last instruction, so this never deadlocks.
  for (std::thread& t : done) {
    if (t.joinable()) t.join();
  }
}

void Server::ConnectionLoop(int fd, uint64_t conn_index) {
  std::string client_id = "conn-" + std::to_string(conn_index);
  // The rate-limit key binds on the first HELLO only: a client that
  // could re-HELLO a fresh id before each query would start every query
  // with a full token bucket.
  bool client_id_bound = false;
  for (;;) {
    Result<Frame> frame = ReadFrame(fd, options_.max_request_bytes);
    if (!frame.ok()) {
      const StatusCode code = frame.status().code();
      if (code == StatusCode::kOutOfRange) {
        // The stream is unrecoverable past an unread oversized payload:
        // answer with the typed error, then hang up.
        counters_->oversized.fetch_add(1, std::memory_order_relaxed);
        SendError(fd, ErrorCode::kTooLarge, frame.status().message());
      } else if (code == StatusCode::kCorruption) {
        counters_->malformed.fetch_add(1, std::memory_order_relaxed);
        SendError(fd, ErrorCode::kMalformed, frame.status().message());
      }
      break;  // kNotFound = clean close; IOError = broken pipe
    }
    switch (frame->type) {
      case FrameType::kHello: {
        if (!client_id_bound && !frame->payload.empty()) {
          client_id.assign(frame->payload.begin(), frame->payload.end());
        }
        client_id_bound = true;
        if (!WriteFrame(fd, FrameType::kHelloOk, {}).ok()) goto done;
        break;
      }
      case FrameType::kPing: {
        if (!WriteFrame(fd, FrameType::kPong, {}).ok()) goto done;
        break;
      }
      case FrameType::kQuery: {
        GEOCOL_METRIC_COUNTER(c_queries, "geocol_server_queries_total");
        GEOCOL_METRIC_COUNTER(c_shed, "geocol_server_shed_total");
        c_queries.Increment();
        const std::string sql(frame->payload.begin(), frame->payload.end());
        if (stopping_.load(std::memory_order_acquire)) {
          SendError(fd, ErrorCode::kShuttingDown, "server is shutting down");
          break;
        }
        if (!limiter_->Allow(client_id, NowNanos())) {
          counters_->shed_rate_limited.fetch_add(1,
                                                 std::memory_order_relaxed);
          c_shed.Increment();
          SendError(fd, ErrorCode::kRateLimited,
                    "rate limit exceeded for client " + client_id);
          break;
        }
        // Parse and plan at admission: a live table's epoch is pinned
        // HERE, so the statement sees one consistent snapshot no matter
        // how long it queues or which worker runs it.
        TaskPtr task = std::make_shared<QueryTask>();
        task->client_id = client_id;
        task->sql = sql;
        {
          Result<sql::SelectStmt> stmt = sql::Parse(sql);
          Result<sql::PlannedQuery> plan =
              stmt.ok() ? sql::PlanQuery(catalog_, std::move(*stmt))
                        : Result<sql::PlannedQuery>(stmt.status());
          if (!plan.ok()) {
            counters_->plan_errors.fetch_add(1, std::memory_order_relaxed);
            counters_->queries_error.fetch_add(1, std::memory_order_relaxed);
            ErrorReply reply;
            reply.code = ErrorCode::kQueryFailed;
            reply.status_code = plan.status().code();
            reply.message = plan.status().message();
            if (!WriteFrame(fd, FrameType::kError, EncodeError(reply)).ok()) {
              goto done;
            }
            break;
          }
          task->plan = std::move(*plan);
        }
        // A statement whose selection is already cached runs solo and
        // replays the entry instead of joining a shared scan.
        if (options_.shared_scan_batching && BatchablePlan(task->plan) &&
            !SelectionResident(task->plan)) {
          Result<Box> viewport = PlanViewport(task->plan);
          if (viewport.ok()) {
            task->batch_key = reinterpret_cast<uintptr_t>(task->plan.engine);
            task->viewport = *viewport;
          }
          // On error: leave batch_key 0 — solo execution reproduces it.
        }
        const AdmissionQueue::Admit admit = queue_->TryPush(task);
        if (admit == AdmissionQueue::Admit::kFull) {
          counters_->shed_busy.fetch_add(1, std::memory_order_relaxed);
          c_shed.Increment();
          SendError(fd, ErrorCode::kBusy,
                    "admission queue full (" +
                        std::to_string(options_.queue_capacity) +
                        " queued); retry");
          break;
        }
        if (admit == AdmissionQueue::Admit::kClosed) {
          SendError(fd, ErrorCode::kShuttingDown, "server is shutting down");
          break;
        }
        task->Wait();
        if (task->status.ok()) {
          std::vector<uint8_t> result_payload = EncodeResultSet(task->result);
          if (result_payload.size() >= kMaxResponseFrameBytes) {
            // The reply cannot fit a legal frame. The request itself was
            // consumed cleanly, so a typed refusal keeps the stream in
            // sync and the connection alive.
            counters_->oversized.fetch_add(1, std::memory_order_relaxed);
            counters_->queries_error.fetch_add(1, std::memory_order_relaxed);
            SendError(fd, ErrorCode::kTooLarge,
                      "result set of " + std::to_string(result_payload.size()) +
                          " bytes exceeds response frame cap of " +
                          std::to_string(kMaxResponseFrameBytes));
            break;
          }
          counters_->queries_ok.fetch_add(1, std::memory_order_relaxed);
          if (!WriteFrame(fd, FrameType::kResult, result_payload).ok()) {
            goto done;
          }
        } else {
          counters_->queries_error.fetch_add(1, std::memory_order_relaxed);
          ErrorReply reply;
          reply.code = ErrorCode::kQueryFailed;
          reply.status_code = task->status.code();
          reply.message = task->status.message();
          if (!WriteFrame(fd, FrameType::kError, EncodeError(reply)).ok()) {
            goto done;
          }
        }
        break;
      }
      default: {
        counters_->malformed.fetch_add(1, std::memory_order_relaxed);
        SendError(fd, ErrorCode::kMalformed,
                  "unknown frame type " +
                      std::to_string(static_cast<int>(frame->type)));
        // Unknown request types mean a confused peer; close rather than
        // guess at the rest of its stream.
        goto done;
      }
    }
  }
done:
  std::lock_guard<std::mutex> lock(conn_mu_);
  ::close(fd);
  conn_fds_[conn_index] = -1;
  // Hand the slot to the accept loop for joining + reuse; the thread
  // touches no server state past this point.
  finished_conns_.push_back(conn_index);
}

void Server::WorkerLoop() {
  sql::SessionOptions session_options = options_.session;
  session_options.cache_budget_bytes = -1;
  sql::Session session(catalog_, session_options);
  for (;;) {
    TaskPtr task = queue_->PopBlocking();
    if (task == nullptr) return;  // closed and drained
    std::vector<TaskPtr> group;
    group.push_back(std::move(task));
    if (options_.shared_scan_batching && group[0]->batch_key != 0 &&
        options_.max_batch_group > 1) {
      std::vector<TaskPtr> more = queue_->ExtractBatchGroup(
          group[0]->batch_key, options_.max_batch_group - 1);
      for (TaskPtr& t : more) group.push_back(std::move(t));
    }
    if (options_.before_execute_hook) options_.before_execute_hook(*group[0]);
    if (group.size() == 1) {
      QueryTask& t = *group[0];
      session.set_client_tag(t.client_id);
      Result<sql::ResultSet> result =
          session.ExecutePrepared(t.sql, std::move(t.plan));
      if (result.ok()) {
        t.Complete(Status::OK(), std::move(*result));
      } else {
        t.Complete(result.status(), {});
      }
    } else {
      ExecuteBatchGroup(session, group);
    }
  }
}

void Server::ExecuteBatchGroup(sql::Session& session,
                               const std::vector<TaskPtr>& group) {
  GEOCOL_METRIC_COUNTER(c_batches, "geocol_server_batches_total");
  GEOCOL_METRIC_COUNTER(c_members, "geocol_server_batch_members_total");
  SpatialQueryEngine* engine =
      reinterpret_cast<SpatialQueryEngine*>(group[0]->batch_key);
  Result<SharedScanResult> scan = SharedScanSelect(engine, group);
  if (!scan.ok()) {
    // Shared path failed (chunk fault, column mismatch, ...): run every
    // member alone so each gets exactly the result/error of unbatched
    // execution.
    counters_->batch_fallbacks.fetch_add(1, std::memory_order_relaxed);
    for (const TaskPtr& task : group) {
      session.set_client_tag(task->client_id);
      Result<sql::ResultSet> result =
          session.ExecutePrepared(task->sql, std::move(task->plan));
      if (result.ok()) {
        task->Complete(Status::OK(), std::move(*result));
      } else {
        task->Complete(result.status(), {});
      }
    }
    return;
  }
  counters_->batches.fetch_add(1, std::memory_order_relaxed);
  counters_->batch_members.fetch_add(group.size(),
                                     std::memory_order_relaxed);
  c_batches.Increment();
  c_members.Increment(group.size());
  for (size_t m = 0; m < group.size(); ++m) {
    const TaskPtr& task = group[m];
    session.set_client_tag(task->client_id);
    Result<sql::ResultSet> result = session.ExecutePreparedWithRows(
        task->sql, std::move(task->plan), std::move(scan->member_rows[m]),
        scan->profile);
    if (result.ok()) {
      task->Complete(Status::OK(), std::move(*result));
    } else {
      task->Complete(result.status(), {});
    }
  }
}

}  // namespace server
}  // namespace geocol
