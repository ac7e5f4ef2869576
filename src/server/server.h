// The multi-tenant query server behind `geocol serve` (DESIGN.md §16):
// a TCP listener (thread per connection) in front of a worker pool of
// sql::Sessions that all share ONE catalog — one engine per table, the
// process-wide QueryResultCache, MetricsRegistry and flight recorder.
//
// Request path: connection thread reads a frame, rate-limits by client
// id, parses AND plans the statement (planning at admission pins a
// live-table epoch per statement), then offers the task to the bounded
// admission queue — a full queue sheds a typed BUSY instead of stalling.
// Workers pop tasks; a popped batchable task pulls every queued task on
// the same engine into a shared-scan batch group (server/batch.h), one
// superset scan fanning bit-identical per-member selections out.
//
// Worker sessions are default sessions: each table's result cache was
// bound by the EngineOptions it was registered with, so nothing rebinds
// an engine while queries are in flight.
#ifndef GEOCOL_SERVER_SERVER_H_
#define GEOCOL_SERVER_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "gis/catalog.h"
#include "server/admission.h"
#include "server/rate_limiter.h"
#include "sql/session.h"

namespace geocol {
namespace server {

struct ServerOptions {
  std::string host = "127.0.0.1";
  /// 0 binds an ephemeral port; Server::port() reports the real one.
  int port = 0;
  int workers = 2;
  size_t queue_capacity = 128;
  /// Per-client token bucket; <= 0 disables rate limiting.
  double rate_limit_qps = 0;
  double rate_limit_burst = 8;
  /// Bound on distinct client buckets (ids are untrusted input); at the
  /// cap, refilled-to-full buckets are swept, then the stalest goes.
  size_t rate_limit_max_clients = 4096;
  /// Collapse concurrently queued overlapping viewport queries into one
  /// superset scan (server/batch.h).
  bool shared_scan_batching = true;
  size_t max_batch_group = 64;
  /// Request frames over this cap get a typed TOO_LARGE error and the
  /// connection closes (the stream is unrecoverable past an oversized
  /// length prefix).
  uint32_t max_request_bytes = 1u << 20;
  /// Test hook: runs on the worker thread after a task (or batch group
  /// leader) is popped, before execution. Blocking here holds the worker,
  /// which is how the drain/saturation tests build deterministic queue
  /// states.
  std::function<void(const QueryTask&)> before_execute_hook;
};

/// Monotonic totals since Start (queue_depth is instantaneous).
struct ServerStats {
  uint64_t connections_total = 0;
  uint64_t queries_ok = 0;
  uint64_t queries_error = 0;
  uint64_t shed_busy = 0;
  uint64_t shed_rate_limited = 0;
  uint64_t plan_errors = 0;
  uint64_t malformed = 0;
  uint64_t oversized = 0;
  uint64_t batches = 0;        ///< shared-scan groups executed (size >= 2)
  uint64_t batch_members = 0;  ///< queries answered from a shared scan
  uint64_t batch_fallbacks = 0;  ///< groups re-executed solo after an error
  uint64_t queue_depth = 0;
  uint64_t queue_max_depth = 0;
  /// Connection slots currently held (live connections plus finished
  /// ones not yet reaped by the accept loop). Instantaneous.
  uint64_t conn_slots = 0;
};

class Server {
 public:
  /// The catalog must outlive the server. Sessions are created per worker
  /// thread; the catalog's engines/caches are shared by all of them.
  Server(Catalog* catalog, ServerOptions options);
  ~Server();  // Stop()

  /// Binds, listens and spawns the accept + worker threads. Fails if
  /// already running or the address cannot be bound. A stopped server can
  /// Start() again (fresh stats high-water marks, same options).
  Status Start();

  /// Graceful shutdown, idempotent: stop accepting, close the admission
  /// queue, join workers (every admitted task completes and its response
  /// is written), then unblock and join connection threads. In-flight
  /// queries are drained, never dropped.
  void Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }
  /// The bound port (resolves option port 0), 0 when not running.
  int port() const { return port_; }

  ServerStats stats() const;

 private:
  struct Counters;  // atomic mirror of ServerStats

  void AcceptLoop();
  void ConnectionLoop(int fd, uint64_t conn_index);
  /// Joins connection threads that have finished and recycles their
  /// slots; called from the accept loop so a long-lived server does not
  /// accumulate exited-but-joinable threads.
  void ReapFinishedConns();
  void WorkerLoop();
  /// Executes `group` (>= 2 members) via one shared scan; on any batch
  /// error every member re-runs solo so results and errors match
  /// unbatched execution exactly.
  void ExecuteBatchGroup(sql::Session& session,
                         const std::vector<TaskPtr>& group);

  Catalog* catalog_;
  ServerOptions options_;

  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  int listen_fd_ = -1;
  int port_ = 0;

  std::unique_ptr<AdmissionQueue> queue_;
  std::unique_ptr<TokenBucketLimiter> limiter_;
  std::unique_ptr<Counters> counters_;

  std::thread accept_thread_;
  std::vector<std::thread> worker_threads_;
  mutable std::mutex conn_mu_;  // stats() reads the slot lists
  std::vector<std::thread> conn_threads_;
  std::vector<int> conn_fds_;  // parallel to conn_threads_; -1 once closed
  /// Slots whose thread has finished (exiting threads enqueue their own
  /// index); the accept loop joins these and moves them to the free list.
  std::vector<uint64_t> finished_conns_;
  std::vector<uint64_t> free_conn_slots_;  // reaped slots open for reuse
};

}  // namespace server
}  // namespace geocol

#endif  // GEOCOL_SERVER_SERVER_H_
