// Admission control for the query server (DESIGN.md §16): a bounded
// FIFO between connection threads and worker sessions. When the queue is
// full the connection thread sheds the request with a typed BUSY error
// instead of stalling the socket — overload degrades to fast rejections,
// never to unbounded latency. The queue is also where shared-scan batch
// groups form: workers extract every queued task with the same batch key
// (same engine, i.e. same table epoch) in one pull.
#ifndef GEOCOL_SERVER_ADMISSION_H_
#define GEOCOL_SERVER_ADMISSION_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "geom/geometry.h"
#include "sql/planner.h"
#include "sql/executor.h"
#include "util/status.h"

namespace geocol {
namespace server {

/// One admitted query: the statement (already parsed and planned at
/// admission time, pinning a live-table epoch per statement), its batch
/// identity, and a one-shot completion slot the connection thread waits
/// on. Result<T> has no default constructor, so status and rows travel
/// separately.
struct QueryTask {
  std::string client_id;
  std::string sql;
  sql::PlannedQuery plan;

  /// Shared-scan batch group key: the address of the plan's pinned view
  /// (nonzero only for batchable plans). A flat table's view is constant,
  /// and plans pinned to the same live epoch or the same sharded layout
  /// version share one view, so equal keys mean "same table snapshot";
  /// the views are kept alive by their plans, so addresses cannot alias.
  uintptr_t batch_key = 0;
  /// Effective selection box when batch_key != 0 (the geometry envelope,
  /// or the table extent for predicate-free statements).
  Box viewport;

  // ---- Completion (set exactly once by a worker).
  void Complete(Status status, sql::ResultSet result);
  /// Blocks until Complete; then `status`/`result` are readable without
  /// the lock.
  void Wait();

  Status status;
  sql::ResultSet result;

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
};

using TaskPtr = std::shared_ptr<QueryTask>;

/// Bounded MPMC queue with typed admission outcomes.
class AdmissionQueue {
 public:
  enum class Admit { kAdmitted, kFull, kClosed };

  explicit AdmissionQueue(size_t capacity) : capacity_(capacity) {}

  /// Non-blocking push: kFull when at capacity (the caller sheds BUSY),
  /// kClosed once Close() ran.
  Admit TryPush(TaskPtr task);

  /// Blocks for the next task. Returns null only when the queue is closed
  /// AND empty — a closed queue still drains every admitted task, which
  /// is what makes shutdown lose no accepted work.
  TaskPtr PopBlocking();

  /// Removes and returns every queued task whose batch_key equals `key`
  /// (up to `max_tasks`), preserving FIFO order. Called by a worker that
  /// just popped a batchable task to form its shared-scan group.
  std::vector<TaskPtr> ExtractBatchGroup(uintptr_t key, size_t max_tasks);

  /// Rejects future pushes and wakes all poppers. Idempotent.
  void Close();

  /// Reopens after Close (server restart).
  void Reset();

  size_t depth() const;
  /// High-water mark of depth() since construction/Reset.
  size_t max_depth() const;

 private:
  const size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<TaskPtr> queue_;
  bool closed_ = false;
  size_t max_depth_ = 0;
};

}  // namespace server
}  // namespace geocol

#endif  // GEOCOL_SERVER_ADMISSION_H_
