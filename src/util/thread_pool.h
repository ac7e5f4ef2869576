// Fixed-size thread pool shared by the bulk loaders (per-file LAS
// conversion, per-tile generation) and the morsel-driven parallel query
// executor of the spatial engine.
#ifndef GEOCOL_UTIL_THREAD_POOL_H_
#define GEOCOL_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace geocol {

/// Threads a query runs on for an engine's `num_threads` knob: the knob
/// itself, or one per hardware core when it is 0. The calling thread is
/// one of them, so a query pool holds EffectiveThreads() - 1 workers.
uint32_t EffectiveThreads(uint32_t requested);

/// A minimal fixed-size worker pool.
///
/// Tasks are arbitrary void() callables. Two usage styles coexist:
///  - fork/join via Submit + WaitIdle (the loaders): WaitIdle blocks until
///    the queue drains and every worker is parked.
///  - scoped parallel loops via ParallelFor: each call tracks its own
///    completion, so multiple threads may run ParallelFor on one pool
///    concurrently, and a ParallelFor may be issued from inside a worker
///    task (nested parallelism). The calling thread participates in the
///    loop, so progress is guaranteed even when every worker is busy.
///
/// Submit is reentrant: a worker task may Submit further tasks; WaitIdle
/// observes them because the submitting task is still active. Tasks must
/// not throw — the pool does not fence exceptions.
class ThreadPool {
 public:
  /// `num_threads == 0` selects std::thread::hardware_concurrency().
  explicit ThreadPool(size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  void Submit(std::function<void()> task);

  /// Blocks until all submitted tasks have completed. Do not mix with
  /// concurrent ParallelFor callers on the same pool — it waits for the
  /// whole queue, not just the caller's tasks.
  void WaitIdle();

  size_t num_threads() const { return workers_.size(); }

  /// Runs fn(i) for i in [0, n) across the pool workers plus the calling
  /// thread and returns when every index has completed. Indices are claimed
  /// dynamically (morsel-driven), so uneven per-index work balances itself.
  /// Safe to call concurrently from several threads and recursively from
  /// inside worker tasks.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable idle_cv_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  size_t active_ = 0;
  bool shutdown_ = false;
};

}  // namespace geocol

#endif  // GEOCOL_UTIL_THREAD_POOL_H_
