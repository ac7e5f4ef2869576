#include "util/thread_pool.h"

#include <atomic>
#include <memory>

#include "telemetry/metrics.h"

namespace geocol {

uint32_t EffectiveThreads(uint32_t requested) {
  if (requested != 0) return requested;
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<uint32_t>(hw);
}

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) num_threads = EffectiveThreads(0);
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (auto& t : workers_) t.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  GEOCOL_METRIC_COUNTER(c_tasks, "geocol_pool_tasks_total");
  GEOCOL_METRIC_GAUGE(g_depth, "geocol_pool_queue_depth");
  c_tasks.Increment();
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
    g_depth.Set(static_cast<int64_t>(queue_.size()));
  }
  work_cv_.notify_one();
}

void ThreadPool::WaitIdle() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
}

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  GEOCOL_METRIC_COUNTER(c_pfor, "geocol_pool_parallel_for_total");
  // Morsel-count histogram (log-linear HDR buckets, exact below 32).
  static telemetry::Histogram& h_items =
      telemetry::MetricsRegistry::Global().GetHistogram(
          "geocol_pool_parallel_for_items");
  c_pfor.Increment();
  h_items.Observe(static_cast<int64_t>(n));
  if (n == 1 || workers_.empty()) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  // Per-call completion tracking (not WaitIdle): the group state is shared
  // with helper tasks that may only start after the loop has finished, so
  // it lives on the heap. Helpers that arrive late find no index left and
  // exit without touching `fn`, which may be gone by then.
  struct Group {
    std::atomic<size_t> next{0};
    std::atomic<size_t> done{0};
    std::mutex mu;
    std::condition_variable cv;
    size_t n = 0;
    const std::function<void(size_t)>* fn = nullptr;
  };
  auto group = std::make_shared<Group>();
  group->n = n;
  group->fn = &fn;
  auto run = [group] {
    size_t claimed = 0;
    size_t i;
    while ((i = group->next.fetch_add(1, std::memory_order_relaxed)) <
           group->n) {
      (*group->fn)(i);
      ++claimed;
    }
    if (claimed > 0 &&
        group->done.fetch_add(claimed, std::memory_order_acq_rel) + claimed ==
            group->n) {
      std::lock_guard<std::mutex> lock(group->mu);
      group->cv.notify_all();
    }
  };
  size_t helpers = std::min(n - 1, workers_.size());
  for (size_t h = 0; h < helpers; ++h) Submit(run);
  run();  // the caller claims morsels too: no deadlock under nesting
  std::unique_lock<std::mutex> lock(group->mu);
  group->cv.wait(lock, [&] {
    return group->done.load(std::memory_order_acquire) == group->n;
  });
}

void ThreadPool::WorkerLoop() {
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      if (shutdown_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
      ++active_;
    }
    task();
    {
      std::lock_guard<std::mutex> lock(mu_);
      --active_;
      if (queue_.empty() && active_ == 0) idle_cv_.notify_all();
    }
  }
}

}  // namespace geocol
