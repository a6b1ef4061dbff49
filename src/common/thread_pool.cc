#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <utility>

#include "obs/metrics.h"

namespace dsm {
namespace {

// The pool a worker thread belongs to, so nested ParallelFor calls from
// inside a task detect re-entrancy and run inline instead of deadlocking
// on their own pool.
thread_local const ThreadPool* current_pool = nullptr;

// The tasks of one ParallelFor batch still running. Wait blocks until the
// count drains to zero and rethrows the first exception a task captured.
class BatchWait {
 public:
  explicit BatchWait(size_t tasks) : pending_(tasks) {}
  BatchWait(const BatchWait&) = delete;
  BatchWait& operator=(const BatchWait&) = delete;

  // First captured exception wins; later ones are dropped.
  void Capture(std::exception_ptr e) {
    std::lock_guard<std::mutex> lock(mu_);
    if (!error_) error_ = std::move(e);
  }

  void Done() {
    // Notify while holding the lock: the moment the waiter observes
    // pending_ == 0 it may destroy this object, so cv_ must not be touched
    // after the unlock.
    std::lock_guard<std::mutex> lock(mu_);
    if (--pending_ == 0) cv_.notify_all();
  }

  void Wait() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return pending_ == 0; });
    if (error_) std::rethrow_exception(error_);
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  size_t pending_;
  std::exception_ptr error_;
};

}  // namespace

int ResolveThreadCount(const ThreadPoolOptions& options) {
  if (options.num_threads > 0) return options.num_threads;
  if (const char* env = std::getenv("DSM_THREADS")) {
    // The whole string must be a positive int: "4x", "" and out-of-range
    // values are malformed, and like "0" they keep the pool serial.
    const char* end = env + std::strlen(env);
    int parsed = 0;
    const auto [ptr, ec] = std::from_chars(env, end, parsed);
    if (ec == std::errc() && ptr == end && parsed > 0) return parsed;
    return 1;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

ThreadPool::ThreadPool(ThreadPoolOptions options)
    : num_threads_(ResolveThreadCount(options)) {
  DSM_METRIC_GAUGE_SET("dsm.common.pool_threads", num_threads_);
  if (num_threads_ <= 1) return;  // inline mode: no workers
  workers_.reserve(static_cast<size_t>(num_threads_));
  for (int i = 0; i < num_threads_; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::WorkerLoop() {
  current_pool = this;
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

void ThreadPool::ParallelFor(size_t n,
                             const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  if (n == 1 || num_threads_ <= 1 || current_pool == this) {
    // Same exception contract as the pooled path: the whole batch runs,
    // the first exception is rethrown afterwards.
    std::exception_ptr first;
    for (size_t i = 0; i < n; ++i) {
      try {
        fn(i);
      } catch (...) {
        if (!first) first = std::current_exception();
      }
    }
    if (first) std::rethrow_exception(first);
    return;
  }
  // One task per worker (at most), each pulling indices from a shared
  // cursor: a batch costs at most num_threads queue pushes and wake-ups
  // instead of one per item. The caller only waits, so every fn(i) runs on a worker.
  // A throwing item is captured and its task moves on to the next index,
  // so the whole batch runs before the first exception is rethrown.
  std::atomic<size_t> next{0};
  const size_t tasks = std::min(n, static_cast<size_t>(num_threads_));
  BatchWait wait(tasks);
  DSM_METRIC_COUNTER_ADD("dsm.common.pool_tasks", tasks);
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t t = 0; t < tasks; ++t) {
      queue_.push_back([&next, &wait, &fn, n] {
        for (size_t i = next.fetch_add(1, std::memory_order_relaxed); i < n;
             i = next.fetch_add(1, std::memory_order_relaxed)) {
          try {
            fn(i);
          } catch (...) {
            wait.Capture(std::current_exception());
          }
        }
        wait.Done();
      });
    }
  }
  for (size_t t = 0; t < tasks; ++t) cv_.notify_one();
  wait.Wait();
}

}  // namespace dsm
