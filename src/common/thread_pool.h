// ThreadPool: a small fixed-size pool for the maintenance engine's per-view
// fan-out (DeltaEngine), its one client.
//
// ParallelFor runs a batch of independent index-addressed tasks and waits
// for all of them. Determinism is the caller's contract — fn(i) writes only
// to caller-preallocated slot i — and the pool's: with one thread every
// task runs inline, in index order, on the caller's thread, so a pool of
// size 1 is bit-identical to not having a pool at all.
//
// Sizing: ThreadPoolOptions::num_threads == 0 resolves to the DSM_THREADS
// environment variable when set (a complete positive int, else serial),
// else the hardware concurrency. Exceptions thrown by tasks are captured
// and the first one is rethrown from ParallelFor on the calling thread
// once the whole batch ran.

#ifndef DSM_COMMON_THREAD_POOL_H_
#define DSM_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace dsm {

struct ThreadPoolOptions {
  // Worker threads. 0 = auto: DSM_THREADS env var if set, else
  // std::thread::hardware_concurrency(), else 1.
  int num_threads = 0;
};

// The thread count `options` resolves to (always >= 1).
int ResolveThreadCount(const ThreadPoolOptions& options);

class ThreadPool {
 public:
  explicit ThreadPool(ThreadPoolOptions options = {});
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return num_threads_; }

  // Runs fn(0) .. fn(n-1) and blocks until all complete, rethrowing the
  // first task exception after the whole batch ran. Up to num_threads()
  // workers pull indices from a shared cursor; the caller only waits.
  // Nested calls from inside a pool task run inline serially (no
  // deadlock, same results).
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

 private:
  void WorkerLoop();

  int num_threads_ = 1;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace dsm

#endif  // DSM_COMMON_THREAD_POOL_H_
