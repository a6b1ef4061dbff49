// ThreadPool: a small fixed-size task pool for intra-process parallelism.
//
// The maintenance engine fans independent per-view delta propagations out
// across views, and the plan enumerator fans out across predicate-pushdown
// choices; both need the same primitive: submit a batch of independent
// tasks, wait for all of them, and get deterministic results regardless of
// the pool size. Determinism is the caller's contract — tasks write only
// to caller-preallocated, index-addressed slots — and the pool's: with one
// thread every task runs inline, in submission order, on the caller's
// thread, so a pool of size 1 is bit-identical to not having a pool at
// all.
//
// Sizing: ThreadPoolOptions::num_threads == 0 resolves to the DSM_THREADS
// environment variable when set (clamped to >= 1), else the hardware
// concurrency. Exceptions thrown by tasks are captured and rethrown from
// WaitGroup::Wait / ParallelFor on the waiting thread (first one wins; the
// rest of the batch still runs to completion).

#ifndef DSM_COMMON_THREAD_POOL_H_
#define DSM_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
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

// Counts outstanding tasks; Wait blocks until the count drains to zero and
// rethrows the first exception captured from a task.
class WaitGroup {
 public:
  WaitGroup() = default;
  WaitGroup(const WaitGroup&) = delete;
  WaitGroup& operator=(const WaitGroup&) = delete;

  void Add(size_t n);
  void Done();
  // First captured exception wins; later ones are dropped.
  void CaptureException(std::exception_ptr e);
  void Wait();

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  size_t pending_ = 0;
  std::exception_ptr error_;
};

class ThreadPool {
 public:
  explicit ThreadPool(ThreadPoolOptions options = {});
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return num_threads_; }

  // Enqueues `fn` under `wg` (Add is called here, Done when the task
  // finishes; a thrown exception is captured into the wait group). With a
  // single-threaded pool the task runs inline before Submit returns, so
  // submission order is execution order.
  void Submit(WaitGroup* wg, std::function<void()> fn);

  // Runs fn(0) .. fn(n-1) and blocks until all complete, rethrowing the
  // first task exception after the whole batch ran. Up to num_threads()
  // workers pull indices from a shared cursor; the caller only waits.
  // Callers keep results deterministic by writing only to slot i from
  // fn(i). Nested calls from inside a pool task run inline serially (no
  // deadlock, same results).
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

  // True when the calling thread is one of this pool's workers.
  bool OnWorkerThread() const;

  // Process-wide default pool, sized once from default ThreadPoolOptions
  // (i.e. DSM_THREADS) on first use.
  static ThreadPool& Shared();

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
