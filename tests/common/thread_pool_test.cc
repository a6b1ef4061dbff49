#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace dsm {
namespace {

ThreadPoolOptions Opts(int n) {
  ThreadPoolOptions options;
  options.num_threads = n;
  return options;
}

// Temporarily overrides DSM_THREADS for one test.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    if (old != nullptr) {
      had_old_ = true;
      old_ = old;
    }
    if (value == nullptr) {
      unsetenv(name);
    } else {
      setenv(name, value, /*overwrite=*/1);
    }
  }
  ~ScopedEnv() {
    if (had_old_) {
      setenv(name_, old_.c_str(), /*overwrite=*/1);
    } else {
      unsetenv(name_);
    }
  }

 private:
  const char* name_;
  bool had_old_ = false;
  std::string old_;
};

TEST(ResolveThreadCountTest, ExplicitCountWins) {
  ScopedEnv env("DSM_THREADS", "7");
  EXPECT_EQ(ResolveThreadCount(Opts(3)), 3);
  EXPECT_EQ(ResolveThreadCount(Opts(1)), 1);
}

TEST(ResolveThreadCountTest, EnvVarUsedWhenAuto) {
  ScopedEnv env("DSM_THREADS", "5");
  EXPECT_EQ(ResolveThreadCount(Opts(0)), 5);
}

TEST(ResolveThreadCountTest, MalformedEnvStaysSerial) {
  {
    ScopedEnv env("DSM_THREADS", "banana");
    EXPECT_EQ(ResolveThreadCount(Opts(0)), 1);
  }
  {
    ScopedEnv env("DSM_THREADS", "0");
    EXPECT_EQ(ResolveThreadCount(Opts(0)), 1);
  }
  {
    ScopedEnv env("DSM_THREADS", "-2");
    EXPECT_EQ(ResolveThreadCount(Opts(0)), 1);
  }
  // Only a complete positive int counts: no trailing junk, no empty
  // string, nothing outside int's range.
  for (const char* value : {"4x", "", "99999999999"}) {
    ScopedEnv env("DSM_THREADS", value);
    EXPECT_EQ(ResolveThreadCount(Opts(0)), 1) << "DSM_THREADS=" << value;
  }
}

TEST(ResolveThreadCountTest, AutoWithoutEnvIsAtLeastOne) {
  ScopedEnv env("DSM_THREADS", nullptr);
  EXPECT_GE(ResolveThreadCount(Opts(0)), 1);
}

TEST(ThreadPoolTest, ParallelForFillsEverySlot) {
  for (const int threads : {1, 2, 8}) {
    ThreadPool pool(Opts(threads));
    std::vector<size_t> out(200, 0);
    pool.ParallelFor(out.size(), [&out](size_t i) { out[i] = i * i; });
    for (size_t i = 0; i < out.size(); ++i) {
      EXPECT_EQ(out[i], i * i) << "threads=" << threads << " slot=" << i;
    }
  }
}

TEST(ThreadPoolTest, ResultsIdenticalAcrossPoolSizes) {
  auto run = [](int threads) {
    ThreadPool pool(Opts(threads));
    std::vector<uint64_t> out(64, 0);
    pool.ParallelFor(out.size(),
                     [&out](size_t i) { out[i] = i * 2654435761u + 1; });
    return out;
  };
  const std::vector<uint64_t> serial = run(1);
  EXPECT_EQ(run(2), serial);
  EXPECT_EQ(run(8), serial);
}

TEST(ThreadPoolTest, ParallelForRethrowsTaskException) {
  for (const int threads : {1, 4}) {
    ThreadPool pool(Opts(threads));
    std::atomic<int> ran{0};
    EXPECT_THROW(
        pool.ParallelFor(10,
                         [&ran](size_t i) {
                           ran.fetch_add(1);
                           if (i == 3) throw std::runtime_error("boom");
                         }),
        std::runtime_error);
    // The rest of the batch still ran; the pool stays usable.
    EXPECT_EQ(ran.load(), 10) << "threads=" << threads;
    std::atomic<int> after{0};
    pool.ParallelFor(4, [&after](size_t) { after.fetch_add(1); });
    EXPECT_EQ(after.load(), 4);
  }
}

TEST(ThreadPoolTest, InlineParallelForRethrowsFirstException) {
  ThreadPool pool(Opts(1));  // inline: index order == execution order
  try {
    pool.ParallelFor(3, [](size_t i) {
      if (i == 1) throw std::runtime_error("first");
      if (i == 2) throw std::logic_error("second");
    });
    FAIL() << "ParallelFor should rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "first");
  }
}

TEST(ThreadPoolTest, ParallelForWithFewerItemsThanThreads) {
  ThreadPool pool(Opts(8));
  std::vector<int> out(3, 0);
  std::atomic<int> on_worker{0};
  const std::thread::id caller = std::this_thread::get_id();
  pool.ParallelFor(out.size(), [&](size_t i) {
    out[i] = static_cast<int>(i) + 1;
    // The caller only waits: every item runs on a worker.
    if (std::this_thread::get_id() != caller) on_worker.fetch_add(1);
  });
  EXPECT_EQ(out, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(on_worker.load(), 3);
}

TEST(ThreadPoolTest, ParallelForRunsEachIndexOnceWhenItemsFarOutnumberThreads) {
  ThreadPool pool(Opts(3));
  std::vector<std::atomic<int>> runs(20000);
  pool.ParallelFor(runs.size(), [&runs](size_t i) { runs[i].fetch_add(1); });
  for (size_t i = 0; i < runs.size(); ++i) {
    ASSERT_EQ(runs[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ParallelForThrowMidBatchStillRunsWholeBatch) {
  ThreadPool pool(Opts(4));
  std::vector<std::atomic<int>> runs(1000);
  EXPECT_THROW(pool.ParallelFor(runs.size(),
                                [&runs](size_t i) {
                                  runs[i].fetch_add(1);
                                  if (i == 500 || i == 501) {
                                    throw std::runtime_error("boom");
                                  }
                                }),
               std::runtime_error);
  // The worker that caught the throw moved on to later indices.
  for (size_t i = 0; i < runs.size(); ++i) {
    ASSERT_EQ(runs[i].load(), 1) << "index " << i;
  }
  std::atomic<int> after{0};
  pool.ParallelFor(64, [&after](size_t) { after.fetch_add(1); });
  EXPECT_EQ(after.load(), 64);
}

TEST(ThreadPoolTest, NestedParallelForRunsInline) {
  for (const int threads : {1, 2, 4}) {
    ThreadPool pool(Opts(threads));
    std::vector<std::vector<size_t>> grid(6);
    pool.ParallelFor(grid.size(), [&](size_t i) {
      grid[i].assign(5, 0);
      // Re-entrant submission must not deadlock on the pool's own queue;
      // it runs inline on this worker.
      pool.ParallelFor(5, [&grid, i](size_t j) { grid[i][j] = i * 10 + j; });
    });
    for (size_t i = 0; i < grid.size(); ++i) {
      for (size_t j = 0; j < grid[i].size(); ++j) {
        EXPECT_EQ(grid[i][j], i * 10 + j) << "threads=" << threads;
      }
    }
  }
}

TEST(ThreadPoolTest, EmptyAndSingletonBatches) {
  ThreadPool pool(Opts(4));
  pool.ParallelFor(0, [](size_t) { FAIL() << "no tasks expected"; });
  int ran = 0;
  // n == 1 runs inline on the caller: no synchronization needed.
  pool.ParallelFor(1, [&ran](size_t i) {
    EXPECT_EQ(i, 0u);
    ++ran;
  });
  EXPECT_EQ(ran, 1);
}

}  // namespace
}  // namespace dsm
