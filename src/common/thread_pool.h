// A compatibility shim, kept only so the market benchmark
// (perfbench/market_bench.cc) can still stamp `pool_threads` into its
// report. The library starts no threads: view maintenance is serial
// (DESIGN.md §10), so the stamp always reads 1.

#ifndef DSM_COMMON_THREAD_POOL_H_
#define DSM_COMMON_THREAD_POOL_H_

namespace dsm {

struct ThreadPoolOptions {};

constexpr int ResolveThreadCount(const ThreadPoolOptions&) { return 1; }

}  // namespace dsm

#endif  // DSM_COMMON_THREAD_POOL_H_
