// Hashing primitives for the data plane's pre-hashed tables.
//
// One seeded word-wise fold over 64-bit lanes plus a splitmix64 finalizer,
// used by the compact data plane's bag tables and join indexes
// (maintain/tuple_store.h). Each lane costs one 64×64→128-bit multiply:
// the running state is xored with the lane, multiplied by the golden-ratio
// constant, and the product's two halves are folded together. Keeping the
// mix in one place means a hash-quality fix lands everywhere at once, and
// the forced-collision regression tests can reason about a single
// function. The hash is in-memory only: nothing persists it, and stores
// and indexes iterate in row-id order, never in hash order.

#ifndef DSM_COMMON_HASH_H_
#define DSM_COMMON_HASH_H_

#include <cstddef>
#include <cstdint>

namespace dsm {

inline constexpr uint64_t kHashSeed = 0xcbf29ce484222325ULL;
inline constexpr uint64_t kHashMultiplier = 0x9e3779b97f4a7c15ULL;

// splitmix64 finalizer: full-avalanche bit mix. Open addressing masks
// with the low bits of the *finished* hash, so every input bit must
// influence every output bit.
inline uint64_t HashFinish(uint64_t h) {
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebULL;
  h ^= h >> 31;
  return h;
}

// Hash of a contiguous array of 64-bit words (a flat tuple's slots): each
// word folded into the state by one 128-bit multiply, then finished. This
// is THE row hash of the compact data plane — stored next to each row and
// never recomputed on rehash or probe.
inline uint64_t HashWords64(const uint64_t* words, size_t count) {
  __extension__ using Wide = unsigned __int128;
  uint64_t h = kHashSeed;
  for (size_t i = 0; i < count; ++i) {
    const Wide product = static_cast<Wide>(h ^ words[i]) * kHashMultiplier;
    h = static_cast<uint64_t>(product) ^ static_cast<uint64_t>(product >> 64);
  }
  return HashFinish(h);
}

}  // namespace dsm

#endif  // DSM_COMMON_HASH_H_
