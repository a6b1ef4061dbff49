// Hashing primitives for the data plane's pre-hashed tables.
//
// One seeded fnv1a-style mix over 64-bit lanes plus a splitmix64 finalizer,
// used by the compact data plane's bag tables and join indexes
// (maintain/tuple_store.h). Keeping the mix in one place means a
// hash-quality fix lands everywhere at once, and the forced-collision
// regression tests can reason about a single function.

#ifndef DSM_COMMON_HASH_H_
#define DSM_COMMON_HASH_H_

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace dsm {

inline constexpr uint64_t kFnv1a64Offset = 0xcbf29ce484222325ULL;
inline constexpr uint64_t kFnv1a64Prime = 0x100000001b3ULL;

// splitmix64 finalizer: full-avalanche bit mix. fnv1a alone is weak in the
// high bits (the last byte only reaches them through one multiply); open
// addressing masks with the low bits of the *finished* hash, so every input
// byte must influence every output bit.
inline uint64_t HashFinish(uint64_t h) {
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebULL;
  h ^= h >> 31;
  return h;
}

// Folds one 64-bit lane into a running fnv1a state.
inline uint64_t HashMix64(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= v & 0xff;
    h *= kFnv1a64Prime;
    v >>= 8;
  }
  return h;
}

// Hash of a contiguous array of 64-bit words (a flat tuple's slots):
// seeded fnv1a over the words, then finished. This is THE row hash of the
// compact data plane — stored next to each row and never recomputed on
// rehash or probe.
inline uint64_t HashWords64(const uint64_t* words, size_t count,
                            uint64_t seed = kFnv1a64Offset) {
  uint64_t h = seed;
  for (size_t i = 0; i < count; ++i) h = HashMix64(h, words[i]);
  return HashFinish(h);
}

}  // namespace dsm

#endif  // DSM_COMMON_HASH_H_
