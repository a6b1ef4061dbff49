// Deterministic fault injection for robustness testing.
//
// Production distributed systems treat machine loss and mid-operation
// crashes as the common case; this registry lets tests and the market
// simulation provoke those failures deterministically. Code under test
// declares *named injection points* with DSM_INJECT_FAULT("io/journal-
// append"); tests arm a point with a trigger — fire with probability p,
// fire after the first N hits, fire at most M times — through a scoped
// RAII guard, and the instrumented code simulates the failure (partial
// write, dead server, dropped message) when the point fires.
//
// All randomness flows through the registry's own seeded Rng, so a failing
// run replays bit-for-bit.

#ifndef DSM_COMMON_FAULT_H_
#define DSM_COMMON_FAULT_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>

#include "common/rng.h"
#include "obs/metrics.h"

namespace dsm {

// When a point should fire. Default: every hit.
struct FaultSpec {
  // Probability that an eligible hit fires (1.0 = always).
  double probability = 1.0;
  // Skip the first `fail_after` hits (0 = eligible immediately). A spec
  // with fail_after = N models "the N+1-th operation crashes".
  int fail_after = 0;
  // Maximum number of fires; -1 = unlimited. fail_after + max_fires = 1
  // models a single injected crash.
  int max_fires = -1;
};

// Registry of named injection points. Thread-safe; usually accessed via
// the process-wide Global() instance and the DSM_INJECT_FAULT macro.
class FaultInjector {
 public:
  FaultInjector() : rng_(kDefaultSeed) {}

  static FaultInjector& Global();

  // Re-seeds the randomness driving probabilistic triggers (deterministic
  // replay) without touching armed points or counters.
  void Seed(uint64_t seed);

  // Arms `point`; replaces any previous spec and resets its counters.
  void Arm(const std::string& point, FaultSpec spec = {});

  // Disarms `point`; hits no longer fire (counters are kept).
  void Disarm(const std::string& point);

  // Disarms every point and clears all counters.
  void Reset();

  // Called by instrumented code at the injection point. Counts the hit and
  // returns true when the armed trigger fires. Unarmed points never fire.
  bool ShouldFail(const std::string& point);

  bool armed(const std::string& point) const;
  // Times the point was reached / actually fired (0 for unknown points).
  // Backed by the metrics registry (`dsm.fault.hits.<point>` and
  // `dsm.fault.fires.<point>`), so injected-fault runs are auditable from
  // any metrics dump, not just through this accessor.
  int hits(const std::string& point) const;
  int fires(const std::string& point) const;

 private:
  static constexpr uint64_t kDefaultSeed = 0x5eed5eedULL;

  struct PointState {
    FaultSpec spec;
    bool armed = false;
    // Registry-backed hit/fire counters, created on first touch of the
    // point. Owned by the registry; valid for the process lifetime.
    obs::Counter* hits = nullptr;
    obs::Counter* fires = nullptr;
  };

  // points_[point] with its registry counters resolved.
  PointState& StateFor(const std::string& point);

  mutable std::mutex mu_;
  std::unordered_map<std::string, PointState> points_;
  Rng rng_;
};

// RAII activation guard: arms a point on the global injector for the
// enclosing scope, disarms it on exit (tests never leak armed faults into
// each other).
class ScopedFault {
 public:
  explicit ScopedFault(std::string point, FaultSpec spec = {})
      : point_(std::move(point)) {
    FaultInjector::Global().Arm(point_, spec);
  }
  ~ScopedFault() { FaultInjector::Global().Disarm(point_); }

  ScopedFault(const ScopedFault&) = delete;
  ScopedFault& operator=(const ScopedFault&) = delete;

  const std::string& point() const { return point_; }

 private:
  std::string point_;
};

}  // namespace dsm

// The injection point. Reads as a condition: the failure branch runs only
// when a test (or the simulation) armed the point and its trigger fires.
#define DSM_INJECT_FAULT(point) \
  (::dsm::FaultInjector::Global().ShouldFail(point))

#endif  // DSM_COMMON_FAULT_H_
