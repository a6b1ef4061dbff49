// Lightweight hierarchical tracing: scoped spans in a ring buffer.
//
// A ScopedSpan measures one region with the monotonic clock and records
// itself into a Tracer when it closes. Nesting is tracked per thread, so a
// span opened while another is active becomes its child (parent id +
// depth), giving a call-tree view of a planning pass: process-sharing >
// enumerate > faircost, with per-span key/value annotations (plan counts,
// chosen costs, fired fault points...).
//
// The Tracer keeps the most recent `capacity` completed spans in a ring
// buffer — tracing a million-tick simulation costs bounded memory and the
// tail, the most recent activity, is exactly what a post-mortem wants.
// DumpJson()/ToJson() export the buffer; ParseSpansJson round-trips a dump
// back into spans (used by tests and offline tooling).

#ifndef DSM_OBS_TRACE_H_
#define DSM_OBS_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "obs/json.h"

namespace dsm {
namespace obs {

struct TraceSpan {
  uint64_t id = 0;
  uint64_t parent_id = 0;  // 0 = root span
  int depth = 0;
  std::string name;
  // Nanoseconds since the tracer's epoch (steady_clock at construction).
  uint64_t start_ns = 0;
  uint64_t duration_ns = 0;
  std::vector<std::pair<std::string, std::string>> annotations;
};

class Tracer {
 public:
  static constexpr size_t kDefaultCapacity = 4096;

  explicit Tracer(size_t capacity = kDefaultCapacity);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  static Tracer& Global();

  void Record(TraceSpan span);

  // Completed spans, oldest first (at most capacity()).
  std::vector<TraceSpan> spans() const;
  size_t size() const;
  size_t capacity() const { return capacity_; }
  // Spans recorded since construction/Clear, including overwritten ones.
  uint64_t total_recorded() const;
  uint64_t dropped() const;

  void Clear();

  uint64_t NextSpanId() {
    return next_id_.fetch_add(1, std::memory_order_relaxed);
  }
  uint64_t NowNanos() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - epoch_)
            .count());
  }

  // {"capacity": N, "total_recorded": N, "dropped": N, "spans": [...]}.
  JsonValue ToJson() const;
  std::string DumpJson(int indent = 2) const { return ToJson().Dump(indent); }

 private:
  const size_t capacity_;
  const std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<TraceSpan> ring_;
  size_t head_ = 0;  // next write position once the ring is full
  uint64_t total_ = 0;
  std::atomic<uint64_t> next_id_{1};
};

// Parses the "spans" array of a Tracer JSON dump (or a bare span array).
Result<std::vector<TraceSpan>> ParseSpansJson(const std::string& text);

// RAII span. Constructing one while another ScopedSpan is alive on the
// same thread makes this one its child.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void Annotate(std::string key, std::string value) {
    span_.annotations.emplace_back(std::move(key), std::move(value));
  }

  // Annotates the innermost active span of this thread, if any — lets
  // instrumented callees attach data to their caller's span without
  // plumbing a span pointer through.
  static void AnnotateCurrent(std::string key, std::string value);

  uint64_t id() const { return span_.id; }

 private:
  Tracer* tracer_;
  TraceSpan span_;
  ScopedSpan* parent_;
};

}  // namespace obs
}  // namespace dsm

#define DSM_TRACE_CAT2(a, b) a##b
#define DSM_TRACE_CAT(a, b) DSM_TRACE_CAT2(a, b)
// Opens a span on the global tracer for the enclosing scope.
#define DSM_TRACE_SPAN(name)                        \
  ::dsm::obs::ScopedSpan DSM_TRACE_CAT(dsm_span_, __LINE__)( \
      &::dsm::obs::Tracer::Global(), (name))
// Key/value annotation on this thread's innermost active span.
#define DSM_TRACE_ANNOTATE(key, value) \
  ::dsm::obs::ScopedSpan::AnnotateCurrent((key), (value))

#endif  // DSM_OBS_TRACE_H_
