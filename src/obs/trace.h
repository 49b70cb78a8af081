// Distributed tracing for the serving and cluster tiers: where one slow
// QUERY through the edge -> mid -> root hierarchy actually spends its
// time (decode? engine apply? fan-out pull?) and how many bytes each
// synopsis ship costs — the paper's constrained-environment accounting
// (cheap edges shipping compact summaries) made visible per request.
//
// Model:
//  * A trace is a 128-bit id minted at the first span of a request (or
//    propagated in from the wire, net/wire.h); spans are timed
//    intervals with a 64-bit id, a parent id, a static name, and a few
//    inline annotations (no allocation).
//  * ScopedSpan is the only way to record: it stamps the start on
//    construction, links itself under the thread's current span (or an
//    explicit remote parent from the wire), becomes the current span for
//    its scope, and appends a finished SpanRecord to the thread's ring
//    when it leaves scope.
//  * Each thread owns a fixed-capacity ring of finished spans. Writers
//    never allocate and never block: the ring mutex is try_lock'ed, and
//    a collision with a concurrent TRACE_DUMP drops the span (counted in
//    dropped()). Old spans are overwritten FIFO — the rings are a flight
//    recorder, not a database.
//  * Sampling is decided once per trace at the root: 1-in-N by a cheap
//    thread-local counter (SetSampleEveryN; 0 disables, 1 records every
//    request). Unsampled spans cost two branches and no clock reads.
//    Propagated contexts carry the root's decision, so one QUERY is
//    either traced end to end or not at all.
//
// Like obs/metrics.h, the whole subsystem compiles out under
// -DIMPLISTAT_METRICS=OFF: the nullimpl aliases make ScopedSpan an empty
// object and Snapshot() empty, so a constrained edge build pays zero —
// not even the sampling branches. SpanContext itself stays real in both
// modes: it is wire data (net/wire.h frames carry it), and a
// tracing-disabled server must still parse and forward it.
//
// Export is Chrome trace_event JSON (WriteTraceJson): load the dump of
// any node — or several nodes' dumps side by side — directly in Perfetto
// (ui.perfetto.dev) or chrome://tracing. Spans that crossed a socket
// share a trace id via args.trace_id.

#ifndef IMPLISTAT_OBS_TRACE_H_
#define IMPLISTAT_OBS_TRACE_H_

#ifndef IMPLISTAT_METRICS
#define IMPLISTAT_METRICS 1
#endif

#include <atomic>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace implistat::obs {

/// Propagated trace identity: who this request belongs to (128-bit trace
/// id), which span caused it (the parent for the next hop), and whether
/// the root sampled it. Plain wire data — NOT gated by IMPLISTAT_METRICS;
/// net/wire.h encodes it into frames in every build mode.
struct SpanContext {
  uint64_t trace_hi = 0;
  uint64_t trace_lo = 0;
  uint64_t span_id = 0;
  bool sampled = false;

  bool valid() const { return (trace_hi | trace_lo) != 0; }
};

/// One finished span, plain data (snapshots and the exporter are compiled
/// unconditionally, like MetricSnapshot).
struct SpanRecord {
  uint64_t trace_hi = 0;
  uint64_t trace_lo = 0;
  uint64_t span_id = 0;
  uint64_t parent_id = 0;  // 0 = root span of its process-local tree
  uint64_t start_ns = 0;   // CLOCK_MONOTONIC (steady_clock) nanoseconds
  uint64_t duration_ns = 0;
  const char* name = "";      // static string literal, never freed
  const char* category = "";  // static: "server", "client", "cluster", ...
  /// Small dynamic detail (peer name, message type), truncated to fit.
  char detail[32] = {0};
  /// Inline numeric annotations; key == nullptr marks an unused slot.
  struct Annotation {
    const char* key = nullptr;  // static string literal
    uint64_t value = 0;
  };
  Annotation annotations[4];
  /// Ring (thread) index the span was recorded on — the Perfetto tid.
  uint32_t tid = 0;
};

/// 16-byte lowercase-hex trace id ("<hi><lo>", 32 chars) — the join key
/// across dumps from different nodes.
std::string TraceIdHex(uint64_t trace_hi, uint64_t trace_lo);

/// Chrome trace_event JSON ("X" complete events, ts/dur in microseconds)
/// over a span snapshot. Pure function; loads directly in Perfetto.
std::string WriteTraceJson(const std::vector<SpanRecord>& spans);

// ---------------------------------------------------------------------------
// Real implementation (always compiled; aliased when enabled).
// ---------------------------------------------------------------------------
namespace tracereal {

/// Process-wide tracing state: sampling config and the registry of
/// per-thread span rings. All methods are thread-safe.
class Tracer {
 public:
  /// Root sampling rate: record 1 trace in every `n` started at this
  /// process. 0 disables new roots entirely; 1 records every trace.
  /// Propagated (incoming) contexts keep their origin's decision.
  static void SetSampleEveryN(uint32_t n);
  static uint32_t SampleEveryN();

  /// The calling thread's current span context (invalid when no span is
  /// open). What a client attaches to an outgoing frame.
  static SpanContext CurrentContext();

  /// Copies every thread's ring, oldest first per thread. Safe to call
  /// from any thread at any time.
  static std::vector<SpanRecord> Snapshot();

  /// Spans dropped because a ring write collided with a Snapshot().
  static uint64_t Dropped();

  /// Spans per thread ring (compile-time; exposed for tests).
  static constexpr size_t kRingCapacity = 2048;
  /// Maximum open-span nesting per thread; deeper spans still time
  /// correctly but are recorded with parent links only to the tracked
  /// depth (in practice request handling nests 3-4 deep).
  static constexpr size_t kMaxDepth = 16;
};

/// RAII span. Construction decides sampling (root) or inherits it
/// (nested/remote parent); destruction records into the thread ring.
class ScopedSpan {
 public:
  /// Child of the thread's current span, or a new sampled-1-in-N root
  /// when none is open.
  ScopedSpan(const char* name, const char* category);
  /// Child of an explicit remote parent (a context that arrived on the
  /// wire, or one captured before hopping threads). An invalid parent
  /// falls back to the local-root rule above.
  ScopedSpan(const char* name, const char* category,
             const SpanContext& parent);

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan();

  /// True when this span will be recorded (annotation work can be
  /// skipped otherwise).
  bool sampled() const { return sampled_; }

  /// The context to propagate for work caused by this span.
  SpanContext context() const { return context_; }

  /// Attaches a numeric annotation (first 4 stick; key must be a static
  /// string literal). No-op on unsampled spans.
  void Annotate(const char* key, uint64_t value);

  /// Sets the span's free-form detail (truncated to the inline buffer).
  /// No-op on unsampled spans.
  void SetDetail(const char* detail);

 private:
  void Begin(const char* name, const char* category,
             const SpanContext& parent, bool force_inherit);

  SpanContext context_;
  SpanRecord record_;
  bool sampled_ = false;
  bool pushed_ = false;
};

}  // namespace tracereal

// ---------------------------------------------------------------------------
// Null implementation — the disabled fast path, mirroring obs::nullimpl.
// ---------------------------------------------------------------------------
namespace tracenull {

class Tracer {
 public:
  static void SetSampleEveryN(uint32_t) {}
  static uint32_t SampleEveryN() { return 0; }
  static SpanContext CurrentContext() { return SpanContext(); }
  static std::vector<SpanRecord> Snapshot() { return {}; }
  static uint64_t Dropped() { return 0; }
  static constexpr size_t kRingCapacity = 0;
  static constexpr size_t kMaxDepth = 0;
};

class ScopedSpan {
 public:
  ScopedSpan(const char*, const char*) {}
  ScopedSpan(const char*, const char*, const SpanContext&) {}
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  bool sampled() const { return false; }
  SpanContext context() const { return SpanContext(); }
  void Annotate(const char*, uint64_t) {}
  void SetDetail(const char*) {}
};

}  // namespace tracenull

#if IMPLISTAT_METRICS
using Tracer = tracereal::Tracer;
using ScopedSpan = tracereal::ScopedSpan;
#else
using Tracer = tracenull::Tracer;
using ScopedSpan = tracenull::ScopedSpan;
#endif

/// Whether this translation unit sees the real tracer (mirrors
/// kMetricsEnabled; tests gate end-to-end span assertions on it).
inline constexpr bool kTraceEnabled = IMPLISTAT_METRICS != 0;

}  // namespace implistat::obs

#endif  // IMPLISTAT_OBS_TRACE_H_
