#ifndef SESEMI_OBS_TRACE_H_
#define SESEMI_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/status.h"

namespace sesemi::obs {

/// \file
/// Low-overhead end-to-end request tracing (docs/ARCHITECTURE.md
/// "Observability").
///
/// A request carries a TraceContext (trace id + parent span id) from
/// scheduler enqueue through admission, batch coalescing, platform dispatch,
/// warm-slot acquisition, the ecall, the SeMIRT pipeline stages, and cluster
/// hops. Spans are recorded into fixed-size per-thread ring buffers — the
/// record path performs ZERO heap allocations, and when tracing is disabled
/// every probe collapses to one relaxed atomic load and a never-taken branch
/// (the same discipline as common/faultpoint). Snapshots export as Chrome
/// trace-event JSON (chrome://tracing / Perfetto "X" complete events) or
/// fold into a per-stage latency rollup.
///
/// Timestamps come from Tracer::Now(), a process-wide steady-clock origin
/// (the discrete-event simulator records spans with explicit virtual
/// timestamps via EmitSpan, so sim and real traces of one replay share a
/// comparable time base starting near zero).
///
/// \threadsafety All functions are safe to call concurrently. Each ring has
/// exactly one writer (its owning thread); snapshot readers synchronize on
/// the ring's published head (release/acquire), and full rings drop the
/// newest span (counted, never blocking), so published slots are immutable.

/// The propagation handle carried on a queued request: which trace the
/// request belongs to and which span is the parent of whatever happens next.
/// Zero-initialized = "not traced" (the disabled path's value).
struct TraceContext {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  bool valid() const { return trace_id != 0; }
};

/// One completed span. `name` and `arg_name` must point at string literals
/// (or other static-storage strings): records keep the pointer, never a copy.
struct SpanRecord {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  uint64_t parent_id = 0;  ///< 0 = root
  const char* name = nullptr;
  TimeMicros start = 0;
  TimeMicros end = 0;
  uint32_t thread_index = 0;   ///< stable per recording thread (tid in JSON)
  const char* arg_name = nullptr;  ///< nullptr = no argument
  int64_t arg = 0;
  /// Priority class of the request this span belongs to (-1 = untagged).
  /// Exported as a "priority" arg so Chrome traces filter by class.
  int32_t priority = -1;
};

/// A snapshot of every recorded span plus the drop accounting.
struct TraceSnapshot {
  std::vector<SpanRecord> spans;
  uint64_t dropped = 0;  ///< spans lost to full rings since the last Reset
};

/// Per-stage latency rollup over a snapshot (one entry per span name).
struct StageRollup {
  const char* name = nullptr;
  uint64_t count = 0;
  TimeMicros total = 0;
  TimeMicros min = 0;
  TimeMicros max = 0;
  double mean_us() const {
    return count == 0 ? 0.0 : static_cast<double>(total) / static_cast<double>(count);
  }
  double mean_s() const { return mean_us() * 1e-6; }
};

namespace trace_internal {
/// Lives outside the class so Enabled() inlines to a single relaxed load.
extern std::atomic<uint32_t> g_enabled;
}  // namespace trace_internal

class Tracer {
 public:
  static constexpr size_t kDefaultRingCapacity = 16384;

  /// The gate every probe checks first. One relaxed load; no function call
  /// once inlined.
  static bool Enabled() {
    return trace_internal::g_enabled.load(std::memory_order_relaxed) != 0;
  }

  static void Enable();
  static void Disable();

  /// Current trace time: micros since a process-wide steady origin. All
  /// span timestamps MUST come from here — RealClock instances have
  /// per-instance origins and do not compose across components.
  static TimeMicros Now();

  /// Drop all recorded spans and the drop counter, and set the ring capacity
  /// used for threads that record after this call (tests shrink it to probe
  /// overflow; benches reset between sections). Threads re-register their
  /// ring lazily on the next record, so concurrent recorders may lose (not
  /// corrupt) a span across the boundary.
  static void Reset(size_t ring_capacity = kDefaultRingCapacity);

  /// Fresh ids for a root context without recording anything (the simulator
  /// uses this to seed a virtual-time trace).
  static TraceContext NewContext();

  /// Record a completed span with explicit timestamps under `parent`
  /// (invalid parent = new root trace). Returns the recorded span's context
  /// so callers can chain children. No-op (zero context) when disabled.
  static TraceContext EmitSpan(TraceContext parent, const char* name,
                               TimeMicros start, TimeMicros end,
                               const char* arg_name = nullptr, int64_t arg = 0,
                               int priority = -1);

  /// Record an instant event (zero-duration span) under `parent`.
  static void EmitInstant(TraceContext parent, const char* name,
                          const char* arg_name = nullptr, int64_t arg = 0);

  /// Record a root span whose ids were pre-minted with NewContext — the
  /// simulator emits a request's stage children as virtual time advances and
  /// closes the root at completion.
  static void EmitRoot(TraceContext context, const char* name,
                       TimeMicros start, TimeMicros end,
                       const char* arg_name = nullptr, int64_t arg = 0);

  /// The calling thread's current span context (what a Span constructed now
  /// would adopt as parent). Zero when nothing is open on this thread.
  static TraceContext Current();
  /// Overwrite the thread-current context (explicit cross-thread handoff;
  /// Span does this automatically within a scope).
  static void SetCurrent(TraceContext context);

  /// Copy out every published span (all threads) plus drop accounting.
  static TraceSnapshot Snap();

  /// Per-stage rollup of `snapshot`, sorted by name.
  static std::vector<StageRollup> Rollup(const TraceSnapshot& snapshot);
  /// Convenience: Rollup(Snap()).
  static std::vector<StageRollup> Rollup();

 private:
  friend class Span;
  /// Hot path: append to the calling thread's ring (allocating the ring on
  /// this thread's first record — the only allocation, off the steady path).
  static void Record(const SpanRecord& record);
  static uint64_t NextId();
};

/// Chrome trace-event JSON ("X" complete events; ts/dur in microseconds;
/// args carry trace/span/parent ids as hex strings). Loadable in
/// chrome://tracing and Perfetto. Schema: docs/BENCHMARKS.md.
std::string ToChromeTraceJson(const TraceSnapshot& snapshot);
Status WriteChromeTraceJson(const TraceSnapshot& snapshot, const std::string& path);

/// RAII span: opens at construction, records at destruction. When tracing
/// is disabled both ends are a relaxed load + branch; no ids are minted, no
/// clock is read (except by the stage form below), nothing is stored.
///
/// Parentage: the one-argument form nests under the thread-current context
/// (or roots a new trace); the two-argument form nests under an explicit
/// context (how a dispatcher thread continues a trace carried across the
/// scheduler queue on QueuedRequest::trace). While open, the span is the
/// thread-current context; the previous context is restored on close.
///
/// Stage form, Span(name, &elapsed): a pipeline stage that a component also
/// times for itself. The clock is read once at open and once at close even
/// with tracing disabled, `*elapsed` receives end - start, and the recorded
/// span carries exactly those two timestamps — the component's own timings
/// and its trace cannot disagree.
class Span {
 public:
  explicit Span(const char* name) : Span(name, Tracer::Current()) {}

  Span(const char* name, TimeMicros* elapsed) : Span(name) {
    elapsed_ = elapsed;
    if (!armed_) start_ = Tracer::Now();
  }

  Span(const char* name, TraceContext parent) {
    if (!Tracer::Enabled()) return;
    armed_ = true;
    name_ = name;
    saved_ = Tracer::Current();
    parent_ = parent;
    context_.trace_id = parent.valid() ? parent.trace_id : Tracer::NextId();
    context_.span_id = Tracer::NextId();
    Tracer::SetCurrent(context_);
    start_ = Tracer::Now();
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  ~Span() {
    if (!armed_ && elapsed_ == nullptr) return;
    const TimeMicros end = Tracer::Now();
    if (elapsed_ != nullptr) *elapsed_ = end - start_;
    if (!armed_) return;
    SpanRecord record;
    record.trace_id = context_.trace_id;
    record.span_id = context_.span_id;
    record.parent_id = parent_.span_id;
    record.name = name_;
    record.start = start_;
    record.end = end;
    record.arg_name = arg_name_;
    record.arg = arg_;
    record.priority = priority_;
    Tracer::Record(record);
    Tracer::SetCurrent(saved_);
  }

  /// Attach one numeric argument (`name` must be a string literal).
  void set_arg(const char* name, int64_t value) {
    if (!armed_) return;
    arg_name_ = name;
    arg_ = value;
  }

  /// Tag the span with the request's priority class (kept separate from the
  /// one free-form arg so every dispatch span can carry both).
  void set_priority(int priority) {
    if (!armed_) return;
    priority_ = static_cast<int32_t>(priority);
  }

  /// Context to hand to another thread (e.g. QueuedRequest::trace). Zero
  /// when tracing is disabled.
  TraceContext context() const { return armed_ ? context_ : TraceContext{}; }

 private:
  bool armed_ = false;
  const char* name_ = nullptr;
  const char* arg_name_ = nullptr;
  int64_t arg_ = 0;
  int32_t priority_ = -1;
  TimeMicros start_ = 0;
  TimeMicros* elapsed_ = nullptr;
  TraceContext context_;
  TraceContext parent_;
  TraceContext saved_;
};

/// Canonical span names (shared by recorders, benches, and tests so rollups
/// cannot drift from the probes that feed them).
namespace spans {
// Cluster hops.
inline constexpr const char* kClusterRoute = "cluster.route";
inline constexpr const char* kClusterSteal = "cluster.steal";
inline constexpr const char* kClusterReroute = "cluster.reroute";
// Platform / scheduler.
inline constexpr const char* kPlatformSubmit = "platform.submit";
inline constexpr const char* kQueueWait = "sched.queue_wait";
inline constexpr const char* kCoalesced = "sched.coalesced";
inline constexpr const char* kDispatch = "platform.dispatch";
inline constexpr const char* kRtLane = "rt.lane";
inline constexpr const char* kWarmAcquire = "platform.warm_acquire";
inline constexpr const char* kColdStart = "platform.cold_start";
// SeMIRT pipeline.
inline constexpr const char* kRequest = "semirt.request";
inline constexpr const char* kEnclaveInit = "semirt.enclave_init";
inline constexpr const char* kEcall = "semirt.ecall";
inline constexpr const char* kHandshake = "semirt.handshake";
inline constexpr const char* kKeyFetch = "semirt.key_fetch";
inline constexpr const char* kModelLoad = "semirt.model_load";
inline constexpr const char* kRuntimeInit = "semirt.runtime_init";
inline constexpr const char* kDecrypt = "semirt.decrypt";
inline constexpr const char* kInference = "semirt.inference";
inline constexpr const char* kEncrypt = "semirt.encrypt";
// Simulator (virtual-time) counterparts share the semirt.* stage names; the
// per-request root is sim-specific.
inline constexpr const char* kSimRequest = "sim.request";
inline constexpr const char* kSimOverhead = "sim.platform_overhead";
}  // namespace spans

}  // namespace sesemi::obs

#endif  // SESEMI_OBS_TRACE_H_
