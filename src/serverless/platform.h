#ifndef SESEMI_SERVERLESS_PLATFORM_H_
#define SESEMI_SERVERLESS_PLATFORM_H_

#include <array>
#include <atomic>
#include <condition_variable>
#include <future>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/clock.h"
#include "common/parallel_for.h"
#include "common/result.h"
#include "common/rt_executor.h"
#include "fnpacker/router.h"
#include "keyservice/keyservice.h"
#include "obs/metrics.h"
#include "sched/scheduler.h"
#include "semirt/semirt.h"
#include "serverless/recovery.h"
#include "sgx/platform.h"
#include "storage/object_store.h"

namespace sesemi::serverless {

/// Per-node execution-tier configuration (docs/ARCHITECTURE.md "Execution
/// tiers"). Disabled (the default) is behaviorally identical to the
/// single-tier dispatcher: every class rides the shared fork-join pool.
struct RtTierConfig {
  bool enabled = false;
  /// Priority classes [0, classes) route to the RT tier; the rest keep the
  /// coalesced bulk path. Clamped to [1, kNumPriorityClasses].
  int classes = 1;
  /// The lanes themselves: count, pinning, handoff ring, bulk clamp.
  RtExecutorConfig executor;
};

/// Platform-level configuration (the OpenWhisk knobs from Table V).
struct PlatformConfig {
  int num_nodes = 1;
  uint64_t invoker_memory_bytes = 4ull << 30;  ///< per-node sandbox budget
  TimeMicros keep_alive = SecondsToMicros(180);
  sgx::SgxGeneration generation = sgx::SgxGeneration::kSgx2;
  /// Upper bound on concurrently *executing* InvokeAsync dispatches (the
  /// in-flight window = number of dispatcher tasks pulling from the request
  /// scheduler). Submissions beyond it queue inside the scheduler in policy
  /// order — InvokeAsync itself never blocks. 0 = 2 x ParallelismDegree().
  int max_inflight = 0;
  /// Request scheduler: ordering policy (FIFO / weighted-fair / EDF) and
  /// global admission limits. Per-function weights, rate limits, and batch
  /// caps ride on FunctionSpec::sched. When `scheduler.limits.max_queued`
  /// is 0 the platform installs a default backlog bound of 256 x the
  /// in-flight window, so an overloaded platform sheds (typed
  /// ResourceExhausted) instead of queueing unboundedly — set an explicit
  /// large value to lift it.
  sched::SchedulerConfig scheduler;
  /// Failure model: enclave poisoning/quarantine/relaunch, idempotent-stage
  /// retries, and execution-time deadline cuts (see serverless/recovery.h).
  RecoveryConfig recovery;
  /// Latency-class execution tiers: dedicated pinned RT lanes for the
  /// interactive classes, bypassing the shared pool and the batcher.
  RtTierConfig rt;
};

/// A deployed function: a name bound to a SeMIRT (or baseline) runtime
/// configuration and a container memory budget.
struct FunctionSpec {
  std::string name;
  semirt::SemirtOptions options;
  /// Memory charged against the invoker per container; rounded up to the
  /// 128 MB provisioning granularity.
  uint64_t container_memory_bytes = 256ull << 20;
  /// Scheduling parameters: weighted-fair share, token-bucket rate limit,
  /// backlog cap, same-model batch limit, default priority/deadline slack.
  sched::FunctionSchedParams sched;
};

/// Cumulative platform statistics.
struct PlatformStats {
  int invocations = 0;
  int cold_starts = 0;
  int reaped_containers = 0;
  // Recovery counters (full breakdown via recovery_stats()).
  uint64_t enclave_failures = 0;  ///< enclaves poisoned by a faulting ecall
  uint64_t relaunches = 0;        ///< successful cold starts after a poisoning
  uint64_t retries = 0;           ///< idempotent-stage retry attempts
  uint64_t deadline_cuts = 0;     ///< invocations cut at execution time
};

/// Where one request's warm-token events fall in its function's freelist
/// order. Every push and pop of the freelist bumps its head tag, so the tags
/// number those events: a position is 2 x the tag an event produced, or
/// 2 x tag + 1 for a cold start that found the list empty at that tag (it
/// falls between two events). 0 = no such event. The differential harness
/// drives the simulator in this order (tests/support/decision_replay.h).
struct TokenOrder {
  uint64_t acquire = 0;  ///< the pop that granted the token, or the empty read
  uint64_t release = 0;  ///< the push that returned the token
};

/// Everything one asynchronous invocation produces: the sealed response (or
/// error), the per-stage timings, whether a container was provisioned, the
/// warm-pool decision, and the scheduler's view of the request (admission
/// order, dispatch order, queue wait, and the size of the coalesced batch it
/// rode in).
struct InvocationResult {
  /// Every platform path overwrites this with either the sealed response or
  /// a specific typed error; the Aborted default can only surface if a
  /// result object escapes without passing through the platform at all.
  Result<Bytes> response = Status::Aborted("request dropped before execution");
  semirt::StageTimings timings;
  bool cold_start = false;
  /// The serving container's creation ordinal within its function (-1 =
  /// none acquired) and its invoker node (policy::Decision).
  int container = -1;
  int node = -1;
  TokenOrder order;
  uint64_t sched_seq = 0;     ///< arrival order assigned at admission
  uint64_t dispatch_seq = 0;  ///< policy order assigned at dispatch
  TimeMicros queue_wait = 0;  ///< time spent queued before dispatch
  int batch_size = 1;         ///< requests coalesced into this dispatch
  /// RT lane that executed this request, or -1 for the shared-pool path.
  int rt_lane = -1;
  /// Hashed std::thread::id of the executing thread. The isolation tests
  /// assert interactive and bulk executions land on disjoint thread sets.
  uint64_t exec_thread = 0;
};

/// Point-in-time view of the RT tier (zeroed when the tier is disabled).
struct RtTierStats {
  bool enabled = false;
  int lanes = 0;
  int busy_lanes = 0;
  uint64_t dispatches = 0;        ///< requests executed on RT lanes
  uint64_t fallbacks = 0;         ///< ring-full degradations to the shared pool
  uint64_t rejected_full = 0;     ///< raw executor-ring rejections
  size_t interactive_depth = 0;   ///< queued requests in the RT classes
  bool pinned = false;            ///< lane affinity applied (EPERM degrades)
  bool elevated = false;          ///< SCHED_FIFO applied (EPERM degrades)
};

/// Per-call scheduling overrides for InvokeAsync (defaults inherit the
/// function's FunctionSchedParams).
struct InvokeOptions {
  int priority = -1;  ///< -1 = function default; 0 = highest class
  TimeMicros deadline = sched::kNoDeadline;  ///< absolute, for DeadlineEdf
};

/// A live, in-process serverless platform: invoker nodes with memory-based
/// placement, warm-container reuse, keep-alive reclamation, and cold starts
/// that launch SeMIRT sandboxes. This is the execution substrate the
/// examples, benchmarks, and integration tests run on; its placement,
/// warm-choice and keep-alive decisions come from serverless/policy.h, which
/// the discrete-event simulator in src/sim calls too.
///
/// \par Concurrency design
/// The invocation hot path is sharded so concurrent requests never serialize
/// behind one global lock:
///  - the function table is read-mostly (`std::shared_mutex`; deploys are the
///    only writers, and shards are heap-stable so a reference obtained under
///    the shared lock stays valid for the platform's lifetime);
///  - each function shard keeps a lock-free warm-slot freelist (a tagged
///    Treiber stack of TCS slot tokens) — a warm acquisition is one CAS, and
///    the LIFO order naturally prefers the most recently used (hottest)
///    container;
///  - per-node memory accounting is a CAS reservation on an atomic counter,
///    and the expensive SemirtInstance launch runs outside every lock, so
///    cold starts of different functions proceed in parallel;
///  - a shard mutex serializes only the rare paths: container creation,
///    reaping, and inspection. An arrival that finds the freelist empty
///    while a launch has a spare token waits for that launch instead of
///    starting another.
///
/// \threadsafety All public methods are safe to call concurrently.
class ServerlessPlatform {
 public:
  /// `clock` defaults to a process-lifetime RealClock; tests inject a
  /// ManualClock to drive keep-alive expiry.
  ServerlessPlatform(const PlatformConfig& config,
                     sgx::AttestationAuthority* authority,
                     storage::ObjectStore* storage,
                     keyservice::KeyServiceServer* keyservice,
                     Clock* clock = nullptr);

  /// Shuts the platform down: still-queued requests resolve immediately with
  /// typed Unavailable("shutting down") (they are NOT executed), in-flight
  /// dispatches run to completion, and every outstanding InvokeAsync future
  /// is satisfied before any member is destroyed.
  ~ServerlessPlatform();

  /// Register a function (the owner's deployment step). Fails on duplicates.
  /// \threadsafety May race with Invoke/InvokeAsync on other functions.
  Status DeployFunction(const FunctionSpec& spec);

  /// Synchronously execute one request on `function`: reuses a warm container
  /// with a free TCS slot (most recently used first) or cold-starts a new
  /// one. Sets *cold_start if provisioning happened.
  /// \threadsafety Safe to call from many threads at once; warm acquisitions
  /// are lock-free.
  Result<Bytes> Invoke(const std::string& function,
                       const semirt::InferenceRequest& request,
                       semirt::StageTimings* timings = nullptr,
                       bool* cold_start = nullptr);

  /// Asynchronously execute one request through the request scheduler:
  /// admission control first (typed rejection — never an indefinite block),
  /// then policy-ordered queuing, then execution by dispatcher tasks on the
  /// process-wide fork-join pool, bounded by the in-flight window. Queued
  /// same-model requests may be coalesced into one batched enclave invocation
  /// when the function's sched.max_batch allows it. On single-threaded pools
  /// the dispatcher runs inline, so the queue drains before the future is
  /// returned (unless dispatch is paused).
  ///
  /// The returned future is always satisfied (errors — including admission
  /// rejections — are carried inside InvocationResult::response, never
  /// thrown).
  std::future<InvocationResult> InvokeAsync(const std::string& function,
                                            semirt::InferenceRequest request,
                                            const InvokeOptions& options = {});

  /// Scheduler introspection: queue depth, drops by reason, batch sizes,
  /// per-class queue-wait percentiles, per-function service counts.
  sched::SchedStats scheduler_stats() const { return scheduler_.stats(); }

  /// Execution-tier introspection: lane occupancy, RT dispatch/fallback
  /// counters, interactive backlog (what the cluster autoscaler samples).
  RtTierStats rt_stats() const;

  /// Requests currently queued in this platform's scheduler. One atomic
  /// read — cheap enough for the cluster router's bounded-load placement to
  /// poll on every invocation (scheduler_stats() is the heavyweight
  /// snapshot).
  size_t queue_depth() const { return scheduler_.TotalDepth(); }

  /// Gate the dispatcher tasks (benchmarks/tests): while paused, InvokeAsync
  /// submissions accumulate in the scheduler; Resume releases them in policy
  /// order. The destructor resumes automatically so queued work drains.
  void PauseDispatch();
  void ResumeDispatch();

  /// Reclaim containers idle longer than the keep-alive window. Called
  /// opportunistically (and rate-limited) by Invoke; exposed for tests and
  /// maintenance loops, where it always runs a full sweep.
  int ReapIdleContainers();

  /// Number of live containers for `function` ("" = all).
  int ContainerCount(const std::string& function = "") const;

  PlatformStats stats() const;

  /// Snapshot of the failure-recovery counters (quarantines, relaunch
  /// backoffs, shutdown drops — the full breakdown behind stats()).
  RecoveryStats recovery_stats() const;

  /// Re-home this platform's counters (PlatformStats, RecoveryStats,
  /// SchedStats) into `registry` as a scrape-time collector under
  /// `sesemi_platform_*` / `sesemi_sched_*` names. The label (e.g.
  /// node="2") distinguishes platforms sharing one registry; deregistration
  /// is automatic at destruction, so `registry` must outlive the platform.
  /// See docs/ARCHITECTURE.md "Observability".
  void RegisterMetrics(obs::MetricsRegistry* registry,
                       std::vector<std::pair<std::string, std::string>> labels = {});

  /// The SGX platform backing node `i` (for EPC/attestation inspection).
  sgx::SgxPlatform* node(int i) { return nodes_.at(i).platform.get(); }

 private:
  struct Container {
    std::string function;
    int node = 0;
    int ordinal = 0;  ///< creation order within the function
    uint64_t memory_bytes = 0;
    std::unique_ptr<semirt::SemirtInstance> instance;
    /// Warm tokens this container contributed (== num_tcs unless the slot
    /// directory ran out); the reaper's fully-idle test compares against
    /// this, not num_tcs, so short-tokened containers still get reclaimed.
    uint32_t num_tokens = 0;
    std::atomic<int> in_flight{0};
    std::atomic<TimeMicros> last_used{0};
    /// Set once by PoisonContainer after a poisoning ecall failure. A
    /// poisoned container accepts no new work: its tokens are quarantined as
    /// they surface, and the container is retired (enclave destroyed, memory
    /// returned) once every token is accounted for and in-flight work drains.
    std::atomic<bool> poisoned{false};
    /// Tokens quarantined so far; retirement requires == num_tokens.
    std::atomic<uint32_t> quarantined{0};
  };

  /// One warm TCS slot token. A container contributes `num_tcs` tokens to its
  /// shard's freelist; holding a popped token is the (lock-free) right to run
  /// one request on that container. Records are recycled across containers;
  /// the tagged freelist head makes reuse ABA-safe.
  struct WarmSlot {
    std::atomic<Container*> container{nullptr};
    std::atomic<uint32_t> next{0};
  };

  static constexpr uint32_t kNilSlot = 0xffffffffu;
  static constexpr uint32_t kSlotChunk = 64;     ///< slots per storage chunk
  static constexpr uint32_t kMaxChunks = 1024;   ///< 65536 slots per function

  /// A container launch that arrivals finding no warm token join
  /// (policy::ChooseLaunchToJoin). Guarded by its shard's mutex.
  struct Launch {
    int unclaimed = 0;  ///< spare tokens no arrival has claimed yet
    bool done = false;
    Status status;      ///< the launch's outcome, once done
    Container* container = nullptr;
    std::vector<uint32_t> claimed;  ///< done: the tokens the joiners take
  };

  /// Per-function state. The shard mutex guards only the cold/maintenance
  /// paths; the warm path touches nothing but `free_head` and slot records.
  struct FunctionShard {
    explicit FunctionShard(FunctionSpec s) : spec(std::move(s)) {}
    ~FunctionShard();

    const FunctionSpec spec;

    /// Lock-free freelist head: {tag:32 | slot index:32}. Every successful
    /// push/pop/steal bumps the tag, so a popped-and-reused slot can never
    /// satisfy a stale CAS (ABA).
    std::atomic<uint64_t> free_head;

    /// Stable slot storage: fixed chunk directory, chunks allocated under
    /// `mutex`, read lock-free via acquire loads.
    std::array<std::atomic<WarmSlot*>, kMaxChunks> chunks{};

    /// Placement hint: last node that hosted a container for this function
    /// (approximates the co-location preference without scanning).
    std::atomic<int> placement_hint{-1};

    mutable std::mutex mutex;
    std::vector<std::unique_ptr<Container>> containers;  ///< guarded by mutex
    std::vector<uint32_t> spare_slots;                   ///< guarded by mutex
    uint32_t slot_count = 0;                             ///< guarded by mutex
    int containers_created = 0;                          ///< guarded by mutex
    std::vector<std::shared_ptr<Launch>> launches;  ///< oldest first; guarded by mutex
    std::condition_variable launched;               ///< signals a launch is done
  };

  /// One execution right on a container: the freelist token held, whether
  /// the container was cold-started for it, and the token's events in the
  /// freelist order.
  struct Lease {
    Container* container = nullptr;
    uint32_t slot = kNilSlot;
    bool cold = false;
    TokenOrder order;
  };

  struct Node {
    std::unique_ptr<sgx::SgxPlatform> platform;
    std::atomic<uint64_t> memory_used{0};
  };

  static uint64_t PackHead(uint32_t tag, uint32_t index) {
    return (static_cast<uint64_t>(tag) << 32) | index;
  }
  static uint32_t HeadTag(uint64_t head) { return static_cast<uint32_t>(head >> 32); }
  static uint32_t HeadIndex(uint64_t head) { return static_cast<uint32_t>(head); }

  WarmSlot* SlotAt(const FunctionShard& shard, uint32_t index) const;
  /// Returns {tag:32 | index:32}: the popped index and the tag the pop
  /// produced, or kNilSlot and the tag at which the list was empty.
  uint64_t PopWarmSlot(FunctionShard* shard);
  /// Returns the tag the push produced.
  uint32_t PushWarmSlot(FunctionShard* shard, uint32_t index, Container* container);
  uint32_t AllocSlotRecordLocked(FunctionShard* shard);  ///< requires shard->mutex

  FunctionShard* FindShard(const std::string& function) const;
  bool TryReserveNodeMemory(int node, uint64_t bytes);
  int ChooseAndReserveNode(FunctionShard* shard, uint64_t bytes);

  /// No warm token: join a launch in progress (policy::ChooseLaunchToJoin)
  /// and wait for it, or cold-start a container. Either way the caller then
  /// holds one of the container's tokens in `lease`, unless a token came
  /// back to the freelist meanwhile: then `lease` stays empty and the
  /// caller pops again.
  Status ColdStart(FunctionShard* shard, Lease* lease);
  /// Launch and register a container for `shard`: `lease` gets its first
  /// token, `spare` the others.
  Status LaunchContainer(FunctionShard* shard, Lease* lease,
                         std::vector<uint32_t>* spare);

  /// Acquire one execution right on a container for `shard` (warm token
  /// chosen by policy::ChooseWarmToken, else ColdStart). Pairs with
  /// ReleaseContainer. Poisoned containers surfacing from the freelist are
  /// quarantined and skipped.
  Result<Lease> AcquireContainer(FunctionShard* shard, const std::string& model_id);
  void ReleaseContainer(FunctionShard* shard, Lease* lease);

  /// Mark `container` poisoned (idempotent); arms the relaunch accounting.
  void PoisonContainer(Container* container);
  /// Take `slot_index` out of circulation: the record returns to the spare
  /// pool and the container's quarantine count advances.
  void QuarantineSlot(FunctionShard* shard, Container* container,
                      uint32_t slot_index);
  void QuarantineSlotLocked(FunctionShard* shard, Container* container,
                            uint32_t slot_index);  ///< requires shard->mutex
  /// Retire a fully-quarantined, fully-drained poisoned container: destroy
  /// the enclave and return its memory.
  void MaybeRetireContainer(FunctionShard* shard, Container* container);

  /// One execution attempt: acquire, run (with optional exec deadline),
  /// poison on enclave failure, release. Fills out's timings, cold_start
  /// and decision fields.
  Result<Bytes> ExecuteAttempt(FunctionShard* shard,
                               const semirt::InferenceRequest& request,
                               const semirt::ExecDeadline* deadline,
                               InvocationResult* out);
  /// ExecuteAttempt wrapped in the recovery policy: retries retryable
  /// failures (idempotent stages only — a poisoning inference failure is
  /// translated to Unavailable and never retried), counts deadline cuts.
  Result<Bytes> ExecuteOne(FunctionShard* shard,
                           const semirt::InferenceRequest& request,
                           const semirt::ExecDeadline* deadline,
                           InvocationResult* out);

  /// Resolve every request still queued in the scheduler with a typed
  /// shutdown error (deadline-shed entries keep DeadlineExceeded).
  void DrainForShutdown();
  /// Resolve a request that will never execute with `status`.
  void ResolveUnexecuted(sched::QueuedRequest* qr, Status status);
  /// Deadline-shed work (DeadlineEdf) is never executed: its futures resolve
  /// with a typed DeadlineExceeded at dispatch time.
  void ResolveExpired(std::vector<sched::QueuedRequest>* expired);

  /// Dispatcher task body: pull batches from the scheduler until it drains.
  void PumpScheduler();
  void MaybeSpawnDispatcher();
  /// Execute one policy-ordered dispatch unit and resolve its promises.
  void DispatchBatch(std::vector<sched::QueuedRequest> batch);

  /// RT-tier routing (no-ops unless config_.rt.enabled):
  /// the effective priority class a submission will enqueue under.
  int EffectiveClass(const std::string& function, int priority) const;
  /// Hand one pump job to the RT lanes; on a full ring, degrade to a
  /// shared-pool task so the request never strands (counted as a fallback).
  void KickRtLane();
  /// One RT dispatch: pop exactly one interactive-class request (no
  /// coalescing) and execute it on the calling lane.
  void RtPumpOne();
  static void RtPumpTrampoline(void* self);
  /// Execute a single request on the calling thread and resolve its promise
  /// (`rt_lane` >= 0 tags the RT path in result + span).
  void DispatchOne(sched::QueuedRequest qr, int rt_lane);
  /// Feed the per-class wait/exec histograms (no-op until RegisterMetrics).
  void ObserveClassLatency(int cls, TimeMicros wait, TimeMicros exec);

  void MaybeReap();
  int ReapShard(FunctionShard* shard, TimeMicros now);

  PlatformConfig config_;
  storage::ObjectStore* storage_;
  keyservice::KeyServiceServer* keyservice_;
  std::unique_ptr<Clock> owned_clock_;
  Clock* clock_;

  std::vector<Node> nodes_;

  /// Function table: read-shared on every invocation, written only by
  /// DeployFunction. Shard pointers are stable once inserted.
  mutable std::shared_mutex functions_mutex_;
  std::unordered_map<std::string, std::unique_ptr<FunctionShard>> functions_;

  std::atomic<int> invocations_{0};
  std::atomic<int> cold_starts_{0};
  std::atomic<int> reaped_containers_{0};
  std::atomic<TimeMicros> last_reap_{0};

  // Recovery state (see serverless/recovery.h for the policy).
  RelaunchGate relaunch_gate_;
  JitteredBackoff retry_backoff_;
  std::atomic<int> pending_relaunches_{0};  ///< poisonings awaiting a relaunch
  std::atomic<uint64_t> enclave_failures_{0};
  std::atomic<uint64_t> quarantined_slots_{0};
  std::atomic<uint64_t> relaunches_{0};
  std::atomic<uint64_t> relaunch_backoffs_{0};
  std::atomic<uint64_t> retries_{0};
  std::atomic<uint64_t> deadline_cuts_{0};
  std::atomic<uint64_t> shutdown_drops_{0};
  std::atomic<bool> shutting_down_{false};

  /// Request scheduler (admission + fair queues + batcher). Dispatcher tasks
  /// on the fork-join pool pull from it; their count is bounded by
  /// window_limit_ (the in-flight window).
  sched::RequestScheduler scheduler_;
  std::mutex dispatch_mutex_;
  int active_dispatchers_ = 0;  ///< guarded by dispatch_mutex_
  bool dispatch_paused_ = false;  ///< guarded by dispatch_mutex_
  int window_limit_ = 0;

  /// Execution tiers (common/executor.h). The bulk dispatchers pop with
  /// bulk_mask_; RT lanes pop with rt_mask_. Tier disabled: rt_mask_ == 0
  /// and bulk_mask_ == kAllClasses, making every path bit-identical to the
  /// single-tier dispatcher.
  sched::ClassMask rt_mask_ = 0;
  sched::ClassMask bulk_mask_ = sched::kAllClasses;
  std::unique_ptr<RtExecutor> rt_exec_;  ///< reset first in the destructor
  std::atomic<uint64_t> rt_dispatches_{0};
  std::atomic<uint64_t> rt_fallbacks_{0};

  /// Per-class latency histograms, bound at RegisterMetrics (null = not
  /// registered; the hot path pays one relaxed load to find out).
  std::array<std::atomic<obs::Histogram*>, sched::kNumPriorityClasses>
      wait_hist_{};
  std::array<std::atomic<obs::Histogram*>, sched::kNumPriorityClasses>
      exec_hist_{};

  /// Deregisters the stats collector before the counters it reads die.
  obs::ScopedCollector metrics_collector_;

  /// Declared last so outstanding async invocations drain before any other
  /// member is destroyed.
  TaskGroup async_tasks_;
};

}  // namespace sesemi::serverless

#endif  // SESEMI_SERVERLESS_PLATFORM_H_
