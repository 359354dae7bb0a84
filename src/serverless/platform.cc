#include "serverless/platform.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "common/cpuid.h"
#include "common/faultpoint.h"
#include "obs/trace.h"
#include "serverless/policy.h"

namespace sesemi::serverless {

namespace {
/// What an InvokeAsync submission parks in the scheduler: the request itself
/// and the promise its future resolves from.
struct PendingInvocation {
  semirt::InferenceRequest request;
  std::promise<InvocationResult> promise;
};

std::shared_ptr<PendingInvocation> PayloadOf(const sched::QueuedRequest& qr) {
  return std::static_pointer_cast<PendingInvocation>(qr.payload);
}

int WindowLimitFor(const PlatformConfig& config) {
  return config.max_inflight > 0 ? config.max_inflight : 2 * ParallelismDegree();
}

/// The PR 2 window bounded outstanding work by blocking submitters; the
/// scheduler replaces blocking with typed shedding, so restore a bound by
/// default: an unset global backlog cap becomes 256 x the in-flight window.
sched::SchedulerConfig WithDefaultLimits(sched::SchedulerConfig sched_config,
                                         const PlatformConfig& config) {
  if (sched_config.limits.max_queued == 0) {
    sched_config.limits.max_queued = 256 * WindowLimitFor(config);
  }
  return sched_config;
}
}  // namespace

ServerlessPlatform::FunctionShard::~FunctionShard() {
  for (auto& chunk : chunks) delete[] chunk.load(std::memory_order_relaxed);
}

ServerlessPlatform::ServerlessPlatform(const PlatformConfig& config,
                                       sgx::AttestationAuthority* authority,
                                       storage::ObjectStore* storage,
                                       keyservice::KeyServiceServer* keyservice,
                                       Clock* clock)
    : config_(config),
      storage_(storage),
      keyservice_(keyservice),
      owned_clock_(clock == nullptr ? std::make_unique<RealClock>() : nullptr),
      clock_(clock == nullptr ? owned_clock_.get() : clock),
      relaunch_gate_(config.recovery),
      retry_backoff_(config.recovery.retry.backoff_base_micros,
                     config.recovery.retry.backoff_max_micros,
                     // Distinct stream from the relaunch gate's jitter.
                     config.recovery.backoff_seed ^ 0x9e3779b97f4a7c15ULL),
      scheduler_(WithDefaultLimits(config.scheduler, config), clock_) {
  nodes_ = std::vector<Node>(config_.num_nodes);
  for (auto& node : nodes_) {
    node.platform = std::make_unique<sgx::SgxPlatform>(config_.generation, authority);
  }
  window_limit_ = WindowLimitFor(config_);
  if (config_.rt.enabled) {
    const int classes =
        std::clamp(config_.rt.classes, 1, sched::kNumPriorityClasses);
    rt_mask_ = sched::ClassMaskUpTo(classes);
    bulk_mask_ = sched::kAllClasses & ~rt_mask_;
    rt_exec_ = std::make_unique<RtExecutor>(config_.rt.executor);
  }
}

ServerlessPlatform::~ServerlessPlatform() {
  // Stop accepting work and stop executing the backlog: still-queued futures
  // resolve with typed Unavailable("shutting down") rather than being run
  // (or worse, abandoned). In-flight dispatches finish normally.
  shutting_down_.store(true, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(dispatch_mutex_);
    dispatch_paused_ = false;  // parked backlog must drain, not execute
  }
  // Retire the RT lanes before draining: queued pump jobs run (and see
  // shutting_down_, so they pop nothing), in-flight RT dispatches finish,
  // and no lane can touch the scheduler once the drains below start.
  rt_exec_.reset();
  DrainForShutdown();
  async_tasks_.Wait();
  // A dispatcher may have been mid-PopBatch during the first drain; nothing
  // new can be queued now, so a second sweep leaves the scheduler empty.
  DrainForShutdown();
}

void ServerlessPlatform::DrainForShutdown() {
  for (;;) {
    std::vector<sched::QueuedRequest> expired;
    std::vector<sched::QueuedRequest> batch = scheduler_.PopBatch(&expired);
    if (batch.empty() && expired.empty()) break;
    ResolveExpired(&expired);
    for (sched::QueuedRequest& qr : batch) {
      ResolveUnexecuted(&qr, Status::Unavailable("shutting down"));
      shutdown_drops_.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

void ServerlessPlatform::ResolveUnexecuted(sched::QueuedRequest* qr,
                                           Status status) {
  InvocationResult out;
  out.response = std::move(status);
  out.sched_seq = qr->seq;
  out.queue_wait = clock_->Now() - qr->enqueue_time;
  PayloadOf(*qr)->promise.set_value(std::move(out));
}

void ServerlessPlatform::ResolveExpired(std::vector<sched::QueuedRequest>* expired) {
  for (sched::QueuedRequest& qr : *expired) {
    ResolveUnexecuted(&qr, Status::DeadlineExceeded(
                               "deadline passed before dispatch: " + qr.function));
  }
}

Status ServerlessPlatform::DeployFunction(const FunctionSpec& spec) {
  // A spec no launch can satisfy is rejected here: its first cold start would
  // otherwise fail and arm the platform-wide relaunch gate for every function.
  SESEMI_RETURN_IF_ERROR(semirt::ValidateOptions(spec.options));
  FunctionSpec normalized = spec;
  normalized.container_memory_bytes =
      policy::ContainerBytes(spec.container_memory_bytes);
  std::unique_lock<std::shared_mutex> lock(functions_mutex_);
  if (functions_.contains(spec.name)) {
    return Status::AlreadyExists("function already deployed: " + spec.name);
  }
  // Scheduler registration first (still under the deploy lock, so a racing
  // duplicate deploy cannot interleave): if the sched params are invalid the
  // function table is untouched and the deploy can be retried.
  SESEMI_RETURN_IF_ERROR(scheduler_.RegisterFunction(spec.name, spec.sched));
  auto [it, inserted] = functions_.try_emplace(spec.name, nullptr);
  (void)inserted;  // guaranteed by the contains() check under the same lock
  it->second = std::make_unique<FunctionShard>(std::move(normalized));
  it->second->free_head.store(PackHead(0, kNilSlot), std::memory_order_relaxed);
  return Status::OK();
}

ServerlessPlatform::FunctionShard* ServerlessPlatform::FindShard(
    const std::string& function) const {
  std::shared_lock<std::shared_mutex> lock(functions_mutex_);
  auto it = functions_.find(function);
  return it == functions_.end() ? nullptr : it->second.get();
}

ServerlessPlatform::WarmSlot* ServerlessPlatform::SlotAt(const FunctionShard& shard,
                                                         uint32_t index) const {
  WarmSlot* chunk = shard.chunks[index / kSlotChunk].load(std::memory_order_acquire);
  return &chunk[index % kSlotChunk];
}

// Lock-free pop (warm acquisition). The `next` read may be stale if another
// thread pops or steals concurrently, but any such interleaving bumps the
// head tag, so our CAS fails and we retry with fresh state.
uint64_t ServerlessPlatform::PopWarmSlot(FunctionShard* shard) {
  uint64_t head = shard->free_head.load(std::memory_order_acquire);
  for (;;) {
    const uint32_t index = HeadIndex(head);
    if (index == kNilSlot) return head;
    const uint32_t next = SlotAt(*shard, index)->next.load(std::memory_order_relaxed);
    const uint64_t want = PackHead(HeadTag(head) + 1, next);
    if (shard->free_head.compare_exchange_weak(head, want,
                                               std::memory_order_acq_rel,
                                               std::memory_order_acquire)) {
      return PackHead(HeadTag(want), index);
    }
  }
}

uint32_t ServerlessPlatform::PushWarmSlot(FunctionShard* shard, uint32_t index,
                                          Container* container) {
  WarmSlot* slot = SlotAt(*shard, index);
  slot->container.store(container, std::memory_order_relaxed);
  uint64_t head = shard->free_head.load(std::memory_order_relaxed);
  for (;;) {
    slot->next.store(HeadIndex(head), std::memory_order_relaxed);
    const uint64_t want = PackHead(HeadTag(head) + 1, index);
    if (shard->free_head.compare_exchange_weak(head, want,
                                               std::memory_order_acq_rel,
                                               std::memory_order_relaxed)) {
      return HeadTag(want);
    }
  }
}

uint32_t ServerlessPlatform::AllocSlotRecordLocked(FunctionShard* shard) {
  if (!shard->spare_slots.empty()) {
    const uint32_t index = shard->spare_slots.back();
    shard->spare_slots.pop_back();
    return index;
  }
  const uint32_t index = shard->slot_count;
  if (index >= kSlotChunk * kMaxChunks) return kNilSlot;
  if (index % kSlotChunk == 0) {
    shard->chunks[index / kSlotChunk].store(new WarmSlot[kSlotChunk],
                                            std::memory_order_release);
  }
  shard->slot_count++;
  return index;
}

bool ServerlessPlatform::TryReserveNodeMemory(int node, uint64_t bytes) {
  std::atomic<uint64_t>& used = nodes_[node].memory_used;
  uint64_t current = used.load(std::memory_order_relaxed);
  for (;;) {
    if (current + bytes > config_.invoker_memory_bytes) return false;
    if (used.compare_exchange_weak(current, current + bytes,
                                   std::memory_order_acq_rel,
                                   std::memory_order_relaxed)) {
      return true;
    }
  }
}

int ServerlessPlatform::ChooseAndReserveNode(FunctionShard* shard, uint64_t bytes) {
  // Decide on a snapshot, then reserve by CAS. Retry a few times — a losing
  // CAS means another cold start landed concurrently.
  std::vector<uint64_t> used(nodes_.size());
  for (int attempt = 0; attempt < 4; ++attempt) {
    for (size_t i = 0; i < nodes_.size(); ++i) {
      used[i] = nodes_[i].memory_used.load(std::memory_order_relaxed);
    }
    const int node =
        policy::ChooseNode(shard->placement_hint.load(std::memory_order_relaxed),
                           used, config_.invoker_memory_bytes, bytes);
    if (node < 0) return -1;
    if (TryReserveNodeMemory(node, bytes)) {
      shard->placement_hint.store(node, std::memory_order_relaxed);
      return node;
    }
  }
  return -1;
}

Status ServerlessPlatform::ColdStart(FunctionShard* shard, Lease* lease) {
  obs::Span span(obs::spans::kColdStart);
  const int spares = static_cast<int>(shard->spec.options.num_tcs) - 1;
  std::shared_ptr<Launch> launch;
  {
    std::unique_lock<std::mutex> lock(shard->mutex);
    // Launches publish their unclaimed tokens before they finish under this
    // mutex, so a token this arrival's pop missed is on the freelist now.
    const uint64_t head = shard->free_head.load(std::memory_order_acquire);
    if (HeadIndex(head) != kNilSlot) return Status::OK();
    lease->order.acquire = 2 * uint64_t{HeadTag(head)} + 1;
    std::vector<int> unclaimed;
    for (const auto& pending : shard->launches) unclaimed.push_back(pending->unclaimed);
    const int join = policy::ChooseLaunchToJoin(unclaimed);
    if (join >= 0) {
      std::shared_ptr<Launch> joined = shard->launches[static_cast<size_t>(join)];
      joined->unclaimed--;
      shard->launched.wait(lock, [&] { return joined->done; });
      if (!joined->status.ok()) return joined->status;
      if (joined->claimed.empty()) {
        return Status::ResourceExhausted("slot directory exhausted for " +
                                         shard->spec.name);
      }
      lease->container = joined->container;
      lease->slot = joined->claimed.back();
      joined->claimed.pop_back();
      return Status::OK();
    }
    launch = std::make_shared<Launch>();
    launch->unclaimed = spares;
    if (spares > 0) shard->launches.push_back(launch);
  }

  std::vector<uint32_t> spare;
  const Status status = LaunchContainer(shard, lease, &spare);
  {
    std::lock_guard<std::mutex> lock(shard->mutex);
    launch->status = status;
    if (status.ok()) {
      // The claimed tokens go to the joiners, who hold them from now on; the
      // rest become warm capacity only now that the launch is done.
      const size_t claimed =
          std::min(spare.size(), static_cast<size_t>(spares - launch->unclaimed));
      launch->container = lease->container;
      launch->claimed.assign(spare.end() - static_cast<std::ptrdiff_t>(claimed),
                             spare.end());
      spare.resize(spare.size() - claimed);
      lease->container->in_flight.fetch_add(static_cast<int>(claimed),
                                            std::memory_order_acq_rel);
      for (uint32_t slot : spare) PushWarmSlot(shard, slot, lease->container);
    }
    std::erase(shard->launches, launch);
    launch->done = true;
  }
  shard->launched.notify_all();
  return status;
}

Status ServerlessPlatform::LaunchContainer(FunctionShard* shard, Lease* lease,
                                           std::vector<uint32_t>* spare) {
  SESEMI_FAULT_POINT(faults::kServerlessLaunch);
  const FunctionSpec& spec = shard->spec;
  // Relaunch gate: after enclave *launch* failures, back off instead of
  // hammering a failing platform. Memory admission below is capacity, not
  // health, and deliberately bypasses the gate.
  {
    Status admit = relaunch_gate_.Admit(clock_->Now());
    if (!admit.ok()) {
      relaunch_backoffs_.fetch_add(1, std::memory_order_relaxed);
      return admit;
    }
  }
  const int node = ChooseAndReserveNode(shard, spec.container_memory_bytes);
  if (node < 0) {
    return Status::ResourceExhausted("no invoker has memory for " + spec.name);
  }

  // The expensive part — enclave launch — runs outside every platform lock,
  // so cold starts proceed in parallel with each other and with warm traffic.
  auto instance = semirt::SemirtInstance::Create(nodes_[node].platform.get(),
                                                 spec.options, storage_, keyservice_);
  if (!instance.ok()) {
    nodes_[node].memory_used.fetch_sub(spec.container_memory_bytes,
                                       std::memory_order_acq_rel);
    relaunch_gate_.OnLaunchFailure(clock_->Now());
    return instance.status();
  }
  relaunch_gate_.OnLaunchSuccess();
  // A successful launch while poisonings are outstanding is the recovery
  // event the relaunch counter tracks.
  int pending = pending_relaunches_.load(std::memory_order_acquire);
  while (pending > 0 &&
         !pending_relaunches_.compare_exchange_weak(pending, pending - 1,
                                                    std::memory_order_acq_rel)) {
  }
  if (pending > 0) relaunches_.fetch_add(1, std::memory_order_relaxed);

  auto container = std::make_unique<Container>();
  container->function = spec.name;
  container->node = node;
  container->memory_bytes = spec.container_memory_bytes;
  container->instance = std::move(*instance);
  container->in_flight.store(1, std::memory_order_relaxed);
  container->last_used.store(clock_->Now(), std::memory_order_relaxed);
  Container* raw = container.get();

  const uint32_t num_tcs = spec.options.num_tcs;  // >= 1: DeployFunction checked it
  std::vector<uint32_t> slots;
  {
    std::lock_guard<std::mutex> lock(shard->mutex);
    slots.reserve(num_tcs);
    for (uint32_t i = 0; i < num_tcs; ++i) {
      const uint32_t index = AllocSlotRecordLocked(shard);
      if (index == kNilSlot) break;  // slot directory full; cap concurrency
      slots.push_back(index);
    }
    if (slots.empty()) {
      nodes_[node].memory_used.fetch_sub(spec.container_memory_bytes,
                                         std::memory_order_acq_rel);
      return Status::ResourceExhausted("slot directory exhausted for " + spec.name);
    }
    container->num_tokens = static_cast<uint32_t>(slots.size());
    container->ordinal = shard->containers_created++;
    shard->containers.push_back(std::move(container));
  }

  lease->container = raw;
  lease->slot = slots.front();
  lease->cold = true;
  for (uint32_t slot : slots) {
    SlotAt(*shard, slot)->container.store(raw, std::memory_order_relaxed);
  }
  spare->assign(slots.begin() + 1, slots.end());

  cold_starts_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Result<ServerlessPlatform::Lease> ServerlessPlatform::AcquireContainer(
    FunctionShard* shard, const std::string& model_id) {
  obs::Span span(obs::spans::kWarmAcquire);
  Lease lease;
  // Tokens popped while choosing, top first; the ones not taken go back.
  // Poisoned containers' tokens are quarantined on sight (holding a token is
  // the exclusive right to decide its fate, so this races with nothing): the
  // top skips past them, a peek spends its turn on one.
  constexpr int kMaxPopped = 1 + policy::kAffinityPeek;
  uint32_t popped[kMaxPopped] = {};
  Container* owners[kMaxPopped] = {};
  int popped_count = 0;
  auto pop = [&](int i) -> std::optional<bool> {
    for (;;) {
      const uint64_t head = PopWarmSlot(shard);
      const uint32_t index = HeadIndex(head);
      if (index == kNilSlot) return std::nullopt;
      Container* container =
          SlotAt(*shard, index)->container.load(std::memory_order_relaxed);
      if (container->poisoned.load(std::memory_order_acquire)) {
        QuarantineSlot(shard, container, index);
        MaybeRetireContainer(shard, container);
        if (i == 0) continue;
        return false;
      }
      if (i == 0) lease.order.acquire = 2 * uint64_t{HeadTag(head)};
      popped[i] = index;
      owners[i] = container;
      popped_count = i + 1;
      return container->instance->loaded_model_id() == model_id;
    }
  };
  // ColdStart leaves the lease empty when a token came back meanwhile.
  while (lease.container == nullptr) {
    const int choice = policy::ChooseWarmToken(pop);
    if (choice < 0) {
      SESEMI_RETURN_IF_ERROR(ColdStart(shard, &lease));
      continue;
    }
    lease.container = owners[choice];
    lease.slot = popped[choice];
    for (int i = popped_count - 1; i >= 0; --i) {
      if (i != choice && owners[i] != nullptr) PushWarmSlot(shard, popped[i], owners[i]);
    }
    lease.container->in_flight.fetch_add(1, std::memory_order_acq_rel);
  }
  span.set_arg("cold", lease.cold ? 1 : 0);
  return lease;
}

void ServerlessPlatform::ReleaseContainer(FunctionShard* shard, Lease* lease) {
  Container* container = lease->container;
  container->last_used.store(clock_->Now(), std::memory_order_relaxed);
  if (container->poisoned.load(std::memory_order_acquire)) {
    // Never return a poisoned container's token to the freelist: quarantine
    // it, then retire the container once in-flight work has drained.
    QuarantineSlot(shard, container, lease->slot);
    container->in_flight.fetch_sub(1, std::memory_order_acq_rel);
    MaybeRetireContainer(shard, container);
    return;
  }
  container->in_flight.fetch_sub(1, std::memory_order_acq_rel);
  lease->order.release = 2 * uint64_t{PushWarmSlot(shard, lease->slot, container)};
}

void ServerlessPlatform::PoisonContainer(Container* container) {
  bool expected = false;
  if (!container->poisoned.compare_exchange_strong(expected, true,
                                                   std::memory_order_acq_rel)) {
    return;  // already poisoned by a concurrent failure
  }
  enclave_failures_.fetch_add(1, std::memory_order_relaxed);
  pending_relaunches_.fetch_add(1, std::memory_order_acq_rel);
}

void ServerlessPlatform::QuarantineSlotLocked(FunctionShard* shard,
                                              Container* container,
                                              uint32_t slot_index) {
  shard->spare_slots.push_back(slot_index);
  container->quarantined.fetch_add(1, std::memory_order_acq_rel);
  quarantined_slots_.fetch_add(1, std::memory_order_relaxed);
}

void ServerlessPlatform::QuarantineSlot(FunctionShard* shard,
                                        Container* container,
                                        uint32_t slot_index) {
  std::lock_guard<std::mutex> lock(shard->mutex);
  QuarantineSlotLocked(shard, container, slot_index);
}

void ServerlessPlatform::MaybeRetireContainer(FunctionShard* shard,
                                              Container* container) {
  std::lock_guard<std::mutex> lock(shard->mutex);
  // Membership check FIRST, by pointer identity only: a concurrent
  // quarantiner may have already retired (freed) the container, so no
  // dereference is legal until it is confirmed still present.
  auto it = std::find_if(
      shard->containers.begin(), shard->containers.end(),
      [&](const std::unique_ptr<Container>& c) { return c.get() == container; });
  if (it == shard->containers.end()) return;  // already retired
  // Retirement needs every token quarantined AND no request executing: both
  // hold only once no thread can still hand the container new work, so
  // destroying the instance (enclave teardown) here is safe.
  if (container->quarantined.load(std::memory_order_acquire) <
          container->num_tokens ||
      container->in_flight.load(std::memory_order_acquire) != 0) {
    return;
  }
  nodes_[container->node].memory_used.fetch_sub(container->memory_bytes,
                                                std::memory_order_acq_rel);
  shard->containers.erase(it);
}

Result<Bytes> ServerlessPlatform::ExecuteAttempt(
    FunctionShard* shard, const semirt::InferenceRequest& request,
    const semirt::ExecDeadline* deadline, InvocationResult* out) {
  SESEMI_FAULT_POINT(faults::kServerlessDispatch);
  if (deadline != nullptr && deadline->Expired()) {
    return Status::DeadlineExceeded("deadline passed before execution");
  }

  SESEMI_ASSIGN_OR_RETURN(Lease lease, AcquireContainer(shard, request.model_id));
  if (lease.cold) out->cold_start = true;
  out->container = lease.container->ordinal;
  out->node = lease.container->node;

  Result<Bytes> result =
      lease.container->instance->HandleRequest(request, &out->timings, deadline);

  if (config_.recovery.enabled && !result.ok() &&
      IsEnclavePoisoning(result.status().code())) {
    // The enclave's internal state can no longer be trusted: poison it so
    // the release below quarantines the token instead of recycling it.
    PoisonContainer(lease.container);
  }
  ReleaseContainer(shard, &lease);
  out->order = lease.order;
  invocations_.fetch_add(1, std::memory_order_relaxed);
  return result;
}

Result<Bytes> ServerlessPlatform::ExecuteOne(
    FunctionShard* shard, const semirt::InferenceRequest& request,
    const semirt::ExecDeadline* deadline, InvocationResult* out) {
  const RetryPolicy& policy = config_.recovery.retry;
  const int max_attempts =
      config_.recovery.enabled ? std::max(1, policy.max_attempts) : 1;

  Result<Bytes> result = Status::Aborted("request dropped before execution");
  for (int attempt = 0;; ++attempt) {
    result = ExecuteAttempt(shard, request, deadline, out);
    if (result.ok()) break;
    const StatusCode code = result.status().code();
    if (code == StatusCode::kDeadlineExceeded) {
      deadline_cuts_.fetch_add(1, std::memory_order_relaxed);
      break;
    }
    if (IsEnclavePoisoning(code)) {
      // The inference ecall itself faulted: never retried (it may have
      // consumed or mutated state), but surfaced as typed Unavailable — the
      // enclave is quarantined and a relaunch restores service.
      result = Status::Unavailable("enclave failure: " +
                                   result.status().message());
      break;
    }
    if (!config_.recovery.enabled || !IsRetryableFailure(code) ||
        attempt + 1 >= max_attempts ||
        (deadline != nullptr && deadline->Expired())) {
      break;
    }
    // Retryable (kUnavailable) failures come only from idempotent stages —
    // key fetch, handshake, model fetch, or pre-entry dispatch faults.
    retries_.fetch_add(1, std::memory_order_relaxed);
    const TimeMicros delay = retry_backoff_.Next(attempt);
    if (delay > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(delay));
    }
  }
  return result;
}

Result<Bytes> ServerlessPlatform::Invoke(const std::string& function,
                                         const semirt::InferenceRequest& request,
                                         semirt::StageTimings* timings,
                                         bool* cold_start) {
  if (shutting_down_.load(std::memory_order_acquire)) {
    return Status::Unavailable("shutting down");
  }
  MaybeReap();

  FunctionShard* shard = FindShard(function);
  if (shard == nullptr) {
    return Status::NotFound("no such function: " + function);
  }

  InvocationResult out;
  Result<Bytes> result = ExecuteOne(shard, request, nullptr, &out);
  if (timings != nullptr) *timings = out.timings;
  if (cold_start != nullptr) *cold_start = out.cold_start;
  return result;
}

std::future<InvocationResult> ServerlessPlatform::InvokeAsync(
    const std::string& function, semirt::InferenceRequest request,
    const InvokeOptions& options) {
  if (shutting_down_.load(std::memory_order_acquire)) {
    shutdown_drops_.fetch_add(1, std::memory_order_relaxed);
    std::promise<InvocationResult> rejected;
    InvocationResult out;
    out.response = Status::Unavailable("shutting down");
    rejected.set_value(std::move(out));
    return rejected.get_future();
  }
  auto pending = std::make_shared<PendingInvocation>();
  pending->request = std::move(request);
  std::future<InvocationResult> future = pending->promise.get_future();

  // Nests under cluster.route when the router invoked us on this thread;
  // otherwise roots a new trace. The context rides the queued request to
  // whichever dispatcher thread pops it.
  obs::Span submit(obs::spans::kPlatformSubmit);

  sched::QueuedRequest queued;
  queued.function = function;
  queued.model_id = pending->request.model_id;
  queued.session_id = pending->request.user_id;
  queued.priority = options.priority;
  queued.deadline = options.deadline;
  queued.trace = submit.context();
  queued.payload = pending;
  const uint64_t payload_bytes = pending->request.encrypted_input.size();

  // Resolve the class before Submit consumes the request: it decides which
  // tier's doorbell to ring after a successful enqueue.
  const int effective_class = EffectiveClass(function, options.priority);

  Status admitted = scheduler_.Submit(std::move(queued), payload_bytes);
  if (!admitted.ok()) {
    // Typed rejection (rate limit / backlog full / unknown function): the
    // future resolves immediately — no caller ever parks on a mutex.
    InvocationResult out;
    out.response = admitted;
    pending->promise.set_value(std::move(out));
    return future;
  }

  if (rt_exec_ != nullptr &&
      (sched::ClassMaskOf(effective_class) & rt_mask_) != 0) {
    KickRtLane();
  } else {
    MaybeSpawnDispatcher();
  }
  return future;
}

int ServerlessPlatform::EffectiveClass(const std::string& function,
                                       int priority) const {
  if (priority < 0) {
    const sched::FunctionSchedParams* params =
        scheduler_.function_params(function);
    priority = params != nullptr ? params->priority : 1;
  }
  return std::clamp(priority, 0, sched::kNumPriorityClasses - 1);
}

void ServerlessPlatform::RtPumpTrampoline(void* self) {
  static_cast<ServerlessPlatform*>(self)->RtPumpOne();
}

void ServerlessPlatform::KickRtLane() {
  {
    std::lock_guard<std::mutex> lock(dispatch_mutex_);
    if (dispatch_paused_) return;  // ResumeDispatch re-rings per queued request
  }
  // Zero-allocation handoff: one slot-ring publish + one semaphore release.
  if (rt_exec_->Submit(&RtPumpTrampoline, this)) return;
  // Ring full — the interactive classes are severely oversubscribed. Degrade
  // to a shared-pool task running the same single-request pump, so the
  // request is late rather than stranded.
  rt_fallbacks_.fetch_add(1, std::memory_order_relaxed);
  async_tasks_.Submit([this] { RtPumpOne(); });
}

void ServerlessPlatform::RtPumpOne() {
  if (shutting_down_.load(std::memory_order_acquire)) {
    return;  // the destructor's drain resolves whatever is queued
  }
  {
    std::lock_guard<std::mutex> lock(dispatch_mutex_);
    if (dispatch_paused_) return;
  }
  std::vector<sched::QueuedRequest> expired;
  sched::QueuedRequest qr;
  const bool got = scheduler_.PopOne(rt_mask_, &qr, &expired);
  ResolveExpired(&expired);
  if (!got) return;  // raced with another lane (or shed everything)
  DispatchOne(std::move(qr), RtExecutor::LaneIndex());
}

void ServerlessPlatform::MaybeSpawnDispatcher() {
  {
    std::lock_guard<std::mutex> lock(dispatch_mutex_);
    if (dispatch_paused_ || active_dispatchers_ >= window_limit_) return;
    active_dispatchers_++;
  }
  async_tasks_.Submit([this] { PumpScheduler(); });
}

void ServerlessPlatform::PumpScheduler() {
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(dispatch_mutex_);
      if (dispatch_paused_ || shutting_down_.load(std::memory_order_acquire)) {
        // On shutdown the destructor's drain resolves whatever remains queued.
        active_dispatchers_--;
        return;
      }
    }
    std::vector<sched::QueuedRequest> expired;
    // Bulk dispatchers serve only the non-RT classes (bulk_mask_ is
    // kAllClasses when the tier is disabled, making this the unmasked pop).
    std::vector<sched::QueuedRequest> batch =
        scheduler_.PopBatch(bulk_mask_, &expired);
    ResolveExpired(&expired);
    if (batch.empty()) {
      // Exit only if the queue is truly drained: the depth re-check under
      // dispatch_mutex_ pairs with MaybeSpawnDispatcher's increment, so a
      // submission that saw active_dispatchers_ == limit is guaranteed to be
      // observed by one of those dispatchers before it exits.
      std::lock_guard<std::mutex> lock(dispatch_mutex_);
      // Depth is checked through the bulk mask: backlog parked in RT-only
      // classes belongs to the lanes, and spinning on it here would wedge
      // this dispatcher forever.
      if (scheduler_.DepthInClasses(bulk_mask_) == 0 || dispatch_paused_) {
        active_dispatchers_--;
        return;
      }
      continue;
    }
    DispatchBatch(std::move(batch));
  }
}

void ServerlessPlatform::PauseDispatch() {
  std::lock_guard<std::mutex> lock(dispatch_mutex_);
  dispatch_paused_ = true;
}

void ServerlessPlatform::ResumeDispatch() {
  {
    std::lock_guard<std::mutex> lock(dispatch_mutex_);
    dispatch_paused_ = false;
  }
  // One dispatcher per window slot (bounded inside MaybeSpawnDispatcher);
  // surplus dispatchers find the queue empty and exit.
  const size_t depth = scheduler_.DepthInClasses(bulk_mask_);
  for (size_t i = 0; i < depth; ++i) MaybeSpawnDispatcher();
  if (rt_exec_ != nullptr) {
    // One doorbell per parked RT request; surplus pumps pop nothing and exit.
    const size_t rt_depth = scheduler_.DepthInClasses(rt_mask_);
    for (size_t i = 0; i < rt_depth; ++i) KickRtLane();
  }
}

void ServerlessPlatform::ObserveClassLatency(int cls, TimeMicros wait,
                                             TimeMicros exec) {
  cls = std::clamp(cls, 0, sched::kNumPriorityClasses - 1);
  if (obs::Histogram* h =
          wait_hist_[cls].load(std::memory_order_relaxed)) {
    h->Observe(MicrosToSeconds(wait < 0 ? 0 : wait));
  }
  if (obs::Histogram* h =
          exec_hist_[cls].load(std::memory_order_relaxed)) {
    h->Observe(MicrosToSeconds(exec < 0 ? 0 : exec));
  }
}

void ServerlessPlatform::DispatchOne(sched::QueuedRequest qr, int rt_lane) {
  const TimeMicros now = clock_->Now();
  auto pending = PayloadOf(qr);

  // RT dispatches get their own span name so lane occupancy reads directly
  // off a Chrome trace; both carry the priority class for filtering.
  obs::Span dispatch(
      rt_lane >= 0 ? obs::spans::kRtLane : obs::spans::kDispatch, qr.trace);
  dispatch.set_arg("lane", rt_lane);
  dispatch.set_priority(qr.priority);
  if (obs::Tracer::Enabled()) {
    const TimeMicros trace_now = obs::Tracer::Now();
    const TimeMicros wait = now >= qr.enqueue_time ? now - qr.enqueue_time : 0;
    obs::Tracer::EmitSpan(qr.trace, obs::spans::kQueueWait, trace_now - wait,
                          trace_now, "batch_size", 1, qr.priority);
  }

  InvocationResult out;
  out.sched_seq = qr.seq;
  out.dispatch_seq = qr.dispatch_seq;
  out.queue_wait = now - qr.enqueue_time;
  out.rt_lane = rt_lane;
  out.exec_thread = std::hash<std::thread::id>{}(std::this_thread::get_id());

  semirt::ExecDeadline exec_deadline;
  const semirt::ExecDeadline* deadline_ptr = nullptr;
  if (config_.recovery.enabled && qr.deadline != sched::kNoDeadline) {
    exec_deadline = {qr.deadline, clock_};
    deadline_ptr = &exec_deadline;
  }

  MaybeReap();
  FunctionShard* shard = FindShard(qr.function);
  const TimeMicros exec_start = clock_->Now();
  if (shard == nullptr) {
    out.response = Status::NotFound("no such function: " + qr.function);
  } else {
    out.response = ExecuteOne(shard, pending->request, deadline_ptr, &out);
  }
  if (rt_lane >= 0) rt_dispatches_.fetch_add(1, std::memory_order_relaxed);
  ObserveClassLatency(qr.priority, out.queue_wait, clock_->Now() - exec_start);
  pending->promise.set_value(std::move(out));
}

void ServerlessPlatform::DispatchBatch(std::vector<sched::QueuedRequest> batch) {
  if (batch.size() == 1) {
    DispatchOne(std::move(batch.front()), /*rt_lane=*/-1);
    return;
  }
  const TimeMicros now = clock_->Now();

  // Continue the head request's trace on this dispatcher thread. Coalesced
  // companions keep their own traces: each gets a reconstructed queue-wait
  // span plus (for non-heads) a sched.coalesced instant pointing at the
  // trace that carries the shared dispatch/ecall spans.
  obs::Span dispatch(obs::spans::kDispatch, batch.front().trace);
  dispatch.set_arg("batch_size", static_cast<int64_t>(batch.size()));
  dispatch.set_priority(batch.front().priority);
  if (obs::Tracer::Enabled()) {
    const TimeMicros trace_now = obs::Tracer::Now();
    for (size_t i = 0; i < batch.size(); ++i) {
      const sched::QueuedRequest& qr = batch[i];
      const TimeMicros wait = now >= qr.enqueue_time ? now - qr.enqueue_time : 0;
      obs::Tracer::EmitSpan(qr.trace, obs::spans::kQueueWait, trace_now - wait,
                            trace_now, "batch_size",
                            static_cast<int64_t>(batch.size()), qr.priority);
      if (i > 0) {
        obs::Tracer::EmitInstant(
            qr.trace, obs::spans::kCoalesced, "head_trace",
            static_cast<int64_t>(batch.front().trace.trace_id));
      }
    }
  }

  auto resolve_all = [&](const Status& status) {
    for (sched::QueuedRequest& qr : batch) {
      InvocationResult out;
      out.response = status;
      out.sched_seq = qr.seq;
      out.dispatch_seq = qr.dispatch_seq;
      out.queue_wait = now - qr.enqueue_time;
      out.batch_size = static_cast<int>(batch.size());
      PayloadOf(qr)->promise.set_value(std::move(out));
    }
  };

  // Deadline enforcement at execution time: cooperative cuts between
  // pipeline stages, never mid-inference. Earliest deadline governs a batch.
  semirt::ExecDeadline exec_deadline;
  const semirt::ExecDeadline* deadline_ptr = nullptr;
  if (config_.recovery.enabled) {
    TimeMicros earliest = sched::kNoDeadline;
    for (const sched::QueuedRequest& qr : batch) {
      earliest = std::min(earliest, qr.deadline);
    }
    if (earliest != sched::kNoDeadline) {
      exec_deadline = {earliest, clock_};
      deadline_ptr = &exec_deadline;
    }
  }

  // Batched dispatch: one container slot, one enclave entry for the whole
  // same-model, same-session batch.
  MaybeReap();
  FunctionShard* shard = FindShard(batch.front().function);
  if (shard == nullptr) {
    resolve_all(Status::NotFound("no such function: " + batch.front().function));
    return;
  }

  auto lease = AcquireContainer(shard, batch.front().model_id);
  if (!lease.ok()) {
    resolve_all(lease.status());
    return;
  }
  Container* container = lease->container;
  const int ordinal = container->ordinal;
  const int node = container->node;

  std::vector<const semirt::InferenceRequest*> requests;
  std::vector<std::shared_ptr<PendingInvocation>> pendings;
  requests.reserve(batch.size());
  pendings.reserve(batch.size());
  for (const sched::QueuedRequest& qr : batch) {
    pendings.push_back(PayloadOf(qr));
    requests.push_back(&pendings.back()->request);
  }

  semirt::StageTimings timings;
  const TimeMicros exec_start = clock_->Now();
  std::vector<Result<Bytes>> results =
      container->instance->HandleRequestBatch(requests, &timings, deadline_ptr);
  const TimeMicros exec_micros = clock_->Now() - exec_start;

  // Batch dispatches are never retried (the enclave entry is not idempotent);
  // poisoning failures quarantine the container and surface as Unavailable.
  for (Result<Bytes>& r : results) {
    if (r.ok()) continue;
    const StatusCode code = r.status().code();
    if (code == StatusCode::kDeadlineExceeded) {
      deadline_cuts_.fetch_add(1, std::memory_order_relaxed);
    } else if (config_.recovery.enabled && IsEnclavePoisoning(code)) {
      PoisonContainer(container);
      r = Status::Unavailable("enclave failure: " + r.status().message());
    }
  }

  ReleaseContainer(shard, &*lease);
  invocations_.fetch_add(static_cast<int>(batch.size()),
                         std::memory_order_relaxed);

  const uint64_t exec_thread =
      std::hash<std::thread::id>{}(std::this_thread::get_id());
  for (size_t i = 0; i < batch.size(); ++i) {
    InvocationResult out;
    out.response = std::move(results[i]);
    out.timings = timings;  // stage costs are shared across the batch
    out.cold_start = lease->cold;
    out.container = ordinal;
    out.node = node;
    out.order = lease->order;
    out.sched_seq = batch[i].seq;
    out.dispatch_seq = batch[i].dispatch_seq;
    out.queue_wait = now - batch[i].enqueue_time;
    out.batch_size = static_cast<int>(batch.size());
    out.exec_thread = exec_thread;
    ObserveClassLatency(batch[i].priority, out.queue_wait, exec_micros);
    pendings[i]->promise.set_value(std::move(out));
  }
}

void ServerlessPlatform::MaybeReap() {
  // Rate-limit the opportunistic sweep so it never contends with the
  // lock-free warm path on every request.
  const TimeMicros interval =
      std::min<TimeMicros>(config_.keep_alive / 4 + 1, SecondsToMicros(1));
  const TimeMicros now = clock_->Now();
  TimeMicros last = last_reap_.load(std::memory_order_relaxed);
  if (now - last < interval) return;
  if (!last_reap_.compare_exchange_strong(last, now, std::memory_order_acq_rel)) {
    return;  // another thread took this sweep
  }
  ReapIdleContainers();
}

int ServerlessPlatform::ReapShard(FunctionShard* shard, TimeMicros now) {
  std::lock_guard<std::mutex> lock(shard->mutex);

  // Nothing to do unless some container is poisoned or has idled past
  // keep_alive. Returning here keeps the freelist in place: stealing it when
  // nothing can be reaped makes concurrent warm acquisitions cold-start.
  const bool candidate = std::any_of(
      shard->containers.begin(), shard->containers.end(), [&](const auto& c) {
        return c->poisoned.load(std::memory_order_acquire) ||
               policy::KeepAliveExpired(
                   now, c->last_used.load(std::memory_order_relaxed),
                   config_.keep_alive);
      });
  if (!candidate) return 0;

  // Steal the whole freelist in one CAS; we then own the chain exclusively
  // (in-progress pops that loaded the old head fail their CAS on the bumped
  // tag). Warm acquisitions racing with the sweep see an empty list and may
  // cold-start spuriously; the check above confines that to sweeps that
  // have a container to reap or retire.
  uint64_t head = shard->free_head.load(std::memory_order_acquire);
  for (;;) {
    const uint64_t want = PackHead(HeadTag(head) + 1, kNilSlot);
    if (shard->free_head.compare_exchange_weak(head, want,
                                               std::memory_order_acq_rel,
                                               std::memory_order_acquire)) {
      break;
    }
  }

  // Group the stolen tokens by container. A container is reapable only if
  // every one of its tokens was in the freelist (nothing in flight).
  // Poisoned containers' tokens are quarantined here instead of regrouped, so
  // a sweep also mops up tokens a failing enclave left circulating.
  std::unordered_map<Container*, std::vector<uint32_t>> tokens;
  for (uint32_t index = HeadIndex(head); index != kNilSlot;) {
    WarmSlot* slot = SlotAt(*shard, index);
    Container* owner = slot->container.load(std::memory_order_relaxed);
    const uint32_t next = slot->next.load(std::memory_order_relaxed);
    if (owner != nullptr && owner->poisoned.load(std::memory_order_acquire)) {
      QuarantineSlotLocked(shard, owner, index);
    } else {
      tokens[owner].push_back(index);
    }
    index = next;
  }

  int reaped = 0;
  for (auto it = shard->containers.begin(); it != shard->containers.end();) {
    Container* c = it->get();
    if (c->poisoned.load(std::memory_order_acquire)) {
      // Quarantined enclaves retire as soon as they drain, regardless of
      // keep_alive; they never return to service and are not counted as
      // idle-reaped.
      if (c->quarantined.load(std::memory_order_acquire) >= c->num_tokens &&
          c->in_flight.load(std::memory_order_acquire) == 0) {
        nodes_[c->node].memory_used.fetch_sub(c->memory_bytes,
                                              std::memory_order_acq_rel);
        it = shard->containers.erase(it);
      } else {
        ++it;
      }
      continue;
    }
    auto token_it = tokens.find(c);
    const size_t free_tokens = token_it == tokens.end() ? 0 : token_it->second.size();
    const bool idle = free_tokens == c->num_tokens &&
                      c->in_flight.load(std::memory_order_acquire) == 0;
    if (idle && policy::KeepAliveExpired(
                    now, c->last_used.load(std::memory_order_relaxed),
                    config_.keep_alive)) {
      nodes_[c->node].memory_used.fetch_sub(c->memory_bytes,
                                            std::memory_order_acq_rel);
      // Recycle the slot records (tagged head makes the reuse ABA-safe).
      shard->spare_slots.insert(shard->spare_slots.end(),
                                token_it->second.begin(), token_it->second.end());
      tokens.erase(token_it);
      it = shard->containers.erase(it);
      ++reaped;
    } else {
      ++it;
    }
  }

  // Survivors' tokens go back to the freelist (reverse order keeps the
  // pre-sweep LIFO preference roughly intact).
  std::vector<std::pair<uint32_t, Container*>> back;
  for (auto& [container, indices] : tokens) {
    for (uint32_t index : indices) back.emplace_back(index, container);
  }
  for (auto rit = back.rbegin(); rit != back.rend(); ++rit) {
    PushWarmSlot(shard, rit->first, rit->second);
  }
  return reaped;
}

int ServerlessPlatform::ReapIdleContainers() {
  const TimeMicros now = clock_->Now();
  int reaped = 0;
  std::shared_lock<std::shared_mutex> lock(functions_mutex_);
  for (auto& [name, shard] : functions_) {
    reaped += ReapShard(shard.get(), now);
  }
  reaped_containers_.fetch_add(reaped, std::memory_order_relaxed);
  return reaped;
}

int ServerlessPlatform::ContainerCount(const std::string& function) const {
  std::shared_lock<std::shared_mutex> lock(functions_mutex_);
  int count = 0;
  for (const auto& [name, shard] : functions_) {
    if (!function.empty() && name != function) continue;
    std::lock_guard<std::mutex> shard_lock(shard->mutex);
    count += static_cast<int>(shard->containers.size());
  }
  return count;
}

PlatformStats ServerlessPlatform::stats() const {
  PlatformStats stats;
  stats.invocations = invocations_.load(std::memory_order_relaxed);
  stats.cold_starts = cold_starts_.load(std::memory_order_relaxed);
  stats.reaped_containers = reaped_containers_.load(std::memory_order_relaxed);
  stats.enclave_failures = enclave_failures_.load(std::memory_order_relaxed);
  stats.relaunches = relaunches_.load(std::memory_order_relaxed);
  stats.retries = retries_.load(std::memory_order_relaxed);
  stats.deadline_cuts = deadline_cuts_.load(std::memory_order_relaxed);
  return stats;
}

RecoveryStats ServerlessPlatform::recovery_stats() const {
  RecoveryStats stats;
  stats.enclave_failures = enclave_failures_.load(std::memory_order_relaxed);
  stats.quarantined_slots = quarantined_slots_.load(std::memory_order_relaxed);
  stats.relaunches = relaunches_.load(std::memory_order_relaxed);
  stats.relaunch_backoffs = relaunch_backoffs_.load(std::memory_order_relaxed);
  stats.retries = retries_.load(std::memory_order_relaxed);
  stats.deadline_cuts = deadline_cuts_.load(std::memory_order_relaxed);
  stats.shutdown_drops = shutdown_drops_.load(std::memory_order_relaxed);
  return stats;
}

RtTierStats ServerlessPlatform::rt_stats() const {
  RtTierStats stats;
  stats.enabled = rt_exec_ != nullptr;
  if (rt_exec_ != nullptr) {
    const RtExecutorStats e = rt_exec_->stats();
    stats.lanes = e.lanes;
    stats.busy_lanes = e.busy_lanes;
    stats.rejected_full = e.rejected_full;
    stats.pinned = e.pinned;
    stats.elevated = e.elevated;
    stats.interactive_depth = scheduler_.DepthInClasses(rt_mask_);
  }
  stats.dispatches = rt_dispatches_.load(std::memory_order_relaxed);
  stats.fallbacks = rt_fallbacks_.load(std::memory_order_relaxed);
  return stats;
}

void ServerlessPlatform::RegisterMetrics(
    obs::MetricsRegistry* registry,
    std::vector<std::pair<std::string, std::string>> labels) {
  // Per-class latency histograms are bound once here and observed lock-free
  // on the dispatch paths; until registration they stay null and dispatch
  // skips the observation entirely.
  for (int cls = 0; cls < sched::kNumPriorityClasses; ++cls) {
    auto cls_labels = labels;
    cls_labels.emplace_back("class", std::to_string(cls));
    wait_hist_[static_cast<size_t>(cls)].store(
        registry->GetHistogram("sesemi_sched_wait_seconds",
                               obs::Histogram::LatencyBounds(), cls_labels),
        std::memory_order_release);
    exec_hist_[static_cast<size_t>(cls)].store(
        registry->GetHistogram("sesemi_platform_exec_seconds",
                               obs::Histogram::LatencyBounds(), cls_labels),
        std::memory_order_release);
  }
  // Scrape-time collector over the existing atomic counters: the hot paths
  // keep their plain relaxed fetch_adds; the registry only pays at
  // Snapshot(). Metric names: docs/BENCHMARKS.md "Metric names".
  metrics_collector_ = obs::ScopedCollector(
      registry, [this, labels = std::move(labels)]() {
        std::vector<obs::Sample> samples;
        samples.reserve(32);
        const PlatformStats p = stats();
        samples.push_back(obs::MakeCounterSample(
            "sesemi_platform_invocations_total", p.invocations, labels));
        samples.push_back(obs::MakeCounterSample(
            "sesemi_platform_cold_starts_total", p.cold_starts, labels));
        samples.push_back(obs::MakeCounterSample(
            "sesemi_platform_reaped_containers_total", p.reaped_containers,
            labels));

        const RecoveryStats r = recovery_stats();
        samples.push_back(obs::MakeCounterSample(
            "sesemi_recovery_enclave_failures_total",
            static_cast<double>(r.enclave_failures), labels));
        samples.push_back(obs::MakeCounterSample(
            "sesemi_recovery_quarantined_slots_total",
            static_cast<double>(r.quarantined_slots), labels));
        samples.push_back(obs::MakeCounterSample(
            "sesemi_recovery_relaunches_total",
            static_cast<double>(r.relaunches), labels));
        samples.push_back(obs::MakeCounterSample(
            "sesemi_recovery_relaunch_backoffs_total",
            static_cast<double>(r.relaunch_backoffs), labels));
        samples.push_back(obs::MakeCounterSample(
            "sesemi_recovery_retries_total", static_cast<double>(r.retries),
            labels));
        samples.push_back(obs::MakeCounterSample(
            "sesemi_recovery_deadline_cuts_total",
            static_cast<double>(r.deadline_cuts), labels));
        samples.push_back(obs::MakeCounterSample(
            "sesemi_recovery_shutdown_drops_total",
            static_cast<double>(r.shutdown_drops), labels));

        const sched::SchedStats s = scheduler_stats();
        auto with = [&labels](std::string key, std::string value) {
          auto combined = labels;
          combined.emplace_back(std::move(key), std::move(value));
          return combined;
        };
        samples.push_back(obs::MakeGaugeSample("sesemi_sched_policy_info", 1,
                                               with("policy", s.policy)));
        samples.push_back(obs::MakeCounterSample(
            "sesemi_sched_submitted_total", static_cast<double>(s.submitted),
            labels));
        samples.push_back(obs::MakeCounterSample(
            "sesemi_sched_admitted_total", static_cast<double>(s.admitted),
            labels));
        samples.push_back(obs::MakeCounterSample(
            "sesemi_sched_dispatched_total", static_cast<double>(s.dispatched),
            labels));
        samples.push_back(obs::MakeCounterSample(
            "sesemi_sched_rejected_total", static_cast<double>(s.rejected_rate),
            with("reason", "rate")));
        samples.push_back(obs::MakeCounterSample(
            "sesemi_sched_rejected_total",
            static_cast<double>(s.rejected_depth), with("reason", "depth")));
        samples.push_back(obs::MakeCounterSample(
            "sesemi_sched_rejected_total",
            static_cast<double>(s.rejected_global), with("reason", "global")));
        samples.push_back(obs::MakeCounterSample(
            "sesemi_sched_deadline_drops_total", static_cast<double>(s.drops),
            labels));
        samples.push_back(obs::MakeGaugeSample(
            "sesemi_sched_queue_depth", static_cast<double>(s.queue_depth),
            labels));
        samples.push_back(obs::MakeCounterSample(
            "sesemi_sched_batches_total", static_cast<double>(s.batches),
            labels));
        samples.push_back(obs::MakeGaugeSample("sesemi_sched_avg_batch_size",
                                               s.avg_batch_size, labels));
        for (int cls = 0; cls < sched::kNumPriorityClasses; ++cls) {
          const auto& wait = s.wait[static_cast<size_t>(cls)];
          auto cls_labels = with("class", std::to_string(cls));
          samples.push_back(obs::MakeGaugeSample(
              "sesemi_sched_wait_p50_seconds",
              MicrosToSeconds(wait.p50), cls_labels));
          samples.push_back(obs::MakeGaugeSample(
              "sesemi_sched_wait_p99_seconds",
              MicrosToSeconds(wait.p99), cls_labels));
        }

        const RtTierStats rt = rt_stats();
        samples.push_back(obs::MakeGaugeSample(
            "sesemi_rt_tier_enabled", rt.enabled ? 1.0 : 0.0, labels));
        if (rt.enabled) {
          samples.push_back(obs::MakeGaugeSample(
              "sesemi_rt_lanes", static_cast<double>(rt.lanes), labels));
          samples.push_back(obs::MakeGaugeSample(
              "sesemi_rt_busy_lanes", static_cast<double>(rt.busy_lanes),
              labels));
          samples.push_back(obs::MakeCounterSample(
              "sesemi_rt_dispatches_total",
              static_cast<double>(rt.dispatches), labels));
          samples.push_back(obs::MakeCounterSample(
              "sesemi_rt_fallbacks_total", static_cast<double>(rt.fallbacks),
              labels));
          samples.push_back(obs::MakeCounterSample(
              "sesemi_rt_rejected_full_total",
              static_cast<double>(rt.rejected_full), labels));
          samples.push_back(obs::MakeGaugeSample(
              "sesemi_rt_interactive_depth",
              static_cast<double>(rt.interactive_depth), labels));
        }

        // Which kernel/crypto tier each primitive resolved to (info-style:
        // the tier is the label, the value is always 1).
        for (Primitive primitive : kAllPrimitives) {
          auto tier_labels = with("primitive", PrimitiveName(primitive));
          tier_labels.emplace_back("tier",
                                   TierName(primitive, ResolveTier(primitive)));
          samples.push_back(
              obs::MakeGaugeSample("sesemi_dispatch_tier", 1, tier_labels));
        }
        return samples;
      });
}

}  // namespace sesemi::serverless
