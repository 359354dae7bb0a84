#include "sim/cluster.h"

#include <algorithm>
#include <cassert>

#include "obs/trace.h"

namespace sesemi::sim {

using semirt::RuntimeMode;
namespace policy = serverless::policy;

ClusterSim::ClusterSim(SimConfig config) : config_(std::move(config)) {
  nodes_.resize(config_.num_nodes);
  for (int i = 0; i < config_.num_nodes; ++i) nodes_[i].id = i;
}

void ClusterSim::AddFunction(SimFunction function) {
  Function state;
  state.options.framework = function.framework;
  state.options.mode = function.mode;
  state.options.num_tcs = static_cast<uint32_t>(function.num_tcs);
  state.options.sequential_mode = function.sequential_isolation;
  state.options.disable_key_cache = function.sequential_isolation;
  state.spec = std::move(function);
  functions_[state.spec.name] = std::move(state);
}

ClusterSim::Function& ClusterSim::FunctionState(const std::string& name) {
  auto it = functions_.find(name);
  assert(it != functions_.end() && "unknown function");
  return it->second;
}

uint64_t ClusterSim::EnclaveBytes(const SimFunction& fn) const {
  if (fn.mode == RuntimeMode::kUntrusted) return 0;
  const ModelProfile& p = config_.cost_model.profile(fn.framework, fn.arch);
  // Appendix D: the base enclave memory configuration covers one runtime;
  // each additional TCS adds another runtime buffer.
  return p.enclave_bytes + static_cast<uint64_t>(fn.num_tcs - 1) * p.buffer_bytes;
}

uint64_t ClusterSim::ContainerMemory(const SimFunction& fn) const {
  if (fn.container_memory_bytes != 0) {
    return policy::ContainerBytes(fn.container_memory_bytes);
  }
  const ModelProfile& p = config_.cost_model.profile(fn.framework, fn.arch);
  uint64_t need = fn.mode == RuntimeMode::kUntrusted
                      ? p.model_bytes + static_cast<uint64_t>(fn.num_tcs) * p.buffer_bytes
                      : EnclaveBytes(fn);
  return policy::ContainerBytes(need + (32ull << 20));  // container overhead
}

int ClusterSim::total_containers() const {
  int n = 0;
  for (const auto& [id, c] : containers_) n += !c->reclaimed;
  return n;
}

int ClusterSim::serving_containers() const {
  int n = 0;
  for (const auto& [id, c] : containers_) {
    if (c->reclaimed) continue;
    for (const auto& slot : c->slots) {
      if (slot.busy) {
        ++n;
        break;
      }
    }
  }
  return n;
}

void ClusterSim::SampleUsage() {
  double memory = 0;
  for (const auto& node : nodes_) memory += static_cast<double>(node.memory_used);
  metrics_.SampleMemory(queue_.now(), memory);
  metrics_.SampleSandboxes(queue_.now(), total_containers(), serving_containers());
}

ClusterSim::Container* ClusterSim::CreateContainer(const std::string& function) {
  Function& state = FunctionState(function);
  const SimFunction& fn = state.spec;
  uint64_t memory = ContainerMemory(fn);
  uint64_t enclave_bytes = EnclaveBytes(fn);

  std::vector<uint64_t> used;
  used.reserve(nodes_.size());
  for (const Node& node : nodes_) used.push_back(node.memory_used);
  const int chosen = policy::ChooseNode(state.placement_hint, used,
                                        config_.invoker_memory_bytes, memory);
  if (chosen < 0) return nullptr;  // cluster saturated
  state.placement_hint = chosen;

  Node& node = nodes_[chosen];
  node.memory_used += memory;
  node.epc_committed += enclave_bytes;

  auto container = std::make_unique<Container>();
  Container* raw = container.get();
  raw->id = next_container_id_++;
  raw->ordinal = state.containers_created++;
  raw->node = chosen;
  raw->function = function;
  raw->memory_bytes = memory;
  raw->enclave_bytes = enclave_bytes;
  raw->slots.resize(static_cast<size_t>(fn.num_tcs));
  raw->last_used = queue_.now();

  double init_s = config_.cost_model.SandboxInitSeconds();
  if (fn.mode != RuntimeMode::kUntrusted) {
    node.launches_in_progress++;
    // Profile-calibrated single-launch cost (Fig 17), scaled for extra TCS
    // heap and for concurrent launches on this node (Fig 15).
    const ModelProfile& p = config_.cost_model.profile(fn.framework, fn.arch);
    double size_scale = static_cast<double>(enclave_bytes) /
                        static_cast<double>(p.enclave_bytes);
    init_s += p.enclave_init_s * size_scale * node.launches_in_progress;
    int node_id = chosen;
    queue_.ScheduleAfter(SecondsToMicros(init_s), [this, node_id] {
      nodes_[node_id].launches_in_progress--;
    });
  }
  raw->ready_at = queue_.now() + SecondsToMicros(init_s);

  containers_[raw->id] = std::move(container);
  SampleUsage();
  return raw;
}

ClusterSim::Grant ClusterSim::Acquire(const std::string& function,
                                      const std::string& model_id,
                                      const std::string& user_id) {
  Function& state = FunctionState(function);
  std::vector<int>& tokens = state.free_tokens;
  const int pick = policy::ChooseWarmToken([&](int i) -> std::optional<bool> {
    if (static_cast<size_t>(i) >= tokens.size()) return std::nullopt;
    return containers_.at(tokens[tokens.size() - 1 - static_cast<size_t>(i)])
               ->loaded_model == model_id;
  });
  Grant grant;
  Container* c = nullptr;
  if (pick >= 0) {
    auto token = tokens.end() - 1 - pick;
    c = containers_.at(*token).get();
    tokens.erase(token);
  } else {
    std::vector<int> unclaimed;
    for (int id : state.launching) unclaimed.push_back(containers_.at(id)->unclaimed);
    const int join = policy::ChooseLaunchToJoin(unclaimed);
    if (join >= 0) {
      c = containers_.at(state.launching[static_cast<size_t>(join)]).get();
      c->unclaimed--;  // the request's stages start when the launch is ready
    } else {
      c = CreateContainer(function);
      if (c == nullptr) return grant;
      grant.created = true;
      c->unclaimed = static_cast<int>(c->slots.size()) - 1;
      if (c->unclaimed > 0) state.launching.push_back(c->id);
    }
  }
  grant.container = c->id;
  // The lowest free TCS slot, as SemirtInstance::AcquireSlot takes it.
  grant.slot = static_cast<int>(
      std::find_if(c->slots.begin(), c->slots.end(),
                   [](const Slot& slot) { return !slot.busy; }) -
      c->slots.begin());
  Slot& slot = c->slots.at(static_cast<size_t>(grant.slot));
  slot.busy = true;
  c->last_used = queue_.now();

  const semirt::SemirtOptions& options = state.options;
  if (policy::RelaunchesEnclave(options, c->fresh)) {
    grant.relaunch = true;
    c->fresh = true;
    c->attested = false;
    c->cached_key.clear();
    c->loaded_model.clear();
    for (Slot& s : c->slots) s.runtime_model.clear();
  }
  const std::string key_id = policy::KeyId(model_id, user_id);
  if (options.mode != RuntimeMode::kUntrusted &&
      !policy::ReusesKeys(options, c->cached_key, key_id)) {
    grant.fetch_key = true;
    grant.attest = !c->attested;
    c->attested = true;
    c->cached_key = key_id;
  }
  if (!policy::ReusesModel(options, c->loaded_model, model_id)) {
    grant.load_model = true;
    c->loaded_model = model_id;
  }
  if (!policy::ReusesRuntime(options, slot.runtime_model, model_id)) {
    grant.init_runtime = true;
    slot.runtime_model = model_id;
  }
  grant.decision = {function, c->ordinal, c->node,
                    policy::Classify(c->fresh, grant.fetch_key || grant.load_model ||
                                                   grant.init_runtime)};
  c->fresh = false;
  SampleUsage();
  return grant;
}

void ClusterSim::Release(int container, int slot) {
  Container* c = containers_.at(container).get();
  c->slots.at(static_cast<size_t>(slot)).busy = false;
  c->last_used = queue_.now();
  FunctionState(c->function).free_tokens.push_back(c->id);
}

void ClusterSim::Launched(int container) {
  Container* c = containers_.at(container).get();
  Function& state = FunctionState(c->function);
  std::erase(state.launching, c->id);
  // The cold-starting request and the arrivals that joined the launch hold
  // the other tokens.
  state.free_tokens.insert(state.free_tokens.end(), c->unclaimed, c->id);
  c->unclaimed = 0;
}

void ClusterSim::Submit(const std::string& function, const std::string& model_id,
                        const std::string& user_id, TimeMicros t,
                        CompletionCallback on_complete) {
  PendingRequest request{function, model_id, user_id, t, std::move(on_complete)};
  queue_.ScheduleAt(t, [this, request] {
    if (!TryStart(request)) waiting_[request.function].push_back(request);
  });
}

bool ClusterSim::TryStart(const PendingRequest& request) {
  Grant grant = Acquire(request.function, request.model_id, request.user_id);
  if (grant.container < 0) return false;
  Container* container = containers_.at(grant.container).get();
  if (grant.created) {
    queue_.ScheduleAt(container->ready_at,
                      [this, id = container->id, function = request.function] {
                        Launched(id);
                        DrainQueue(function);
                      });
  }
  StartRequest(request, grant);
  return true;
}

void ClusterSim::StartRequest(const PendingRequest& request, const Grant& grant) {
  Container* container = containers_.at(grant.container).get();
  const SimFunction& fn = FunctionState(request.function).spec;
  const ModelProfile& profile = config_.cost_model.profile(fn.framework, fn.arch);
  const bool trusted = fn.mode != RuntimeMode::kUntrusted;
  Node& node = nodes_[container->node];

  // ---- Pre-execution stages (relaunch, key fetch, model load, runtime
  // init), as Acquire decided them. Every invocation pays the platform's
  // controller/proxy overhead; it holds the container slot but no model CPU.
  double pre_s = config_.cost_model.PlatformOverheadSeconds();
  // Per-stage costs tracked alongside pre_s for the virtual-time trace
  // (same semirt.* stage names as the live path, so sim-vs-real traces of
  // one replay are directly comparable).
  const double overhead_s = pre_s;
  double relaunch_s = 0, key_s = 0, model_s = 0, rt_s = 0;
  if (grant.relaunch) {
    // Native relaunches the enclave inside the warm sandbox.
    double size_scale = static_cast<double>(container->enclave_bytes) /
                        static_cast<double>(profile.enclave_bytes);
    relaunch_s = profile.enclave_init_s * size_scale * (node.launches_in_progress + 1);
    pre_s += relaunch_s;
  }
  if (grant.attest) {
    node.attestations_in_progress++;
    // profile.key_fetch_s already contains one uncontended attestation;
    // add the contention surcharge beyond it.
    double contention =
        config_.cost_model.AttestationSeconds(node.attestations_in_progress) -
        config_.cost_model.AttestationSeconds(1);
    key_s = profile.key_fetch_s + contention;
    pre_s += key_s;
    queue_.ScheduleAfter(SecondsToMicros(pre_s), [this, node_id = node.id] {
      nodes_[node_id].attestations_in_progress--;
    });
  } else if (grant.fetch_key) {
    key_s = config_.cost_model.WarmKeyFetchSeconds();
    pre_s += key_s;
  }
  if (grant.load_model) {
    model_s = trusted ? profile.model_load_s : profile.plain_model_load_s;
    if (config_.remote_storage) {
      model_s += MicrosToSeconds(
          config_.cost_model.storage_latency().TransferTime(profile.model_bytes));
    }
    pre_s += model_s;
  }
  if (grant.init_runtime) {
    rt_s = trusted ? profile.runtime_init_s : profile.plain_runtime_init_s;
    pre_s += rt_s;
  }

  // Begin stages when the container is ready.
  TimeMicros begin = std::max(queue_.now(), container->ready_at);
  TimeMicros exec_begin = begin + SecondsToMicros(pre_s);
  PendingRequest req = request;

  // Virtual-time trace: pre-execution stage spans laid out sequentially from
  // `begin` under a pre-minted root (closed at completion below). Explicit
  // timestamps, so no clock override is needed — the exported JSON simply
  // carries simulated time.
  obs::TraceContext trace_root;
  if (obs::Tracer::Enabled()) {
    trace_root = obs::Tracer::NewContext();
    TimeMicros cursor = begin;
    auto stage = [&cursor, &trace_root](const char* name, double seconds) {
      if (seconds <= 0) return;
      const TimeMicros end = cursor + SecondsToMicros(seconds);
      obs::Tracer::EmitSpan(trace_root, name, cursor, end);
      cursor = end;
    };
    stage(obs::spans::kSimOverhead, overhead_s);
    stage(obs::spans::kEnclaveInit, relaunch_s);
    stage(obs::spans::kKeyFetch, key_s);
    stage(obs::spans::kModelLoad, model_s);
    stage(obs::spans::kRuntimeInit, rt_s);
  }

  queue_.ScheduleAt(exec_begin, [this, req, grant, trusted, trace_root] {
    Container* c = containers_.at(grant.container).get();
    const SimFunction& f = FunctionState(req.function).spec;
    const ModelProfile& p = config_.cost_model.profile(f.framework, f.arch);
    Node& node = nodes_[c->node];
    node.runnable++;
    double epc_util = config_.cost_model.epc_bytes() == 0
                          ? 0.0
                          : static_cast<double>(node.epc_committed) /
                                static_cast<double>(config_.cost_model.epc_bytes());
    double exec_s =
        config_.cost_model.ExecuteSeconds(p, node.runnable,
                                          config_.cost_model.cores_per_node(),
                                          epc_util, trusted);
    if (trace_root.valid() && obs::Tracer::Enabled()) {
      obs::Tracer::EmitSpan(trace_root, obs::spans::kInference, queue_.now(),
                            queue_.now() + SecondsToMicros(exec_s));
    }
    queue_.ScheduleAfter(SecondsToMicros(exec_s), [this, req, grant, trace_root] {
      nodes_[containers_.at(grant.container)->node].runnable--;
      if (trace_root.valid()) {
        obs::Tracer::EmitRoot(trace_root, obs::spans::kSimRequest, req.submit,
                              queue_.now(), "node", grant.decision.node);
      }
      FinishRequest(req, grant);
    });
  });
}

void ClusterSim::FinishRequest(const PendingRequest& request, const Grant& grant) {
  Release(grant.container, grant.slot);

  RequestRecord record;
  record.function = request.function;
  record.model_id = request.model_id;
  record.user_id = request.user_id;
  record.submit = request.submit;
  record.complete = queue_.now();
  record.kind = grant.decision.kind;
  record.container = grant.decision.container;
  record.node = grant.decision.node;
  if (request.on_complete) request.on_complete(record);
  metrics_.Record(std::move(record));

  SampleUsage();
  ScheduleReclaim(containers_.at(grant.container).get());
  DrainQueue(request.function);
}

void ClusterSim::ScheduleReclaim(Container* container) {
  int id = container->id;
  queue_.ScheduleAfter(config_.keep_alive + 1, [this, id] { ReclaimIfIdle(id); });
}

void ClusterSim::ReclaimIfIdle(int container_id) {
  auto it = containers_.find(container_id);
  if (it == containers_.end() || it->second->reclaimed) return;
  Container* c = it->second.get();
  for (const auto& slot : c->slots) {
    if (slot.busy) return;
  }
  if (!policy::KeepAliveExpired(queue_.now(), c->last_used, config_.keep_alive)) {
    return;
  }
  c->reclaimed = true;
  std::vector<int>& tokens = FunctionState(c->function).free_tokens;
  tokens.erase(std::remove(tokens.begin(), tokens.end(), c->id), tokens.end());
  Node& node = nodes_[c->node];
  node.memory_used -= std::min(node.memory_used, c->memory_bytes);
  node.epc_committed -= std::min(node.epc_committed, c->enclave_bytes);
  SampleUsage();
}

void ClusterSim::DrainQueue(const std::string& function) {
  auto it = waiting_.find(function);
  if (it == waiting_.end()) return;
  // One event can free several tokens (a launch publishes every spare token
  // no arrival claimed), so start waiting requests in FIFO order until one
  // cannot start.
  std::deque<PendingRequest>& queue = it->second;
  while (!queue.empty() && TryStart(queue.front())) queue.pop_front();
}

Status ClusterSim::Prewarm(const std::string& function, int count,
                           const std::string& model_id, const std::string& user_id) {
  if (functions_.count(function) == 0) {
    return Status::NotFound("unknown function: " + function);
  }
  std::vector<int>& tokens = FunctionState(function).free_tokens;
  for (int i = 0; i < count; ++i) {
    Container* c = CreateContainer(function);
    if (c == nullptr) {
      return Status::ResourceExhausted("cluster cannot fit prewarmed container");
    }
    c->ready_at = queue_.now();
    c->loaded_model = model_id;
    c->cached_key = policy::KeyId(model_id, user_id);
    c->attested = true;
    c->fresh = false;  // first request is hot, not cold
    for (auto& slot : c->slots) slot.runtime_model = model_id;
    tokens.insert(tokens.end(), c->slots.size(), c->id);
  }
  return Status::OK();
}

}  // namespace sesemi::sim
