#ifndef SESEMI_SIM_CLUSTER_H_
#define SESEMI_SIM_CLUSTER_H_

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "serverless/policy.h"
#include "sim/cost_model.h"
#include "sim/event_queue.h"
#include "sim/metrics.h"

namespace sesemi::sim {

/// A deployed function (one serverless endpoint). Multiple models may be
/// served by one function (FnPacker pools); the architecture/framework fix
/// the cost profile.
struct SimFunction {
  std::string name;
  inference::FrameworkKind framework = inference::FrameworkKind::kTvm;
  model::Architecture arch = model::Architecture::kMbNet;
  semirt::RuntimeMode mode = semirt::RuntimeMode::kSesemi;
  int num_tcs = 1;
  bool sequential_isolation = false;  ///< Table II build
  /// Container memory budget; 0 = derive from the enclave size. Rounded up
  /// to the 128 MB provisioning granularity (policy::ContainerBytes).
  uint64_t container_memory_bytes = 0;
};

/// Cluster-level configuration (Table V + §VI setup).
struct SimConfig {
  int num_nodes = 8;
  uint64_t invoker_memory_bytes = 64ull << 30;  ///< per node
  TimeMicros keep_alive = SecondsToMicros(180);  ///< 3-minute warm window
  bool remote_storage = false;  ///< add cloud-storage download to model loads
  CostModel cost_model = CostModel::PaperSgx2();
};

/// Discrete-event simulation of the OpenWhisk-style cluster running SeMIRT
/// (or a baseline runtime). Reproduces the paper's cluster experiments with
/// the calibrated cost model. Every decision the live platform makes —
/// memory-based placement, warm-token choice (LIFO plus model affinity,
/// else joining a launching container that has a spare token),
/// per-enclave key / model / runtime reuse, invocation kind, keep-alive
/// expiry — comes from serverless/policy.h, the same functions
/// ServerlessPlatform and SemirtInstance call; the sim adds only virtual
/// time and costs.
class ClusterSim {
 public:
  explicit ClusterSim(SimConfig config);

  void AddFunction(SimFunction function);

  /// Create `count` ready containers for `function`, with `model_id` loaded
  /// hot for `user_id` (the paper's warm-up step).
  Status Prewarm(const std::string& function, int count, const std::string& model_id,
                 const std::string& user_id);

  /// Callback invoked (in virtual time) when a request completes.
  using CompletionCallback = std::function<void(const RequestRecord&)>;

  /// Schedule a request arrival at absolute time `t`.
  void Submit(const std::string& function, const std::string& model_id,
              const std::string& user_id, TimeMicros t,
              CompletionCallback on_complete = nullptr);

  /// Run the simulation to completion (all arrivals processed).
  void Run() { queue_.RunAll(); }

  EventQueue& queue() { return queue_; }
  Metrics& metrics() { return metrics_; }
  TimeMicros now() const { return queue_.now(); }

  /// Total containers currently alive / currently executing.
  int total_containers() const;
  int serving_containers() const;

  /// What one acquisition decided: the container and TCS slot the request
  /// holds, its policy::Decision, and which pre-execution stages it runs.
  struct Grant {
    int container = -1;  ///< sim container id; -1 = no node had room
    int slot = -1;
    serverless::policy::Decision decision;
    bool created = false;   ///< the container was cold-started for it
    bool relaunch = false;  ///< Native: enclave relaunched first
    bool fetch_key = false;
    bool attest = false;    ///< the key fetch opens the KeyService channel
    bool load_model = false;
    bool init_runtime = false;
  };

  /// The policy steps Submit runs when a request starts and ends, public so
  /// a replay can drive them in an order the live platform recorded
  /// (tests/support/decision_replay.h). Acquire takes a warm token, joins a
  /// launch or cold-starts a container, and applies the stage-reuse rules
  /// to its state; Release returns the token. Neither advances virtual time
  /// or charges a cost.
  Grant Acquire(const std::string& function, const std::string& model_id,
                const std::string& user_id);
  void Release(int container, int slot);

 private:
  struct Node {
    int id = 0;
    uint64_t memory_used = 0;
    uint64_t epc_committed = 0;
    int launches_in_progress = 0;
    int attestations_in_progress = 0;
    int runnable = 0;  ///< CPU-bound requests executing now
  };

  struct Slot {
    bool busy = false;
    std::string runtime_model;  ///< model this slot's runtime was built for
  };

  struct Container {
    int id = 0;
    int ordinal = 0;  ///< creation order within the function
    int node = -1;
    std::string function;
    uint64_t memory_bytes = 0;
    uint64_t enclave_bytes = 0;
    TimeMicros ready_at = 0;
    bool reclaimed = false;
    bool fresh = true;  ///< no request served since the enclave launched
    TimeMicros last_used = 0;
    std::vector<Slot> slots;
    std::string loaded_model;
    std::string cached_key;  ///< policy::KeyId (single-pair key cache)
    bool attested = false;   ///< KeyService channel established
    int unclaimed = 0;       ///< launching: spare tokens no arrival claimed
  };

  /// A deployed function and its warm pool.
  struct Function {
    SimFunction spec;
    semirt::SemirtOptions options;  ///< what the policy rules read
    std::vector<int> free_tokens;   ///< warm freelist of container ids; top = back
    std::vector<int> launching;     ///< containers still launching, oldest first
    int placement_hint = -1;
    int containers_created = 0;
  };

  struct PendingRequest {
    std::string function;
    std::string model_id;
    std::string user_id;
    TimeMicros submit = 0;
    CompletionCallback on_complete;
  };

  Function& FunctionState(const std::string& name);
  uint64_t ContainerMemory(const SimFunction& fn) const;
  uint64_t EnclaveBytes(const SimFunction& fn) const;

  /// Place and launch a container (not yet ready), or null when no node has
  /// room.
  Container* CreateContainer(const std::string& function);
  /// Acquire and start `request`; false (request not started) when no node
  /// has room.
  bool TryStart(const PendingRequest& request);
  void StartRequest(const PendingRequest& request, const Grant& grant);
  void FinishRequest(const PendingRequest& request, const Grant& grant);
  void ScheduleReclaim(Container* container);
  void ReclaimIfIdle(int container_id);
  /// A launch is ready: publish the spare tokens no arrival joined for.
  void Launched(int container);
  void DrainQueue(const std::string& function);
  void SampleUsage();

  SimConfig config_;
  EventQueue queue_;
  Metrics metrics_;
  std::map<std::string, Function> functions_;
  std::vector<Node> nodes_;
  std::map<int, std::unique_ptr<Container>> containers_;
  std::map<std::string, std::deque<PendingRequest>> waiting_;
  int next_container_id_ = 1;
};

}  // namespace sesemi::sim

#endif  // SESEMI_SIM_CLUSTER_H_
