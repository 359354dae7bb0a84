#ifndef SESEMI_CLUSTER_REPLAY_H_
#define SESEMI_CLUSTER_REPLAY_H_

#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "common/result.h"
#include "serverless/policy.h"
#include "sim/cluster.h"
#include "workload/generators.h"

namespace sesemi::cluster {

/// \file
/// Deterministic traffic replay: feed the *same* seeded workload trace
/// (workload/generators.h) to the real multi-node dataplane and to the
/// discrete-event simulator, producing comparable result summaries and
/// per-request decision logs. This is the differential harness's substrate
/// (tests/cluster_sim_parity_test.cc) and what bench_cluster runs.

/// An arrival bound to its target: which deployed function it invokes and
/// the concrete (sealed) request it carries.
struct BoundArrival {
  std::string function;
  semirt::InferenceRequest request;
};

/// Maps one trace arrival to its bound form. The trace's model_id field is
/// the *tenant tag* (it names the stream, and through the binder the
/// function); the binder supplies the real model the request runs against.
/// Returning an error skips the arrival (counted in ReplayResult::errors).
using ArrivalBinder =
    std::function<Result<BoundArrival>(const workload::Arrival&, size_t index)>;

/// Summary of one replay against the real dataplane. Latency is measured
/// per request as scheduler queue wait + pipeline stage total, so it is
/// comparable with the simulator's virtual-time latency and free of
/// future-collection skew.
struct ReplayResult {
  size_t submitted = 0;
  size_t ok = 0;
  std::map<std::string, size_t> completions;  ///< per function, OK responses
  std::map<StatusCode, size_t> errors;        ///< non-OK responses (+ binder skips)
  double wall_s = 0;            ///< first submission -> last future resolved
  double throughput_rps = 0;    ///< ok / wall_s
  double mean_latency_s = 0;
  double p50_latency_s = 0;
  double p99_latency_s = 0;
  /// Measured stage means for sim::CostModel::Calibrated: hot-path execute
  /// and the cold-start stages (zero when no sample of that kind occurred).
  size_t cold_starts = 0;
  double mean_hot_total_s = 0;  ///< full warm-path stage sum (execute + crypto)
  double mean_cold_key_fetch_s = 0;
  double mean_cold_model_load_s = 0;
  double mean_cold_runtime_init_s = 0;
  /// Per trace position: the request's warm-pool decision (container -1 when
  /// it was skipped or never acquired one) and where its token events fell
  /// in its function's freelist order.
  std::vector<serverless::policy::Decision> decisions;
  std::vector<serverless::TokenOrder> orders;
};

/// Replay `trace` open-loop against `cluster`: submissions are paced to the
/// trace's arrival times and every future is collected before returning.
/// Deterministic given a deterministic trace and binder: the submission
/// *order* is exactly the trace order.
ReplayResult ReplayTrace(ClusterDataplane* cluster,
                         const std::vector<workload::Arrival>& trace,
                         const ArrivalBinder& binder);

/// Summary of one replay against the simulator (virtual time).
struct SimReplayResult {
  size_t submitted = 0;
  size_t completed = 0;
  std::map<std::string, size_t> completions;  ///< per function
  double mean_latency_s = 0;
  double p50_latency_s = 0;
  double p99_latency_s = 0;
  double makespan_s = 0;        ///< first submit -> last completion
  double throughput_rps = 0;    ///< completed / makespan
  size_t cold_starts = 0;       ///< requests classified cold
};

/// Replay the same trace through sim::ClusterSim. `function_of` maps an
/// arrival's tenant tag to the simulated function name (mirror the binder's
/// mapping); the arrival's model/user ids pass through as the sim's cache
/// keys.
SimReplayResult ReplayTraceOnSim(
    sim::ClusterSim* sim, const std::vector<workload::Arrival>& trace,
    const std::function<std::string(const workload::Arrival&)>& function_of);

}  // namespace sesemi::cluster

#endif  // SESEMI_CLUSTER_REPLAY_H_
