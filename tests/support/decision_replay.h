// Differential-harness support shared by tests/ and bench/: drive the
// simulator's policy steps in the order a live replay recorded and compare
// the two sides' per-request decisions.
#ifndef SESEMI_TESTS_SUPPORT_DECISION_REPLAY_H_
#define SESEMI_TESTS_SUPPORT_DECISION_REPLAY_H_

#include <algorithm>
#include <functional>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "cluster/replay.h"
#include "serverless/policy.h"
#include "sim/cluster.h"
#include "workload/generators.h"

namespace sesemi::harness {

struct DecisionReplay {
  std::vector<serverless::policy::Decision> decisions;  ///< per trace position
  size_t acquired = 0;
  size_t released = 0;
  size_t cold_starts = 0;
  std::map<std::string, size_t> completions;  ///< per function
  /// Empty when the live log numbers every freelist event of each function
  /// exactly once; otherwise names the first event it does not account for.
  std::string gap;
};

/// Drive ClusterSim::Acquire / Release in the order the live replay `real`
/// recorded instead of by virtual time: per function, every token event is
/// applied in freelist order, so the decisions depend on the live
/// interleaving only and can be compared with real.decisions element by
/// element.
///
/// The live log must account for every event of each function's freelist:
/// one attempt per request (a retry overwrites the first attempt's order),
/// no affinity peek (its pops and push-backs are not recorded), single-TCS
/// functions (a launch's spare tokens are pushed unrecorded), and one
/// freelist per function (no steals across nodes). A log that breaks this
/// shows as a gap in a function's tags and is reported in `gap` rather than
/// as a decision mismatch. Requests that never held a container live are
/// skipped. Assumes unbatched dispatch (a coalesced batch shares one token).
inline DecisionReplay ReplayDecisionsOnSim(
    sim::ClusterSim* sim, const std::vector<workload::Arrival>& trace,
    const std::function<std::string(const workload::Arrival&)>& function_of,
    const cluster::ReplayResult& real) {
  struct Event {
    std::string function;
    uint64_t position;
    int container;  ///< live ordinal: orders cold starts that read one tag
    size_t request;
    bool acquire;
  };
  std::vector<Event> events;
  for (size_t i = 0; i < trace.size() && i < real.orders.size(); ++i) {
    const int container = real.decisions[i].container;
    if (container < 0) continue;
    const std::string function = function_of(trace[i]);
    events.push_back({function, real.orders[i].acquire, container, i, true});
    if (real.orders[i].release != 0) {
      events.push_back({function, real.orders[i].release, container, i, false});
    }
  }
  // Functions one after another: they share only node memory, and the live
  // cluster gives each node its own memory, so no order between them is
  // recorded.
  std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
    return std::tie(a.function, a.position, a.container) <
           std::tie(b.function, b.position, b.container);
  });

  DecisionReplay result;
  result.decisions.resize(trace.size());
  std::vector<sim::ClusterSim::Grant> grants(trace.size());
  std::string function;    // of the previous event
  uint64_t last_tagged = 0;  // its function's previous pop or push
  for (const Event& event : events) {
    if (event.function != function) {
      function = event.function;
      last_tagged = 0;
    }
    // Even positions are pops and pushes, and each bumps the tag by one.
    if (event.position % 2 == 0) {
      if (last_tagged != 0 && event.position != last_tagged + 2 && result.gap.empty()) {
        result.gap = function + ": freelist tag " + std::to_string(last_tagged / 2) +
                     " is followed by " + std::to_string(event.position / 2);
      }
      last_tagged = event.position;
    }
    const workload::Arrival& arrival = trace[event.request];
    sim::ClusterSim::Grant& grant = grants[event.request];
    if (event.acquire) {
      grant = sim->Acquire(event.function, arrival.model_id, arrival.user_id);
      result.acquired++;
      if (grant.container < 0) continue;
      result.decisions[event.request] = grant.decision;
      result.cold_starts += grant.decision.kind == semirt::InvocationKind::kCold;
    } else if (grant.container >= 0) {
      sim->Release(grant.container, grant.slot);
      result.released++;
      result.completions[event.function]++;
    }
  }
  return result;
}

/// Whether two decision logs agree element by element on function,
/// container ordinal and invocation kind (the node is not compared: the
/// simulator does not model the hash ring).
inline bool SameDecision(const serverless::policy::Decision& a,
                         const serverless::policy::Decision& b) {
  return a.function == b.function && a.container == b.container && a.kind == b.kind;
}

}  // namespace sesemi::harness

#endif  // SESEMI_TESTS_SUPPORT_DECISION_REPLAY_H_
