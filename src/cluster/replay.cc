#include "cluster/replay.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <future>
#include <thread>

namespace sesemi::cluster {

namespace {

double Percentile(const std::vector<double>& sorted, double p) {
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}


}  // namespace

ReplayResult ReplayTrace(ClusterDataplane* cluster,
                         const std::vector<workload::Arrival>& trace,
                         const ArrivalBinder& binder) {
  ReplayResult result;
  if (trace.empty()) return result;

  struct Pending {
    size_t index;
    std::string function;
    std::future<serverless::InvocationResult> future;
  };
  std::vector<Pending> pending;
  pending.reserve(trace.size());
  result.decisions.resize(trace.size());
  result.orders.resize(trace.size());

  const auto start = std::chrono::steady_clock::now();
  const TimeMicros base = trace.front().time;
  for (size_t i = 0; i < trace.size(); ++i) {
    const workload::Arrival& arrival = trace[i];
    std::this_thread::sleep_until(start +
                                  std::chrono::microseconds(arrival.time - base));
    Result<BoundArrival> bound = binder(arrival, i);
    if (!bound.ok()) {
      result.errors[bound.status().code()]++;
      continue;
    }
    result.submitted++;
    pending.push_back(Pending{i, bound->function,
                              cluster->InvokeAsync(bound->function,
                                                   std::move(bound->request))});
  }

  std::vector<double> latencies;
  latencies.reserve(pending.size());
  double hot_total_sum = 0;
  size_t hot_n = 0;
  double cold_key = 0, cold_load = 0, cold_init = 0;
  for (Pending& p : pending) {
    serverless::InvocationResult out = p.future.get();
    result.decisions[p.index] = {p.function, out.container, out.node,
                                 out.timings.kind};
    result.orders[p.index] = out.order;
    if (!out.response.ok()) {
      result.errors[out.response.status().code()]++;
      continue;
    }
    result.ok++;
    result.completions[p.function]++;
    const double latency_s =
        MicrosToSeconds(out.queue_wait + out.timings.total);
    latencies.push_back(latency_s);
    if (out.cold_start) {
      result.cold_starts++;
      cold_key += MicrosToSeconds(out.timings.key_fetch);
      cold_load += MicrosToSeconds(out.timings.model_load);
      cold_init += MicrosToSeconds(out.timings.runtime_init);
    } else {
      hot_total_sum += MicrosToSeconds(out.timings.total);
      hot_n++;
    }
  }
  result.wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  result.throughput_rps =
      result.wall_s > 0 ? static_cast<double>(result.ok) / result.wall_s : 0;

  if (!latencies.empty()) {
    double sum = 0;
    for (double l : latencies) sum += l;
    result.mean_latency_s = sum / static_cast<double>(latencies.size());
    std::sort(latencies.begin(), latencies.end());
    result.p50_latency_s = Percentile(latencies, 50);
    result.p99_latency_s = Percentile(latencies, 99);
  }
  if (hot_n > 0) {
    result.mean_hot_total_s = hot_total_sum / static_cast<double>(hot_n);
  }
  if (result.cold_starts > 0) {
    const double n = static_cast<double>(result.cold_starts);
    result.mean_cold_key_fetch_s = cold_key / n;
    result.mean_cold_model_load_s = cold_load / n;
    result.mean_cold_runtime_init_s = cold_init / n;
  }
  return result;
}

SimReplayResult ReplayTraceOnSim(
    sim::ClusterSim* sim, const std::vector<workload::Arrival>& trace,
    const std::function<std::string(const workload::Arrival&)>& function_of) {
  SimReplayResult result;
  if (trace.empty()) return result;

  for (const workload::Arrival& arrival : trace) {
    sim->Submit(function_of(arrival), arrival.model_id, arrival.user_id,
                arrival.time);
    result.submitted++;
  }
  sim->Run();

  const sim::Metrics& metrics = sim->metrics();
  TimeMicros first_submit = trace.front().time;
  TimeMicros last_complete = first_submit;
  for (const sim::RequestRecord& record : metrics.records()) {
    result.completed++;
    result.completions[record.function]++;
    last_complete = std::max(last_complete, record.complete);
  }
  result.cold_starts = metrics.CountKind(semirt::InvocationKind::kCold);
  result.mean_latency_s = metrics.AvgLatencySeconds();
  result.p50_latency_s = metrics.PercentileLatencySeconds(50);
  result.p99_latency_s = metrics.PercentileLatencySeconds(99);
  result.makespan_s = MicrosToSeconds(last_complete - first_submit);
  result.throughput_rps =
      result.makespan_s > 0
          ? static_cast<double>(result.completed) / result.makespan_s
          : 0;
  return result;
}

}  // namespace sesemi::cluster
