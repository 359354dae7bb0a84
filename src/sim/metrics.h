#ifndef SESEMI_SIM_METRICS_H_
#define SESEMI_SIM_METRICS_H_

#include <string>
#include <vector>

#include "common/clock.h"
#include "semirt/semirt.h"

namespace sesemi::sim {

/// Outcome of one simulated request.
struct RequestRecord {
  std::string function;
  std::string model_id;
  std::string user_id;
  TimeMicros submit = 0;
  TimeMicros complete = 0;
  semirt::InvocationKind kind = semirt::InvocationKind::kHot;
  int container = -1;  ///< creation ordinal of the container in its function
  int node = -1;

  TimeMicros latency() const { return complete - submit; }
};

/// A step in a piecewise-constant resource usage curve.
struct UsageSample {
  TimeMicros time;
  double value;
};

/// Latency and resource metrics collected by a cluster simulation run.
class Metrics {
 public:
  void Record(RequestRecord record) { records_.push_back(std::move(record)); }
  const std::vector<RequestRecord>& records() const { return records_; }

  /// Memory usage step function (sum of live container budgets, bytes).
  void SampleMemory(TimeMicros now, double bytes) {
    memory_.push_back({now, bytes});
  }
  /// Sandbox counts over time.
  void SampleSandboxes(TimeMicros now, int total, int serving) {
    sandboxes_total_.push_back({now, static_cast<double>(total)});
    sandboxes_serving_.push_back({now, static_cast<double>(serving)});
  }

  double AvgLatencySeconds() const;
  double PercentileLatencySeconds(double p) const;  // p in (0, 100)
  int CountKind(semirt::InvocationKind kind) const;

  /// Mean latency of completions in [from, to).
  double AvgLatencySecondsBetween(TimeMicros from, TimeMicros to) const;

  /// The serverless cost metric: integral of memory usage over time,
  /// in gigabyte-seconds (§VI-C).
  double GbSeconds(TimeMicros end_time) const;

  /// Peak of the memory step function, bytes.
  double PeakMemoryBytes() const;

  const std::vector<UsageSample>& memory_series() const { return memory_; }
  const std::vector<UsageSample>& sandboxes_total_series() const {
    return sandboxes_total_;
  }
  const std::vector<UsageSample>& sandboxes_serving_series() const {
    return sandboxes_serving_;
  }

 private:
  std::vector<RequestRecord> records_;
  std::vector<UsageSample> memory_;
  std::vector<UsageSample> sandboxes_total_;
  std::vector<UsageSample> sandboxes_serving_;
};

}  // namespace sesemi::sim

#endif  // SESEMI_SIM_METRICS_H_
