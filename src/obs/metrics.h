#ifndef SESEMI_OBS_METRICS_H_
#define SESEMI_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace sesemi::obs {

/// \file
/// Unified metrics registry (docs/ARCHITECTURE.md "Observability").
///
/// One named, label-aware snapshot surface over every counter the system
/// keeps. Components either own direct instruments (Counter / Histogram —
/// lock-free atomics on the update path) or register a
/// *collector*: a callback that snapshots an existing stats struct
/// (SchedStats, PlatformStats, RecoveryStats, ClusterStats, RouterStats)
/// into Samples at scrape time. Collectors mean the hot paths keep their
/// existing plain atomics; the registry only pays at Snapshot().
///
/// Exposition is Prometheus text format (PrometheusText), so `curl`-style
/// scraping works the day an HTTP listener exists; until then benches and
/// tests consume Snapshot() directly.

enum class SampleKind { kCounter, kGauge, kHistogramBucket, kHistogramSum, kHistogramCount };

/// One scraped value. `labels` are (key, value) pairs; histogram bucket
/// samples carry their upper bound as an `le` label ("+Inf" for the last).
struct Sample {
  std::string name;
  std::vector<std::pair<std::string, std::string>> labels;
  double value = 0;
  SampleKind kind = SampleKind::kGauge;
};

/// Monotonic counter. Update path: one relaxed fetch_add.
class Counter {
 public:
  void Inc(uint64_t delta = 1) { value_.fetch_add(delta, std::memory_order_relaxed); }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Fixed-bucket histogram: bounds are set once at construction, counts are
/// relaxed atomics. Observe is wait-free (binary search + two fetch_adds).
/// Bucket semantics are Prometheus `le`: a value lands in the first bucket
/// whose upper bound is >= value; values above the last bound land in the
/// implicit +Inf bucket.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void Observe(double value);

  /// Latency-oriented default bounds in seconds (100us .. 60s, log-spaced).
  static std::vector<double> LatencyBounds();

  const std::vector<double>& bounds() const { return bounds_; }
  /// Cumulative count of observations <= bounds()[i]; index bounds().size()
  /// is the +Inf bucket (== Count()).
  uint64_t CumulativeCount(size_t bucket_index) const;
  uint64_t Count() const { return count_.load(std::memory_order_relaxed); }
  double Sum() const;

 private:
  std::vector<double> bounds_;                       // ascending, immutable
  std::unique_ptr<std::atomic<uint64_t>[]> counts_;  // bounds_.size() + 1
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_bits_{0};  // double bit pattern, CAS-accumulated
};

/// A scrape-time callback producing Samples from component-owned state.
using Collector = std::function<std::vector<Sample>()>;

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Process-wide default registry (what platform/cluster constructors use
  /// unless handed an explicit one).
  static MetricsRegistry* Global();

  /// Direct instruments, created on first use and keyed by (name, labels).
  /// Returned pointers live as long as the registry.
  Counter* GetCounter(const std::string& name,
                      std::vector<std::pair<std::string, std::string>> labels = {});
  Histogram* GetHistogram(const std::string& name, std::vector<double> bounds,
                          std::vector<std::pair<std::string, std::string>> labels = {});

  /// Register a scrape-time collector; returns an id for RemoveCollector.
  /// The callback must stay valid until removed (see ScopedCollector).
  uint64_t AddCollector(Collector collector);
  void RemoveCollector(uint64_t id);

  /// All current samples: direct instruments first, then collector output.
  std::vector<Sample> Snapshot() const;

  /// Prometheus text exposition of Snapshot().
  std::string PrometheusText() const;

 private:
  struct Instrument {
    std::string name;
    std::vector<std::pair<std::string, std::string>> labels;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Histogram> histogram;
  };
  Instrument* FindOrNull(const std::string& name,
                         const std::vector<std::pair<std::string, std::string>>& labels);

  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Instrument>> instruments_;
  std::vector<std::pair<uint64_t, Collector>> collectors_;
  uint64_t next_collector_id_ = 1;
};

/// RAII collector registration: deregisters on destruction so a component's
/// collector can safely capture `this`.
class ScopedCollector {
 public:
  ScopedCollector() = default;
  ScopedCollector(MetricsRegistry* registry, Collector collector)
      : registry_(registry), id_(registry->AddCollector(std::move(collector))) {}
  ScopedCollector(ScopedCollector&& other) noexcept { *this = std::move(other); }
  ScopedCollector& operator=(ScopedCollector&& other) noexcept {
    Release();
    registry_ = other.registry_;
    id_ = other.id_;
    other.registry_ = nullptr;
    other.id_ = 0;
    return *this;
  }
  ScopedCollector(const ScopedCollector&) = delete;
  ScopedCollector& operator=(const ScopedCollector&) = delete;
  ~ScopedCollector() { Release(); }

  void Release() {
    if (registry_ != nullptr && id_ != 0) registry_->RemoveCollector(id_);
    registry_ = nullptr;
    id_ = 0;
  }

 private:
  MetricsRegistry* registry_ = nullptr;
  uint64_t id_ = 0;
};

/// Helpers for building collector output.
Sample MakeCounterSample(std::string name, double value,
                         std::vector<std::pair<std::string, std::string>> labels = {});
Sample MakeGaugeSample(std::string name, double value,
                       std::vector<std::pair<std::string, std::string>> labels = {});

}  // namespace sesemi::obs

#endif  // SESEMI_OBS_METRICS_H_
