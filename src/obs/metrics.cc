#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace sesemi::obs {

namespace {

uint64_t DoubleBits(double value) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(value));
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

double BitsDouble(uint64_t bits) {
  double value = 0;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

void AtomicAddDouble(std::atomic<uint64_t>* bits, double delta) {
  uint64_t observed = bits->load(std::memory_order_relaxed);
  while (!bits->compare_exchange_weak(
      observed, DoubleBits(BitsDouble(observed) + delta),
      std::memory_order_relaxed)) {
  }
}

std::string FormatValue(double value) {
  if (std::isinf(value)) return value > 0 ? "+Inf" : "-Inf";
  char buf[64];
  if (value == std::floor(value) && std::fabs(value) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%.0f", value);
  } else {
    std::snprintf(buf, sizeof(buf), "%.9g", value);
  }
  return buf;
}

}  // namespace

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  std::sort(bounds_.begin(), bounds_.end());
  bounds_.erase(std::unique(bounds_.begin(), bounds_.end()), bounds_.end());
  counts_ = std::make_unique<std::atomic<uint64_t>[]>(bounds_.size() + 1);
  for (size_t i = 0; i <= bounds_.size(); ++i) counts_[i].store(0);
}

void Histogram::Observe(double value) {
  // First bucket whose upper bound admits the value (le semantics); the
  // sentinel slot past the last bound is +Inf.
  const size_t bucket = static_cast<size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), value) - bounds_.begin());
  counts_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  AtomicAddDouble(&sum_bits_, value);
}

std::vector<double> Histogram::LatencyBounds() {
  return {1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2,
          5e-2, 1e-1,   0.25, 0.5,  1.0,    2.5,  5.0,  10.0,
          30.0, 60.0};
}

uint64_t Histogram::CumulativeCount(size_t bucket_index) const {
  uint64_t total = 0;
  const size_t limit = std::min(bucket_index, bounds_.size());
  for (size_t i = 0; i <= limit; ++i) {
    total += counts_[i].load(std::memory_order_relaxed);
  }
  return total;
}

double Histogram::Sum() const {
  return BitsDouble(sum_bits_.load(std::memory_order_relaxed));
}

MetricsRegistry* MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return registry;
}

MetricsRegistry::Instrument* MetricsRegistry::FindOrNull(
    const std::string& name,
    const std::vector<std::pair<std::string, std::string>>& labels) {
  for (const auto& instrument : instruments_) {
    if (instrument->name == name && instrument->labels == labels) {
      return instrument.get();
    }
  }
  return nullptr;
}

Counter* MetricsRegistry::GetCounter(
    const std::string& name,
    std::vector<std::pair<std::string, std::string>> labels) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (Instrument* found = FindOrNull(name, labels)) {
    if (found->counter != nullptr) return found->counter.get();
  }
  auto instrument = std::make_unique<Instrument>();
  instrument->name = name;
  instrument->labels = std::move(labels);
  instrument->counter = std::make_unique<Counter>();
  Counter* counter = instrument->counter.get();
  instruments_.push_back(std::move(instrument));
  return counter;
}

Histogram* MetricsRegistry::GetHistogram(
    const std::string& name, std::vector<double> bounds,
    std::vector<std::pair<std::string, std::string>> labels) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (Instrument* found = FindOrNull(name, labels)) {
    if (found->histogram != nullptr) return found->histogram.get();
  }
  auto instrument = std::make_unique<Instrument>();
  instrument->name = name;
  instrument->labels = std::move(labels);
  instrument->histogram = std::make_unique<Histogram>(std::move(bounds));
  Histogram* histogram = instrument->histogram.get();
  instruments_.push_back(std::move(instrument));
  return histogram;
}

uint64_t MetricsRegistry::AddCollector(Collector collector) {
  std::lock_guard<std::mutex> lock(mutex_);
  const uint64_t id = next_collector_id_++;
  collectors_.emplace_back(id, std::move(collector));
  return id;
}

void MetricsRegistry::RemoveCollector(uint64_t id) {
  std::lock_guard<std::mutex> lock(mutex_);
  collectors_.erase(
      std::remove_if(collectors_.begin(), collectors_.end(),
                     [id](const auto& entry) { return entry.first == id; }),
      collectors_.end());
}

std::vector<Sample> MetricsRegistry::Snapshot() const {
  // Copy the collector list under the lock, run callbacks outside it: a
  // collector is free to scrape a component that itself logs or registers
  // metrics without deadlocking.
  std::vector<Collector> collectors;
  std::vector<Sample> samples;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& instrument : instruments_) {
      if (instrument->counter != nullptr) {
        Sample sample;
        sample.name = instrument->name;
        sample.labels = instrument->labels;
        sample.value = static_cast<double>(instrument->counter->Value());
        sample.kind = SampleKind::kCounter;
        samples.push_back(std::move(sample));
      } else if (instrument->histogram != nullptr) {
        const Histogram& histogram = *instrument->histogram;
        for (size_t i = 0; i <= histogram.bounds().size(); ++i) {
          Sample bucket;
          bucket.name = instrument->name + "_bucket";
          bucket.labels = instrument->labels;
          const bool inf = i == histogram.bounds().size();
          bucket.labels.emplace_back(
              "le", inf ? "+Inf" : FormatValue(histogram.bounds()[i]));
          bucket.value = static_cast<double>(histogram.CumulativeCount(i));
          bucket.kind = SampleKind::kHistogramBucket;
          samples.push_back(std::move(bucket));
        }
        Sample sum;
        sum.name = instrument->name + "_sum";
        sum.labels = instrument->labels;
        sum.value = histogram.Sum();
        sum.kind = SampleKind::kHistogramSum;
        samples.push_back(std::move(sum));
        Sample count;
        count.name = instrument->name + "_count";
        count.labels = instrument->labels;
        count.value = static_cast<double>(histogram.Count());
        count.kind = SampleKind::kHistogramCount;
        samples.push_back(std::move(count));
      }
    }
    collectors.reserve(collectors_.size());
    for (const auto& [id, collector] : collectors_) collectors.push_back(collector);
  }
  for (const Collector& collector : collectors) {
    std::vector<Sample> collected = collector();
    samples.insert(samples.end(), std::make_move_iterator(collected.begin()),
                   std::make_move_iterator(collected.end()));
  }
  return samples;
}

std::string MetricsRegistry::PrometheusText() const {
  std::vector<Sample> samples = Snapshot();
  // Stable exposition order: by name, then by labels.
  std::stable_sort(samples.begin(), samples.end(),
                   [](const Sample& a, const Sample& b) {
                     if (a.name != b.name) return a.name < b.name;
                     return a.labels < b.labels;
                   });
  std::string out;
  out.reserve(samples.size() * 64);
  for (const Sample& sample : samples) {
    out += sample.name;
    if (!sample.labels.empty()) {
      out += "{";
      for (size_t i = 0; i < sample.labels.size(); ++i) {
        if (i != 0) out += ",";
        out += sample.labels[i].first;
        out += "=\"";
        for (const char c : sample.labels[i].second) {
          if (c == '"' || c == '\\') out += '\\';
          out += c;
        }
        out += "\"";
      }
      out += "}";
    }
    out += " ";
    out += FormatValue(sample.value);
    out += "\n";
  }
  return out;
}

Sample MakeCounterSample(std::string name, double value,
                         std::vector<std::pair<std::string, std::string>> labels) {
  Sample sample;
  sample.name = std::move(name);
  sample.labels = std::move(labels);
  sample.value = value;
  sample.kind = SampleKind::kCounter;
  return sample;
}

Sample MakeGaugeSample(std::string name, double value,
                       std::vector<std::pair<std::string, std::string>> labels) {
  Sample sample;
  sample.name = std::move(name);
  sample.labels = std::move(labels);
  sample.value = value;
  sample.kind = SampleKind::kGauge;
  return sample;
}

}  // namespace sesemi::obs
