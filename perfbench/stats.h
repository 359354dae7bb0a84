#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

// Pure arithmetic shared by the benchmark and its self-tests:
// percentiles, span-tree self time, the /proc/stat parse, and the seeded
// Zipf request stream. No dependency on the sesemi library, so selftest.cc
// checks exactly the code the benchmark runs.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace perfbench {

/// 1-based nearest rank ceil(q/100 * n), clamped to [1, n]; n > 0. The
/// epsilon keeps q*n that is integral in exact arithmetic (99.9% of 1000)
/// from rounding up past it.
inline size_t NearestRank(size_t n, double q) {
  const double rank = std::ceil(q * static_cast<double>(n) / 100.0 - 1e-9);
  return std::clamp<size_t>(static_cast<size_t>(std::max(rank, 1.0)), 1, n);
}

/// Nearest-rank percentile: the smallest sample with at least q% of the
/// samples at or below it (rank ceil(q/100 * n), 1-based). q in (0, 100].
/// Returns 0 for an empty sample. Takes a copy so callers keep their order.
inline double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v[NearestRank(v.size(), q) - 1];
}

/// Samples strictly above the q-th nearest-rank percentile: how many samples
/// the percentile rests on in its tail.
inline size_t TailCount(size_t n, double q) {
  return n == 0 ? 0 : n - NearestRank(n, q);
}

/// Median of a small vector (mean of the two middle values for even n).
inline double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// One span as the self-time computation sees it: ids, parent link, and a
/// closed-open interval in microseconds.
struct SpanNode {
  uint64_t id = 0;
  uint64_t parent = 0;  ///< 0 = root
  int64_t start = 0;
  int64_t end = 0;
};

/// Length of the union of [start, end) intervals, each clipped to
/// [lo, hi). Sorts `intervals` in place.
inline int64_t CoveredLength(std::vector<std::pair<int64_t, int64_t>>* intervals,
                             int64_t lo, int64_t hi) {
  std::sort(intervals->begin(), intervals->end());
  int64_t covered = 0;
  int64_t cursor = lo;
  for (auto [s, e] : *intervals) {
    s = std::max(s, cursor);
    e = std::min(e, hi);
    if (e > s) {
      covered += e - s;
      cursor = e;
    }
  }
  return covered;
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its children (children may run on other threads and may
/// outlive the parent; only the overlap counts). Result is index-aligned
/// with `spans`.
inline std::vector<int64_t> SelfTimes(const std::vector<SpanNode>& spans) {
  std::unordered_map<uint64_t, size_t> index;
  index.reserve(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) index.emplace(spans[i].id, i);
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const SpanNode& s : spans) {
    if (s.parent == 0) continue;
    auto it = index.find(s.parent);
    if (it != index.end()) children[it->second].emplace_back(s.start, s.end);
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const int64_t duration = std::max<int64_t>(0, spans[i].end - spans[i].start);
    self[i] = duration - CoveredLength(&children[i], spans[i].start, spans[i].end);
  }
  return self;
}

/// Aggregate CPU times from the first ("cpu ") line of /proc/stat, in
/// clock ticks.
struct CpuTimes {
  uint64_t total = 0;
  uint64_t steal = 0;
  bool ok = false;
};

/// Parse /proc/stat text. Fields after "cpu": user nice system idle iowait
/// irq softirq steal [guest guest_nice]; guest time is already counted in
/// user/nice, so it is left out of the total.
inline CpuTimes ParseProcStat(const std::string& text) {
  CpuTimes out;
  std::istringstream in(text);
  std::string label;
  if (!(in >> label) || label != "cpu") return out;
  uint64_t field[8] = {};
  for (int i = 0; i < 8; ++i) {
    if (!(in >> field[i])) {
      if (i < 4) return out;  // user nice system idle are mandatory
      break;
    }
  }
  for (uint64_t f : field) out.total += f;
  out.steal = field[7];
  out.ok = true;
  return out;
}

/// Share of all CPU time stolen by the hypervisor between two samples.
inline double StealFraction(const CpuTimes& before, const CpuTimes& after) {
  if (!before.ok || !after.ok || after.total <= before.total) return 0.0;
  return static_cast<double>(after.steal - before.steal) /
         static_cast<double>(after.total - before.total);
}

/// splitmix64: a tiny, well-mixed 64-bit generator. The request stream of
/// each (seed, phase, client) is one of these, so the same seed replays the
/// same picks whatever the thread interleaving.
class SplitMix64 {
 public:
  explicit SplitMix64(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform double in [0, 1) from the top 53 bits.
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

/// Seed of the request stream for one client of one phase segment.
inline uint64_t StreamSeed(uint64_t seed, uint64_t segment, uint64_t client) {
  SplitMix64 mix(seed ^ (segment * 0x100000001b3ULL) ^ (client << 48));
  return mix.Next();
}

/// Zipf(alpha) over ranks 0..n-1: P(rank i) proportional to 1/(i+1)^alpha.
class ZipfPicker {
 public:
  ZipfPicker(int n, double alpha) {
    double sum = 0;
    for (int i = 0; i < n; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i + 1), alpha);
      cdf_.push_back(sum);
    }
    for (double& c : cdf_) c /= sum;
  }
  /// Rank for a uniform draw u in [0, 1).
  int Pick(double u) const {
    auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
    if (it == cdf_.end()) return static_cast<int>(cdf_.size()) - 1;
    return static_cast<int>(it - cdf_.begin());
  }
  double Probability(int rank) const {
    return rank == 0 ? cdf_[0] : cdf_[rank] - cdf_[rank - 1];
  }

 private:
  std::vector<double> cdf_;
};

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
