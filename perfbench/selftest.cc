// Self-tests of the benchmark's own arithmetic (stats.h). run.py runs this
// binary before every measurement and refuses to report if it fails.
// Exit code 0 = all checks passed.

#include <cmath>
#include <cstdio>
#include <vector>

#include "stats.h"

namespace {

int g_failures = 0;

#define CHECK(cond)                                                 \
  do {                                                              \
    if (!(cond)) {                                                  \
      std::fprintf(stderr, "selftest %s:%d: CHECK(%s) failed\n",     \
                   __FILE__, __LINE__, #cond);                      \
      ++g_failures;                                                 \
    }                                                               \
  } while (0)

bool Near(double a, double b, double tol = 1e-12) { return std::fabs(a - b) <= tol; }

void TestPercentileRank() {
  using perfbench::Percentile;
  // Nearest rank over 1..100: p50 = 50, p90 = 90, p99 = 99, p100 = 100.
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted input
  CHECK(Near(Percentile(v, 50), 50));
  CHECK(Near(Percentile(v, 90), 90));
  CHECK(Near(Percentile(v, 99), 99));
  CHECK(Near(Percentile(v, 99.9), 100));
  CHECK(Near(Percentile(v, 100), 100));
  CHECK(v.front() == 100);  // caller's order is untouched
  // Small samples: rank ceil(q n / 100), clamped to [1, n].
  CHECK(Near(Percentile({7}, 50), 7));
  CHECK(Near(Percentile({1, 2, 3, 4}, 50), 2));
  CHECK(Near(Percentile({1, 2, 3, 4}, 51), 3));
  CHECK(Near(Percentile({5, 1}, 0.1), 1));
  CHECK(Near(Percentile({}, 50), 0));
  CHECK(perfbench::TailCount(100, 90) == 10);
  CHECK(perfbench::TailCount(1000, 99.9) == 1);
  CHECK(perfbench::TailCount(0, 50) == 0);
  CHECK(Near(perfbench::Median({3, 1, 2}), 2));
  CHECK(Near(perfbench::Median({4, 1, 3, 2}), 2.5));
}

void TestSpanSelfTime() {
  using perfbench::SpanNode;
  // root [0,100) with children a [10,30) and b [20,50) (overlapping), and a
  // child c [90,120) that outlives the root; a's child d [12,18).
  std::vector<SpanNode> spans = {
      {1, 0, 0, 100},   // root
      {2, 1, 10, 30},   // a
      {3, 1, 20, 50},   // b
      {4, 1, 90, 120},  // c, clipped to [90,100)
      {5, 2, 12, 18},   // d under a
      {6, 99, 0, 5},    // orphan: parent not in the snapshot
  };
  std::vector<int64_t> self = perfbench::SelfTimes(spans);
  CHECK(self[0] == 100 - (50 - 10) - (100 - 90));  // 50
  CHECK(self[1] == 20 - 6);
  CHECK(self[2] == 30);
  CHECK(self[3] == 30);
  CHECK(self[4] == 6);
  CHECK(self[5] == 5);
  // Identical children count once; a zero-length span has zero self time.
  std::vector<SpanNode> dup = {{1, 0, 0, 10}, {2, 1, 2, 4}, {3, 1, 2, 4}, {4, 0, 7, 7}};
  std::vector<int64_t> dup_self = perfbench::SelfTimes(dup);
  CHECK(dup_self[0] == 8);
  CHECK(dup_self[3] == 0);
  std::vector<std::pair<int64_t, int64_t>> iv = {{5, 8}, {0, 3}, {2, 6}};
  CHECK(perfbench::CoveredLength(&iv, 1, 7) == 6);
}

void TestProcStatParse() {
  const char* text =
      "cpu  100 5 50 800 10 2 3 30 7 0\n"
      "cpu0 25 1 12 200 2 0 1 7 0 0\n";
  perfbench::CpuTimes a = perfbench::ParseProcStat(text);
  CHECK(a.ok);
  CHECK(a.total == 100 + 5 + 50 + 800 + 10 + 2 + 3 + 30);  // guest excluded
  CHECK(a.steal == 30);
  perfbench::CpuTimes b = perfbench::ParseProcStat("cpu 200 5 70 1000 10 2 3 50 0 0\n");
  CHECK(b.ok);
  CHECK(Near(perfbench::StealFraction(a, b), 20.0 / (b.total - a.total)));
  // Old kernels without steal: still parses, steal 0.
  perfbench::CpuTimes old = perfbench::ParseProcStat("cpu 1 2 3 4\n");
  CHECK(old.ok && old.total == 10 && old.steal == 0);
  CHECK(!perfbench::ParseProcStat("").ok);
  CHECK(!perfbench::ParseProcStat("cpu0 1 2 3 4\n").ok);
  CHECK(!perfbench::ParseProcStat("cpu 1 2\n").ok);
  CHECK(Near(perfbench::StealFraction(b, a), 0));  // clock went backwards
}

void TestZipfSeeding() {
  perfbench::ZipfPicker zipf(6, 1.0);
  double sum = 0;
  for (int i = 0; i < 6; ++i) sum += zipf.Probability(i);
  CHECK(Near(sum, 1.0, 1e-12));
  CHECK(Near(zipf.Probability(0) / zipf.Probability(1), 2.0, 1e-9));
  CHECK(zipf.Pick(0.0) == 0);
  CHECK(zipf.Pick(0.999999999) == 5);

  auto stream = [&](uint64_t seed, uint64_t segment, uint64_t client) {
    perfbench::SplitMix64 rng(perfbench::StreamSeed(seed, segment, client));
    std::vector<int> picks;
    for (int i = 0; i < 4000; ++i) picks.push_back(zipf.Pick(rng.Uniform()));
    return picks;
  };
  // Same seed, same stream; another seed, segment, or client differs.
  CHECK(stream(7, 1, 0) == stream(7, 1, 0));
  CHECK(stream(7, 1, 0) != stream(8, 1, 0));
  CHECK(stream(7, 1, 0) != stream(7, 2, 0));
  CHECK(stream(7, 1, 0) != stream(7, 1, 1));
  // Empirical frequencies follow the law (4000 draws; 4-sigma band).
  std::vector<int> picks = stream(7, 1, 0);
  for (int rank = 0; rank < 6; ++rank) {
    const double p = zipf.Probability(rank);
    int hits = 0;
    for (int r : picks) hits += r == rank ? 1 : 0;
    const double sigma = std::sqrt(4000 * p * (1 - p));
    CHECK(std::fabs(hits - 4000 * p) <= 4 * sigma);
  }
  perfbench::SplitMix64 u(1);
  for (int i = 0; i < 1000; ++i) {
    const double x = u.Uniform();
    CHECK(x >= 0.0 && x < 1.0);
  }
}

}  // namespace

int main() {
  TestPercentileRank();
  TestSpanSelfTime();
  TestProcStatParse();
  TestZipfSeeding();
  if (g_failures != 0) {
    std::fprintf(stderr, "selftest: %d check(s) failed\n", g_failures);
    return 1;
  }
  std::printf("selftest: ok\n");
  return 0;
}
