#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "sim/cluster.h"
#include "sim/cost_model.h"
#include "sim/event_queue.h"
#include "sim/metrics.h"
#include "workload/generators.h"

namespace sesemi::sim {
namespace {

using inference::FrameworkKind;
using model::Architecture;
using semirt::InvocationKind;
using semirt::RuntimeMode;

// ---------------------------------------------------------------- EventQueue

TEST(EventQueueTest, RunsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.ScheduleAt(300, [&] { order.push_back(3); });
  q.ScheduleAt(100, [&] { order.push_back(1); });
  q.ScheduleAt(200, [&] { order.push_back(2); });
  q.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), 300);
}

TEST(EventQueueTest, TiesBreakInScheduleOrder) {
  EventQueue q;
  std::vector<int> order;
  q.ScheduleAt(100, [&] { order.push_back(1); });
  q.ScheduleAt(100, [&] { order.push_back(2); });
  q.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventQueueTest, EventsCanScheduleEvents) {
  EventQueue q;
  int fired = 0;
  q.ScheduleAt(10, [&] {
    ++fired;
    q.ScheduleAfter(5, [&] { ++fired; });
  });
  q.RunAll();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(q.now(), 15);
}

TEST(EventQueueTest, RunUntilStopsAtDeadline) {
  EventQueue q;
  int fired = 0;
  q.ScheduleAt(10, [&] { ++fired; });
  q.ScheduleAt(100, [&] { ++fired; });
  q.RunUntil(50);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(q.now(), 50);
  EXPECT_EQ(q.pending(), 1u);
}

// ---------------------------------------------------------------- CostModel

TEST(CostModelTest, Figure17ConstantsWiredCorrectly) {
  CostModel m = CostModel::PaperSgx2();
  const ModelProfile& tvm_mbnet = m.profile(FrameworkKind::kTvm, Architecture::kMbNet);
  EXPECT_NEAR(tvm_mbnet.execute_s, 0.0635, 1e-6);
  EXPECT_NEAR(tvm_mbnet.key_fetch_s, 1.18, 1e-6);
  const ModelProfile& tflm_rsnet = m.profile(FrameworkKind::kTflm, Architecture::kRsNet);
  EXPECT_NEAR(tflm_rsnet.execute_s, 14.3, 1e-6);
  EXPECT_EQ(tflm_rsnet.model_bytes, 170ull << 20);
}

TEST(CostModelTest, ColdPathSumMatchesFigure9) {
  // Figure 9's cold bar ~= sum of Figure 17's stages (TVM-MBNET: 1.48 s).
  CostModel m = CostModel::PaperSgx2();
  const ModelProfile& p = m.profile(FrameworkKind::kTvm, Architecture::kMbNet);
  double cold = p.enclave_init_s + p.key_fetch_s + p.model_load_s +
                p.runtime_init_s + p.execute_s;
  EXPECT_NEAR(cold, 1.48, 0.05);
}

TEST(CostModelTest, EnclaveInitScalesWithSizeAndConcurrency) {
  CostModel m = CostModel::PaperSgx2();
  double small_1 = m.EnclaveInitSeconds(128ull << 20, 1);
  double big_1 = m.EnclaveInitSeconds(256ull << 20, 1);
  double big_16 = m.EnclaveInitSeconds(256ull << 20, 16);
  EXPECT_GT(big_1, small_1);
  EXPECT_GT(big_16, 8 * big_1 * 0.9);  // near-linear in concurrency
  // Appendix C: 16 concurrent 256 MB launches ≈ 4.06 s each.
  EXPECT_NEAR(big_16, 4.06, 2.0);
}

TEST(CostModelTest, Sgx1AttestationSlowerThanSgx2) {
  double sgx2 = CostModel::PaperSgx2().AttestationSeconds(1);
  double sgx1 = CostModel::PaperSgx1().AttestationSeconds(1);
  EXPECT_LT(sgx2, 0.2);  // ECDSA/DCAP, local
  EXPECT_GT(sgx1, 1.0);  // EPID, IAS round trip
  // Contention grows both.
  EXPECT_GT(CostModel::PaperSgx2().AttestationSeconds(16), sgx2 * 5);
}

TEST(CostModelTest, ExecutionContendsOnCpuAndEpc) {
  CostModel m = CostModel::PaperSgx2();
  const ModelProfile& p = m.profile(FrameworkKind::kTvm, Architecture::kDsNet);
  double solo = m.ExecuteSeconds(p, 1, 12, 0.5, true);
  double saturated = m.ExecuteSeconds(p, 24, 12, 0.5, true);
  EXPECT_NEAR(saturated, solo * 2, 1e-9);  // 24 runnable on 12 cores
  double paging = m.ExecuteSeconds(p, 1, 12, 2.0, true);
  EXPECT_GT(paging, solo);                 // EPC over-subscribed
  double plain = m.ExecuteSeconds(p, 1, 12, 2.0, false);
  EXPECT_NEAR(plain, p.plain_execute_s, 1e-9);  // untrusted ignores EPC
}

// ---------------------------------------------------------------- Metrics

TEST(MetricsTest, LatencyStatistics) {
  Metrics m;
  for (int i = 1; i <= 100; ++i) {
    RequestRecord r;
    r.submit = 0;
    r.complete = SecondsToMicros(static_cast<double>(i) / 100.0);  // 10ms..1s
    m.Record(r);
  }
  EXPECT_NEAR(m.AvgLatencySeconds(), 0.505, 0.01);
  EXPECT_NEAR(m.PercentileLatencySeconds(95), 0.95, 0.02);
  EXPECT_NEAR(m.PercentileLatencySeconds(50), 0.50, 0.02);
}

TEST(MetricsTest, GbSecondsIntegralOfStepFunction) {
  Metrics m;
  m.SampleMemory(0, static_cast<double>(1ull << 30));                 // 1 GB
  m.SampleMemory(SecondsToMicros(10), static_cast<double>(2ull << 30));  // 2 GB
  m.SampleMemory(SecondsToMicros(20), 0);
  // 10 s @ 1 GB + 10 s @ 2 GB = 30 GB-s.
  EXPECT_NEAR(m.GbSeconds(SecondsToMicros(30)), 30.0, 1e-6);
  EXPECT_NEAR(m.PeakMemoryBytes(), static_cast<double>(2ull << 30), 1.0);
}

TEST(MetricsTest, WindowedAverageSelectsCompletions) {
  Metrics m;
  RequestRecord early;
  early.submit = 0;
  early.complete = SecondsToMicros(1);
  RequestRecord late;
  late.submit = SecondsToMicros(9);
  late.complete = SecondsToMicros(12);
  m.Record(early);
  m.Record(late);
  EXPECT_NEAR(m.AvgLatencySecondsBetween(0, SecondsToMicros(5)), 1.0, 1e-9);
  EXPECT_NEAR(m.AvgLatencySecondsBetween(SecondsToMicros(10), SecondsToMicros(20)),
              3.0, 1e-9);
}

// ---------------------------------------------------------------- ClusterSim

SimFunction TvmMbnetFunction(const std::string& name, RuntimeMode mode,
                             int tcs = 1) {
  SimFunction fn;
  fn.name = name;
  fn.framework = FrameworkKind::kTvm;
  fn.arch = Architecture::kMbNet;
  fn.mode = mode;
  fn.num_tcs = tcs;
  return fn;
}

TEST(ClusterSimTest, ColdWarmHotProgression) {
  SimConfig config;
  config.num_nodes = 1;
  ClusterSim sim(config);
  sim.AddFunction(TvmMbnetFunction("f", RuntimeMode::kSesemi));
  sim.Submit("f", "m0", "u0", 0);
  sim.Submit("f", "m0", "u0", SecondsToMicros(10));
  sim.Submit("f", "m0", "u0", SecondsToMicros(20));
  sim.Run();
  const auto& records = sim.metrics().records();
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].kind, InvocationKind::kCold);
  EXPECT_EQ(records[1].kind, InvocationKind::kHot);
  EXPECT_EQ(records[2].kind, InvocationKind::kHot);
  // Cold ≈ sandbox + enclave init + key fetch + load + init + exec;
  // hot ≈ platform overhead + exec.
  EXPECT_GT(MicrosToSeconds(records[0].latency()), 1.5);
  EXPECT_LT(MicrosToSeconds(records[1].latency()), 0.3);
}

TEST(ClusterSimTest, HotLatencyMatchesCalibratedExecution) {
  SimConfig config;
  config.num_nodes = 1;  // assertions below are single-node semantics
  ClusterSim sim(config);
  sim.AddFunction(TvmMbnetFunction("f", RuntimeMode::kSesemi));
  ASSERT_TRUE(sim.Prewarm("f", 1, "m0", "u0").ok());
  sim.Submit("f", "m0", "u0", SecondsToMicros(1));
  sim.Run();
  const auto& records = sim.metrics().records();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].kind, InvocationKind::kHot);
  EXPECT_NEAR(MicrosToSeconds(records[0].latency()),
              0.0635 + config.cost_model.PlatformOverheadSeconds(), 0.01);
}

TEST(ClusterSimTest, ModelSwitchIsWarm) {
  SimConfig config;
  config.num_nodes = 1;  // assertions below are single-node semantics
  ClusterSim sim(config);
  sim.AddFunction(TvmMbnetFunction("f", RuntimeMode::kSesemi));
  ASSERT_TRUE(sim.Prewarm("f", 1, "m0", "u0").ok());
  sim.Submit("f", "m1", "u0", SecondsToMicros(1));  // different model
  sim.Run();
  ASSERT_EQ(sim.metrics().records().size(), 1u);
  EXPECT_EQ(sim.metrics().records()[0].kind, InvocationKind::kWarm);
}

TEST(ClusterSimTest, IsoReuseAlwaysReloads) {
  SimConfig config;
  config.num_nodes = 1;  // assertions below are single-node semantics
  ClusterSim sim(config);
  sim.AddFunction(TvmMbnetFunction("f", RuntimeMode::kIsoReuse));
  ASSERT_TRUE(sim.Prewarm("f", 1, "m0", "u0").ok());
  for (int i = 1; i <= 3; ++i) sim.Submit("f", "m0", "u0", SecondsToMicros(10 * i));
  sim.Run();
  for (const auto& r : sim.metrics().records()) {
    EXPECT_EQ(r.kind, InvocationKind::kWarm);  // never hot
  }
}

TEST(ClusterSimTest, NativeRelaunchesEnclaveEachRequest) {
  SimConfig config;
  config.num_nodes = 1;  // assertions below are single-node semantics
  ClusterSim sim(config);
  sim.AddFunction(TvmMbnetFunction("f", RuntimeMode::kNative));
  ASSERT_TRUE(sim.Prewarm("f", 1, "m0", "u0").ok());
  sim.Submit("f", "m0", "u0", SecondsToMicros(1));
  sim.Submit("f", "m0", "u0", SecondsToMicros(20));
  sim.Run();
  for (const auto& r : sim.metrics().records()) {
    EXPECT_EQ(r.kind, InvocationKind::kCold);
    EXPECT_GT(MicrosToSeconds(r.latency()), 1.0);
  }
}

TEST(ClusterSimTest, UntrustedSkipsEnclaveCosts) {
  SimConfig config;
  config.num_nodes = 1;  // assertions below are single-node semantics
  ClusterSim sim(config);
  sim.AddFunction(TvmMbnetFunction("f", RuntimeMode::kUntrusted));
  sim.Submit("f", "m0", "u0", 0);
  sim.Submit("f", "m0", "u0", SecondsToMicros(10));
  sim.Run();
  const auto& records = sim.metrics().records();
  ASSERT_EQ(records.size(), 2u);
  // Cold untrusted = sandbox init + plain stages only (no enclave/attestation).
  EXPECT_LT(MicrosToSeconds(records[0].latency()), 1.0);
  EXPECT_NEAR(MicrosToSeconds(records[1].latency()),
              0.07 + config.cost_model.PlatformOverheadSeconds(), 0.02);
}

TEST(ClusterSimTest, ConcurrencySharesContainer) {
  SimConfig config;
  config.num_nodes = 1;  // assertions below are single-node semantics
  ClusterSim sim(config);
  SimFunction fn = TvmMbnetFunction("f", RuntimeMode::kSesemi, /*tcs=*/4);
  sim.AddFunction(fn);
  ASSERT_TRUE(sim.Prewarm("f", 1, "m0", "u0").ok());
  for (int i = 0; i < 4; ++i) sim.Submit("f", "m0", "u0", SecondsToMicros(1));
  sim.Run();
  EXPECT_EQ(sim.metrics().records().size(), 4u);
  // One prewarmed container handled everything: no cold starts.
  EXPECT_EQ(sim.metrics().CountKind(InvocationKind::kCold), 0);
}

TEST(ClusterSimTest, SingleTcsContainersScaleOut) {
  SimConfig config;
  config.num_nodes = 1;  // assertions below are single-node semantics
  ClusterSim sim(config);
  sim.AddFunction(TvmMbnetFunction("f", RuntimeMode::kSesemi, /*tcs=*/1));
  // Two simultaneous requests -> second needs a second container (cold).
  sim.Submit("f", "m0", "u0", 0);
  sim.Submit("f", "m0", "u0", 1000);
  sim.Run();
  EXPECT_EQ(sim.metrics().CountKind(InvocationKind::kCold), 2);
}

TEST(ClusterSimTest, KeepAliveReclaimsMemory) {
  SimConfig config;
  config.num_nodes = 1;  // assertions below are single-node semantics
  config.keep_alive = SecondsToMicros(180);
  ClusterSim sim(config);
  sim.AddFunction(TvmMbnetFunction("f", RuntimeMode::kSesemi));
  sim.Submit("f", "m0", "u0", 0);
  sim.Run();
  EXPECT_EQ(sim.total_containers(), 0);  // reclaimed after keep-alive
  double peak = sim.metrics().PeakMemoryBytes();
  EXPECT_GT(peak, 0);
  // All memory returned by the end.
  EXPECT_DOUBLE_EQ(sim.metrics().memory_series().back().value, 0);
}

TEST(ClusterSimTest, WarmReuseWithinKeepAlive) {
  SimConfig config;
  config.num_nodes = 1;  // assertions below are single-node semantics
  ClusterSim sim(config);
  sim.AddFunction(TvmMbnetFunction("f", RuntimeMode::kSesemi));
  sim.Submit("f", "m0", "u0", 0);
  sim.Submit("f", "m0", "u0", SecondsToMicros(60));  // within 3-min window
  sim.Run();
  EXPECT_EQ(sim.metrics().CountKind(InvocationKind::kCold), 1);
  EXPECT_EQ(sim.metrics().CountKind(InvocationKind::kHot), 1);
}

TEST(ClusterSimTest, ColdStartAfterKeepAliveExpiry) {
  SimConfig config;
  config.num_nodes = 1;  // assertions below are single-node semantics
  config.keep_alive = SecondsToMicros(180);
  ClusterSim sim(config);
  sim.AddFunction(TvmMbnetFunction("f", RuntimeMode::kSesemi));
  sim.Submit("f", "m0", "u0", 0);
  sim.Submit("f", "m0", "u0", SecondsToMicros(600));  // way past keep-alive
  sim.Run();
  EXPECT_EQ(sim.metrics().CountKind(InvocationKind::kCold), 2);
}

TEST(ClusterSimTest, SesemiBeatsIsoReuseUnderLoad) {
  // The headline comparison (Figure 13 shape): same workload, SeSeMI's hot
  // path yields lower average latency than Iso-reuse, which beats Native.
  auto run_mode = [](RuntimeMode mode) {
    SimConfig config;
    config.num_nodes = 2;
    ClusterSim sim(config);
    SimFunction fn;
    fn.name = "f";
    fn.framework = FrameworkKind::kTvm;
    fn.arch = Architecture::kDsNet;
    fn.mode = mode;
    sim.AddFunction(fn);
    auto trace = workload::Poisson(2.0, 120, "m0", "u0", 11);
    for (const auto& a : trace) sim.Submit("f", a.model_id, a.user_id, a.time);
    sim.Run();
    return sim.metrics().AvgLatencySeconds();
  };
  double sesemi = run_mode(RuntimeMode::kSesemi);
  double iso = run_mode(RuntimeMode::kIsoReuse);
  double native = run_mode(RuntimeMode::kNative);
  EXPECT_LT(sesemi, iso);
  EXPECT_LT(iso, native);
}

TEST(ClusterSimTest, QueueingWhenClusterSaturated) {
  SimConfig config;
  config.num_nodes = 1;
  config.invoker_memory_bytes = 128ull << 20;  // room for exactly one container
  ClusterSim sim(config);
  sim.AddFunction(TvmMbnetFunction("f", RuntimeMode::kSesemi));
  sim.Submit("f", "m0", "u0", 0);
  sim.Submit("f", "m0", "u0", 1);  // must queue behind the first
  sim.Run();
  ASSERT_EQ(sim.metrics().records().size(), 2u);
  // Second request completes after the first (no second container possible).
  EXPECT_GT(sim.metrics().records()[1].complete, sim.metrics().records()[0].complete);
  EXPECT_EQ(sim.metrics().CountKind(InvocationKind::kCold), 1);
}

TEST(ClusterSimTest, Sgx1EpcPressureSlowsExecution) {
  // Figure 11b: on SGX1, many concurrent TVM enclaves exceed the 128 MB EPC
  // and execution slows down versus a single enclave.
  double solo, crowded;
  {
    SCOPED_TRACE("solo");
    solo = 0;
    SimConfig config;
    config.num_nodes = 1;
    config.cost_model = CostModel::PaperSgx1();
    ClusterSim sim(config);
    sim.AddFunction(TvmMbnetFunction("f", RuntimeMode::kSesemi));
    ASSERT_TRUE(sim.Prewarm("f", 1, "m0", "u0").ok());
    sim.Submit("f", "m0", "u0", SecondsToMicros(1));
    sim.Run();
    solo = sim.metrics().AvgLatencySeconds();
  }
  {
    SimConfig config;
    config.num_nodes = 1;
    config.cost_model = CostModel::PaperSgx1();
    ClusterSim sim(config);
    sim.AddFunction(TvmMbnetFunction("f", RuntimeMode::kSesemi));
    ASSERT_TRUE(sim.Prewarm("f", 8, "m0", "u0").ok());
    for (int i = 0; i < 8; ++i) sim.Submit("f", "m0", "u0", SecondsToMicros(1));
    sim.Run();
    crowded = sim.metrics().AvgLatencySeconds();
  }
  EXPECT_GT(crowded, solo * 1.5);
}

// The live platform's rules, as the sim must follow them (serverless/policy.h).

TEST(ClusterSimTest, FreshContainerIsColdEvenWithFreeLaunch) {
  // A calibrated model can make the launch cost 0; the first request on a
  // new enclave is still cold, as SemirtInstance classifies it.
  SimConfig config;
  config.num_nodes = 1;
  config.cost_model = CostModel::Calibrated({.execute_s = 0.001});
  ClusterSim sim(config);
  sim.AddFunction(TvmMbnetFunction("f", RuntimeMode::kSesemi));
  sim.Submit("f", "m0", "u0", SecondsToMicros(1));
  sim.Run();
  ASSERT_EQ(sim.metrics().records().size(), 1u);
  EXPECT_EQ(sim.metrics().records()[0].kind, InvocationKind::kCold);
}

TEST(ClusterSimTest, ArrivalsDuringLaunchJoinItUntilItsTokensAreClaimed) {
  // An arrival that finds no warm token claims a spare token of the
  // launching container and starts when the launch is ready; once all
  // num_tcs - 1 spares are claimed, the next arrival cold-starts its own.
  SimConfig config;
  config.num_nodes = 1;
  ClusterSim sim(config);
  sim.AddFunction(TvmMbnetFunction("f", RuntimeMode::kSesemi, /*tcs=*/4));
  for (int i = 0; i < 5; ++i) sim.Submit("f", "m0", "u0", 1000 * i);
  sim.Run();
  std::vector<RequestRecord> records = sim.metrics().records();
  ASSERT_EQ(records.size(), 5u);
  std::sort(records.begin(), records.end(),
            [](const RequestRecord& a, const RequestRecord& b) { return a.submit < b.submit; });
  const int expected_container[] = {0, 0, 0, 0, 1};
  const InvocationKind expected_kind[] = {InvocationKind::kCold, InvocationKind::kWarm,
                                          InvocationKind::kWarm, InvocationKind::kWarm,
                                          InvocationKind::kCold};
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].container, expected_container[i]) << "request " << i;
    EXPECT_EQ(records[i].kind, expected_kind[i]) << "request " << i;
  }
  // The joiners waited for the launch: they finish after the cold request's
  // launch, not a hot request's latency after arriving.
  EXPECT_GT(MicrosToSeconds(records[1].latency()), 1.0);
}

TEST(ClusterSimTest, LaunchStartsEveryQueuedRequestItsTokensServe) {
  // One node with room for one container. f's first three requests queue
  // while g's container holds the memory; after g's is reclaimed, a fourth
  // arrival cold-starts a 4-TCS container, and its launch must start all
  // three queued requests at once, not one per event.
  SimConfig config;
  config.num_nodes = 1;
  config.invoker_memory_bytes = 256ull << 20;
  config.keep_alive = SecondsToMicros(0.5);
  ClusterSim sim(config);
  SimFunction f = TvmMbnetFunction("f", RuntimeMode::kSesemi, /*tcs=*/4);
  f.container_memory_bytes = 256ull << 20;
  SimFunction g = TvmMbnetFunction("g", RuntimeMode::kSesemi);
  g.container_memory_bytes = 256ull << 20;
  sim.AddFunction(f);
  sim.AddFunction(g);
  ASSERT_TRUE(sim.Prewarm("g", 1, "m0", "u0").ok());
  sim.Submit("g", "m0", "u0", 0);
  for (int i = 0; i < 3; ++i) sim.Submit("f", "m0", "u0", SecondsToMicros(0.2));
  sim.Submit("f", "m0", "u0", SecondsToMicros(1));
  sim.Run();
  std::vector<RequestRecord> queued;
  for (const RequestRecord& record : sim.metrics().records()) {
    if (record.function == "f" && record.submit == SecondsToMicros(0.2)) {
      queued.push_back(record);
    }
  }
  ASSERT_EQ(queued.size(), 3u);
  for (const RequestRecord& record : queued) {
    EXPECT_EQ(record.container, 0);
    EXPECT_EQ(record.kind, InvocationKind::kWarm);
    // Same stages from the same start: they finish together.
    EXPECT_NEAR(MicrosToSeconds(record.complete), MicrosToSeconds(queued[0].complete),
                1e-3);
  }
}

TEST(ClusterSimTest, WarmChoiceIsLifoWithBoundedAffinityPeek) {
  // Containers prewarmed with m0..m3 in that order: m3's token is on top.
  auto serve = [](const std::string& model) {
    SimConfig config;
    config.num_nodes = 1;
    ClusterSim sim(config);
    sim.AddFunction(TvmMbnetFunction("f", RuntimeMode::kSesemi));
    for (const char* prewarmed : {"m0", "m1", "m2", "m3"}) {
      EXPECT_TRUE(sim.Prewarm("f", 1, prewarmed, "u0").ok());
    }
    sim.Submit("f", model, "u0", SecondsToMicros(1));
    sim.Run();
    EXPECT_EQ(sim.metrics().records().size(), 1u);
    return sim.metrics().records().front();
  };
  RequestRecord top = serve("m3");
  EXPECT_EQ(top.container, 3);
  EXPECT_EQ(top.kind, InvocationKind::kHot);
  // m1 is the second token below the top: inside the peek.
  RequestRecord peeked = serve("m1");
  EXPECT_EQ(peeked.container, 1);
  EXPECT_EQ(peeked.kind, InvocationKind::kHot);
  // m0 is beyond the peek: the request takes the top and switches models.
  RequestRecord beyond = serve("m0");
  EXPECT_EQ(beyond.container, 3);
  EXPECT_EQ(beyond.kind, InvocationKind::kWarm);
}

TEST(CostModelTest, CalibratedModelCarriesMeasuredStages) {
  // The differential harness builds this model from live StageTimings; every
  // (framework, arch) profile must carry the measured values verbatim, with
  // the paper's contention surcharges and paging pressure switched off.
  CalibrationProfile calibration;
  calibration.execute_s = 0.004;
  calibration.key_fetch_s = 0.02;
  calibration.model_load_s = 0.003;
  calibration.runtime_init_s = 0.001;
  CostModel model = CostModel::Calibrated(calibration);

  const ModelProfile& p = model.profile(FrameworkKind::kTflm, Architecture::kRsNet);
  EXPECT_DOUBLE_EQ(p.execute_s, 0.004);
  EXPECT_DOUBLE_EQ(p.key_fetch_s, 0.02);
  EXPECT_DOUBLE_EQ(p.model_load_s, 0.003);
  EXPECT_DOUBLE_EQ(p.runtime_init_s, 0.001);
  EXPECT_DOUBLE_EQ(p.paging_sensitivity, 0.0);
  EXPECT_DOUBLE_EQ(model.AttestationSeconds(16), 0.0);
  EXPECT_DOUBLE_EQ(model.SandboxInitSeconds(), 0.0);
  EXPECT_DOUBLE_EQ(model.PlatformOverheadSeconds(), 0.0);

  // End to end: a prewarmed single-node sim's hot latency is exactly the
  // calibrated execute time (no overhead terms left).
  SimConfig config;
  config.num_nodes = 1;
  config.cost_model = model;
  ClusterSim sim(config);
  sim.AddFunction(TvmMbnetFunction("f", RuntimeMode::kSesemi));
  ASSERT_TRUE(sim.Prewarm("f", 1, "m0", "u0").ok());
  sim.Submit("f", "m0", "u0", SecondsToMicros(1));
  sim.Run();
  ASSERT_EQ(sim.metrics().records().size(), 1u);
  EXPECT_EQ(sim.metrics().records()[0].kind, InvocationKind::kHot);
  EXPECT_NEAR(MicrosToSeconds(sim.metrics().records()[0].latency()), 0.004, 1e-4);
}

}  // namespace
}  // namespace sesemi::sim
