// Differential sim-vs-real validation: one seeded multi-tenant trace is
// replayed through the real cluster dataplane (cluster/) and through the
// discrete-event simulator (sim/cluster). Both make their placement,
// warm-choice, invocation-kind and keep-alive decisions through the same
// policy core (serverless/policy.h), so the test checks decisions, not
// latency:
//  - per-function completion counts match the trace exactly on both sides;
//  - each request's decision (function, container ordinal, cold/warm/hot)
//    is equal element by element, with the simulator driven by the
//    interleaving the real run recorded — the order of warm-token pops and
//    pushes that each function's freelist tag numbers
//    (tests/support/decision_replay.h). The node is reported but not
//    compared: the sim does not model the hash ring. The replay first
//    checks that the live log accounts for every freelist event, so a
//    request that retried, peeked or was stolen by another node shows as a
//    gap, not as a confusing decision mismatch.
//
// Nothing here depends on wall-clock timing, so the verdict is the same
// under `ctest -j` and the sanitizers. The throughput and mean-latency
// tolerance band (3x, docs/BENCHMARKS.md "Sim-parity tolerance band") is
// gated by bench_cluster in CI, not here: one wall-clock outlier in a
// ~50-request mean moves it.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "client/clients.h"
#include "cluster/cluster.h"
#include "cluster/replay.h"
#include "model/zoo.h"
#include "sim/cluster.h"
#include "sim/cost_model.h"
#include "tests/support/decision_replay.h"
#include "workload/generators.h"

namespace sesemi::cluster {
namespace {

using client::KeyServiceClient;
using client::ModelOwner;
using client::ModelUser;

constexpr uint64_t kTraceSeed = 0x7a17;
constexpr int kTenants = 3;
constexpr int kNodes = 2;

std::string TenantModel(int tenant) { return "t" + std::to_string(tenant); }
std::string TenantUser(int tenant) { return "u" + std::to_string(tenant); }
std::string TenantFunction(int tenant) { return "fn" + std::to_string(tenant); }

// The shared trace: Zipf-skewed per-tenant Poisson rates, ~20 rps for 2.5 s
// of trace time. Tenant tags ("t0".."t2") name the streams; the real binder
// and the sim mapper both translate tag ti -> function fni.
std::vector<workload::Arrival> SharedTrace(uint64_t seed) {
  std::vector<double> rates = workload::ZipfRates(kTenants, 1.0, 20.0);
  std::vector<workload::TenantSpec> tenants;
  for (int i = 0; i < kTenants; ++i) {
    workload::TenantSpec tenant;
    tenant.model_id = TenantModel(i);
    tenant.user_id = TenantUser(i);
    tenant.rps = rates[static_cast<size_t>(i)];
    tenants.push_back(tenant);
  }
  return workload::MultiTenantPoisson(tenants, /*duration_s=*/2.5, seed);
}

int TenantOf(const workload::Arrival& arrival) {
  return arrival.model_id.back() - '0';
}

std::map<std::string, size_t> TraceCounts(
    const std::vector<workload::Arrival>& trace) {
  std::map<std::string, size_t> counts;
  for (const workload::Arrival& arrival : trace) {
    counts[TenantFunction(TenantOf(arrival))]++;
  }
  return counts;
}

TEST(ClusterReplayTest, SeededTraceIsDeterministic) {
  std::vector<workload::Arrival> a = SharedTrace(kTraceSeed);
  std::vector<workload::Arrival> b = SharedTrace(kTraceSeed);
  ASSERT_FALSE(a.empty());
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].time, b[i].time);
    EXPECT_EQ(a[i].model_id, b[i].model_id);
    EXPECT_EQ(a[i].user_id, b[i].user_id);
  }
  std::vector<workload::Arrival> c = SharedTrace(kTraceSeed + 1);
  bool differs = c.size() != a.size();
  for (size_t i = 0; !differs && i < a.size(); ++i) differs = a[i].time != c[i].time;
  EXPECT_TRUE(differs);
}

TEST(ClusterReplayTest, SimReplayIsDeterministic) {
  std::vector<workload::Arrival> trace = SharedTrace(kTraceSeed);
  auto run_once = [&] {
    sim::SimConfig config;
    config.num_nodes = kNodes;
    sim::ClusterSim sim(config);
    for (int i = 0; i < kTenants; ++i) {
      sim::SimFunction fn;
      fn.name = TenantFunction(i);
      sim.AddFunction(fn);
    }
    return ReplayTraceOnSim(&sim, trace, [](const workload::Arrival& arrival) {
      return TenantFunction(TenantOf(arrival));
    });
  };
  SimReplayResult a = run_once();
  SimReplayResult b = run_once();
  EXPECT_EQ(a.submitted, trace.size());
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.completions, b.completions);
  // Virtual time is exact, not statistical: identical to the bit.
  EXPECT_EQ(a.mean_latency_s, b.mean_latency_s);
  EXPECT_EQ(a.p99_latency_s, b.p99_latency_s);
  EXPECT_EQ(a.makespan_s, b.makespan_s);
}

class ClusterSimParityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto server = keyservice::StartKeyService(&ks_platform_);
    ASSERT_TRUE(server.ok());
    keyservice_ = std::move(*server);
    auto ks_client = KeyServiceClient::Connect(
        keyservice_.get(), &authority_,
        keyservice::KeyServiceEnclave::ExpectedMeasurement());
    ASSERT_TRUE(ks_client.ok());
    client_ = std::move(*ks_client);

    owner_ = std::make_unique<ModelOwner>("owner");
    user_ = std::make_unique<ModelUser>("user");
    ASSERT_TRUE(owner_->Register(client_.get()).ok());
    ASSERT_TRUE(user_->Register(client_.get()).ok());

    model::ZooSpec spec;
    spec.model_id = "m0";
    spec.scale = 0.002;
    spec.input_hw = 16;
    auto graph = model::BuildModel(spec);
    ASSERT_TRUE(graph.ok());
    graph_ = *graph;
    ASSERT_TRUE(owner_->DeployModel(client_.get(), &storage_, *graph).ok());

    ClusterConfig config;
    config.initial_nodes = kNodes;
    cluster_ = std::make_unique<ClusterDataplane>(config, &authority_, &storage_,
                                                  keyservice_.get());

    for (int i = 0; i < kTenants; ++i) {
      serverless::FunctionSpec fn;
      fn.name = TenantFunction(i);
      ASSERT_TRUE(cluster_->DeployFunction(fn).ok());
    }
    sgx::Measurement es = semirt::SemirtInstance::MeasurementFor({});
    ASSERT_TRUE(owner_->GrantAccess(client_.get(), "m0", es, user_->id()).ok());
    ASSERT_TRUE(user_->ProvisionRequestKey(client_.get(), "m0", es).ok());
  }

  Result<BoundArrival> Bind(const workload::Arrival& arrival) {
    BoundArrival bound;
    bound.function = TenantFunction(TenantOf(arrival));
    Bytes input = model::GenerateRandomInput(graph_, 1);
    SESEMI_ASSIGN_OR_RETURN(bound.request, user_->BuildRequest("m0", input));
    return bound;
  }

  sgx::AttestationAuthority authority_;
  sgx::SgxPlatform ks_platform_{sgx::SgxGeneration::kSgx2, &authority_};
  std::unique_ptr<keyservice::KeyServiceServer> keyservice_;
  std::unique_ptr<KeyServiceClient> client_;
  std::unique_ptr<ModelOwner> owner_;
  std::unique_ptr<ModelUser> user_;
  storage::InMemoryObjectStore storage_;
  model::ModelGraph graph_;
  std::unique_ptr<ClusterDataplane> cluster_;
};

TEST_F(ClusterSimParityTest, RealAndSimAgreeOnSeededTrace) {
  const std::vector<workload::Arrival> trace = SharedTrace(kTraceSeed);
  const std::map<std::string, size_t> expected = TraceCounts(trace);

  // Warm-up (not counted): one invocation per function puts a container at
  // each function's home node, mirroring the sim prewarm below.
  for (int i = 0; i < kTenants; ++i) {
    Result<BoundArrival> bound = Bind(trace.front());
    ASSERT_TRUE(bound.ok());
    serverless::InvocationResult out =
        cluster_->InvokeAsync(TenantFunction(i), std::move(bound->request)).get();
    ASSERT_TRUE(out.response.ok()) << out.response.status().ToString();
  }

  // --- Real dataplane replay, paced in trace time. ---
  ReplayResult real = ReplayTrace(
      cluster_.get(), trace,
      [this](const workload::Arrival& arrival, size_t) { return Bind(arrival); });

  ASSERT_EQ(real.submitted, trace.size());
  ASSERT_EQ(real.ok, trace.size()) << "replay errors: " << real.errors.size();
  // Exact per-function completion parity with the trace itself.
  EXPECT_EQ(real.completions, expected);
  ASSERT_GT(real.mean_hot_total_s, 0.0);

  auto function_of = [](const workload::Arrival& arrival) {
    return TenantFunction(TenantOf(arrival));
  };
  auto prewarmed_sim = [](const sim::SimConfig& config) {
    auto sim = std::make_unique<sim::ClusterSim>(config);
    for (int i = 0; i < kTenants; ++i) {
      sim::SimFunction fn;
      fn.name = TenantFunction(i);
      sim->AddFunction(fn);
      EXPECT_TRUE(sim->Prewarm(fn.name, 1, TenantModel(i), TenantUser(i)).ok());
    }
    return sim;
  };
  sim::SimConfig sim_config;
  sim_config.num_nodes = kNodes;

  // --- The simulator's decisions, in the order the real run recorded. ---
  harness::DecisionReplay decided = harness::ReplayDecisionsOnSim(
      prewarmed_sim(sim_config).get(), trace, function_of, real);
  ASSERT_EQ(decided.gap, "");
  ASSERT_EQ(decided.acquired, trace.size());
  ASSERT_EQ(decided.released, trace.size());
  EXPECT_EQ(decided.completions, real.completions);
  EXPECT_EQ(decided.cold_starts, real.cold_starts);
  for (size_t i = 0; i < trace.size(); ++i) {
    const serverless::policy::Decision& r = real.decisions[i];
    const serverless::policy::Decision& d = decided.decisions[i];
    EXPECT_TRUE(harness::SameDecision(d, r))
        << "request " << i << ": sim " << d.function << " container " << d.container
        << " " << semirt::ToString(d.kind) << ", real " << r.function << " container "
        << r.container << " " << semirt::ToString(r.kind);
  }

  // --- The same trace through the calibrated simulator in virtual time:
  // every arrival completes, per function. ---
  sim::CalibrationProfile calibration;
  calibration.execute_s = real.mean_hot_total_s;
  calibration.key_fetch_s = real.mean_cold_key_fetch_s;
  calibration.model_load_s = real.mean_cold_model_load_s;
  calibration.runtime_init_s = real.mean_cold_runtime_init_s;
  sim_config.cost_model = sim::CostModel::Calibrated(calibration);
  SimReplayResult simulated =
      ReplayTraceOnSim(prewarmed_sim(sim_config).get(), trace, function_of);
  ASSERT_EQ(simulated.submitted, trace.size());
  ASSERT_EQ(simulated.completed, trace.size());
  EXPECT_EQ(simulated.completions, real.completions);
}

}  // namespace
}  // namespace sesemi::cluster
